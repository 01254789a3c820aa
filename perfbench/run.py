"""dissentsim benchmark: the real CLI, timed in fresh processes on generated workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload donbass --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all        # every workload, untraced then traced
  python3 perfbench/run.py --smoke ...           # tiny sizes: checks the harness itself
  python3 perfbench/run.py --record [--smoke]    # re-record the output digests

``--seed`` selects one of VARIANTS input variants (``seed % VARIANTS``); the
workload's scenario and sweep-spec files are generated from the workload name
and that variant, and the program receives only those files.  Every
invocation's stdout and output files are compared with the sha256 digests in
digests.json, recorded for every variant; a mismatch, a nonzero exit or a
timeout counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics from untraced invocations,
scaled to a reference speed of the host (see CALIBRATION).  ``--trace 1``
alternates untraced rounds with rounds under trace_cli.py, and reports
per-layer self times and counts plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("donbass", "dense", "sweep", "scale")
VARIANTS = 10
SETUP_REPEATS = 3  # one setup probe after each round, and at least this many per run
RUN_LIMIT_S = 170.0  # an invocation still running this long after the run began is killed and fails

# Exit rule for the workloads with exits: about a third of the dense
# population leaves, so the exit path and the shrinking audiences both run.
EXIT = {"threshold": 0.0, "patience": 10}

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import dissentsim
from pathlib import Path
scenario = dissentsim.parse_scenario(Path(sys.argv[1]).read_text(encoding="utf-8"))
dissentsim.init_state(scenario)
print(repr(time.perf_counter() - t0))
"""

# The host's speed drifts: for minutes at a time every process runs up to
# 1.5x slower, more than the bound on any timing.  So after each round a
# fixed program that does not use dissentsim is run repeatedly for
# CALIBRATION_S, and the round's times are scaled by CALIBRATION_REF_S / (the
# median time of those runs).  The program mixes the two kinds of work
# dissentsim does: loops over Python objects, and numpy bincount passes over
# 10^4 nodes and 10^5 edges.
CALIBRATION = """
import numpy as np

class Agent:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

agents = [Agent(i * 0.001, (i % 7) * 0.1, (i % 13) * 0.01) for i in range(20000)]
seen, total = {}, 0.0
for _ in range(20):
    for agent in agents:
        x = agent.a * agent.b - agent.c
        if x > 0.5:
            total += x
        seen[agent] = x

rng = np.random.default_rng(0)
n, m = 10_000, 100_000
src, dst, w = rng.integers(0, n, m), rng.integers(0, n, m), rng.random(m)
y = rng.integers(0, 3, n)
for _ in range(150):
    counts = np.bincount(src * 3 + y[dst], weights=w, minlength=3 * n)
    y = (counts.reshape(n, 3).argmax(axis=1) + rng.integers(0, 2, n)) % 3
print(total, int(y.sum()))
"""
CALIBRATION_S = 1.5  # calibration time after each round
# Per-round calibration medians ranged over 0.43-0.77 s on the host the
# benchmark was written on; 0.5 s keeps scaled times close to measured ones.
CALIBRATION_REF_S = 0.5

# Per-layer metrics reported in the JSON line: (name, unit).  Times of
# functions that some workload never calls (influence scores, the analysis
# functions) would read 0 there, so the JSON carries their call counts and
# the report lines carry their times.
PER_LAYER = (
    ("scenario.generate_population.s", "s"),
    ("scenario.generate_population.calls", "count"),
    ("scenario.parse_scenario.s", "s"),
    ("scenario.write_csv.s", "s"),
    ("scenario.write_csv.bytes", "B"),
    ("network.generate_network.s", "s"),
    ("network.generate_network.calls", "count"),
    ("network.edges", "count"),
    ("network.influence_scores.calls", "count"),
    ("engine.init_state.calls", "count"),
    ("engine.init_state.calls_per_invocation", "count"),
    ("engine.run.s", "s"),
    ("engine.step.s", "s"),
    ("engine.step.first_s", "s"),
    ("engine.step.p50_ms", "ms"),
    ("engine.step.p99_ms", "ms"),
    ("engine.step.calls", "count"),
    ("engine.apply_events.s", "s"),
    ("engine.agent_steps", "count"),
    ("engine.flip_frac", "ratio"),
    ("model.payoff.s", "s"),
    ("model.payoff.calls", "count"),
    ("model.choose_positions.s", "s"),
    ("model.choose_positions.calls", "count"),
    ("model.decide.calls", "count"),
    ("model.threshold.calls", "count"),
    ("analysis.first_movers.calls", "count"),
    ("analysis.share_space_thresholds.calls", "count"),
    ("analysis.cascade_equilibria.calls", "count"),
    ("analysis.render_svg.calls", "count"),
    ("cli.main.self_s", "s"),
    ("layer.import.s", "s"),
    ("layer.scenario.s", "s"),
    ("layer.network.s", "s"),
    ("layer.engine.s", "s"),
    ("layer.model.s", "s"),
    ("layer.cli.s", "s"),
    ("unattributed.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
REPORT_ONLY = (
    ("network.influence_scores.s", "s"),
    ("analysis.first_movers.s", "s"),
    ("analysis.share_space_thresholds.s", "s"),
    ("analysis.cascade_equilibria.s", "s"),
    ("analysis.render_svg.s", "s"),
    ("layer.analysis.s", "s"),
)
LAYERS = ("import", "scenario", "network", "engine", "model", "analysis", "cli")
EXACT_UNITS = ("count", "B", "ratio")  # must repeat exactly between traced rounds
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "agent_steps_per_s")


@dataclass
class Invocation:
    label: str
    args: list
    outputs: list  # files or directories, relative to the work dir, whose bytes are pinned
    scenarios: int  # scenario instances it needs one init_state for (a sweep: one per run)
    simulates: bool


@dataclass
class Workload:
    n_agents: int
    files: dict  # file name -> JSON document
    main_scenario: str
    invocations: list


def _scale_population(doc, n):
    groups = doc["population"]["groups"]
    total = sum(g["count"] for g in groups)
    for g in groups:
        g["count"] = g["count"] * n // total


def _set_horizon(doc, horizon):
    doc["horizon"] = horizon
    doc["events"] = [e for e in doc["events"] if e["step"] < horizon]


def build_workload(name, variant, smoke, baseline):
    """Scenario files and invocations of one workload, from its name and variant.

    Every workload starts from the committed baseline's population and event
    timeline.  donbass is the baseline itself (10^4 agents, the paper's arc)
    through every analysing subcommand.  dense is a complete graph: O(n^2)
    edges dominate.  sweep is a long iterative_influence horizon: the
    per-step hot path dominates.  scale is 10^5 agents for a few steps:
    population sampling and network generation dominate.
    """
    doc = copy.deepcopy(baseline)
    doc["seed"] = baseline["seed"] + variant
    if name == "donbass":
        if smoke:
            _scale_population(doc, 200)
        files = {"donbass.json": doc}
        invocations = [
            Invocation("run", ["run", "donbass.json", "--out", "run.csv", "--svg", "run.svg"],
                       ["run.csv", "run.svg"], 1, True),
            Invocation("thresholds", ["thresholds", "donbass.json", "--out", "thresholds.csv"],
                       ["thresholds.csv"], 1, False),
            Invocation("equilibrium", ["equilibrium", "donbass.json"], [], 1, False),
            Invocation("validate", ["validate", "donbass.json"], [], 0, False),
        ]
    elif name == "dense":
        _scale_population(doc, 60 if smoke else 1000)
        doc["network"] = {"kind": "complete"}
        doc["reputation"] = {"variant": "unweighted_fraction", "alpha": 0.5, "centered": True}
        doc["exit"] = EXIT
        files = {"dense.json": doc}
        invocations = [Invocation("run", ["run", "dense.json", "--out", "run.csv"], ["run.csv"], 1, True)]
    elif name in ("sweep", "scale"):
        if name == "sweep":
            _scale_population(doc, 200 if smoke else 10_000)
            _set_horizon(doc, 50 if smoke else 500)
            doc["reputation"] = {"variant": "iterative_influence", "alpha": 0.5, "centered": True}
            doc["exit"] = EXIT
            seeds = [doc["seed"], doc["seed"] + VARIANTS]
        else:
            _scale_population(doc, 300 if smoke else 100_000)
            _set_horizon(doc, 5 if smoke else 20)
            seeds = [doc["seed"]]
        spec = {"path": "reputation.alpha", "values": [0.5], "seeds": seeds}
        files = {f"{name}.json": doc, "spec.json": spec}
        invocations = [Invocation("sweep", ["sweep", f"{name}.json", "spec.json", "--out", "sweep_out"],
                                  ["sweep_out"], len(seeds), True)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    n_agents = sum(g["count"] for g in doc["population"]["groups"])
    return Workload(n_agents, files, next(iter(files)), invocations)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


@dataclass
class Spawned:
    wall_s: float
    rss_mb: float
    code: int | None  # None: killed at the deadline
    stdout: bytes


class Runner:
    """Runs the program in fresh processes, one at a time, and counts failures."""

    def __init__(self, root: Path, workdir: Path, expected: dict | None):
        self.workdir = workdir
        self.expected = expected  # label -> digests; None while recording
        self.recorded = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        pythonpath = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def spawn(self, argv, counted=True) -> Spawned:
        self.attempted += counted
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            ready = []
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - t0))
            finally:
                if not ready:  # past the deadline, or interrupted: never leave the child running
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                # wait4, not Popen.wait, so the child's own peak RSS comes back with it.
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        code = proc.returncode if ready else None
        return Spawned(wall, usage.ru_maxrss / 1024.0, code, out_path.read_bytes())

    def digests(self, stdout: bytes, outputs) -> dict:
        found = {"stdout": _sha256(stdout)}
        for rel in outputs:
            path = self.workdir / rel
            files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
            for f in files:
                found[f.relative_to(self.workdir).as_posix()] = _sha256(f.read_bytes())
        return found

    def invoke(self, inv: Invocation, trace_out: str | None = None) -> Spawned | None:
        """One CLI invocation; its outputs are checked against the recorded digests."""
        for rel in inv.outputs:
            path = self.workdir / rel
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        if trace_out is None:
            argv = [sys.executable, "-m", "dissentsim", *inv.args]
        else:
            argv = [sys.executable, str(HERE / "trace_cli.py"), trace_out, *inv.args]
        result = self.spawn(argv)
        if result.code != 0:
            reason = "timed out" if result.code is None else f"exited {result.code}"
            self.fail(f"{inv.label}: {reason}: {(self.workdir / 'stderr.txt').read_text()[-300:]}")
            return None
        try:
            found = self.digests(result.stdout, inv.outputs)
        except OSError as exc:
            self.fail(f"{inv.label}: output missing: {exc}")
            return None
        if self.expected is None:
            self.recorded[inv.label] = found
        elif found != self.expected.get(inv.label):
            self.fail(f"{inv.label}: output digests differ from the recorded ones")
            return None
        return result

    def validate(self, workload: Workload) -> bool:
        """`dissentsim validate` on every generated scenario before any timing."""
        ok = True
        for name in workload.files:
            if name == "spec.json":  # a sweep spec is checked by the sweep itself
                continue
            result = self.spawn([sys.executable, "-m", "dissentsim", "validate", name])
            if result.code != 0 or result.stdout != b"OK\n":
                self.fail(f"validate {name}: {result.stdout!r} exit {result.code}")
                ok = False
        return ok

    def setup_probe(self, workload: Workload, times: list) -> None:
        """One fresh process that imports dissentsim and builds the initial state."""
        result = self.spawn([sys.executable, "-c", SETUP_PROBE, workload.main_scenario])
        if result.code != 0:
            self.fail(f"setup probe exited {result.code}")
        else:
            times.append(float(result.stdout))

    def calibrate(self) -> list:
        """Times of runs of the fixed calibration program for CALIBRATION_S (at least one).

        They are no invocations of dissentsim, so they do not count as attempted.
        """
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < CALIBRATION_S:
            result = self.spawn([sys.executable, "-c", CALIBRATION], counted=False)
            if result.code != 0:
                self.fail(f"calibration exited {result.code}")
                break
            times.append(result.wall_s)
        return times

    def round(self, workload: Workload, traced: bool):
        """Every invocation of the workload once; None if any failed."""
        results = []
        for i, inv in enumerate(workload.invocations):
            trace_out = f"trace-{i}.json" if traced else None
            result = self.invoke(inv, trace_out)
            if result is None:
                return None
            spans = json.loads((self.workdir / trace_out).read_text()) if traced else None
            results.append((inv, result, spans))
        return results

    def rounds(self, workload: Workload, traced: bool, seconds: float, between=None):
        """Rounds until the next one would end after ``seconds`` (at least one).

        ``between`` runs after each round, inside the window, so that samples
        of both kinds are spread over the same stretch of time.
        """
        done = []
        start = time.perf_counter()
        last = 0.0
        while not done or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            results = self.round(workload, traced)
            if results is None:
                break
            done.append(results)
            if between is not None:
                between()
            if self.failed:
                break
            last = time.perf_counter() - t0
        return done


def agent_steps_from_csv(workdir: Path, workload: Workload) -> int:
    """Active agent-steps of the simulating invocations, read back from their CSVs.

    A step simulates every agent that had not exited before it; the CSV row of
    step t carries the exited count after it.
    """
    total = 0
    for inv in workload.invocations:
        for rel in inv.outputs if inv.simulates else []:
            path = workdir / rel
            for csv in sorted(path.glob("*.csv")) if path.is_dir() else [path]:
                if csv.suffix != ".csv" or csv.name == "summary.csv":
                    continue
                exited = 0
                for line in csv.read_text().splitlines()[1:]:
                    total += workload.n_agents - exited
                    exited = int(line.split(",")[4])
    return total


def end_to_end(runner: Runner, workload: Workload, seconds: float, report: list):
    if not runner.validate(workload):
        return None
    setup, calibration = [], []  # one setup probe and one list of calibration times per round

    def probes():
        runner.setup_probe(workload, setup)
        calibration.append(runner.calibrate())

    done = runner.rounds(workload, False, seconds, probes)
    while len(setup) < SETUP_REPEATS and not runner.failed:
        runner.setup_probe(workload, setup)
    if not done or runner.failed:
        return None
    # Each round's times are scaled by the calibration taken right after it
    # (see CALIBRATION); setup probes made after the last round use its scale.
    scale = [CALIBRATION_REF_S / statistics.median(times) for times in calibration]
    setup_scaled = [t * scale[min(k, len(scale) - 1)] for k, t in enumerate(setup)]
    measured = {inv.label: [r.wall_s for rnd in done for i, r, _ in rnd if i is inv]
                for inv in workload.invocations}
    scaled = {inv.label: [r.wall_s * f for rnd, f in zip(done, scale) for i, r, _ in rnd if i is inv]
              for inv in workload.invocations}
    # A workload's wall time is the sum of its invocations' median times.
    per_inv = {label: statistics.median(times) for label, times in scaled.items()}
    sim_wall = sum(per_inv[inv.label] for inv in workload.invocations if inv.simulates)
    steps = agent_steps_from_csv(runner.workdir, workload)
    metrics = {
        "wall_s": (sum(per_inv.values()), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (max(r.rss_mb for rnd in done for _, r, _ in rnd), "MB"),
        "agent_steps_per_s": (steps / sim_wall, "1/s"),
    }
    report.append(f"rounds: {len(done)} (samples per timing; too few for a percentile with 10 beyond it)")
    report.append("calibration median per round: " + " ".join(
        f"{statistics.median(times):.4f} ({len(times)})" for times in calibration))
    report.append(f"times as measured; each round's metrics are scaled by {' '.join(f'{f:.4f}' for f in scale)}")
    report.append(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    report.append(f"engine.agent_steps: {steps} (from the output CSVs)")
    for inv in workload.invocations:
        per = measured[inv.label]
        rss = max(r.rss_mb for rnd in done for i, r, _ in rnd if i is inv)
        report.append(f"{inv.label}_s: median {statistics.median(per):.4f} s of "
                      f"{' '.join(f'{w:.4f}' for w in per)}; scaled median {per_inv[inv.label]:.4f} s; "
                      f"peak RSS {rss:.1f} MB")
    return metrics


def _layer_metrics(rnd, workload: Workload) -> dict:
    """Per-layer numbers of one traced round (all its invocations together)."""
    self_s, calls, counts = {}, {}, {"agent_steps": 0, "flips": 0, "edges": 0, "csv_bytes": 0}
    step_s, first_s, root_s, wall = [], 0.0, 0.0, 0.0
    for _, result, spans in rnd:
        for name, value in spans["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in spans["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in spans["counts"].items():
            counts[name] = max(counts[name], value) if name == "edges" else counts[name] + value
        step_s += spans["step_s"]
        first_s += sum(spans["first_step_s"])
        root_s += spans["root_s"]
        wall += result.wall_s
    m = {}
    for name, _ in PER_LAYER + REPORT_ONLY:  # "<span>.s" is self time, "<span>.calls" a count
        span, _, field = name.rpartition(".")
        if field == "s":
            m[name] = self_s.get(span, 0.0)
        elif field == "calls":
            m[name] = calls.get(span, 0)
    m["scenario.write_csv.bytes"] = counts["csv_bytes"]
    m["network.edges"] = counts["edges"]
    m["engine.init_state.calls_per_invocation"] = calls.get("engine.init_state", 0) / sum(
        inv.scenarios for inv in workload.invocations)
    m["engine.step.first_s"] = first_s
    m["engine.step.p50_ms"] = _nearest_rank(step_s, 50) * 1e3 if step_s else 0.0
    m["engine.step.p99_ms"] = _nearest_rank(step_s, 99) * 1e3 if step_s else 0.0
    m["engine.agent_steps"] = counts["agent_steps"]
    m["engine.flip_frac"] = counts["flips"] / counts["agent_steps"] if counts["agent_steps"] else 0.0
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    m["unattributed.s"] = wall - root_s
    m["trace.wall_s"] = wall
    return m


def per_layer(runner: Runner, workload: Workload, seconds: float, report: list):
    if not runner.validate(workload):
        return None
    untraced_walls = []

    def untraced_round():
        results = runner.round(workload, False)
        if results is not None:
            untraced_walls.append(sum(r.wall_s for _, r, _ in results))

    # Untraced rounds alternate with the traced ones, so the overhead compares
    # the two over the same stretch of time.
    done = runner.rounds(workload, True, seconds, untraced_round)
    if not done or runner.failed:
        return None
    if not all(spans["nested"] and abs(spans["self_sum_s"] - spans["root_s"]) < 1e-6
               for rnd in done for _, _, spans in rnd):
        runner.fail("trace spans do not nest, or their self times do not sum to their extent")
        return None
    rounds = [_layer_metrics(rnd, workload) for rnd in done]
    steps = agent_steps_from_csv(runner.workdir, workload)
    if rounds[0]["engine.agent_steps"] != steps:
        runner.fail(f"traced agent-steps {rounds[0]['engine.agent_steps']} != {steps} from the CSVs")
        return None
    metrics = {}
    for name, unit in PER_LAYER + REPORT_ONLY:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in rounds]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                runner.fail(f"count {name} differs between traced rounds: {values}")
                return None
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    wall = metrics["trace.wall_s"][0]
    report.append(f"traced rounds: {len(done)}; untraced wall {untraced_wall:.4f} s (median of {len(untraced_walls)}); "
                  f"spans nest and self times sum to each invocation's span extent")
    shares = ", ".join(f"{layer} {metrics[f'layer.{layer}.s'][0] / wall:.1%}" for layer in LAYERS)
    report.append(f"layer shares of traced wall: {shares}, "
                  f"unattributed {metrics['unattributed.s'][0] / wall:.1%}")
    return metrics


def machine_info(root: Path) -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    import numpy

    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} commit={commit}")


def _baseline(root: Path) -> dict:
    return json.loads((root / "scenarios" / "donbass.json").read_text(encoding="utf-8"))


@contextlib.contextmanager
def _workdir(root: Path, workload: Workload):
    """A fresh work dir holding the workload's generated inputs; removed afterwards."""
    workdir = root / ".bench_build" / "perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for fname, doc in workload.files.items():
            (workdir / fname).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run: returns the result object and prints the report lines."""
    variant = seed % VARIANTS
    workload = build_workload(name, variant, smoke, _baseline(root))
    expected = json.loads(DIGESTS.read_text())["smoke" if smoke else "full"][name][str(variant)]
    report = [f"workload {name} (variant {variant} of seed {seed}, {workload.n_agents} agents"
              f"{', smoke size' if smoke else ''}), trace {int(trace)}"]
    with _workdir(root, workload) as workdir:
        runner = Runner(root, workdir, expected)
        metrics = (per_layer if trace else end_to_end)(runner, workload, seconds, report)
    report.append(f"attempted {runner.attempted}, failed {runner.failed}, "
                  f"failed_frac {runner.failed / max(1, runner.attempted):.4f}")
    report.extend(f"FAILED: {p}" for p in runner.problems)
    correct = metrics is not None and runner.failed == 0
    for metric, (value, unit) in (metrics or {}).items():
        report.append(f"  {metric:<42} {value:>16.6f} {unit}")
    keep = {n for n, _ in PER_LAYER} if trace else set(END_TO_END)
    print("\n".join(report), flush=True)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items() if k in keep}
        if correct else {},
    }


def record(root: Path, smoke: bool) -> int:
    """Run each workload variant once and store its output digests."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    size = table.setdefault("smoke" if smoke else "full", {})
    for name in WORKLOADS:
        for variant in range(VARIANTS):
            workload = build_workload(name, variant, smoke, _baseline(root))
            with _workdir(root, workload) as workdir:
                runner = Runner(root, workdir, None)
                if runner.round(workload, False) is None:
                    print(f"{name} variant {variant}: {runner.problems}", file=sys.stderr)
                    return 1
            size.setdefault(name, {})[str(variant)] = runner.recorded
            print(f"recorded {name} variant {variant}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to check the harness")
    parser.add_argument("--record", action="store_true", help="re-record the output digests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/dissentsim/__init__.py", "scenarios/donbass.json") if not (root / p).is_file()]
    if missing:
        print(f"not a dissentsim checkout (missing {', '.join(missing)}); run from its root",
              file=sys.stderr)
        return 2
    if args.record:
        return record(root, args.smoke)
    print(machine_info(root), flush=True)
    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                ok &= measure(root, name, args.seed, args.seconds, trace, args.smoke)["correct"]
        return 0 if ok else 1
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
