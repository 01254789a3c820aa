"""Command-line interface.

Subcommands:
  run          simulate a scenario file -> CSV (optional SVG), print a summary
  thresholds   per-agent decision thresholds at zero public support -> CSV
  equilibrium  cascade fixed points and tipping seed for a scenario
  sweep        rerun a scenario over a parameter grid and replicate seeds
  validate     check a scenario file and report violations

Exit codes: 0 on success, 1 on any input/validation problem, 2 when an
iterative computation fails to converge.  Diagnostics go to stderr; each
command prints a single summary line to stdout.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from importlib import import_module
from pathlib import Path

from .errors import (
    ConvergenceError,
    GenerationError,
    InvalidParameterError,
    NotFoundError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .scenario import (
    Environment,
    Position,
    PrivateType,
    parse_scenario,
    parse_sweep_spec,
    sweep_document,
    write_csv,
)

#: The numpy-backed names the commands call, by module.  :func:`_bind_kernels` imports
#: them once a command has parsed its scenario, so ``validate`` imports no numpy.
_KERNELS = {
    "analysis": ("cascade_equilibria", "first_movers", "render_svg", "share_space_thresholds",
                 "zero_support_soft_terms"),
    "engine": ("apply_events", "effective_params", "init_state", "perceived_probability", "run",
               "sample_population"),
    "model": ("threshold_nj_over_u", "threshold_r_over_nj"),
}


def _bind_kernels() -> None:
    """Fill each :data:`_KERNELS` name this module lacks into its globals.  A name already
    set is kept, so one replaced from outside (``setattr(cli, name, ...)``) stays."""
    for module, names in _KERNELS.items():
        kernel = import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(kernel, name))


def __getattr__(name: str):
    """The :data:`_KERNELS` names as attributes of this module, bound on first use."""
    if not any(name in names for names in _KERNELS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_kernels()
    return globals()[name]


THRESHOLDS_HEADER = "id,x,threshold_R_over_NJ,threshold_NJ_over_U,p0"


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _final_shares(records):
    if records:
        last = records[-1]
        return last.share_R, last.share_U, last.share_NJ, last.n_exited
    return 0.0, 0.0, 1.0, 0


def _env0(scenario) -> Environment:
    """The environment the t=0 decisions see: the baseline plus step-0 events."""
    return apply_events(Environment(beta_share=scenario.beta_share), scenario.events, 0)


def cmd_run(args) -> int:
    scenario = parse_scenario(_read_text(args.scenario))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)  # Scenario checks the seed
    _bind_kernels()
    state = init_state(scenario)
    records = run(scenario, state)
    with open(args.out, "wb") as sink:
        if args.seed is not None:
            sink.write(f"# seed={args.seed}\n".encode("utf-8"))
        write_csv(records, sink)
    if args.svg is not None:
        Path(args.svg).write_text(render_svg(records), encoding="utf-8")
    movers = first_movers(state.params, _env0(scenario), scenario.integrity)
    r, u, nj, exited = _final_shares(records)
    print(
        f"share_R={r:.6f} share_U={u:.6f} share_NJ={nj:.6f} "
        f"n_exited={exited} first_movers={len(movers)} csv={args.out}"
    )
    return 0


def cmd_thresholds(args) -> int:
    scenario = parse_scenario(_read_text(args.scenario))
    _bind_kernels()
    pa = sample_population(scenario)
    env0 = _env0(scenario)
    eff = effective_params(pa, env0)
    soft = zero_support_soft_terms(scenario.integrity, pa.x_rebel)
    thr_r = threshold_r_over_nj(eff, soft[Position.R], soft[Position.NJ])
    thr_nj = threshold_nj_over_u(eff, soft[Position.NJ], soft[Position.U])
    p0 = perceived_probability(pa, 0.0, env0)
    rebel, loyal = PrivateType.PRO_REBELLION.value, PrivateType.PRO_STATUS_QUO.value
    lines = [THRESHOLDS_HEADER]
    rows = zip(pa.x_rebel.tolist(), thr_r.tolist(), thr_nj.tolist(), p0.tolist())
    for i, (x_rebel, r, nj, p) in enumerate(rows):
        lines.append(f"{i},{rebel if x_rebel else loyal},{r:.6f},{nj:.6f},{p:.6f}")
    Path(args.out).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"thresholds for {len(p0)} agents csv={args.out}")
    return 0


def cmd_equilibrium(args) -> int:
    scenario = parse_scenario(_read_text(args.scenario))
    _bind_kernels()
    thresholds = share_space_thresholds(
        sample_population(scenario), _env0(scenario), scenario.integrity
    )
    report = cascade_equilibria(thresholds, lambda s: s)
    n = len(thresholds)
    eq = " ".join(f"{e:.6f}" for e in report.equilibria)
    tipping = "none" if report.tipping_seed is None else f"{report.tipping_seed}/{n}"
    print(
        f"equilibria=[{eq}] tipping_seed={tipping} "
        f"thresholds: n={n} min={thresholds.min():.6f} max={thresholds.max():.6f}"
    )
    return 0


def _sanitize_for_filename(path: str) -> str:
    return path.replace("[", "_").replace("]", "_").replace(".", "_")


def cmd_sweep(args) -> int:
    param_path, values, seeds = parse_sweep_spec(_read_text(args.spec))
    text = _read_text(args.scenario)
    # Surface scenario problems once, before any per-value work.
    base = parse_scenario(text)

    seeds = seeds if seeds is not None else [base.seed]
    stem = _sanitize_for_filename(param_path)
    cells = [(v, seed, f"{stem}={v:g}_seed={seed}.csv") for v in values for seed in seeds]
    # Values that print alike under %g, or repeated seeds, would overwrite each other's CSV.
    repeats = Counter(name for _, _, name in cells)
    clashes = [f"{k} sweep cells would all write {name}" for name, k in repeats.items() if k > 1]
    if clashes:
        raise ScenarioValidationError(clashes)

    # Every cell is checked before the first one runs, so a bad value writes nothing.
    scenarios = [parse_scenario(sweep_document(text, param_path, value, seed))
                 for value, seed, _ in cells]

    _bind_kernels()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = ["param,value,seed,share_R,share_U,share_NJ"]
    for (value, seed, name), scenario in zip(cells, scenarios):
        records = run(scenario)
        with open(out_dir / name, "wb") as sink:
            write_csv(records, sink)
        r, u, nj, _ = _final_shares(records)
        summary_rows.append(f"{param_path},{value:g},{seed},{r:.6f},{u:.6f},{nj:.6f}")
    (out_dir / "summary.csv").write_bytes(("\n".join(summary_rows) + "\n").encode("utf-8"))
    print(f"sweep complete: {len(cells)} runs dir={out_dir}")
    return 0


def cmd_validate(args) -> int:
    parse_scenario(_read_text(args.scenario))
    print("OK")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissentsim",
        description="Agent-based simulator of public position choice under social pressure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write per-step CSV")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--svg", default=None, help="optional SVG chart path")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_thr = sub.add_parser("thresholds", help="per-agent zero-support thresholds as CSV")
    p_thr.add_argument("scenario", help="scenario JSON file")
    p_thr.add_argument("--out", required=True, help="output CSV path")
    p_thr.set_defaults(func=cmd_thresholds)

    p_eq = sub.add_parser("equilibrium", help="cascade fixed points and tipping seed")
    p_eq.add_argument("scenario", help="scenario JSON file")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_sweep = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("spec", help="sweep spec JSON file: {path, values|grid, seeds}")
    p_sweep.add_argument("--out", required=True, help="directory for per-run CSVs and summary.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return 1
    except (ScenarioParseError, GenerationError, InvalidParameterError, NotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
