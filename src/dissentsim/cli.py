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
import copy
import json
import math
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    cascade_equilibria,
    first_movers,
    render_svg,
    share_space_thresholds,
    zero_support_soft_terms,
)
from .engine import (
    Environment,
    apply_events,
    effective_params,
    init_state,
    perceived_probability,
    run,
    sample_population,
)
from .errors import (
    ConvergenceError,
    GenerationError,
    InvalidParameterError,
    NotFoundError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .model import Position, PrivateType, threshold_nj_over_u, threshold_r_over_nj
from .scenario import SEED_LIMIT, parse_scenario, write_csv

_PATH_SEGMENT = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")
_INDEX = re.compile(r"\[(\d+)\]")

THRESHOLDS_HEADER = "id,x,threshold_R_over_NJ,threshold_NJ_over_U,p0"


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _fmt_ext(value: float) -> str:
    """Fixed 6-decimal format with literal inf/-inf for unbounded thresholds."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6f}"


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
        if not 0 <= args.seed < SEED_LIMIT:
            raise InvalidParameterError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
        scenario = replace(scenario, seed=args.seed)
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
        lines.append(
            f"{i},{rebel if x_rebel else loyal},{_fmt_ext(r)},{_fmt_ext(nj)},{p:.6f}"
        )
    Path(args.out).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"thresholds for {len(p0)} agents csv={args.out}")
    return 0


def cmd_equilibrium(args) -> int:
    scenario = parse_scenario(_read_text(args.scenario))
    thresholds = share_space_thresholds(
        sample_population(scenario), _env0(scenario), scenario.integrity
    )
    report = cascade_equilibria(thresholds, lambda s: s)
    n = len(thresholds)
    eq = " ".join(f"{e:.6f}" for e in report.equilibria)
    tipping = "none" if report.tipping_seed is None else f"{report.tipping_seed}/{n}"
    print(
        f"equilibria=[{eq}] tipping_seed={tipping} "
        f"thresholds: n={n} min={_fmt_ext(min(thresholds))} max={_fmt_ext(max(thresholds))}"
    )
    return 0


def _parse_sweep_spec(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"sweep spec is not valid JSON: {exc.msg}", exc.lineno, exc.colno)
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["sweep spec must be a JSON object"])
    unknown = set(doc) - {"path", "values", "grid", "seeds"}
    if unknown:
        problems.append(f"sweep spec has unknown keys: {sorted(unknown)}")

    param_path = doc.get("path")
    if not isinstance(param_path, str) or not param_path:
        problems.append("sweep spec needs 'path': a dot path into the scenario document")

    has_values = "values" in doc
    has_grid = "grid" in doc
    values: list[float] = []
    if has_values == has_grid:
        problems.append("sweep spec needs exactly one of 'values' or 'grid'")
    elif has_values:
        raw = doc["values"]
        if (
            not isinstance(raw, list)
            or not raw
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
            or any(not math.isfinite(v) for v in raw)
        ):
            problems.append("'values' must be a non-empty list of finite numbers")
        else:
            values = [float(v) for v in raw]
    else:
        grid = doc["grid"]
        ok = isinstance(grid, dict) and set(grid) == {"lo", "hi", "count"}
        if ok:
            lo, hi, count = grid["lo"], grid["hi"], grid["count"]
            ok = (
                not isinstance(lo, bool) and isinstance(lo, (int, float)) and math.isfinite(lo)
                and not isinstance(hi, bool) and isinstance(hi, (int, float)) and math.isfinite(hi)
                and not isinstance(count, bool) and isinstance(count, int) and count >= 1
                and lo <= hi
            )
        if not ok:
            problems.append("'grid' must be {lo, hi, count} with finite lo <= hi and integer count >= 1")
        else:
            values = [float(v) for v in np.linspace(grid["lo"], grid["hi"], grid["count"])]

    seeds = None
    if "seeds" in doc:
        raw = doc["seeds"]
        if (
            not isinstance(raw, list)
            or not raw
            or any(isinstance(s, bool) or not isinstance(s, int) for s in raw)
            or any(not 0 <= s < SEED_LIMIT for s in raw)
        ):
            problems.append("'seeds' must be a non-empty list of 64-bit unsigned integers")
        else:
            seeds = [int(s) for s in raw]

    if problems:
        raise ScenarioValidationError(problems)
    return param_path, values, seeds


def _set_by_path(doc, path: str, value: float) -> None:
    """Assign into a raw scenario document at a dot path like events[3].deltas.dC.

    The target must already exist and hold a number; anything else is a
    validation error so typos never create new keys silently.  A target that
    holds an integer gets integral values as integers, so integer fields
    (``network.k``, ``horizon``, a group's ``count``) can be swept; a
    non-integral value is written as given, and parsing rejects it for an
    integer field.
    """
    node = doc
    tokens: list[tuple[str, object]] = []
    for segment in path.split("."):
        m = _PATH_SEGMENT.match(segment)
        if m is None:
            raise ScenarioValidationError([f"sweep path segment {segment!r} is malformed"])
        tokens.append(("key", m.group(1)))
        for idx in _INDEX.findall(m.group(2)):
            tokens.append(("index", int(idx)))

    def descend(container, token):
        kind, key = token
        if kind == "key":
            if not isinstance(container, dict) or key not in container:
                raise ScenarioValidationError([f"sweep path {path!r} does not exist in the scenario"])
            return container[key]
        if not isinstance(container, list) or not 0 <= key < len(container):
            raise ScenarioValidationError([f"sweep path {path!r} does not exist in the scenario"])
        return container[key]

    for token in tokens[:-1]:
        node = descend(node, token)
    current = descend(node, tokens[-1])
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ScenarioValidationError([f"sweep path {path!r} does not point at a number"])
    if isinstance(current, int) and value.is_integer():
        value = int(value)
    kind, key = tokens[-1]
    node[key] = value


def _sanitize_for_filename(path: str) -> str:
    return path.replace("[", "_").replace("]", "_").replace(".", "_")


def cmd_sweep(args) -> int:
    param_path, values, seeds = _parse_sweep_spec(_read_text(args.spec))
    base_doc = json.loads(_read_text(args.scenario))
    # Surface scenario problems once, before any per-value work.
    parse_scenario(json.dumps(base_doc))

    run_seeds = seeds if seeds is not None else [int(base_doc.get("seed", 0))]
    stem = _sanitize_for_filename(param_path)
    cells = [(v, seed, f"{stem}={v:g}_seed={seed}.csv") for v in values for seed in run_seeds]
    # Values that print alike under %g, or repeated seeds, would overwrite each other's CSV.
    repeats = Counter(name for _, _, name in cells)
    clashes = [f"{k} sweep cells would all write {name}" for name, k in repeats.items() if k > 1]
    if clashes:
        raise ScenarioValidationError(clashes)

    # Every cell is checked before the first one runs, so a bad value writes nothing.
    scenarios = []
    for value, seed, _ in cells:
        doc = copy.deepcopy(base_doc)
        _set_by_path(doc, param_path, value)
        doc["seed"] = seed
        scenarios.append(parse_scenario(json.dumps(doc)))

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
