"""Cascade analysis and reporting: first movers, fixed points, tipping, SVG plots.

The cascade abstraction strips the simulation down to one number per agent —
the perceived-win-probability threshold above which they would rebel — and
iterates the aggregate best-response map ``s -> fraction of thresholds
strictly below p_of_share(s)``.  Strict inequality is deliberate: an agent
exactly at their threshold does not move, so knife-edge populations stall
instead of cascading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import (
    Environment,
    IntegritySpec,
    ParamArrays,
    StepRecord,
    effective_params,
    falsification_penalty,
    integrity_by_stance,
    perceived_probability,
)
from .errors import InvalidParameterError
from .model import AgentParams, Position, SoftTerms, decide, threshold_r_over_nj

#: Iteration safety margin; a monotone map on the (n+1)-point lattice must fix
#: within n+1 productive updates.
_TRAJECTORY_SLACK = 2


@dataclass(frozen=True)
class CascadeReport:
    """Cascade structure of a threshold population.

    ``sorted_thresholds`` — the input thresholds, ascending (extended reals).
    ``equilibria``        — every share e on the lattice {0, 1/n, ..., 1} with
                            exactly n*e thresholds strictly below p_of_share(e).
    ``tipping_seed``      — minimal number of forced initial movers whose share
                            iterates to the largest equilibrium; None only for
                            maps with no equilibrium (non-monotone inputs).
    """

    sorted_thresholds: tuple[float, ...]
    equilibria: tuple[float, ...]
    tipping_seed: int | None


def _movers(sorted_thr: np.ndarray, p: float) -> int:
    """How many thresholds lie strictly below p."""
    return int(np.searchsorted(sorted_thr, p, side="left"))


def cascade_trajectory(
    thresholds: Sequence[float],
    p_of_share: Callable[[float], float],
    s0: float = 0.0,
) -> list[float]:
    """Iterate s <- count(threshold < p_of_share(s))/n from ``s0`` to a fixed point.

    Returns the visited shares starting with ``s0``; the last entry maps to
    itself.  ``p_of_share`` must be monotone non-decreasing, which bounds the
    trajectory by n+1 productive updates.
    """
    sorted_thr = _clean_thresholds(thresholds)
    n = len(sorted_thr)
    if not 0.0 <= s0 <= 1.0:
        raise InvalidParameterError(f"s0 must lie in [0, 1], got {s0!r}")
    trajectory = [float(s0)]
    for _ in range(n + 1 + _TRAJECTORY_SLACK):
        s_next = _movers(sorted_thr, p_of_share(trajectory[-1])) / n
        if s_next == trajectory[-1]:
            return trajectory
        trajectory.append(s_next)
    raise InvalidParameterError(
        "share iteration did not reach a fixed point; p_of_share must be "
        "monotone non-decreasing"
    )


def _clean_thresholds(thresholds: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(thresholds), dtype=np.float64)
    if arr.size == 0:
        raise InvalidParameterError("cascade analysis needs at least one threshold")
    if np.isnan(arr).any():
        raise InvalidParameterError("thresholds must not contain NaN")
    return np.sort(arr)


def cascade_equilibria(
    thresholds: Sequence[float], p_of_share: Callable[[float], float]
) -> CascadeReport:
    """Full cascade report: every lattice fixed point plus the tipping seed.

    Fixed points are verified by definition — count(threshold < p_of_share(e))
    equals n*e exactly.  The tipping seed is the minimal k such that iterating
    the share map from k/n converges to the largest equilibrium; because the
    map is monotone the reachable limit is monotone in k, so the scan is a
    binary search over k.
    """
    sorted_thr = _clean_thresholds(thresholds)
    n = len(sorted_thr)

    equilibria = tuple(
        k / n for k in range(n + 1) if _movers(sorted_thr, p_of_share(k / n)) == k
    )
    if not equilibria:
        return CascadeReport(tuple(sorted_thr), (), None)
    largest = equilibria[-1]

    def reaches_largest(k: int) -> bool:
        return cascade_trajectory(sorted_thr, p_of_share, k / n)[-1] == largest

    lo, hi = 0, n  # reaches_largest(n) always holds: from 1.0 the map descends to the largest fixed point
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches_largest(mid):
            hi = mid
        else:
            lo = mid + 1
    return CascadeReport(tuple(sorted_thr), equilibria, lo)


def zero_support_soft_terms(
    integrity: IntegritySpec, x
) -> dict[Position, SoftTerms]:
    """Soft terms for an agent deciding before any public signal exists.

    No stance has an audience yet, so every reputation term is zero;
    integrity is evaluated at a zero falsification streak.  ``x`` is one
    agent's PrivateType or a population's boolean ``x_rebel`` array, in which
    case the integrity terms are arrays.
    """
    integ = integrity_by_stance(integrity, x, falsification_penalty(integrity, 0))
    return {pos: SoftTerms(rep=0.0, integ=integ[pos]) for pos in Position}


def _arrays(agents: Sequence[AgentParams] | ParamArrays) -> ParamArrays:
    return agents if isinstance(agents, ParamArrays) else ParamArrays.from_params(agents)


def first_movers(
    agents: Sequence[AgentParams] | ParamArrays,
    env0: Environment,
    integrity: IntegritySpec,
) -> list[int]:
    """Ids of agents who rebel with zero public support.

    Each agent decides at previous rebel share 0 under the t=0 environment,
    zero reputation terms, and a fresh integrity state.  These are the
    cascade's sparks: agents whose own stakes and tastes already favor
    rebelling before anyone else has moved.  One elementwise pass over the
    population.
    """
    pa = _arrays(agents)
    codes = decide(
        effective_params(pa, env0),
        perceived_probability(pa, 0.0, env0),
        zero_support_soft_terms(integrity, pa.x_rebel),
        previous=Position.NJ,
    )
    return np.flatnonzero(codes == Position.R).tolist()


def rebellion_thresholds_zero_support(
    agents: Sequence[AgentParams] | ParamArrays,
    env0: Environment,
    integrity: IntegritySpec,
) -> np.ndarray:
    """Per-agent rebel-over-abstain probability thresholds at zero public support, in id order."""
    pa = _arrays(agents)
    soft = zero_support_soft_terms(integrity, pa.x_rebel)
    return threshold_r_over_nj(effective_params(pa, env0), soft[Position.R], soft[Position.NJ])


def share_space_thresholds(
    agents: Sequence[AgentParams] | ParamArrays,
    env0: Environment,
    integrity: IntegritySpec,
) -> np.ndarray:
    """Rebellion thresholds re-expressed in previous-rebel-share space, in id order.

    Inverts p(s) = clamp(p_base + beta_share*s + dp) around each agent's
    probability threshold so the cascade iteration can run on the identity
    share->p map: an agent moves exactly when the current share strictly
    exceeds the returned value.  An agent already past the threshold with
    zero support gets -inf; one whose threshold is at least 1 (perceived
    probability is capped at 1, never strictly above) or who cannot be moved
    because share feedback is off (``beta_share == 0``) gets +inf.
    """
    pa = _arrays(agents)
    thr = rebellion_thresholds_zero_support(pa, env0, integrity)
    p0 = perceived_probability(pa, 0.0, env0)
    if env0.beta_share == 0.0:
        reachable = np.full(thr.shape, np.inf)
    else:
        with np.errstate(over="ignore"):  # a tiny beta_share overflows to inf: unreachable
            reachable = (thr - (pa.p_base + env0.dp)) / env0.beta_share
    return np.where(p0 > thr, -np.inf, np.where(thr >= 1.0, np.inf, reachable))


def falsification_series(records: Sequence[StepRecord]) -> list[tuple[int, int]]:
    """(t, falsifying-count) pairs from a run's records."""
    return [(r.t, r.n_falsifying) for r in records]


@dataclass(frozen=True)
class RenderOptions:
    width: int = 800
    height: int = 480
    title: str | None = None

    def __post_init__(self):
        if self.width < 100 or self.height < 100:
            raise InvalidParameterError("SVG canvas must be at least 100x100")


_SERIES = (
    ("share_R", "rebel", "#c0392b"),
    ("share_U", "support", "#2471a3"),
    ("share_NJ", "abstain", "#7f8c8d"),
)
_EXIT_COLOR = "#8e44ad"


def render_svg(records: Sequence[StepRecord], options: RenderOptions | None = None) -> str:
    """Standalone SVG 1.1 chart of a run: stance shares, exits, event markers.

    Left axis: shares in [0, 1] with one polyline per stance.  Right axis:
    cumulative exited count (dashed).  Steps with events get a vertical
    marker line labeled with the event names.  Output is a deterministic
    function of (records, options); no external assets are referenced.
    """
    if not records:
        raise InvalidParameterError("render_svg needs at least one record")
    opts = options if options is not None else RenderOptions()

    left, right, top, bottom = 56.0, 56.0, 34.0, 42.0
    plot_w = opts.width - left - right
    plot_h = opts.height - top - bottom
    t_min, t_max = records[0].t, records[-1].t
    t_span = max(1, t_max - t_min)
    exit_max = max(1, max(r.n_exited for r in records))

    def x_of(t: float) -> float:
        return left + (t - t_min) / t_span * plot_w

    def y_of_share(v: float) -> float:
        return top + (1.0 - v) * plot_h

    def y_of_exit(v: float) -> float:
        return top + (1.0 - v / exit_max) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    )
    parts.append(f'<rect width="{opts.width}" height="{opts.height}" fill="#ffffff"/>')
    if opts.title:
        parts.append(
            f'<text x="{opts.width / 2:.2f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(opts.title)}</text>'
        )

    # Frame and horizontal grid lines with share labels.
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of_share(frac)
        parts.append(
            f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{left + plot_w:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="9">{frac:.2f}</text>'
        )
        parts.append(
            f'<text x="{left + plot_w + 6:.2f}" y="{y + 3:.2f}" text-anchor="start" '
            f'font-family="sans-serif" font-size="9">{frac * exit_max:.0f}</text>'
        )

    # Time ticks: first, mid, last.
    for t in sorted({t_min, (t_min + t_max) // 2, t_max}):
        x = x_of(t)
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 14:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">t={t}</text>'
        )

    # Event markers.
    for r in records:
        if not r.events:
            continue
        x = x_of(r.t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{top + plot_h:.2f}" '
            f'stroke="#b8860b" stroke-width="0.8" stroke-dasharray="3,3"/>'
        )
        parts.append(
            f'<text x="{x + 3:.2f}" y="{top + 10:.2f}" font-family="sans-serif" '
            f'font-size="8" fill="#b8860b" '
            f'transform="rotate(90 {x + 3:.2f} {top + 10:.2f})">{_escape(";".join(r.events))}</text>'
        )

    # Share series (and exited counts on the right axis).
    for attr, label, color in _SERIES:
        points = [(x_of(r.t), y_of_share(getattr(r, attr))) for r in records]
        parts.append(_series_element(points, color, dashed=False))
    exit_points = [(x_of(r.t), y_of_exit(r.n_exited)) for r in records]
    parts.append(_series_element(exit_points, _EXIT_COLOR, dashed=True))

    # Legend.
    legend = list(_SERIES) + [("n_exited", "exited", _EXIT_COLOR)]
    for idx, (_, label, color) in enumerate(legend):
        lx = left + 8 + idx * 90
        ly = top + plot_h + 30
        parts.append(
            f'<rect x="{lx:.2f}" y="{ly - 8:.2f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 14:.2f}" y="{ly:.2f}" font-family="sans-serif" '
            f'font-size="10">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _series_element(points: list[tuple[float, float]], color: str, dashed: bool) -> str:
    dash = ' stroke-dasharray="4,3"' if dashed else ""
    if len(points) == 1:
        x, y = points[0]
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash}/>'
    )


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
