"""Cascade analysis and reporting: first movers, fixed points, tipping, SVG plots.

The cascade abstraction strips the simulation down to one number per agent —
the perceived-win-probability threshold above which they would rebel — and
iterates the aggregate best-response map ``s -> fraction of thresholds
strictly below p_of_share(s)``.  Strict inequality is deliberate: an agent
exactly at their threshold does not move, so knife-edge populations stall
instead of cascading.  Every zero-support analysis reads its t=0 inputs from
one pass, :func:`_zero_support`.
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
    integrity_rows,
    perceived_probability,
)
from .errors import InvalidParameterError
from .model import AgentParams, Position, SoftTerms, decide, threshold_r_over_nj
from .scenario import _finite

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
        s_next = int(np.searchsorted(sorted_thr, p_of_share(trajectory[-1]), side="left")) / n
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

    ``p_of_share`` is called once on each lattice share k/n, in ascending order, and one
    ``searchsorted`` counts the movers at all of them.  A fixed point is a k whose count
    is k.  The tipping seed is read off the same counts: the first k above the
    second-largest fixed point whose count is at least k, or else the largest fixed point.
    """
    sorted_thr = _clean_thresholds(thresholds)
    n = len(sorted_thr)

    p = np.array([p_of_share(k / n) for k in range(n + 1)], dtype=np.float64)
    gap = np.searchsorted(sorted_thr, p, side="left") - np.arange(n + 1)  # movers at k/n, less k
    fixed = np.flatnonzero(gap == 0).tolist()
    if not fixed:
        return CascadeReport(tuple(sorted_thr), (), None)
    # A monotone map climbs from k to the nearest fixed point above it when gap[k] > 0 and
    # falls to the nearest below when gap[k] < 0.  Between fixed points gap drops by at
    # most 1 a step, so it never passes from above 0 to below 0: the shares that climb to
    # the largest fixed point form a suffix of those above the second largest, and the
    # largest, where gap is 0, ends it.
    lo = fixed[-2] + 1 if len(fixed) > 1 else 0
    tipping_seed = lo + int(np.argmax(gap[lo:] >= 0))
    return CascadeReport(tuple(sorted_thr), tuple(k / n for k in fixed), tipping_seed)


def zero_support_soft_terms(
    integrity: IntegritySpec, x
) -> dict[Position, SoftTerms]:
    """Soft terms for an agent deciding before any public signal exists.

    No stance has an audience yet, so every reputation term is zero;
    integrity is the step's own :func:`integrity_rows` at a zero falsification
    streak.  ``x`` is one agent's PrivateType, whose integrity terms are numpy
    scalars, or a population's boolean ``x_rebel`` array, whose terms are arrays.
    """
    rows = integrity_rows(integrity, x, np.zeros(np.shape(x), dtype=np.int64))
    return {pos: SoftTerms(rep=0.0, integ=row[()]) for pos, row in zip(Position, rows)}


def _zero_support(agents: Sequence[AgentParams] | ParamArrays, env0: Environment,
                  integrity: IntegritySpec):
    """The t=0 inputs of every zero-support analysis, in one pass: the population as arrays,
    its effective factors and its perceived probability at share 0 under ``env0``, and the
    :func:`zero_support_soft_terms`, bit for bit the step-0 decision's but for reputation."""
    pa = agents if isinstance(agents, ParamArrays) else ParamArrays.from_params(agents)
    return (pa, effective_params(pa, env0), perceived_probability(pa, 0.0, env0),
            zero_support_soft_terms(integrity, pa.x_rebel))


def first_movers(
    agents: Sequence[AgentParams] | ParamArrays,
    env0: Environment,
    integrity: IntegritySpec,
) -> list[int]:
    """Ids of agents who rebel with zero public support.

    Each agent decides at previous rebel share 0 under the t=0 environment,
    zero reputation terms, and a fresh integrity state.  These are the
    cascade's sparks: agents whose own stakes and tastes already favor
    rebelling before anyone else has moved.
    """
    _, eff, p0, soft = _zero_support(agents, env0, integrity)
    return np.flatnonzero(decide(eff, p0, soft, previous=Position.NJ) == Position.R).tolist()


def rebellion_thresholds_zero_support(
    agents: Sequence[AgentParams] | ParamArrays,
    env0: Environment,
    integrity: IntegritySpec,
) -> np.ndarray:
    """Per-agent rebel-over-abstain probability thresholds at zero public support, in id order."""
    _, eff, _, soft = _zero_support(agents, env0, integrity)
    return threshold_r_over_nj(eff, soft[Position.R], soft[Position.NJ])


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
    pa, eff, p0, soft = _zero_support(agents, env0, integrity)
    thr = threshold_r_over_nj(eff, soft[Position.R], soft[Position.NJ])
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
        if not (_finite(self.width) and _finite(self.height)) or min(self.width, self.height) < 100:
            raise InvalidParameterError("SVG canvas must be finite and at least 100x100")
        if self.title is not None and not isinstance(self.title, str):
            raise InvalidParameterError(
                f"SVG title must be a string or None, got {type(self.title).__name__}"
            )


#: (StepRecord field, legend label, color) of each plotted series.  The shares use
#: the left axis; ``n_exited`` is scaled to the largest count on the right axis, dashed.
_SERIES = (
    ("share_R", "rebel", "#c0392b"),
    ("share_U", "support", "#2471a3"),
    ("share_NJ", "abstain", "#7f8c8d"),
    ("n_exited", "exited", "#8e44ad"),
)
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _element(name: str, body: str | None = None, **attrs) -> str:
    """One SVG element, its attributes in the order given with ``_`` written as ``-``.

    A string value is written as it is and any other value (a computed coordinate)
    with 2 decimals.  With a ``body``, escaped, the element has an open and a close
    tag; without one it closes itself.
    """
    written = " ".join(
        f'{key.replace("_", "-")}="{value if isinstance(value, str) else format(value, ".2f")}"'
        for key, value in attrs.items()
    )
    if body is None:
        return f"<{name} {written}/>"
    return f"<{name} {written}>{body.translate(_ESCAPES)}</{name}>"


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

    def y_of(v: float) -> float:
        return top + (1.0 - v) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">',
        _element("rect", width=f"{opts.width}", height=f"{opts.height}", fill="#ffffff"),
    ]
    if opts.title:
        parts.append(_element("text", opts.title, x=opts.width / 2, y="20", text_anchor="middle",
                              font_family="sans-serif", font_size="14"))

    # Frame and horizontal grid lines with share labels.
    parts.append(_element("rect", x=left, y=top, width=plot_w, height=plot_h, fill="none",
                          stroke="#333333", stroke_width="1"))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(frac)
        parts += (
            _element("line", x1=left, y1=y, x2=left + plot_w, y2=y, stroke="#dddddd",
                     stroke_width="0.5"),
            _element("text", f"{frac:.2f}", x=left - 6, y=y + 3, text_anchor="end",
                     font_family="sans-serif", font_size="9"),
            _element("text", f"{frac * exit_max:.0f}", x=left + plot_w + 6, y=y + 3,
                     text_anchor="start", font_family="sans-serif", font_size="9"),
        )

    # Time ticks: first, mid, last.
    for t in sorted({t_min, (t_min + t_max) // 2, t_max}):
        parts.append(_element("text", f"t={t}", x=x_of(t), y=top + plot_h + 14,
                              text_anchor="middle", font_family="sans-serif", font_size="9"))

    # Event markers.
    for r in records:
        if not r.events:
            continue
        x = x_of(r.t)
        parts += (
            _element("line", x1=x, y1=top, x2=x, y2=top + plot_h, stroke="#b8860b",
                     stroke_width="0.8", stroke_dasharray="3,3"),
            _element("text", ";".join(r.events), x=x + 3, y=top + 10, font_family="sans-serif",
                     font_size="8", fill="#b8860b",
                     transform=f"rotate(90 {x + 3:.2f} {top + 10:.2f})"),
        )

    # Each series is a polyline, or a dot when there is one record.
    for attr, _, color in _SERIES:
        scale, dash = (exit_max, {"stroke_dasharray": "4,3"}) if attr == "n_exited" else (1, {})
        points = [(x_of(r.t), y_of(getattr(r, attr) / scale)) for r in records]
        if len(points) == 1:
            parts.append(_element("circle", cx=points[0][0], cy=points[0][1], r="3", fill=color))
        else:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
            parts.append(_element("polyline", points=coords, fill="none", stroke=color,
                                  stroke_width="1.5", **dash))

    # Legend.
    for idx, (_, label, color) in enumerate(_SERIES):
        lx = left + 8 + idx * 90
        ly = top + plot_h + 30
        parts += (
            _element("rect", x=lx, y=ly - 8, width="10", height="10", fill=color),
            _element("text", label, x=lx + 14, y=ly, font_family="sans-serif", font_size="10"),
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
