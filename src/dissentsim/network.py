"""Social network, neighbor-reputation terms, and deterministic graph generators.

Reputation is what an agent earns *from the people they observe* for showing
a stance: the weighted fraction of out-neighbors currently showing the same
stance, optionally centered at 1/2 (so conforming with a majority pays and
deviating costs) and scaled by a weight ``alpha``.  A third variant weights
each neighbor by a global influence score computed with a damped random-surfer
iteration over the whole graph, so applause from influential people counts
for more.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, NotFoundError
from .model import Position

#: Default damping factor for the influence iteration.
DEFAULT_DAMPING = 0.85
#: Default L1 convergence tolerance for the influence iteration.
DEFAULT_TOL = 1e-12
#: Default iteration cap for the influence iteration.
DEFAULT_MAX_ITERS = 200

#: Most directed edges a scenario's network may have (see :func:`edge_count`).  An edge
#: takes 24 bytes stored and about as much again while built: 5e7 edges need ~2.4 GB.
EDGE_BUDGET = 50_000_000

#: Most agents a scenario may have.  A run holds about 330 bytes per agent at its peak
#: (measured with no edges: 68 MB at 10^5 agents, 362 MB at 10^6), so 10^7 need ~3.3 GB.
AGENT_BUDGET = 10_000_000

#: Most uniforms a scenario's network generator may draw (see :func:`draw_count`).
#: ``erdos_renyi`` draws one per ordered pair whatever ``p_edge`` is, at 3-4 ns each:
#: 1e11 draws (n of about 3.2e5) take 5-7 minutes, and 10^6 agents about an hour.
DRAW_BUDGET = 100_000_000_000

#: Numeric stance values used by the sentiment index: R=+1, U=-1, NJ=0.
SENTIMENT_VALUE = {Position.R: 1.0, Position.U: -1.0, Position.NJ: 0.0}


class ReputationVariant(enum.Enum):
    UNWEIGHTED_FRACTION = "unweighted_fraction"
    WEIGHTED_FRACTION = "weighted_fraction"
    ITERATIVE_INFLUENCE = "iterative_influence"


class NetworkKind(enum.Enum):
    COMPLETE = "complete"
    ERDOS_RENYI = "erdos_renyi"
    SMALL_WORLD = "small_world"


@dataclass(frozen=True, eq=False)
class SocialNetwork:
    """Directed weighted graph over agents 0..n-1, stored as CSR arrays.

    An edge i->j means "i observes j".  ``edges`` is a list of (source,
    target, weight) triples or an (m, 3) array: integral ids in [0, n), no
    self-loops, finite weights >= 0.  They are stored stably sorted by source
    as ``src``, ``dst`` and ``w``; agent i's are ``row_ptr[i]:row_ptr[i + 1]``.
    The ``edges`` tuples and ``out_edges`` are views built on request.
    Instances are immutable (the arrays are read-only copies), so views and
    influence scores are cached.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    row_ptr: np.ndarray

    def __init__(self, n: int, edges):
        if not np.isfinite(n) or n != np.floor(n):
            raise InvalidParameterError(f"a network's size must be an integer, got n={n!r}")
        n = int(n)
        if n < 1:
            raise InvalidParameterError(f"a network needs at least one agent, got n={n!r}")
        triples = np.asarray(edges, dtype=np.float64)
        if triples.size and (triples.ndim != 2 or triples.shape[1] != 3):
            raise InvalidParameterError(f"edges need 3 columns (src, dst, w), got {triples.shape}")
        triples = triples.reshape(-1, 3)
        ids, w = triples[:, :2], triples[:, 2]
        for bad, problem in (
            ((ids != np.floor(ids)).any(axis=1), "has a non-integral agent id"),
            (((ids < 0) | (ids >= n)).any(axis=1), "references an unknown agent id"),
            (ids[:, 0] == ids[:, 1], "is a self-loop, which is not allowed"),
            (~np.isfinite(w) | (w < 0.0), "weight must be finite and >= 0"),
        ):
            if bad.any():  # name the first offending edge
                s, t = ids[np.argmax(bad)].tolist()
                raise InvalidParameterError(f"edge ({s:g}, {t:g}) {problem}")
        order = np.argsort(ids[:, 0], kind="stable")
        src = ids[order, 0].astype(np.int64)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", ids[order, 1].astype(np.int64))
        object.__setattr__(self, "w", w[order])
        object.__setattr__(self, "row_ptr", np.searchsorted(src, np.arange(n + 1)))
        for name in ("src", "dst", "w", "row_ptr"):  # the caches below rely on it
            getattr(self, name).setflags(write=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(source, target, weight) triples in ``src`` order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @cached_property
    def _influence_memo(self) -> dict:
        return {}

    def _row(self, agent: int) -> slice:
        """The slice of ``src``/``dst``/``w`` holding ``agent``'s out-edges."""
        if not 0 <= agent < self.n:
            raise NotFoundError(f"agent {agent} not in network of size {self.n}")
        return slice(self.row_ptr[agent], self.row_ptr[agent + 1])

    def out_edges(self, agent: int) -> list[tuple[int, float]]:
        """(target, weight) pairs observed by ``agent``."""
        row = self._row(agent)
        return list(zip(self.dst[row].tolist(), self.w[row].tolist()))


@dataclass(frozen=True)
class ReputationSpec:
    """How reputation terms are computed.

    ``alpha`` scales the whole term; ``centered`` subtracts 1/2 from the
    conforming fraction before scaling, making minority stances cost
    reputation instead of merely earning less.  The iterative variant also
    needs solver controls (damping, tol, max_iters); they default sensibly
    and are ignored by the fraction variants.
    """

    variant: ReputationVariant
    alpha: float
    centered: bool = True
    damping: float = DEFAULT_DAMPING
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not isinstance(self.variant, ReputationVariant):
            raise InvalidParameterError(f"unknown reputation variant {self.variant!r}")
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not 0.0 < self.damping < 1.0:
            raise InvalidParameterError(f"damping must lie in (0, 1), got {self.damping!r}")
        if not np.isfinite(self.tol) or self.tol <= 0.0:
            raise InvalidParameterError(f"tol must be > 0, got {self.tol!r}")
        if self.max_iters < 1:
            raise InvalidParameterError(f"max_iters must be >= 1, got {self.max_iters!r}")


def observed_weights(spec: ReputationSpec, w, dst, hidden, scores=None) -> np.ndarray:
    """Per-edge weight of the target in its observer's eyes: 1 (unweighted), the edge
    weight (weighted) or the edge weight times the target's influence score
    (iterative); 0 where the target is ``hidden`` (exited)."""
    if spec.variant is ReputationVariant.UNWEIGHTED_FRACTION:
        w = np.ones_like(w)
    elif spec.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        w = w * scores[dst]
    return np.where(hidden, 0.0, w)


def reputation_terms(spec: ReputationSpec, row, weight, stance, n: int) -> np.ndarray:
    """Reputation for showing each stance: one row per observer 0..n-1, column = Position code.

    ``row``, ``weight`` and ``stance`` are per edge: the observer, the
    :func:`observed_weights` entry and the target's shown Position code.  A
    term is ``alpha`` times the (centered) weighted fraction of the observer's
    neighbors showing that stance; 0 when the observer's total weight is 0.
    """
    denom = np.bincount(row, weights=weight, minlength=n)
    # One keyed pass sums each observer's weight per stance.
    num = np.bincount(row * 3 + stance, weights=weight, minlength=3 * n).reshape(n, 3)
    has_obs = (denom > 0.0)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(has_obs, num / np.where(has_obs, denom[:, None], 1.0), 0.0)
    rep = spec.alpha * (frac - 0.5) if spec.centered else spec.alpha * frac
    return np.where(has_obs, rep, 0.0)


def _reputation(agent, position, network, publics, spec, scores=None) -> float:
    """One agent's :func:`reputation_terms`, over its own CSR row alone."""
    row = network._row(agent)
    targets = network.dst[row]
    ids = targets.tolist()
    hidden = np.array([j not in publics for j in ids], dtype=bool)  # exited: absent from publics
    stance = np.array([publics.get(j, 0) for j in ids], dtype=np.int64)
    weight = observed_weights(spec, network.w[row], targets, hidden, scores)
    return float(reputation_terms(spec, np.zeros_like(targets), weight, stance, 1)[0, position])


def reputation_fraction(
    agent: int,
    position: Position,
    network: SocialNetwork,
    publics: Mapping[int, Position],
    spec: ReputationSpec,
) -> float:
    """Reputation earned for showing ``position``, fraction variants only.

    Unweighted treats every observed neighbor equally; weighted uses edge
    weights.  Returns 0 when the agent observes nobody (or only exited
    agents, or zero total weight).
    """
    if spec.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        raise InvalidParameterError(
            "reputation_fraction handles only the fraction variants; "
            "use reputation_iterative for iterative_influence"
        )
    return _reputation(agent, position, network, publics, spec)


def influence_scores(
    network: SocialNetwork,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """Global influence score per agent via a damped random-surfer iteration.

    Follows out-edges with probability ``damping`` (weight-proportionally),
    teleports uniformly otherwise; agents with no out-edges redistribute
    their mass uniformly over everyone.  Iterates until the L1 change drops
    below ``tol``; raises ConvergenceError (carrying the last iterate and its
    residual) if ``max_iters`` is exhausted.  Scores are >= 0 and sum to 1.

    Results are memoized on the network instance per (damping, tol, max_iters);
    safe for concurrent reads once built.
    """
    if not 0.0 < damping < 1.0:
        raise InvalidParameterError(f"damping must lie in (0, 1), got {damping!r}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise InvalidParameterError(f"tol must be > 0, got {tol!r}")
    if max_iters < 1:
        raise InvalidParameterError(f"max_iters must be >= 1, got {max_iters!r}")

    key = (float(damping), float(tol), int(max_iters))
    memo = network._influence_memo
    cached = memo.get(key)
    if cached is not None:
        return cached

    n = network.n
    src, dst, w = network.src, network.dst, network.w
    out_strength = np.bincount(src, weights=w, minlength=n)
    dangling = out_strength == 0.0
    # Per-edge transition probability: weight / total outgoing weight of source.
    with np.errstate(invalid="ignore", divide="ignore"):
        edge_p = np.where(out_strength[src] > 0.0, w / out_strength[src], 0.0)

    x = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iters):
        flow = np.bincount(dst, weights=x[src] * edge_p, minlength=n)
        dangling_mass = float(x[dangling].sum())
        x_next = damping * (flow + dangling_mass / n) + (1.0 - damping) / n
        residual = float(np.abs(x_next - x).sum())
        x = x_next
        if residual < tol:
            x = x.copy()
            x.setflags(write=False)
            memo[key] = x
            return x
    raise ConvergenceError(
        f"influence iteration did not converge within {max_iters} iterations "
        f"(residual {residual:.3e})",
        last_iterate=x,
        residual=residual,
    )


def reputation_iterative(
    agent: int,
    position: Position,
    network: SocialNetwork,
    publics: Mapping[int, Position],
    spec: ReputationSpec,
) -> float:
    """Reputation variant that weights each observed neighbor by edge weight x influence score."""
    if spec.variant is not ReputationVariant.ITERATIVE_INFLUENCE:
        raise InvalidParameterError("reputation_iterative requires the iterative_influence variant")
    scores = influence_scores(network, spec.damping, spec.tol, spec.max_iters)
    return _reputation(agent, position, network, publics, spec, scores)


def public_sentiment(
    publics: Mapping[int, Position], weights: Mapping[int, float]
) -> float:
    """Weighted mean stance value over non-exited agents: R=+1, U=-1, NJ=0.

    Diagnostic index only; it never feeds back into payoffs.
    """
    total = 0.0
    acc = 0.0
    for i, y in publics.items():
        w = weights.get(i)
        if w is None:
            raise NotFoundError(f"no weight supplied for agent {i}")
        if not np.isfinite(w) or w < 0.0:
            raise InvalidParameterError(f"weight for agent {i} must be finite and >= 0")
        total += w
        acc += w * SENTIMENT_VALUE[Position(y)]
    if total == 0.0:
        raise InvalidParameterError("public_sentiment needs positive total weight")
    return acc / total


@dataclass(frozen=True)
class NetworkSpec:
    """Which generator builds the graph, plus its shape parameters."""

    kind: NetworkKind
    p_edge: float | None = None
    k: int | None = None
    rewire_p: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, NetworkKind):
            raise InvalidParameterError(f"unknown network kind {self.kind!r}")
        if self.kind is NetworkKind.COMPLETE:
            if self.p_edge is not None or self.k is not None or self.rewire_p is not None:
                raise InvalidParameterError("complete networks take no shape parameters")
        elif self.kind is NetworkKind.ERDOS_RENYI:
            if self.k is not None or self.rewire_p is not None:
                raise InvalidParameterError("erdos_renyi takes only p_edge")
            if self.p_edge is None or not 0.0 <= self.p_edge <= 1.0:
                raise InvalidParameterError(f"p_edge must lie in [0, 1], got {self.p_edge!r}")
        else:  # SMALL_WORLD
            if self.p_edge is not None:
                raise InvalidParameterError("small_world takes k and rewire_p, not p_edge")
            if self.k is None or self.k < 0 or self.k % 2 != 0:
                raise InvalidParameterError(f"k must be a non-negative even integer, got {self.k!r}")
            if self.rewire_p is None or not 0.0 <= self.rewire_p <= 1.0:
                raise InvalidParameterError(f"rewire_p must lie in [0, 1], got {self.rewire_p!r}")


def edge_count(spec: NetworkSpec, n: int) -> float:
    """Directed edges the generator builds for ``n`` agents (the expected count for erdos_renyi)."""
    if spec.kind is NetworkKind.COMPLETE:
        return float(n * (n - 1))
    if spec.kind is NetworkKind.ERDOS_RENYI:
        return spec.p_edge * n * (n - 1)
    return float(n * spec.k)


def draw_count(spec: NetworkSpec, n: int) -> float:
    """Uniforms the generator draws for ``n`` agents where the edge budget does not bound
    them: n² for erdos_renyi, one per ordered pair whatever ``p_edge`` is; 0 otherwise
    (complete draws none, small_world about one per edge)."""
    return float(n) * n if spec.kind is NetworkKind.ERDOS_RENYI else 0.0


def _unit_weight(n: int, src: np.ndarray, dst: np.ndarray) -> SocialNetwork:
    return SocialNetwork(n, np.column_stack((src, dst, np.ones(len(dst)))))


def generate_network(spec: NetworkSpec, n: int, seed: int) -> SocialNetwork:
    """Build a unit-weight graph deterministically from (spec, n, seed).

    * complete — every ordered pair.
    * erdos_renyi — each ordered pair independently with probability p_edge
      (i->j and j->i are separate draws).
    * small_world — ring lattice joining each agent to its k nearest ring
      neighbors, each lattice tie rewired with probability rewire_p; ties are
      symmetric, so every kept or rewired tie contributes both directions.
    """
    if n < 1:
        raise InvalidParameterError(f"network generation needs n >= 1, got {n!r}")
    rng = np.random.default_rng(seed)

    if spec.kind is NetworkKind.COMPLETE:
        src = np.repeat(np.arange(n), n - 1)
        col = np.tile(np.arange(n - 1), n)
        return _unit_weight(n, src, col + (col >= src))  # skip the diagonal

    if spec.kind is NetworkKind.ERDOS_RENYI:
        rows = []
        for i in range(n):  # row at a time keeps memory flat for large n
            draws = rng.random(n) < spec.p_edge
            draws[i] = False
            rows.append(np.flatnonzero(draws))
        return _unit_weight(n, np.repeat(np.arange(n), [len(r) for r in rows]), np.concatenate(rows))

    # small_world: Watts-Strogatz ring lattice with rewiring, symmetric ties.
    if spec.k >= n:
        raise InvalidParameterError(f"small_world needs k < n, got k={spec.k}, n={n}")
    half = spec.k // 2
    neighbors = [{(i + d) % n for d in range(-half, half + 1) if d} for i in range(n)]
    for offset in range(1, half + 1):
        for i in range(n):
            j = (i + offset) % n
            if j not in neighbors[i]:
                continue  # this lattice tie was already rewired away
            if rng.random() >= spec.rewire_p:
                continue
            if len(neighbors[i]) >= n - 1:
                continue  # i already observes everyone else; nothing to rewire to
            m = int(rng.integers(n))
            while m == i or m in neighbors[i]:
                m = int(rng.integers(n))
            neighbors[i].discard(j)
            neighbors[j].discard(i)
            neighbors[i].add(m)
            neighbors[m].add(i)
    degree = [len(nb) for nb in neighbors]
    dst = np.fromiter(
        (j for nb in neighbors for j in sorted(nb)), dtype=np.int64, count=sum(degree)
    )
    return _unit_weight(n, np.repeat(np.arange(n), degree), dst)
