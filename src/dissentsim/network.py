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

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, NotFoundError
from .scenario import (  # re-exported: the spec types, defaults and budgets are load-time names
    AGENT_BUDGET,
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    DRAW_BUDGET,
    EDGE_BUDGET,
    NetworkKind,
    NetworkSpec,
    Position,
    ReputationSpec,
    ReputationVariant,
    draw_count,
    edge_count,
)

#: Numeric stance values used by the sentiment index: R=+1, U=-1, NJ=0.
SENTIMENT_VALUE = {Position.R: 1.0, Position.U: -1.0, Position.NJ: 0.0}


def _network_size(n) -> int:
    if not np.isfinite(n) or n != np.floor(n):
        raise InvalidParameterError(f"a network's size must be an integer, got n={n!r}")
    if n < 1:
        raise InvalidParameterError(f"a network needs at least one agent, got n={n!r}")
    return int(n)


def _refuse_edges(bad, src, dst, problem: str) -> None:
    """Raise ``problem`` for the first edge where ``bad`` holds, if any."""
    if bad.any():
        first = np.argmax(bad)
        raise InvalidParameterError(f"edge ({src[first]:g}, {dst[first]:g}) {problem}")


@dataclass(frozen=True, eq=False)
class SocialNetwork:
    """Directed weighted graph over agents 0..n-1, stored as CSR arrays.

    An edge i->j means "i observes j".  ``edges`` is a list of (source,
    target, weight) triples or an (m, 3) array: integral ids in [0, n), no
    self-loops, finite weights >= 0 (-0.0 is stored as 0.0).  They are stored
    stably sorted by source as ``src``, ``dst`` and ``w``; agent i's are
    ``row_ptr[i]:row_ptr[i + 1]``.
    The ``edges`` tuples and ``out_edges`` are views built on request.
    Instances are immutable (the arrays are read-only copies), so views, the
    in-edge index and influence scores are cached.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    row_ptr: np.ndarray

    def __init__(self, n: int, edges):
        n = _network_size(n)
        triples = np.asarray(edges, dtype=np.float64)
        if triples.size and (triples.ndim != 2 or triples.shape[1] != 3):
            raise InvalidParameterError(f"edges need 3 columns (src, dst, w), got {triples.shape}")
        self._store(n, *triples.reshape(-1, 3).T)

    @classmethod
    def _from_columns(cls, n: int, src, dst, w) -> "SocialNetwork":
        """The network of the edges ``src[e] -> dst[e]`` of weight ``w[e]``, checked as the
        triples are.  The generators hand their int64 ids over this way, without a float
        copy; ``src`` and ``dst`` are stored as they are (and made read-only) when int64."""
        network = cls.__new__(cls)
        network._store(_network_size(n), src, dst, w)
        return network

    def _store(self, n: int, src, dst, w) -> None:
        if src.dtype.kind == "f" or dst.dtype.kind == "f":  # integer ids are integral
            _refuse_edges((src != np.floor(src)) | (dst != np.floor(dst)), src, dst,
                          "has a non-integral agent id")
        _refuse_edges((src < 0) | (src >= n) | (dst < 0) | (dst >= n), src, dst,
                      "references an unknown agent id")
        _refuse_edges(src == dst, src, dst, "is a self-loop, which is not allowed")
        _refuse_edges(~np.isfinite(w) | (w < 0.0), src, dst, "weight must be finite and >= 0")
        if np.any(src[1:] < src[:-1]):  # generators emit their edges in CSR order already
            order = np.argsort(src, kind="stable")
            src, dst, w = src[order], dst[order], w[order]
        src = src.astype(np.int64, copy=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst.astype(np.int64, copy=False))
        object.__setattr__(self, "w", w + 0.0)  # a copy, with any -0.0 weight stored as 0.0
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

    @cached_property
    def _integral_totals(self) -> bool:
        """Whether every weight is integral and every observer's total weight is below 2**53.
        Then each sum of some of an observer's weights is an integer that float64 holds
        exactly, whatever the order of the additions."""
        if not np.array_equal(self.w, np.floor(self.w)):
            return False
        return bool(np.bincount(self.src, weights=self.w, minlength=self.n).max() < 2.0**53)

    @cached_property
    def _audiences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each agent's in-edges, as CSR arrays by target: ``ptr``, then the observer and the
        weight of each edge.  A stable transpose of the edges, built on first use."""
        order = np.argsort(self.dst, kind="stable")
        index = (np.searchsorted(self.dst, np.arange(self.n + 1), sorter=order),
                 self.src[order], self.w[order])
        for array in index:
            array.setflags(write=False)
        return index

    def _row(self, agent: int) -> slice:
        """The slice of ``src``/``dst``/``w`` holding ``agent``'s out-edges."""
        if not 0 <= agent < self.n:
            raise NotFoundError(f"agent {agent} not in network of size {self.n}")
        return slice(self.row_ptr[agent], self.row_ptr[agent + 1])

    def out_edges(self, agent: int) -> list[tuple[int, float]]:
        """(target, weight) pairs observed by ``agent``."""
        row = self._row(agent)
        return list(zip(self.dst[row].tolist(), self.w[row].tolist()))


def edge_weights(spec: ReputationSpec, w, dst, scores=None) -> np.ndarray:
    """Per-edge weight of the target in its observer's eyes: 1 (unweighted), the edge
    weight (weighted) or the edge weight times the target's influence score (iterative)."""
    if spec.variant is ReputationVariant.UNWEIGHTED_FRACTION:
        return np.ones_like(w)
    if spec.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        return w * scores[dst]
    return w


def observed_weights(spec: ReputationSpec, w, dst, hidden, scores=None, base=None) -> np.ndarray:
    """The :func:`edge_weights` entry of each edge, 0 where the target is ``hidden``
    (exited).  ``base``, the :func:`edge_weights`, may be passed precomputed.

    ``base * ~hidden`` is bit-equal to selecting 0.0 for the hidden targets because
    the weights are finite and >= 0 (a network stores no -0.0), and does not branch.
    """
    if base is None:
        base = edge_weights(spec, w, dst, scores)
    return base * np.logical_not(hidden)


def observer_totals(row, weight, n: int) -> np.ndarray:
    """Each observer's total observed weight, the denominator of its reputation fractions.
    It must be finite; then so is each stance's sum, which adds a subset of the same
    non-negative weights in the same order, and every fraction lies in [0, 1]."""
    denom = np.bincount(row, weights=weight, minlength=n)
    if not np.isfinite(denom).all():
        raise InvalidParameterError("an observer's total observed weight must be finite")
    return denom


def reputation_terms(spec: ReputationSpec, row, weight, stance, n: int,
                     denom=None, keys=None, out=None) -> np.ndarray:
    """Reputation for showing each stance: one row per observer 0..n-1, column = Position code.

    ``row``, ``weight`` and ``stance`` are per edge: the observer, the
    :func:`observed_weights` entry and the target's shown Position code.  A
    term is ``alpha`` times the (centered) weighted fraction of the observer's
    neighbors showing that stance; 0 when the observer's total weight is 0.
    The :func:`observer_totals` ``denom`` and the keys ``3 * row`` may be
    passed precomputed: they do not depend on the stances.  ``out``, a
    writable int64 array of one entry per edge, may be passed to hold the
    keys of the stances instead of a new array.
    """
    if denom is None:
        denom = observer_totals(row, weight, n)
    if keys is None:
        keys = 3 * row
    # One keyed pass sums each observer's weight per stance.
    num = np.bincount(np.add(keys, stance, out=out), weights=weight, minlength=3 * n).reshape(n, 3)
    return terms_from_counts(spec, num, denom)


def terms_from_counts(spec: ReputationSpec, num, denom) -> np.ndarray:
    """:func:`reputation_terms` from each observer's observed weight per stance ``num``, an
    (n, 3) array, and its total ``denom``."""
    has_obs = denom > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = num / np.where(has_obs, denom, 1.0)[:, None]  # the fractions, in place below
    if spec.centered:
        rep -= 0.5
    rep *= spec.alpha
    rep[~has_obs] = 0.0
    return rep


def counted(spec: ReputationSpec, network: SocialNetwork) -> bool:
    """Whether ``spec``'s reputation terms over ``network`` can come from :func:`stance_counts`:
    under ``unweighted_fraction``, and under ``weighted_fraction`` on integral weights whose
    every observer's total is below 2**53.  Each count is then an integer that float64 holds
    exactly, so counts kept up to date edge by edge equal the keyed pass's bit for bit."""
    if spec.variant is ReputationVariant.WEIGHTED_FRACTION:
        return network._integral_totals
    return spec.variant is ReputationVariant.UNWEIGHTED_FRACTION


def _tally(spec: ReputationSpec, network: SocialNetwork, agents, y) -> np.ndarray:
    """The weights of the in-edges of ``agents`` (a mask), summed per observer and by the
    stance ``y`` gives each agent: an (n, 3) float64 array, from a walk over those edges."""
    ptr, observers, weights = network._audiences
    agents = np.flatnonzero(agents)
    first, sizes = ptr[agents], ptr[agents + 1] - ptr[agents]
    edges = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
    edges += np.arange(edges.size)  # the positions of the agents' in-edges, in order
    keys = observers[edges]
    keys *= 3
    keys += np.repeat(y[agents], sizes)
    weight = None if spec.variant is ReputationVariant.UNWEIGHTED_FRACTION else weights[edges]
    tally = np.bincount(keys, weights=weight, minlength=3 * network.n)
    return tally.reshape(-1, 3).astype(np.float64, copy=False)


def stance_counts(spec: ReputationSpec, network: SocialNetwork, y, exited, since=None) -> np.ndarray:
    """Each observer's observed weight per stance, the (n, 3) numerators of
    :func:`reputation_terms`, where :func:`counted` holds.  ``since``, an earlier call's
    ``(counts, y, exited)`` over the same network and spec, is brought up to date over the
    in-edges of the agents whose stance or exit flag differs: each edge's weight leaves the
    count of the old stance if its target was visible, and joins that of the new one if it
    is now."""
    visible = ~exited
    if since is None:
        return _tally(spec, network, visible, y)
    counts, y_then, exited_then = since
    changed = (y != y_then) | (exited != exited_then)
    return (counts - _tally(spec, network, changed & ~exited_then, y_then)
            + _tally(spec, network, changed & visible, y))


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
    # The spec states the solver controls' rules: damping in (0, 1), tol > 0, max_iters >= 1.
    ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, 0.0, damping=damping, tol=tol,
                   max_iters=max_iters)

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
    # The iterations allocate no per-edge array: the mass each edge carries is refilled in
    # place, and the ids are writable copies made once, because take and bincount copy a
    # read-only index array on every call (as take does its output in its "raise" mode).
    sources, targets, moved = src.copy(), dst.copy(), np.empty(len(src))
    for _ in range(max_iters):
        np.take(x, sources, out=moved, mode="clip")  # every id is in range: clip moves none
        moved *= edge_p
        flow = np.bincount(targets, weights=moved, minlength=n)
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


def _unit_weight(n: int, src: np.ndarray, dst: np.ndarray, symmetric: bool = False) -> SocialNetwork:
    """The generated network, with what its generator knows recorded: unit weights have
    integral totals, and where every tie runs both ways the CSR rows are the audiences."""
    network = SocialNetwork._from_columns(n, src, dst, np.ones(len(dst)))
    object.__setattr__(network, "_integral_totals", True)  # each total is a degree, below n
    if symmetric:
        object.__setattr__(network, "_audiences", (network.row_ptr, network.dst, network.w))
    return network


def generate_network(spec: NetworkSpec, n: int, seed: int) -> SocialNetwork:
    """Build a unit-weight graph deterministically from (spec, n, seed).

    * complete — every ordered pair.
    * erdos_renyi — each ordered pair independently with probability p_edge
      (i->j and j->i are separate draws).
    * small_world — ring lattice joining each agent to its k nearest ring
      neighbors, each lattice tie rewired with probability rewire_p; ties are
      symmetric, so every kept or rewired tie contributes both directions.

    ``seed`` is anything ``np.random.default_rng`` takes.  small_world draws in the
    order docs/scenario-schema.md states and needs a bit generator with 64-bit
    outputs (not MT19937); a passed Generator ends where those scalar draws leave it.
    """
    if n < 1:
        raise InvalidParameterError(f"network generation needs n >= 1, got {n!r}")
    rng = np.random.default_rng(seed)

    if spec.kind is NetworkKind.COMPLETE:
        src = np.repeat(np.arange(n), n - 1)
        col = np.tile(np.arange(n - 1), n)
        return _unit_weight(n, src, col + (col >= src), symmetric=True)  # skip the diagonal

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
    return _small_world(n, spec.k // 2, spec.rewire_p, _RawStream(rng))


class _RawStream:
    """A 64-bit bit generator's raw outputs from ``pos`` on, drawn in blocks of at most
    ``ahead``, the outputs the caller is sure to read, so the generator ends where scalar
    draws would.  :meth:`integers` is ``Generator.integers(n)`` for 1 < n <= 2**32 as numpy
    decodes it: Lemire's rule over 32-bit halves, the low half first and the high half kept
    in the bit generator's buffer, which :meth:`close` hands back."""

    BLOCK = 1 << 20  # most outputs drawn at once (8 MB)

    def __init__(self, rng: np.random.Generator):
        self.bg = rng.bit_generator
        state = self.bg.state
        if "has_uint32" not in state:  # MT19937's outputs are 32-bit
            raise InvalidParameterError(f"need 64-bit outputs, not {state['bit_generator']}'s")
        self.has32, self.half = state["has_uint32"], state["uinteger"]
        self.block, self.base, self.pos, self.ahead = np.empty(0, np.uint64), 0, 0, 1

    def unread(self) -> np.ndarray:
        """The block from output ``pos`` on; a new block once this one is used up."""
        if self.pos == self.base + len(self.block):
            self.base, self.block = self.pos, self.bg.random_raw(min(self.ahead, self.BLOCK))
        return self.block[self.pos - self.base:]

    def integers(self, n: int) -> int:
        while True:
            if self.has32:
                self.has32, x = 0, self.half
            else:
                x, self.pos = int(self.unread()[0]), self.pos + 1
                self.has32, self.half, x = 1, x >> 32, x & 0xFFFFFFFF
            if (x * n) & 0xFFFFFFFF >= (2**32 - n) % n:
                return (x * n) >> 32

    def close(self) -> None:
        self.bg.state = {**self.bg.state, "has_uint32": self.has32, "uinteger": self.half}


def _small_world(n: int, half: int, rewire_p: float, stream: _RawStream) -> SocialNetwork:
    """Lattice tie t joins i = t % n to i + t // n + 1, so ties are visited offset-major.
    Each draws a uniform, (x >> 11) * 2**-53 as ``Generator.random()`` does, and only the
    ties it rewires run in Python: each moves to a target that i does not observe yet,
    unless i already observes everyone."""
    ties = n * half
    alive = bytearray(b"\x01") * ties  # lattice ties not rewired away
    added = set()  # rewired ties as keys i * n + m, both directions
    degree = [2 * half] * n
    t = 0  # the next tie; its uniform is output stream.pos
    while t < ties:
        stream.ahead = ties - t
        uniforms = (stream.unread() >> np.uint64(11)) * 2.0**-53
        end = stream.base + len(stream.block)
        for hit in (np.flatnonzero(uniforms < rewire_p) + stream.pos).tolist():
            if hit < stream.pos or t + hit - stream.pos >= ties:
                continue  # read by a rewire's target draws, or past the last tie
            t, stream.pos = t + hit - stream.pos, hit + 1
            i = t % n
            if degree[i] < n - 1:
                stream.ahead, m = ties - t, i
                while (m == i or (d := (m - i) % n) <= half and alive[(d - 1) * n + i]
                       or n - d <= half and alive[(n - d - 1) * n + m] or i * n + m in added):
                    m = stream.integers(n)
                alive[t] = 0
                added.update((i * n + m, m * n + i))
                degree[(i + t // n + 1) % n] -= 1
                degree[m] += 1
            t += 1
        # No hit is left in the block, unless the target draws ran past its end.
        kept = max(0, min(ties - t, end - stream.pos))
        t, stream.pos = t + kept, stream.pos + kept
    stream.close()
    lattice = np.flatnonzero(np.frombuffer(alive, dtype=bool))
    i = lattice % n
    j = (i + lattice // n + 1) % n
    keys = np.sort(np.concatenate((i * n + j, j * n + i, np.fromiter(added, np.int64, len(added)))))
    return _unit_weight(n, keys // n, keys % n, symmetric=True)
