"""Random k-partite hypergraphs and upper-bound calculators.

H(k, N, p) places each of the N^k transversal edges independently with
probability p.  The trimming construction removes the highest-degree
vertices from each part; together with the union-bound calculator this
covers the size regime where large balanced independent sets are unlikely.

All logs are natural.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from balhyp.core import BalancedSet, KPartiteHypergraph, induced
from balhyp.errors import BudgetExceededError, RegimeError
from balhyp.rng import SeedLike, rng_for

__all__ = [
    "UpperBoundParams",
    "sample_hknp",
    "trim_top_degree",
    "union_bound_bis",
    "exists_balanced_is",
]

# Bernoulli-per-edge up to this many candidate edges, binomial count above.
_PER_EDGE_LIMIT = 10**7
# Uniforms per draw on the per-edge path; chunking leaves the stream as one
# block of `total` draws would give it.
_CHUNK = 1 << 16
_MAX_EDGES = 5 * 10**7


@dataclass(frozen=True)
class UpperBoundParams:
    """Parameter ledger for the trimmed random construction.

    Inputs are (epsilon, k, Delta, n); the derived quantities are

        gamma = epsilon / (2 k^2)
        N     = n / (1 - gamma)          (ambient part size, real-valued)
        p     = Delta / ((1 + gamma) N^(k-1))
        s     = (((k + epsilon)/(k - 1)) * log(Delta)/Delta)^(1/(k-1)) * n

    For integer plumbing, trim_count rounds gamma*N up (removing more
    vertices cannot raise the degree bound) and s_int rounds s down
    (claiming a smaller set is the weaker statement).
    """

    epsilon: float
    k: int
    Delta: float
    n: int
    gamma: float = field(init=False)
    N: float = field(init=False)
    p: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise RegimeError(f"k={self.k} must be at least 2")
        if self.n < 1:
            raise RegimeError(f"n={self.n} must be positive")
        if not self.epsilon > 0:  # NaN included
            raise RegimeError(f"epsilon={self.epsilon} must be positive")
        if self.Delta < 1:
            raise RegimeError(f"Delta={self.Delta} must be at least 1")
        gamma = self.epsilon / (2 * self.k**2)
        if gamma >= 1:
            raise RegimeError(f"gamma={gamma} must be below 1")
        N = self.n / (1 - gamma)
        p = self.Delta / ((1 + gamma) * N ** (self.k - 1))
        s = (
            ((self.k + self.epsilon) / (self.k - 1))
            * math.log(self.Delta)
            / self.Delta
        ) ** (1 / (self.k - 1)) * self.n
        if not 0 < p <= 1:
            raise RegimeError(f"p={p} outside (0, 1]; regime not sampleable")
        if s > self.n:
            raise RegimeError(f"s={s} exceeds n={self.n}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)

    @property
    def trim_count(self) -> int:
        return math.ceil(self.gamma * self.N)

    @property
    def ambient_n(self) -> int:
        """Integer part size to sample at so that trimming lands on n."""
        return self.n + self.trim_count

    @property
    def s_int(self) -> int:
        return math.floor(self.s)


def sample_hknp(k: int, N: int, p: float, seed: SeedLike) -> KPartiteHypergraph:
    """Sample H(k, N, p): each transversal edge present independently w.p. p.

    Deterministic given (k, N, p, seed); edges come out sorted.  Small
    instances draw one uniform per candidate edge in lexicographic order;
    large ones draw the edge count Binomial(N^k, p) and then a uniform
    subset of that size, which has exactly the same distribution: batches
    of uniform ranks, each adding its first distinct unseen ranks in draw
    order until the count is reached.  Edge rank r is r written in base N,
    most significant digit in part 1.
    """
    if k < 2:
        raise ValueError(f"k={k} must be at least 2")
    if N < 1:
        raise ValueError(f"N={N} must be positive")
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0:
        return KPartiteHypergraph([N] * k, np.empty((0, k), dtype=np.intp))
    total = N**k
    if p * total > _MAX_EDGES:
        raise BudgetExceededError(
            f"expected edge count {p * total:.3g} exceeds limit {_MAX_EDGES}"
        )
    if p == 1:
        ranks = np.arange(total)
    elif total <= _PER_EDGE_LIMIT:
        rng = rng_for(seed)
        ranks = np.concatenate([
            start + np.flatnonzero(rng.random(min(_CHUNK, total - start)) < p)
            for start in range(0, total, _CHUNK)
        ])
    else:
        rng = rng_for(seed)
        m = int(rng.binomial(total, p))
        chosen = np.arange(0)
        while len(chosen) < m:
            want = m - len(chosen)
            batch = rng.integers(0, total, size=max(want + 16, int(want * 1.1)))
            values, first = np.unique(batch, return_index=True)
            first = np.sort(first[~np.isin(values, chosen)])[:want]
            chosen = np.concatenate((chosen, batch[first]))
        ranks = np.sort(chosen)
    edges = np.stack(np.unravel_index(ranks, (N,) * k), axis=1)
    return KPartiteHypergraph([N] * k, edges)


def trim_top_degree(h: KPartiteHypergraph, t: int) -> KPartiteHypergraph:
    """Drop the t highest-degree vertices from each part (ties: lowest index).

    Surviving indices are compacted; the result keeps exactly the edges
    avoiding every removed vertex, so its max degree cannot grow.
    """
    if t < 0:
        raise ValueError(f"t={t} must be non-negative")
    if any(t >= sz for sz in h.part_sizes):
        raise ValueError(f"t={t} not below every part size {h.part_sizes}")
    if t == 0:
        return h
    keep = []
    for deg in h.degrees:
        kept = np.ones(len(deg), dtype=bool)
        kept[np.argsort(-deg, kind="stable")[:t]] = False
        keep.append(np.flatnonzero(kept))
    sub, _ = induced(h, keep)
    return sub


def union_bound_bis(k: int, N: int, s: int, p: float) -> float:
    """C(N, s)^k * (1 - p)^(s^k): union bound on a side-s balanced
    independent set existing in H(k, N, p).  May exceed 1 (vacuous).
    """
    if not 0 <= s <= N:
        raise ValueError(f"s={s} outside [0, {N}]")
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    if s == 0:
        return 1.0
    if p == 1:
        return 0.0
    log_choose = math.lgamma(N + 1) - math.lgamma(s + 1) - math.lgamma(N - s + 1)
    log_val = k * log_choose + s**k * math.log1p(-p)
    if log_val > 700:
        return math.inf
    return math.exp(log_val)


def exists_balanced_is(
    h: KPartiteHypergraph, s: int, budget: int = 10**8
) -> bool:
    """Exhaustive: does some balanced set of side s avoid every edge?

    Enumerates side-s subsets of parts 1..k-1 in lexicographic order; given
    those, a valid part-k completion exists iff at most n_k - s part-k
    vertices close an edge.  Raises BudgetExceededError when the subset
    count, `_enumeration_cost`, exceeds `budget`, rather than guessing.
    """
    if s < 0:
        raise ValueError(f"s={s} must be non-negative")
    if s == 0:
        return True
    if any(s > sz for sz in h.part_sizes):
        return False
    if _enumeration_cost(h.part_sizes, s) > budget:
        raise BudgetExceededError(
            f"s * prod of C(n_j,s) over parts 1..k-1 exceeds enumeration budget {budget}"
        )
    return _balanced_is_witness(h, s) is not None


def _enumeration_cost(part_sizes, s: int) -> int:
    """Mask ORs `_balanced_is_witness` may do: s per side-s subset choice,
    the product of C(n_j, s) over parts 1..k-1 (part k is completed, not
    enumerated).  As s * C(n, s) >= n, it also bounds parts 1..k-1 and the
    witness; part k only costs its distinct edge ends."""
    return s * math.prod(math.comb(sz, s) for sz in part_sizes[:-1])


def _balanced_is_witness(h: KPartiteHypergraph, s: int) -> BalancedSet | None:
    """The first side-s balanced independent set in enumeration order, or None.

    Walks side-s subsets of parts 1..k-1 in lexicographic order (the
    `itertools.product` of their `combinations`).  The part-k ends of the
    edges are bitmasks in Python ints, bit i standing for part-k vertex i or,
    when part k outnumbers the edges, for the i-th lowest distinct part-k
    end, so a mask is never wider than the edge count: `rows` keeps, per
    choice of parts 1..k-2 vertices, one mask per part-(k-1) vertex of the
    ends that close an edge through them.  A choice of parts 1..k-2 ORs its
    rows once; each part-(k-1) subset then ORs s masks into `blocked`, and
    the witness completes the subsets with the s lowest unblocked part-k
    vertices.  Assumes 0 <= s <= every part size.
    """
    *outer_sizes, n_row, nk = h.part_sizes
    edges, ends = h.edge_array.tolist(), range(nk)
    if nk > len(edges):  # bit i for the i-th lowest end, not for vertex i
        ends = sorted({e[-1] for e in edges})
        rank = {w: i for i, w in enumerate(ends)}
        edges = [e[:-1] + [rank[e[-1]]] for e in edges]
    rows = collections.defaultdict(lambda: [0] * n_row)
    for *head, u, w in edges:
        rows[tuple(head)][u] |= 1 << w
    empty = [0] * n_row
    for outer in itertools.product(
        *(itertools.combinations(range(sz), s) for sz in outer_sizes)
    ):
        row = empty
        for head in itertools.product(*outer):
            if head in rows:
                row = list(map(operator.or_, row, rows[head]))
        for combo in itertools.combinations(range(n_row), s):
            blocked = functools.reduce(operator.or_, map(row.__getitem__, combo), 0)
            if nk - blocked.bit_count() >= s:
                taken = {w for i, w in enumerate(ends) if blocked >> i & 1}
                free = itertools.filterfalse(taken.__contains__, range(nk))
                return BalancedSet(list(outer) + [combo, itertools.islice(free, s)])
    return None
