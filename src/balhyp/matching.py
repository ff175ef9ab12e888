"""Perfect matchings in the k-partite complement, and coloring from them.

A balanced coloring with q colors is the same thing as a partition of the
vertex set into q families of disjoint complement edges; in particular one
perfect complement matching yields a balanced coloring greedily, using at
most k*Delta(H) + 1 colors when every part has n vertices.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional

import numpy as np

from balhyp.core import KPartiteHypergraph, PartialColoring, edge_keys
from balhyp.errors import BudgetExceededError
from balhyp.rng import SeedLike, rng_for

__all__ = [
    "Matching",
    "matching_violations",
    "find_pm_complement",
    "exact_pm_complement",
    "color_from_matching",
    "fallback_coloring",
]


@dataclass(frozen=True)
class Matching:
    """Pairwise disjoint k-tuples over a host hypergraph's vertex set."""

    edges: tuple
    perfect: bool = False


def matching_violations(h: KPartiteHypergraph, m: Matching) -> tuple:
    """Violations of `m` read as a matching in the complement of `h`:
    host edges, repeated vertices, or (when perfect) uncovered vertices.

    Per tuple, in tuple order: a tuple of the wrong arity gets only that
    message; otherwise "edge of the host" if it is one, then per part an
    out-of-range index or a vertex an earlier tuple already covers.  The
    uncovered counts per part come last.
    """
    return _check_matching(h, m)[0]


def _check_matching(h: KPartiteHypergraph, m: Matching) -> tuple:
    """(violations, owner) for `matching_violations` and the colorer.

    owner[i, j] is the position among the arity-k tuples of the first
    tuple that covers the part-(j+1) end of host edge i, or -1.  A host
    edge whose owner entries are all one tuple's is that tuple, which
    settles every tuple that is the first to cover each of its vertices;
    the others, those that repeat a vertex, are looked up by row key.
    """
    k = h.k
    lens = np.fromiter(map(len, m.edges), dtype=np.intp, count=len(m.edges))
    pos = np.flatnonzero(lens == k)
    rows = [m.edges[i] for i in pos.tolist()]
    try:
        rows = np.array(rows, dtype=np.intp).reshape(len(pos), k)
    except OverflowError:
        rows = np.array(rows, dtype=object).reshape(len(pos), k)
    out = (rows < 0) | (rows >= np.array(h.part_sizes))
    twice = np.zeros(rows.shape, dtype=bool)
    e = h.edge_array
    owner = np.empty(e.shape, dtype=np.intp)
    covered = []
    for j, sz in enumerate(h.part_sizes):
        inside = np.flatnonzero(~out[:, j])
        verts, first = np.unique(rows[inside, j].astype(np.intp), return_index=True)
        cover = inside[first]  # the first tuple through each covered vertex
        twice[inside, j] = True
        twice[cover, j] = False
        covered.append(len(verts))
        at = np.searchsorted(verts, e[:, j])
        verts, cover = np.append(verts, -1), np.append(cover, -1)
        owner[:, j] = np.where(verts[at] == e[:, j], cover[at], -1)
    host = np.zeros(len(rows), dtype=bool)
    whole = (owner == owner[:, :1]).all(axis=1) & (owner[:, 0] >= 0)
    host[owner[whole, 0]] = True
    repeats = np.flatnonzero(twice.any(axis=1) & ~out.any(axis=1))
    if len(repeats):
        sizes = h.part_sizes
        host[repeats] = np.isin(edge_keys(rows[repeats], sizes), edge_keys(e, sizes))
    bad = []
    flagged = lens != k
    flagged[pos] = host | out.any(axis=1) | twice.any(axis=1)
    row_of = np.full(len(lens), -1)
    row_of[pos] = np.arange(len(pos))
    for i in np.flatnonzero(flagged).tolist():
        t, r = m.edges[i], row_of[i]
        if r < 0:
            bad.append(f"tuple {t} has arity {len(t)}")
            continue
        if host[r]:
            bad.append(f"tuple {t} is an edge of the host")
        for j in range(k):
            if out[r, j]:
                bad.append(f"tuple {t}: index {t[j]} out of range in part {j + 1}")
            elif twice[r, j]:
                bad.append(f"part {j + 1} vertex {t[j]} covered twice")
    if m.perfect:
        for j, sz in enumerate(h.part_sizes):
            if sz - covered[j]:
                bad.append(f"part {j + 1}: {sz - covered[j]} vertices uncovered")
    return tuple(bad), owner


def _completes(near: set, key: int, j: int, uncovered: list, n: int, k: int) -> bool:
    """Does a prefix through part j, whose slots 2..j have tail key `key`,
    extend to a non-edge by uncovered vertices of parts j+1..k?  `near`
    holds the tail keys of the host edges through its part-1 vertex."""
    if j == k:
        return key not in near
    key *= n
    return any(_completes(near, key + u, j + 1, uncovered, n, k) for u in uncovered[j])


def find_pm_complement(
    h: KPartiteHypergraph, seed: SeedLike = 0, budget: int = 10**4
) -> Matching:
    """Randomized greedy perfect matching in the complement of `h`.

    Each restart walks the uncovered part-1 vertices in index order and
    extends part by part, picking uniformly among uncovered vertices that
    still admit a non-edge completion by uncovered vertices of the later
    parts (realized as first-feasible on a random permutation).  A stuck
    walk releases up to two random matched tuples before the attempt is
    abandoned; `budget` bounds the restarts.  Failure raises rather than
    returning a partial answer; it does not disprove existence.  Restart
    r draws from stream seed+(r,): one permutation per extension step and
    one integer per release.

    The host edges through a part-1 vertex are held as a set of tail keys
    (`edge_keys` of slots 2..k), built the first time the walk visits that vertex.
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    n = h.part_sizes[0]
    k = h.k
    if n == 0:
        return Matching(edges=(), perfect=True)
    e = h.edge_array
    degrees = [np.bincount(col, minlength=n) for col in e.T]
    for j, deg in enumerate(degrees):
        full = np.flatnonzero(deg == n ** (k - 1))
        if len(full):
            raise BudgetExceededError(
                f"part {j + 1} vertex {full[0]} has no complement edge; "
                f"no perfect matching exists"
            )
    keys = edge_keys(e[np.argsort(e[:, 0], kind="stable"), 1:], (n,) * (k - 1))
    starts = np.concatenate(([0], np.cumsum(degrees[0]))).tolist()
    near = [None] * n
    for attempt in range(budget):
        rng = rng_for(seed, attempt)
        uncovered = [list(range(n)) for _ in range(k)]
        matched: list = []
        repairs = 0
        failed = False
        while uncovered[0]:
            v = uncovered[0][0]
            if near[v] is None:
                near[v] = set(keys[starts[v] : starts[v + 1]].tolist())
            prefix = [v]
            key = 0
            ok = True
            for j in range(1, k):
                pool = uncovered[j]
                for pos in rng.permutation(len(pool)):
                    u = pool[pos]
                    if _completes(near[v], key * n + u, j + 1, uncovered, n, k):
                        break
                else:
                    ok = False
                    break
                prefix.append(u)
                key = key * n + u
            if ok:
                t = tuple(prefix)
                matched.append(t)
                for j in range(k):
                    del uncovered[j][bisect_left(uncovered[j], t[j])]
            elif repairs < 2 and matched:
                victim = matched.pop(int(rng.integers(0, len(matched))))
                for j in range(k):
                    insort(uncovered[j], victim[j])
                repairs += 1
            else:
                failed = True
                break
        if not failed:
            return Matching(edges=tuple(matched), perfect=True)
    raise BudgetExceededError(
        f"no perfect matching found in {budget} restarts (existence not disproved)"
    )


def exact_pm_complement(
    h: KPartiteHypergraph, budget: int = 10**6
) -> Optional[Matching]:
    """Exhaustive backtracking for a perfect matching in the complement.

    Returns a matching iff one exists (None otherwise); `budget` caps the
    number of tuple extensions tried, raising when exceeded.  Tiny
    instances only.
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    n = h.part_sizes[0]
    k = h.k
    if n == 0:
        return Matching(edges=(), perfect=True)
    uncovered = [set(range(n)) for _ in range(k)]
    chosen: list = []
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        prefix = [i]

        def place(j: int) -> bool:
            nonlocal nodes
            if j == k:
                t = tuple(prefix)
                if t in h.edge_set:
                    return False
                chosen.append(t)
                for jj in range(1, k):
                    uncovered[jj].discard(t[jj])
                if extend(i + 1):
                    return True
                chosen.pop()
                for jj in range(1, k):
                    uncovered[jj].add(t[jj])
                return False
            for u in sorted(uncovered[j]):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(
                        f"backtracking exceeded {budget} extension steps"
                    )
                prefix.append(u)
                if place(j + 1):
                    prefix.pop()
                    return True
                prefix.pop()
            return False

        return place(1)

    if extend(0):
        return Matching(edges=tuple(chosen), perfect=True)
    return None


def color_from_matching(h: KPartiteHypergraph, m: Matching) -> PartialColoring:
    """Color the tuples of a perfect complement matching greedily.

    Tuple i gets the smallest color that closes no monochromatic host edge
    among vertices colored so far.  Each host edge touching tuple i forbids
    at most one color and at most k*Delta edges touch it, so the palette
    never exceeds k*Delta(H) + 1.

    A host edge's owner row names the tuple holding each of its ends; the
    edge is looked at once, when the last of those tuples is colored.  Its
    ends in that tuple then read as its first owner, and it forbids that
    owner's color exactly when all its entries carry one color.
    """
    bad, owner = _check_matching(h, Matching(edges=m.edges, perfect=True))
    if bad:
        raise ValueError("not a perfect complement matching: " + "; ".join(bad))
    n_t = len(m.edges)
    last = owner.max(axis=1)
    first = owner.min(axis=1)
    order = np.argsort(last, kind="stable")
    rows = np.where(owner == last[:, None], first[:, None], owner)[order]
    starts = np.searchsorted(last[order], np.arange(n_t + 1)).tolist()
    bound = h.k * h.max_degree + 1
    col = np.zeros(n_t, dtype=np.intp)
    taken = np.zeros(bound + 2, dtype=bool)  # taken[c]: color c forbidden
    taken[0] = True
    for i in range(n_t):
        ends = col[rows[starts[i] : starts[i + 1]]]
        forbidden = ends[(ends == ends[:, :1]).all(axis=1), 0]
        taken[forbidden] = True
        c = int(taken.argmin())
        taken[forbidden] = False
        if c > bound:
            raise RuntimeError(f"greedy used {c} colors, bound {bound}")
        col[i] = c
    tuples = np.array(m.edges, dtype=np.intp).reshape(n_t, h.k)
    colors = []
    for j, sz in enumerate(h.part_sizes):
        a = np.empty(sz, dtype=np.intp)
        a[tuples[:, j]] = col
        colors.append(a)
    return PartialColoring(max(int(col.max(initial=0)), 1), colors)


def fallback_coloring(
    h: KPartiteHypergraph, seed: SeedLike = 0, budget: int = 10**4
) -> PartialColoring:
    """Matching-based balanced coloring; at most k*Delta + 1 colors when
    Delta(H) <= n/2 (warned and attempted anyway outside that regime)."""
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    if h.max_degree > h.part_sizes[0] / 2:
        warnings.warn(
            f"Delta = {h.max_degree} exceeds n/2 = {h.part_sizes[0] / 2}; "
            f"matching existence is not guaranteed, trying anyway",
            stacklevel=2,
        )
    m = find_pm_complement(h, seed=seed, budget=budget)
    return color_from_matching(h, m)
