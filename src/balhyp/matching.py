"""Perfect matchings in the k-partite complement, and coloring from them.

A balanced coloring with q colors is the same thing as a partition of the
vertex set into q families of disjoint complement edges; in particular one
perfect complement matching yields a balanced coloring greedily, using at
most k*Delta(H) + 1 colors when every part has n vertices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from balhyp.core import KPartiteHypergraph, PartialColoring, max_repeat
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
    host edges, repeated vertices, or (when perfect) uncovered vertices."""
    bad = []
    seen = [set() for _ in range(h.k)]
    for t in m.edges:
        if len(t) != h.k:
            bad.append(f"tuple {t} has arity {len(t)}")
            continue
        if t in h.edge_set:
            bad.append(f"tuple {t} is an edge of the host")
        for j, idx in enumerate(t):
            if not 0 <= idx < h.part_sizes[j]:
                bad.append(f"tuple {t}: index {idx} out of range in part {j + 1}")
            elif idx in seen[j]:
                bad.append(f"part {j + 1} vertex {idx} covered twice")
            else:
                seen[j].add(idx)
    if m.perfect:
        for j, sz in enumerate(h.part_sizes):
            missing = sz - len(seen[j])
            if missing:
                bad.append(f"part {j + 1}: {missing} vertices uncovered")
    return tuple(bad)


def _max_corank(h: KPartiteHypergraph) -> int:
    """Largest codegree of a (k-1)-selection, over selections hit by edges."""
    e = h.edge_array
    if not len(e):
        return 0
    return max(max_repeat(np.delete(e, drop, axis=1)) for drop in range(h.k))


def _completion_exists(h, prefix: list, j: int, uncovered: list) -> bool:
    """Can `prefix` (parts 1..j) extend to a full non-edge of `h` using
    uncovered vertices of parts j+1..k?"""
    if j == h.k:
        return tuple(prefix) not in h.edge_set
    for u in uncovered[j]:
        prefix.append(u)
        if _completion_exists(h, prefix, j + 1, uncovered):
            prefix.pop()
            return True
        prefix.pop()
    return False


def find_pm_complement(
    h: KPartiteHypergraph, seed: SeedLike = 0, budget: int = 10**4
) -> Matching:
    """Randomized greedy perfect matching in the complement of `h`.

    Each restart walks the uncovered part-1 vertices in index order and
    extends part by part, picking uniformly among uncovered vertices that
    still admit a non-edge completion (realized as first-feasible on a
    random permutation).  A stuck walk releases up to two random matched
    tuples before the attempt is abandoned; `budget` bounds the restarts.
    Failure raises rather than returning a partial answer; it does not
    disprove existence.
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    n = h.part_sizes[0]
    k = h.k
    if n == 0:
        return Matching(edges=(), perfect=True)
    delta_c = n - _max_corank(h)
    if delta_c < n - h.max_degree:
        warnings.warn(
            f"complement min codegree {delta_c} below n - Delta = "
            f"{n - h.max_degree}; instance is outside the sane regime",
            stacklevel=2,
        )
    other = n ** (k - 1)
    for j, col in enumerate(h.edge_array.T):
        full = np.flatnonzero(np.bincount(col, minlength=n) == other)
        if len(full):
            raise BudgetExceededError(
                f"part {j + 1} vertex {full[0]} has no complement edge; "
                f"no perfect matching exists"
            )
    for attempt in range(budget):
        rng = rng_for(seed, attempt)
        uncovered = [sorted(range(n)) for _ in range(k)]
        matched: list = []
        repairs = 0
        failed = False
        while uncovered[0]:
            v1 = uncovered[0][0]
            prefix = [v1]
            pools = [None] + [list(uncovered[j]) for j in range(1, k)]
            ok = True
            for j in range(1, k):
                found = None
                order = rng.permutation(len(pools[j]))
                for pos in order:
                    u = pools[j][pos]
                    rest = [None] * (j + 1) + [
                        [x for x in uncovered[jj] if x not in prefix]
                        for jj in range(j + 1, k)
                    ]
                    prefix.append(u)
                    if _completion_exists(h, prefix, j + 1, rest):
                        found = u
                        break
                    prefix.pop()
                if found is None:
                    ok = False
                    break
            if ok:
                t = tuple(prefix)
                matched.append(t)
                for j in range(k):
                    uncovered[j].remove(t[j])
            elif repairs < 2 and matched:
                victim = matched.pop(int(rng.integers(0, len(matched))))
                for j in range(k):
                    uncovered[j].append(victim[j])
                    uncovered[j].sort()
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
    edge is looked at once, when the last of those tuples is colored, and
    forbids a color exactly when its other ends all carry that color.
    """
    bad = matching_violations(h, Matching(edges=m.edges, perfect=True))
    if bad:
        raise ValueError("not a perfect complement matching: " + "; ".join(bad))
    n_t = len(m.edges)
    tuples = np.array(m.edges, dtype=np.intp).reshape(n_t, h.k)
    owner = []
    for j, sz in enumerate(h.part_sizes):
        o = np.empty(sz, dtype=np.intp)
        o[tuples[:, j]] = np.arange(n_t)
        owner.append(o)
    e = h.edge_array
    rows = np.stack([owner[j][e[:, j]] for j in range(h.k)], axis=1)
    last = rows.max(axis=1)
    order = np.argsort(last, kind="stable")
    rows = rows[order].tolist()
    starts = np.searchsorted(last[order], np.arange(n_t + 1)).tolist()
    col = [0] * n_t  # 0: not colored yet, so tuple i reads as 0 while chosen
    for i in range(n_t):
        forbidden = set()
        for row in rows[starts[i] : starts[i + 1]]:
            seen = {col[o] for o in row}
            if len(seen) == 2:
                forbidden.add(max(seen))
        c = 1
        while c in forbidden:
            c += 1
        col[i] = c
    highest = max(col, default=0)
    bound = h.k * h.max_degree + 1
    if highest > bound:
        raise RuntimeError(f"greedy used {highest} colors, bound {bound}")
    tuple_color = np.array(col, dtype=np.intp)
    return PartialColoring(max(highest, 1), [tuple_color[o] for o in owner])


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
