"""Data model for k-uniform k-partite hypergraphs.

Vertices are identified by (part, index) with parts numbered 1..k and
indices 0-based.  Edges are positionally encoded: an edge is a k-tuple of
indices where slot i holds the part-(i+1) member, so "one vertex per part"
is structural and cannot be violated by construction.

The edges are held as one read-only (m, k) `np.intp` array, `edge_array`,
whose row i is edge i; the hot paths are array expressions over it, and
vertex degrees are one `bincount` per column of it.  The tuple-of-tuples
view `edges` is built from it on first use, for the callers that walk
edges one by one.

A constructed hypergraph is immutable and safe to share across concurrent
readers; the edge views and the degree cache are built lazily on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from balhyp.errors import KhgParseError


class Vertex(NamedTuple):
    part: int  # 1-based
    index: int  # 0-based


Edge = tuple  # k-tuple of 0-based indices, slot i = part i+1


class KPartiteHypergraph:
    """k parts of vertices plus a duplicate-free set of transversal edges.

    `edges` is either an (m, k) integer ndarray, kept as `edge_array`, or
    an iterable of index sequences, kept as `edges`.  The constructor
    normalizes but does not validate, so ragged edges and indices out of
    range (even out of `np.intp` range) construct; use `validate` for
    diagnostics or `require_valid` to raise.  Memory is Theta(k * |E|).
    """

    def __init__(self, part_sizes: Sequence[int], edges: np.ndarray | Iterable[Sequence[int]]):
        self.part_sizes = tuple(int(s) for s in part_sizes)
        self.k = len(self.part_sizes)
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != self.k or edges.dtype.kind not in "iu":
                raise ValueError(
                    f"edge array of shape {edges.shape} and dtype {edges.dtype} "
                    f"is not an (m, {self.k}) integer array"
                )
            self.edge_array = _frozen(np.array(edges, dtype=np.intp))
        else:
            self.edges = tuple(tuple(int(i) for i in e) for e in edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(m, k) read-only `np.intp` array, row i = edge i.

        Raises ValueError for ragged edges and OverflowError for an index
        outside `np.intp`; `validate` reports both.
        """
        return _frozen(np.array(self.edges, dtype=np.intp).reshape(len(self.edges), self.k))

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def n_balanced(self) -> bool:
        return len(set(self.part_sizes)) <= 1

    @property
    def n(self) -> int:
        """Common part size; only meaningful for n-balanced hypergraphs."""
        if not self.n_balanced:
            raise ValueError("hypergraph is not n-balanced")
        return self.part_sizes[0]

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def degrees(self) -> tuple:
        """degrees[part-1][index]: vertex degrees, one read-only array per part.

        Memory is Theta(sum of part sizes); `max_degree` does without it.
        """
        e = self.edge_array
        return tuple(
            _frozen(np.bincount(e[:, j], minlength=sz)) for j, sz in enumerate(self.part_sizes)
        )

    def degree(self, v: Vertex) -> int:
        part, index = v
        return int(self.degrees[part - 1][index])

    @cached_property
    def max_degree(self) -> int:
        """Largest vertex degree: the longest run of equal values in a sorted
        edge-array column.  Nothing is allocated per vertex, so part sizes
        may be huge."""
        e = self.edge_array
        if not len(e):
            return 0
        best = 0
        for col in e.T:
            s = np.sort(col)
            starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1], [True])))
            best = max(best, int(np.diff(starts).max()))
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KPartiteHypergraph)
            and self.part_sizes == other.part_sizes
            and self.edge_set == other.edge_set
        )

    def __hash__(self):
        return hash((self.part_sizes, self.edge_set))

    def __repr__(self) -> str:
        # counts the edges without building the tuple view; a ragged edge
        # list, which has no edge array, was given as tuples
        m = len(self.__dict__["edges"]) if "edges" in self.__dict__ else len(self.edge_array)
        return f"KPartiteHypergraph(k={self.k}, part_sizes={self.part_sizes}, m={m})"

    def require_valid(self) -> "KPartiteHypergraph":
        diag = validate(self)
        if not diag.ok:
            raise ValueError("invalid hypergraph: " + "; ".join(diag.violations))
        return self


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _int_array(values: Iterable) -> np.ndarray:
    """`values` as ints in an `np.intp` array, or in an object array when
    one lies beyond `np.intp`, so that a range check can still name it."""
    ints = [int(v) for v in values]
    try:
        return np.array(ints, dtype=np.intp)
    except OverflowError:
        return np.array(ints, dtype=object)


def _lex_order(e: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts the rows of `e` lexicographically.

    Rows that are already in order (sampled and canonical khg edges are)
    skip the sort; the check compares, so it cannot overflow.
    """
    if len(e) > 1 and e.shape[1]:
        later, earlier = e[1:], e[:-1]
        first = (later != earlier).argmax(axis=1)  # first differing slot, 0 if none
        if (later < earlier)[np.arange(len(later)), first].any():
            return np.lexsort(e.T[::-1])
    return np.arange(len(e))


@dataclass(frozen=True)
class Diagnostics:
    ok: bool
    violations: tuple


def validate(h: KPartiteHypergraph) -> Diagnostics:
    """Check all structural invariants; reports violations, never raises.

    Edge violations come in edge order: an edge of the wrong arity gets
    only that message; otherwise each out-of-range slot, then "duplicate"
    if an earlier edge of arity k is equal to it.
    """
    bad = []
    if h.k < 2:
        bad.append(f"k={h.k} must be at least 2")
    for j, sz in enumerate(h.part_sizes):
        if sz < 1:
            bad.append(f"part {j + 1} size {sz} not positive")
    try:
        rows = h.edge_array
        m = len(rows)
        pos = np.arange(m)
    except (ValueError, OverflowError):
        # ragged edges, or indices beyond intp: check the arity-k edges as
        # Python ints in an object array
        m = len(h.edges)
        pos = np.array([i for i, e in enumerate(h.edges) if len(e) == h.k], dtype=np.intp)
        rows = np.array([h.edges[i] for i in pos], dtype=object).reshape(len(pos), h.k)
    out_of_range = (rows < 0) | (rows >= np.array(h.part_sizes))
    dup = np.zeros(len(rows), dtype=bool)
    if len(rows) > 1:
        order = _lex_order(rows)
        s = rows[order]
        dup[order[1:]] = (s[1:] == s[:-1]).all(axis=1)
    row_of = np.full(m, -1)
    row_of[pos] = np.arange(len(pos))
    flagged = np.union1d(np.flatnonzero(row_of < 0), pos[out_of_range.any(axis=1) | dup])
    for i in flagged.tolist():
        r = row_of[i]
        if r < 0:
            e = h.edges[i]
            bad.append(f"edge {i} {e}: arity {len(e)} != k={h.k}")
            continue
        e = tuple(rows[r].tolist())
        for j in np.flatnonzero(out_of_range[r]).tolist():
            bad.append(f"edge {i} {e}: index {e[j]} out of range in part {j + 1}")
        if dup[r]:
            bad.append(f"duplicate edge {e}")
    return Diagnostics(ok=not bad, violations=tuple(bad))


def codegree(h: KPartiteHypergraph, selection: Iterable[Vertex]) -> int:
    """Number of edges containing every vertex of `selection`.

    The selection must have at most one vertex per part; |selection| = 1
    gives the plain degree and the empty selection gives |E|.
    """
    sel = [v if isinstance(v, Vertex) else Vertex(*v) for v in selection]
    parts_seen = set()
    for v in sel:
        if not 1 <= v.part <= h.k:
            raise ValueError(f"vertex {v}: part out of range")
        if not 0 <= v.index < h.part_sizes[v.part - 1]:
            raise ValueError(f"vertex {v}: index out of range")
        if v.part in parts_seen:
            raise ValueError(f"selection has two vertices in part {v.part}")
        parts_seen.add(v.part)
    e = h.edge_array
    inside = np.ones(len(e), dtype=bool)
    for v in sel:
        inside &= e[:, v.part - 1] == v.index
    return int(np.count_nonzero(inside))


def incidence(h: KPartiteHypergraph, j: int) -> list:
    """Per vertex of part j+1, the rows of the edges through it as int
    lists, in edge order.  One list per vertex.

    No library code calls it: the exhaustive search in `models` keys edges
    by bitmask instead.  It stays only while the benchmark's tracer lists
    it as a layer, until a benchmark change drops it from that list.
    """
    groups = [[] for _ in range(h.part_sizes[j])]
    for e in h.edge_array.tolist():
        groups[e[j]].append(e)
    return groups


def min_codegree(h: KPartiteHypergraph, j: int) -> int:
    """delta_j: minimum codegree over all cross-part selections of size j.

    Counts every selection of each of the C(k, j) part choices, so memory
    is the product of the chosen part sizes; desk scale only.
    """
    if not 1 <= j <= h.k:
        raise ValueError(f"j={j} out of range [1, {h.k}]")
    e = h.edge_array
    if not len(e):
        return 0
    lows = []
    for parts in itertools.combinations(range(h.k), j):
        dims = [h.part_sizes[p] for p in parts]
        flat = np.ravel_multi_index(e[:, list(parts)].T, dims)
        lows.append(int(np.bincount(flat, minlength=math.prod(dims)).min()))
    return min(lows)


class BalancedSet:
    """Per-part vertex subsets of equal cardinality; side = common size."""

    def __init__(self, parts: Sequence[Iterable[int]]):
        normalized = []
        for j, sub in enumerate(parts):
            sub = tuple(sorted(int(i) for i in sub))
            if len(set(sub)) != len(sub):
                raise ValueError(f"duplicate vertex in part {j + 1}")
            normalized.append(sub)
        self.parts = tuple(normalized)
        sides = {len(sub) for sub in self.parts}
        if len(sides) > 1:
            raise ValueError(f"unequal part sizes {sorted(len(s) for s in self.parts)}")
        self.side = len(self.parts[0]) if self.parts else 0

    def __eq__(self, other):
        return isinstance(other, BalancedSet) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"BalancedSet(side={self.side}, parts={self.parts})"

    def total(self) -> int:
        return self.side * len(self.parts)


def is_balanced_independent(h: KPartiteHypergraph, a: BalancedSet) -> bool:
    """True iff `a` has equal sides (structural) and contains no edge of `h`."""
    if len(a.parts) != h.k:
        raise ValueError(f"balanced set has {len(a.parts)} parts, hypergraph has {h.k}")
    e = h.edge_array
    hit = np.ones(len(e), dtype=bool)
    for j, sub in enumerate(a.parts):
        idx = np.array(sub, dtype=np.intp)
        out = (idx < 0) | (idx >= h.part_sizes[j])
        if out.any():
            raise ValueError(f"index {idx[out.argmax()]} out of range in part {j + 1}")
        member = np.zeros(h.part_sizes[j], dtype=bool)
        member[idx] = True
        hit &= member[e[:, j]]
    return not hit.any()


class PartialColoring:
    """Optional color per vertex; colors live in [1..q].

    Each part's colors are one read-only `np.intp` array in `color_arrays`,
    where 0 means uncolored.  The constructor takes, per part, either an
    integer ndarray in that encoding or a sequence of ints and None (None
    means uncolored, and 0 is then outside the palette like any other
    color below 1).  The tuple-of-tuples view `colors`, with None for
    uncolored, is built on first use.
    """

    def __init__(self, q: int, colors: Sequence[np.ndarray | Sequence[Optional[int]]]):
        self.q = int(q)
        self.color_arrays = tuple(_frozen(self._part_array(part)) for part in colors)

    def _part_array(self, part) -> np.ndarray:
        if isinstance(part, np.ndarray):
            if part.ndim != 1 or part.dtype.kind not in "iu":
                raise ValueError(
                    f"color array of shape {part.shape} and dtype {part.dtype} "
                    f"is not a 1-d integer array"
                )
            vals, colored = part, part != 0
        else:
            part = list(part)
            colored = np.array([c is not None for c in part], dtype=bool)
            vals = _int_array(0 if c is None else c for c in part)
        bad = colored & ((vals < 1) | (vals > self.q))
        if bad.any():
            raise ValueError(f"color {vals[bad.argmax()]} outside palette [1..{self.q}]")
        return np.array(vals, dtype=np.intp)

    @cached_property
    def colors(self) -> tuple:
        return tuple(
            tuple(c or None for c in a.tolist()) for a in self.color_arrays
        )

    @classmethod
    def uncolored(cls, h: KPartiteHypergraph, q: int) -> "PartialColoring":
        return cls(q, [np.zeros(sz, dtype=np.intp) for sz in h.part_sizes])

    def color_of(self, v: Vertex) -> Optional[int]:
        part, index = v
        return int(self.color_arrays[part - 1][index]) or None

    def is_total(self) -> bool:
        return all(a.all() for a in self.color_arrays)

    def colors_used(self) -> tuple:
        used = np.unique(np.concatenate((np.zeros(1, np.intp),) + self.color_arrays))
        return tuple(used[1:].tolist())

    def class_of(self, c: int) -> tuple:
        """Per-part index tuples of the vertices colored c."""
        return tuple(
            tuple(np.flatnonzero(a == c).tolist()) if c else () for a in self.color_arrays
        )

    def __eq__(self, other):
        return (
            isinstance(other, PartialColoring)
            and self.q == other.q
            and len(self.color_arrays) == len(other.color_arrays)
            and all(map(np.array_equal, self.color_arrays, other.color_arrays))
        )

    def __repr__(self):
        done = sum(int(np.count_nonzero(a)) for a in self.color_arrays)
        return f"PartialColoring(q={self.q}, colored={done})"


def _has_mono_edge(h: KPartiteHypergraph, color_arrays: tuple) -> bool:
    """Does some edge have all k members colored with one common color?"""
    e = h.edge_array
    if not len(e):
        return False
    c0 = color_arrays[0][e[:, 0]]
    mono = c0 != 0
    for j in range(1, h.k):
        mono &= color_arrays[j][e[:, j]] == c0
    return bool(mono.any())


def is_proper_on_colored(h: KPartiteHypergraph, phi: PartialColoring) -> bool:
    """No edge has all k members colored with one common color."""
    return not _has_mono_edge(h, phi.color_arrays)


def is_proper_balanced_coloring(
    h: KPartiteHypergraph, phi: PartialColoring, require_total: bool = True
) -> bool:
    """True iff every color class is a balanced independent set.

    Only colored vertices are checked: an edge is violating only when all k
    members carry one common color.  With `require_total`, every vertex must
    be colored as well.  Every class is balanced iff all parts have the
    same count of every color, and every class is independent iff no edge
    is monochromatic.
    """
    arrays = phi.color_arrays
    if len(arrays) != h.k or tuple(len(a) for a in arrays) != h.part_sizes:
        raise ValueError("coloring shape does not match hypergraph")
    if require_total and not phi.is_total():
        return False
    top = max((int(a.max()) for a in arrays if len(a)), default=0) + 1
    counts = [np.bincount(a, minlength=top)[1:] for a in arrays]
    if any(not np.array_equal(counts[0], cnt) for cnt in counts[1:]):
        return False  # some class not balanced
    return not _has_mono_edge(h, arrays)


def complement_edges(h: KPartiteHypergraph) -> Iterator[tuple]:
    """Stream the valid non-edges of `h` in lexicographic order of indices.

    Exactly prod(part_sizes) - |E| tuples are produced (assuming edges are
    duplicate-free), each once; materialization is the caller's choice.
    """
    present = h.edge_set
    for t in itertools.product(*(range(sz) for sz in h.part_sizes)):
        if t not in present:
            yield t


def induced(h: KPartiteHypergraph, subsets: Sequence[Iterable[int]]):
    """Subhypergraph induced by per-part vertex subsets.

    Returns (subhypergraph, remap) where remap[part-1][new_index] is the
    original index.  Keeps exactly the edges fully inside the subsets.
    A subset is any iterable of ints, repeats allowed; an index out of
    range raises ValueError naming the smallest such index.  Builds one
    membership mask per part, so memory is Theta(sum of part sizes + |E|).
    """
    if len(subsets) != h.k:
        raise ValueError(f"expected {h.k} subsets, got {len(subsets)}")
    masks = []
    for j, sub in enumerate(subsets):
        if not isinstance(sub, np.ndarray):
            sub = _int_array(sub)
        bad = (sub < 0) | (sub >= h.part_sizes[j])
        if bad.any():
            raise ValueError(f"index {sub[bad].min()} out of range in part {j + 1}")
        mask = np.zeros(h.part_sizes[j], dtype=bool)
        mask[sub.astype(np.intp)] = True
        masks.append(mask)
    e = h.edge_array
    inside = np.ones(len(e), dtype=bool)
    for j, mask in enumerate(masks):
        inside &= mask[e[:, j]]
    kept = e.compress(inside, axis=0)
    sub_edges = np.empty_like(kept)
    for j, mask in enumerate(masks):
        sub_edges[:, j] = (np.cumsum(mask) - 1)[kept[:, j]]
    sub_h = KPartiteHypergraph([int(np.count_nonzero(mask)) for mask in masks], sub_edges)
    return sub_h, tuple(tuple(np.flatnonzero(mask).tolist()) for mask in masks)


# --- `khg v1` text format ---------------------------------------------------
#
# line 1: "khg 1"
# line 2: "<k> <n_1> ... <n_k>"
# line 3: "<m>"
# then m lines of k space-separated 0-based indices (slot i = part i).
# UTF-8, LF line endings, no trailing whitespace.  Emission is canonical
# (edges sorted lexicographically), so parse/emit round-trips canonical
# files byte-identically.

_DIGITS = str.maketrans("", "", "0123456789")
_INTP_MAX = np.iinfo(np.intp).max


def _fields(i: int, line: str) -> list:
    if line != line.strip() or "  " in line or not line:
        raise KhgParseError(i, f"malformed whitespace in {line!r}")
    return line.split(" ")


def _parse_edge_lines(lines: list, k: int) -> list:
    """Edges of the body lines as int tuples; raises at the first bad line."""
    edges = []
    for off, line in enumerate(lines):
        lineno = 4 + off
        toks = _fields(lineno, line)
        if len(toks) != k:
            raise KhgParseError(lineno, f"expected {k} indices, got {len(toks)}")
        try:
            edges.append(tuple(int(t) for t in toks))
        except ValueError as exc:
            raise KhgParseError(lineno, f"non-integer index: {exc}") from None
    return edges


def parse_khg(text: str) -> KPartiteHypergraph:
    """Parse khg v1 text; errors carry the 1-based line number.

    The body is parsed in one pass when it is k unsigned decimal indices
    per line joined by single spaces, each below the `np.intp` maximum.
    Otherwise the lines are read one by one, which finds the first bad
    line, or keeps any other `int` spelling (sign, leading "+", an index
    beyond `np.intp`) as a Python int for `validate` to judge.
    """
    if "\r" in text:
        line = text[: text.index("\r")].count("\n") + 1
        raise KhgParseError(line, "CR found; khg v1 requires LF line endings")
    if not text.endswith("\n"):
        raise KhgParseError(max(1, text.count("\n") + 1), "missing final newline")
    n_lines = text.count("\n")
    if n_lines < 3:
        raise KhgParseError(n_lines or 1, "truncated header")
    lines = text.split("\n", 3)
    if lines[0] != "khg 1":
        raise KhgParseError(1, f"bad magic {lines[0]!r}, expected 'khg 1'")
    head = _fields(2, lines[1])
    try:
        k = int(head[0])
        sizes = [int(x) for x in head[1:]]
    except ValueError as exc:
        raise KhgParseError(2, f"non-integer token: {exc}") from None
    if k < 1 or len(sizes) != k:
        raise KhgParseError(2, f"expected k={k} part sizes, got {len(sizes)}")
    count = _fields(3, lines[2])
    try:
        (m,) = map(int, count)  # exactly one integer token
    except ValueError:
        raise KhgParseError(3, f"bad edge count {lines[2]!r}") from None
    if m < 0:
        raise KhgParseError(3, f"negative edge count {m}")
    if n_lines != 3 + m:
        raise KhgParseError(n_lines, f"expected {m} edge lines, found {n_lines - 3}")
    body = lines[3]
    padded = "\n" + body  # an empty token shows as two adjacent separators
    if body.translate(_DIGITS) == (" " * (k - 1) + "\n") * m and not any(
        pair in padded for pair in ("  ", " \n", "\n ", "\n\n")
    ):
        flat = np.fromstring(body, dtype=np.intp, sep=" ") if m else np.empty(0, np.intp)
        if not (m and flat.max() == _INTP_MAX):  # where an oversized index saturates
            return KPartiteHypergraph(sizes, flat.reshape(m, k))
    return KPartiteHypergraph(sizes, _parse_edge_lines(body.split("\n")[:-1], k))


def emit_khg(h: KPartiteHypergraph) -> str:
    """Canonical khg v1 text: edges sorted lexicographically."""
    e = h.edge_array
    m, k = e.shape
    rows = ((" ".join(["%d"] * k) + "\n") * m) % tuple(e[_lex_order(e)].ravel().tolist())
    return f"khg 1\n{k} " + " ".join(str(s) for s in h.part_sizes) + f"\n{m}\n" + rows


def load_khg(path) -> KPartiteHypergraph:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_khg(fh.read())


def dump_khg(h: KPartiteHypergraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_khg(h))
