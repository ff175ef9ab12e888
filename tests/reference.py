"""Pure-Python reference implementations of the vectorized library routines.

Each function is the loop the library ran before its edges became one
(m, k) array, kept here verbatim in behaviour so the differential tests
can require the array code to give identical results, messages included.
They read only `h.part_sizes`, `h.k` and the tuple view `h.edges`.
"""

import itertools

from balhyp.core import KPartiteHypergraph
from balhyp.errors import KhgParseError
from balhyp.rng import rng_for


def validate(h):
    """Violation messages, in order, as a list."""
    bad = []
    if h.k < 2:
        bad.append(f"k={h.k} must be at least 2")
    for j, sz in enumerate(h.part_sizes):
        if sz < 1:
            bad.append(f"part {j + 1} size {sz} not positive")
    seen = set()
    for pos, e in enumerate(h.edges):
        if len(e) != h.k:
            bad.append(f"edge {pos} {e}: arity {len(e)} != k={h.k}")
            continue
        for j, idx in enumerate(e):
            if not 0 <= idx < h.part_sizes[j]:
                bad.append(f"edge {pos} {e}: index {idx} out of range in part {j + 1}")
        if e in seen:
            bad.append(f"duplicate edge {e}")
        seen.add(e)
    return bad


def is_balanced_independent(h, a):
    if len(a.parts) != h.k:
        raise ValueError(f"balanced set has {len(a.parts)} parts, hypergraph has {h.k}")
    for j, sub in enumerate(a.parts):
        for idx in sub:
            if not 0 <= idx < h.part_sizes[j]:
                raise ValueError(f"index {idx} out of range in part {j + 1}")
    member = [set(sub) for sub in a.parts]
    for e in h.edges:
        if all(e[j] in member[j] for j in range(h.k)):
            return False
    return True


def parse_khg(text):
    if "\r" in text:
        line = text[: text.index("\r")].count("\n") + 1
        raise KhgParseError(line, "CR found; khg v1 requires LF line endings")
    if not text.endswith("\n"):
        raise KhgParseError(max(1, text.count("\n") + 1), "missing final newline")
    lines = text.split("\n")[:-1]

    def fields(i, line):
        if line != line.strip() or "  " in line or not line:
            raise KhgParseError(i, f"malformed whitespace in {line!r}")
        return line.split(" ")

    if len(lines) < 3:
        raise KhgParseError(len(lines) or 1, "truncated header")
    if lines[0] != "khg 1":
        raise KhgParseError(1, f"bad magic {lines[0]!r}, expected 'khg 1'")
    head = fields(2, lines[1])
    try:
        k = int(head[0])
        sizes = [int(x) for x in head[1:]]
    except ValueError as exc:
        raise KhgParseError(2, f"non-integer token: {exc}") from None
    if k < 1 or len(sizes) != k:
        raise KhgParseError(2, f"expected k={k} part sizes, got {len(sizes)}")
    try:
        m = int(lines[2])
    except ValueError:
        raise KhgParseError(3, f"bad edge count {lines[2]!r}") from None
    if m < 0:
        raise KhgParseError(3, f"negative edge count {m}")
    if len(lines) != 3 + m:
        raise KhgParseError(len(lines), f"expected {m} edge lines, found {len(lines) - 3}")
    edges = []
    for off, line in enumerate(lines[3:]):
        lineno = 4 + off
        toks = fields(lineno, line)
        if len(toks) != k:
            raise KhgParseError(lineno, f"expected {k} indices, got {len(toks)}")
        try:
            edges.append(tuple(int(t) for t in toks))
        except ValueError as exc:
            raise KhgParseError(lineno, f"non-integer index: {exc}") from None
    return KPartiteHypergraph(sizes, edges)


def emit_khg(h):
    out = ["khg 1", f"{h.k} " + " ".join(str(s) for s in h.part_sizes), str(len(h.edges))]
    for e in sorted(h.edges):
        out.append(" ".join(str(i) for i in e))
    return "\n".join(out) + "\n"


def rank_to_edge(rank, k, n):
    digits = []
    for _ in range(k):
        rank, d = divmod(rank, n)
        digits.append(d)
    return tuple(reversed(digits))


def sample_hknp(k, N, p, seed, per_edge_limit=10**7):
    """Edge tuples of H(k, N, p); `per_edge_limit` picks the path as in
    the library, whose limit is 10^7 candidate edges."""
    total = N**k
    if p == 0:
        return []
    if p == 1:
        return list(itertools.product(range(N), repeat=k))
    rng = rng_for(seed)
    if total <= per_edge_limit:
        u = rng.random(total)
        return [rank_to_edge(r, k, N) for r in range(total) if u[r] < p]
    m = int(rng.binomial(total, p))
    chosen = set()
    while len(chosen) < m:
        want = m - len(chosen)
        batch = rng.integers(0, total, size=max(want + 16, int(want * 1.1)))
        for r in batch:
            if len(chosen) == m:
                break
            chosen.add(int(r))
    return sorted(rank_to_edge(r, k, N) for r in chosen)

