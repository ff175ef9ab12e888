"""Pure-Python reference implementations of the vectorized library routines.

Each function is the loop the library ran before its edges became one
(m, k) array, kept here verbatim in behaviour so the differential tests
can require the array code to give identical results, messages included.
They read only `h.part_sizes`, `h.k` and the tuple view `h.edges`, and
colorings only as tuple-of-tuples with None for uncolored (`phi.colors`).
"""

import itertools
import math
from collections import Counter

from balhyp.core import BalancedSet, KPartiteHypergraph
from balhyp.errors import BudgetExceededError, KhgParseError
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
    count = fields(3, lines[2])
    try:
        (m,) = map(int, count)  # exactly one integer token
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



def incidence(h):
    """incidence[part-1][index] -> list of edge positions, as the library
    built it before degrees came from the edge array."""
    inc = [[[] for _ in range(sz)] for sz in h.part_sizes]
    for pos, e in enumerate(h.edges):
        for j, idx in enumerate(e):
            inc[j][idx].append(pos)
    return inc


def max_degree(h):
    if not h.edges:
        return 0
    return max(len(lst) for part in incidence(h) for lst in part)


def is_proper_on_colored(h, colors):
    for e in h.edges:
        c0 = colors[0][e[0]]
        if c0 is None:
            continue
        if all(colors[j][e[j]] == c0 for j in range(1, h.k)):
            return False
    return True


def is_proper_balanced_coloring(h, colors, require_total=True):
    if len(colors) != h.k or tuple(len(p) for p in colors) != h.part_sizes:
        raise ValueError("coloring shape does not match hypergraph")
    if require_total and not all(c is not None for part in colors for c in part):
        return False
    for c in sorted({c for part in colors for c in part if c is not None}):
        cls = tuple(tuple(i for i, col in enumerate(part) if col == c) for part in colors)
        if len({len(sub) for sub in cls}) > 1:
            return False
        if not is_balanced_independent(h, BalancedSet(cls)):
            return False
    return True


def induced(h, subsets):
    """(part_sizes, edges, remap) of the induced subhypergraph."""
    if len(subsets) != h.k:
        raise ValueError(f"expected {h.k} subsets, got {len(subsets)}")
    remap = []
    back = []
    for j, sub in enumerate(subsets):
        keep = sorted(set(int(i) for i in sub))
        for idx in keep:
            if not 0 <= idx < h.part_sizes[j]:
                raise ValueError(f"index {idx} out of range in part {j + 1}")
        remap.append(tuple(keep))
        back.append({old: new for new, old in enumerate(keep)})
    kept_edges = []
    for e in h.edges:
        if all(e[j] in back[j] for j in range(h.k)):
            kept_edges.append(tuple(back[j][e[j]] for j in range(h.k)))
    return tuple(len(r) for r in remap), tuple(kept_edges), tuple(remap)


def col_random_phase(h, q, seed):
    """(colors, lists_k, u_k) of the random phase."""
    n = h.part_sizes[0]
    k = h.k
    rng = rng_for(seed)
    cols = [rng.integers(1, q + 1, size=n) for _ in range(k - 1)]
    selectors = rng.random(n)
    banned = [set() for _ in range(n)]
    for e in h.edges:
        c0 = cols[0][e[0]]
        if all(cols[j][e[j]] == c0 for j in range(1, k - 1)):
            banned[e[k - 1]].add(int(c0))
    lists_k = []
    part_k = []
    u_k = []
    for v in range(n):
        survivors = tuple(c for c in range(1, q + 1) if c not in banned[v])
        lists_k.append(survivors)
        if survivors:
            rank = max(1, math.ceil(selectors[v] * len(survivors)))
            part_k.append(survivors[rank - 1])
        else:
            part_k.append(None)
            u_k.append(v)
    colors = tuple(tuple(int(c) for c in col) for col in cols) + (tuple(part_k),)
    return colors, tuple(lists_k), tuple(u_k)


def classes(colors, q):
    """(part, color) -> sorted indices colored that color, for every color
    1..q, empty classes included."""
    out = {}
    for j, part in enumerate(colors):
        for c in range(1, q + 1):
            out[(j + 1, c)] = tuple(i for i, col in enumerate(part) if col == c)
    return out


def rebalance(h, colors, q, n_c_target, threshold):
    """(colors, n_c, u_k_prime, bad_sets, clamped, good_shortage) of the
    rebalancing step, for a coloring with palette q."""
    k = h.k
    n = h.part_sizes[0]
    inc = incidence(h)
    cls_of = classes(colors, q)
    n_c = min(
        [n_c_target]
        + [len(cls_of[(j, c)]) for j in range(1, k + 1) for c in range(1, q + 1)]
    )
    clamped = n_c < n_c_target
    colors = [list(part) for part in colors]
    for c in range(1, q + 1):
        cls = cls_of[(k, c)]
        for idx in cls[: len(cls) - n_c]:
            colors[k - 1][idx] = None
    u_k_prime = tuple(i for i in range(n) if colors[k - 1][i] is None)
    pool = set(u_k_prime)
    bad_sets = {}
    good_shortage = False
    for j in range(1, k):
        for c in range(1, q + 1):
            cls = cls_of[(j, c)]
            bad = tuple(
                u
                for u in cls
                if sum(1 for pos in inc[j - 1][u] if h.edges[pos][k - 1] in pool)
                >= threshold
            )
            bad_sets[(j, c)] = bad
            drop = len(cls) - n_c
            good = [u for u in cls if u not in set(bad)]
            chosen = good[:drop]
            if len(chosen) < drop:
                good_shortage = True
                need = drop - len(chosen)
                chosen += [u for u in bad if u not in set(chosen)][:need]
            for idx in chosen:
                colors[j - 1][idx] = None
    colors = tuple(tuple(part) for part in colors)
    return colors, n_c, u_k_prime, bad_sets, clamped, good_shortage


def codegree(h, selection):
    """Edges through every (part, index) of `selection`, by intersecting
    incidence lists, smallest first."""
    sel = list(selection)
    if not sel:
        return len(h.edges)
    inc = incidence(h)
    lists = sorted((inc[part - 1][index] for part, index in sel), key=len)
    live = set(lists[0])
    for lst in lists[1:]:
        live &= set(lst)
        if not live:
            return 0
    return len(live)


def trim_top_degree(h, t):
    """Per-part kept indices: all but the t highest-degree vertices, ties
    to the lowest index."""
    keep = []
    for part in incidence(h):
        order = sorted(range(len(part)), key=lambda i: (-len(part[i]), i))
        removed = set(order[:t])
        keep.append([i for i in range(len(part)) if i not in removed])
    return keep


def balanced_is_witness(h, s):
    """Parts of the first side-s balanced independent set that the
    blocked-set enumeration finds, or None; 0 <= s <= every part size."""
    k = h.k
    nk = h.part_sizes[-1]
    inc = incidence(h)
    ranges = [range(sz) for sz in h.part_sizes[:-1]]
    for combo in itertools.product(*(itertools.combinations(r, s) for r in ranges)):
        member = [set(sub) for sub in combo[1:]]
        blocked = set()
        for u in combo[0]:
            for pos in inc[0][u]:
                e = h.edges[pos]
                if all(e[j] in member[j - 1] for j in range(1, k - 1)):
                    blocked.add(e[k - 1])
        if nk - len(blocked) >= s:
            free = [i for i in range(nk) if i not in blocked]
            return tuple(combo) + (tuple(free[:s]),)
    return None


def exists_balanced_is(h, s):
    if s == 0:
        return True
    if any(s > sz for sz in h.part_sizes):
        return False
    return balanced_is_witness(h, s) is not None


def exact_alpha_b(h):
    """(side, witness parts) of the largest balanced independent set."""
    for s in range(min(h.part_sizes), 0, -1):
        witness = balanced_is_witness(h, s)
        if witness is not None:
            return s, witness
    return 0, ((),) * h.k


def color_from_matching(h, tuples):
    """(q, colors) of the greedy matching colorer, colors as int tuples."""
    inc = incidence(h)
    color = [[0] * sz for sz in h.part_sizes]
    highest = 0
    for t in tuples:
        forbidden = set()
        for j, idx in enumerate(t):
            for pos in inc[j][idx]:
                f = h.edges[pos]
                # f closes in color c0 when every end outside t has color c0
                c0 = None
                mono = True
                for jj, fidx in enumerate(f):
                    if fidx == t[jj]:
                        continue
                    c_prev = color[jj][fidx]
                    if not c_prev or (c0 is not None and c0 != c_prev):
                        mono = False
                        break
                    c0 = c_prev
                if mono and c0 is not None:
                    forbidden.add(c0)
        c = 1
        while c in forbidden:
            c += 1
        for j, idx in enumerate(t):
            color[j][idx] = c
        highest = max(highest, c)
    return max(highest, 1), tuple(tuple(part) for part in color)


def _completion_exists(edge_set, k, prefix, j, uncovered):
    if j == k:
        return tuple(prefix) not in edge_set
    for u in uncovered[j]:
        prefix.append(u)
        if _completion_exists(edge_set, k, prefix, j + 1, uncovered):
            prefix.pop()
            return True
        prefix.pop()
    return False


def find_pm_complement(h, seed=0, budget=10**4):
    """The greedy complement matching walk as the library ran it, with the
    completion search fixed to read the uncovered vertices of the later
    parts as they are (it used to drop those whose index equals an earlier
    pick's).  Returns the matched tuples or raises BudgetExceededError."""
    n = h.part_sizes[0]
    k = h.k
    if n == 0:
        return ()
    edge_set = set(h.edges)
    for j in range(k):
        deg = Counter(e[j] for e in h.edges)
        full = [v for v in range(n) if deg[v] == n ** (k - 1)]
        if full:
            raise BudgetExceededError(
                f"part {j + 1} vertex {full[0]} has no complement edge; "
                f"no perfect matching exists"
            )
    for attempt in range(budget):
        rng = rng_for(seed, attempt)
        uncovered = [sorted(range(n)) for _ in range(k)]
        matched = []
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
                rest = [None] * (j + 1) + [uncovered[jj] for jj in range(j + 1, k)]
                for pos in order:
                    u = pools[j][pos]
                    prefix.append(u)
                    if _completion_exists(edge_set, k, prefix, j + 1, rest):
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
            return tuple(matched)
    raise BudgetExceededError(
        f"no perfect matching found in {budget} restarts (existence not disproved)"
    )


def matching_violations(h, tuples, perfect=False):
    """Violation messages of a complement matching, as a tuple, from one
    pass over its tuples against the host's edge tuples."""
    edge_set = set(h.edges)
    bad = []
    seen = [set() for _ in range(h.k)]
    for t in tuples:
        if len(t) != h.k:
            bad.append(f"tuple {t} has arity {len(t)}")
            continue
        if t in edge_set:
            bad.append(f"tuple {t} is an edge of the host")
        for j, idx in enumerate(t):
            if not 0 <= idx < h.part_sizes[j]:
                bad.append(f"tuple {t}: index {idx} out of range in part {j + 1}")
            elif idx in seen[j]:
                bad.append(f"part {j + 1} vertex {idx} covered twice")
            else:
                seen[j].add(idx)
    if perfect:
        for j, sz in enumerate(h.part_sizes):
            missing = sz - len(seen[j])
            if missing:
                bad.append(f"part {j + 1}: {missing} vertices uncovered")
    return tuple(bad)
