import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balhyp.core import (
    BalancedSet,
    KPartiteHypergraph,
    PartialColoring,
    Vertex,
    codegree,
    complement_edges,
    edge_keys,
    emit_khg,
    incidence,
    induced,
    is_balanced_independent,
    is_proper_balanced_coloring,
    is_proper_on_colored,
    min_codegree,
    parse_khg,
    validate,
)
import balhyp.core
from balhyp.errors import KhgParseError

from conftest import product_instances
import reference


def test_validate_clean():
    h = KPartiteHypergraph([2, 3], [(0, 0), (1, 2)])
    diag = validate(h)
    assert diag.ok and diag.violations == ()


def test_validate_reports_everything():
    h = KPartiteHypergraph([2, 2], [(0, 0), (0, 0), (0, 5), (0,)])
    diag = validate(h)
    assert not diag.ok
    text = " ".join(diag.violations)
    assert "duplicate" in text
    assert "out of range" in text
    assert "arity" in text


def test_validate_bad_shape():
    assert not validate(KPartiteHypergraph([3], [])).ok
    assert not validate(KPartiteHypergraph([2, 0], [])).ok


def test_codegree_against_edge_scan():
    h = KPartiteHypergraph(
        [3, 3, 3],
        [(0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 1, 1), (2, 2, 2)],
    )
    for parts in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        for idxs in itertools.product(range(3), repeat=len(parts)):
            sel = [Vertex(p, i) for p, i in zip(parts, idxs)]
            # oracle: direct scan over the edge list
            want = sum(
                1
                for e in h.edges
                if all(e[v.part - 1] == v.index for v in sel)
            )
            assert codegree(h, sel) == want


def test_codegree_empty_selection_is_edge_count():
    h = KPartiteHypergraph([2, 2], [(0, 0), (1, 1)])
    assert codegree(h, []) == 2


def test_codegree_rejects_same_part():
    h = KPartiteHypergraph([2, 2], [])
    with pytest.raises(ValueError):
        codegree(h, [Vertex(1, 0), Vertex(1, 1)])


def test_min_codegree_single_edge():
    # k=2, n=2, one edge: some part-1 vertex has degree 0
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    assert min_codegree(h, 1) == 0
    assert min_codegree(h, 2) == 0
    # complete: delta_1 = n^{k-1}
    hc = KPartiteHypergraph([2, 2], list(itertools.product(range(2), range(2))))
    assert min_codegree(hc, 1) == 2
    assert min_codegree(hc, 2) == 1
    # edgeless
    assert min_codegree(KPartiteHypergraph([2, 2], []), 1) == 0


def test_min_codegree_oracle_random():
    h = KPartiteHypergraph(
        [3, 2, 2], [(0, 0, 0), (1, 0, 1), (2, 1, 0), (0, 1, 1), (1, 1, 1)]
    )
    for j in (1, 2, 3):
        best = None
        for parts in itertools.combinations(range(3), j):
            for idxs in itertools.product(*(range(h.part_sizes[p]) for p in parts)):
                d = sum(
                    1
                    for e in h.edges
                    if all(e[p] == i for p, i in zip(parts, idxs))
                )
                best = d if best is None else min(best, d)
        assert min_codegree(h, j) == best


def test_degrees_and_incidence_match_reference():
    for h in product_instances(31, rounds=3):
        inc = reference.incidence(h)
        for j, part in enumerate(inc):
            assert incidence(h, j) == [[list(h.edges[pos]) for pos in lst] for lst in part]
        want = [[len(lst) for lst in part] for part in inc]
        assert [d.tolist() for d in h.degrees] == want
        assert not any(d.flags.writeable for d in h.degrees)
        assert [
            [h.degree(Vertex(j + 1, i)) for i in range(sz)] for j, sz in enumerate(h.part_sizes)
        ] == want


def test_codegree_matches_reference():
    for h in product_instances(32, rounds=2, n_max=3):
        for j in range(h.k + 1):
            counts = []
            for parts in itertools.combinations(range(1, h.k + 1), j):
                for idxs in itertools.product(*(range(h.part_sizes[p - 1]) for p in parts)):
                    sel = [Vertex(p, i) for p, i in zip(parts, idxs)]
                    counts.append(codegree(h, sel))
                    assert counts[-1] == reference.codegree(h, sel)
            if j:
                assert min_codegree(h, j) == min(counts)


def test_balanced_set_normalization():
    a = BalancedSet([(2, 0), (1, 0)])
    assert a.parts == ((0, 2), (0, 1))
    assert a.side == 2
    assert a.total() == 4
    with pytest.raises(ValueError):
        BalancedSet([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        BalancedSet([(0, 1), (0,)])


def test_is_balanced_independent():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    assert is_balanced_independent(h, BalancedSet([(1,), (1,)]))
    assert is_balanced_independent(h, BalancedSet([(1,), (0,)]))
    assert not is_balanced_independent(h, BalancedSet([(0,), (0,)]))
    assert is_balanced_independent(h, BalancedSet([(), ()]))
    with pytest.raises(ValueError):
        is_balanced_independent(h, BalancedSet([(0,), (0,), (0,)]))
    with pytest.raises(ValueError):
        is_balanced_independent(h, BalancedSet([(5,), (0,)]))


def test_partial_coloring_basics():
    phi = PartialColoring(3, [[1, None], [2, 3]])
    assert phi.color_of(Vertex(1, 0)) == 1
    assert phi.color_of(Vertex(1, 1)) is None
    assert not phi.is_total()
    assert phi.colors_used() == (1, 2, 3)
    assert phi.class_of(2) == ((), (0,))
    assert PartialColoring.uncolored(KPartiteHypergraph([2, 2], []), 2).colors == (
        (None, None),
        (None, None),
    )
    with pytest.raises(ValueError):
        PartialColoring(2, [[3]])


def test_proper_on_colored():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    assert is_proper_on_colored(h, PartialColoring(2, [[1, 1], [2, 1]]))
    assert not is_proper_on_colored(h, PartialColoring(2, [[1, 1], [1, 1]]))
    # partially colored edge is never monochromatic
    assert is_proper_on_colored(h, PartialColoring(2, [[1, 1], [None, 1]]))


def test_proper_balanced_coloring():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    good = PartialColoring(2, [[1, 2], [2, 1]])
    assert is_proper_balanced_coloring(h, good)
    # unbalanced class
    lop = PartialColoring(2, [[1, 1], [1, 2]])
    assert not is_proper_balanced_coloring(h, lop)
    # monochromatic edge
    mono = PartialColoring(1, [[1, 1], [1, 1]])
    assert not is_proper_balanced_coloring(h, mono)
    # partial coloring fails totality unless relaxed
    part = PartialColoring(2, [[1, None], [None, 1]])
    assert not is_proper_balanced_coloring(h, part)
    assert is_proper_balanced_coloring(h, part, require_total=False)
    with pytest.raises(ValueError):
        is_proper_balanced_coloring(h, PartialColoring(2, [[1], [1]]))


def test_complement_edges_lex_and_complete():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    assert list(complement_edges(h)) == [(0, 1), (1, 0), (1, 1)]
    full = KPartiteHypergraph(
        [2, 2], list(itertools.product(range(2), range(2)))
    )
    assert list(complement_edges(full)) == []
    empty = KPartiteHypergraph([2, 2], [])
    assert len(list(complement_edges(empty))) == 4


def test_induced_two_edges():
    h = KPartiteHypergraph([3, 3], [(0, 0), (1, 1), (2, 2), (0, 2)])
    sub, remap = induced(h, [(0, 2), (0, 2)])
    assert sub.part_sizes == (2, 2)
    assert remap == ((0, 2), (0, 2))
    # membership oracle: edges with both ends kept are (0,0), (2,2), (0,2)
    assert sorted(sub.edges) == [(0, 0), (0, 1), (1, 1)]


def test_induced_rejects_bad_index():
    h = KPartiteHypergraph([2, 2], [])
    with pytest.raises(ValueError):
        induced(h, [(0, 5), (0,)])
    with pytest.raises(ValueError):
        induced(h, [(0,)])


def test_khg_roundtrip_canonical():
    h = KPartiteHypergraph([2, 3], [(1, 2), (0, 0)])
    text = emit_khg(h)
    assert text == "khg 1\n2 2 3\n2\n0 0\n1 2\n"
    h2 = parse_khg(text)
    assert h2 == h
    assert emit_khg(h2) == text


def test_khg_empty_edges():
    assert parse_khg("khg 1\n2 1 1\n0\n").edges == ()


def test_khg_errors_carry_line_numbers():
    cases = [
        ("khg 2\n2 1 1\n0\n", 1),
        ("khg 1\n2 1\n0\n", 2),
        ("khg 1\n2 1 1\nx\n", 3),
        ("khg 1\n2 1 1\n1\n0\n", 4),
        ("khg 1\n2 1 1\n2\n0 0\n", 4),
        ("khg 1\n2 1 1\n1\n0 0 ", 4),
        ("khg 1\n2  1 1\n0\n", 2),
        ("khg 1\n2 1 1\n0", 3),
        ("khg 1\n2 1 1\n 1\n0 0\n", 3),
        ("khg 1\n2 1 1\n1 \n0 0\n", 3),
        ("khg 1\n2 1 1\n1 1\n0 0\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(KhgParseError) as err:
            parse_khg(text)
        assert err.value.line == line, text
    with pytest.raises(KhgParseError):
        parse_khg("khg 1\r\n2 1 1\r\n0\r\n")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_khg_roundtrip_random(data):
    k = data.draw(st.integers(2, 4))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    universe = list(itertools.product(*(range(s) for s in sizes)))
    edges = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=10)) if universe else []
    h = KPartiteHypergraph(sizes, edges)
    again = parse_khg(emit_khg(h))
    assert again == h
    assert emit_khg(again) == emit_khg(h)


def test_hypergraph_equality_ignores_edge_order():
    a = KPartiteHypergraph([2, 2], [(0, 0), (1, 1)])
    b = KPartiteHypergraph([2, 2], [(1, 1), (0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != KPartiteHypergraph([2, 2], [(0, 0)])


def test_require_valid():
    with pytest.raises(ValueError):
        KPartiteHypergraph([2, 2], [(0, 9)]).require_valid()
    h = KPartiteHypergraph([2, 2], [])
    assert h.require_valid() is h


def test_n_property():
    assert KPartiteHypergraph([3, 3], []).n == 3
    with pytest.raises(ValueError):
        KPartiteHypergraph([2, 3], []).n


# --- differential tests against the pure-Python references -----------------


@st.composite
def loose_hypergraphs(draw, ragged=True):
    """k in 2..4 with edges that may repeat, leave their part's range or,
    with `ragged`, have the wrong arity; often edgeless."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    arity = st.integers(k - 1, k + 1) if ragged else st.just(k)
    edge = arity.flatmap(lambda a: st.tuples(*[st.integers(-1, 5)] * a))
    return KPartiteHypergraph(sizes, draw(st.lists(edge, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(loose_hypergraphs())
def test_validate_matches_reference(h):
    # sorted edges take the path that skips the row sort
    for g in (h, KPartiteHypergraph(h.part_sizes, sorted(h.edges))):
        assert list(validate(g).violations) == reference.validate(g)


@settings(max_examples=100, deadline=None)
@given(loose_hypergraphs(ragged=False))
def test_validate_array_backed_matches_reference(h):
    arr = KPartiteHypergraph(h.part_sizes, np.array(h.edges, dtype=np.int64).reshape(-1, h.k))
    assert list(validate(arr).violations) == reference.validate(h)


def test_validate_index_beyond_intp():
    big = 99999999999999999999
    h = KPartiteHypergraph([2, 2], [(0, big), (1, 1), (0, big), (0, big + 1), (1,)])
    assert list(validate(h).violations) == reference.validate(h)
    assert (
        "edge 0 (0, 99999999999999999999): index 99999999999999999999 out of range in part 2"
        in validate(h).violations
    )
    # a part that large makes such an index valid, and repeats still show
    wide = KPartiteHypergraph([2, 2**70], [(1, 2**69), (0, 5), (1, 2**69)])
    assert validate(wide).violations == ("duplicate edge (1, 590295810358705651712)",)


def test_validate_duplicates_past_int64_product():
    # prod(part_sizes) = 2^120: any flat edge index would overflow int64
    sizes = [2**40, 2**40, 2**40]
    edges = [(2**39, 5, 7), (1, 2, 3), (2**39, 5, 7), (2**40 - 1, 0, 0), (1, 2, 3)]
    h = KPartiteHypergraph(sizes, np.array(edges))
    assert validate(h).violations == (
        "duplicate edge (549755813888, 5, 7)",
        "duplicate edge (1, 2, 3)",
    )
    for g in (h, KPartiteHypergraph(sizes, sorted(edges))):
        assert list(validate(g).violations) == reference.validate(g)


def test_edge_keys_never_overflow():
    n = 2**40  # n^2 is past intp, so the keys are Python ints
    rows = np.array([[n - 1, n - 2], [3, 7]])
    assert edge_keys(rows, (n, n)).tolist() == [(n - 1) * n + n - 2, 3 * n + 7]
    assert edge_keys(rows[1:], (8, 8)).tolist() == [3 * 8 + 7]
    wide = np.array([[1, 2, 3], [0, 0, 1]])
    assert edge_keys(wide, (10, 10, 10)).tolist() == [123, 1]
    # mixed radix: slot j weighs the product of the later radices
    assert edge_keys(wide, (2, 3, 5)).tolist() == [1 * 15 + 2 * 5 + 3, 1]
    assert edge_keys(wide, (2, 3, 5)).dtype == np.intp
    assert edge_keys(rows, (n, n)).dtype == object


# small values repeat; intp values near both ends make a column span more
# than intp holds
_any_int = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**63), -(2**62)),
    st.integers(2**62, 2**63 - 1),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.tuples(*[_any_int] * k), min_size=1)))
def test_span_keys_order_rows(rows):
    # rows with negatives and values past intp, as `validate` and `emit_khg`
    # key them: object dtype once a value leaves intp; intp rows keep intp
    # keys even when their spans' product overflows
    try:
        arr = np.array(rows, dtype=np.intp)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    keys = balhyp.core._span_keys(arr)
    assert (keys.dtype == object) == (arr.dtype == object)
    for a, ka in zip(rows, keys.tolist()):
        for b, kb in zip(rows, keys.tolist()):
            assert (ka == kb) == (a == b)
    order = np.argsort(keys, kind="stable").tolist()
    assert order == sorted(range(len(rows)), key=rows.__getitem__)


def test_span_keys_wide_intp_rows():
    # 65536^4 overflows intp: the keys are dense ranks, not Python ints
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 65536, size=(500, 4))
    rows[250:] = rows[:250]
    keys = balhyp.core._span_keys(rows)
    assert keys.dtype == np.intp
    assert np.argsort(keys, kind="stable").tolist() == np.lexsort(rows.T[::-1]).tolist()
    assert len(np.unique(keys)) == len(np.unique(rows, axis=0))


def test_repr_builds_no_edge_tuples(monkeypatch):
    h = KPartiteHypergraph([64, 64], np.array([[i, (7 * i) % 64] for i in range(64)]))
    ragged = KPartiteHypergraph([2, 2], [(0, 0), (1,)])

    def refuse(h):
        raise AssertionError("built the edge tuples")

    monkeypatch.setattr(KPartiteHypergraph, "edges", property(refuse))
    assert repr(h) == "KPartiteHypergraph(k=2, part_sizes=(64, 64), m=64)"
    assert repr(ragged) == "KPartiteHypergraph(k=2, part_sizes=(2, 2), m=2)"


def test_array_constructor():
    a = KPartiteHypergraph([3, 2], np.array([[2, 1], [0, 0]], dtype=np.int32))
    assert a.edge_array.dtype == np.intp and not a.edge_array.flags.writeable
    assert a.edges == ((2, 1), (0, 0))
    assert a == KPartiteHypergraph([3, 2], [(0, 0), (2, 1)])
    t = KPartiteHypergraph([3, 2], [(2, 1)])
    assert t.edge_array.tolist() == [[2, 1]] and not t.edge_array.flags.writeable
    assert KPartiteHypergraph([2, 2], []).edge_array.shape == (0, 2)
    for bad in (np.zeros((2, 3), dtype=int), np.zeros(4, dtype=int), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            KPartiteHypergraph([2, 2], bad)
    with pytest.raises(ValueError):
        KPartiteHypergraph([2, 2], [(0, 0), (1,)]).edge_array


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_balanced_independent_matches_reference(data):
    h = data.draw(loose_hypergraphs(ragged=False).filter(lambda g: validate(g).ok))
    side = data.draw(st.integers(0, min(h.part_sizes)))
    parts = [
        data.draw(st.lists(st.integers(0, sz - 1), min_size=side, max_size=side, unique=True))
        for sz in h.part_sizes
    ]
    a = BalancedSet(parts)
    assert is_balanced_independent(h, a) == reference.is_balanced_independent(h, a)


@settings(max_examples=150, deadline=None)
@given(loose_hypergraphs(ragged=False))
def test_emit_matches_reference(h):
    for g in (h, KPartiteHypergraph(h.part_sizes, sorted(h.edges))):
        assert emit_khg(g) == reference.emit_khg(g)


_TOKENS = ["0", "1", "3", "007", "-1", "-0", "+2", "1_0", "x", "", "\t1",
           "99999999999999999999", "9223372036854775807", "١"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_matches_reference(data):
    """Same graph, or the same error line and message, on khg texts with
    malformed, ragged, exotic and oversized body lines."""
    k = data.draw(st.integers(1, 4))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    canonical = st.lists(st.integers(0, 4).map(str), min_size=k, max_size=k)
    loose = st.lists(st.sampled_from(_TOKENS), min_size=max(1, k - 1), max_size=k + 1)
    odd = st.sampled_from([" 1 2", "1  2", "1 ", " ", ""])
    lines = data.draw(st.lists(st.one_of(canonical, canonical, loose).map(" ".join) | odd, max_size=6))
    m = len(lines) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
    text = f"khg 1\n{k} " + " ".join(map(str, sizes)) + f"\n{m}\n" + "".join(s + "\n" for s in lines)
    try:
        want = reference.parse_khg(text)
    except KhgParseError as exc:
        with pytest.raises(KhgParseError) as err:
            parse_khg(text)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        return
    got = parse_khg(text)
    assert got.part_sizes == want.part_sizes and got.edges == want.edges
    assert validate(got).violations == tuple(reference.validate(want))


_MAGICS = ["khg 1", "khg 2", "KHG 1", "khg  1", "khg 1 ", "khg", ""]
_HEADER_INTS = ["0", "1", "2", "3", "-1", "-3", "+2", "02", "1_0", "١", "３",
                "1000000000000", "99999999999999999999", "1.5", "x", "1e3", "²", ""]
_COUNTS = ["0", "1", "2", "-1", "01", "+1", "١", "99999999999999999999",
           " 1", "1 ", "1  1", "1 1", "\t1", "", "x"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_header_fuzz(data):
    """Mutated magic, k, part sizes and edge count: the parser raises
    KhgParseError with a line number, or returns what the reference does,
    a graph that `validate` rejects or one whose header reads back."""
    def field(good, mutants):  # mutated one time in three
        return data.draw(st.sampled_from(mutants)) if data.draw(st.integers(0, 2)) == 0 else good

    k = data.draw(st.integers(2, 3))
    body = [" ".join(["0"] * k)] * data.draw(st.integers(0, 2))
    magic = field("khg 1", _MAGICS)
    k_tok = field(str(k), _HEADER_INTS)
    sizes = [field("1", _HEADER_INTS) for _ in range(field(k, [k - 1, k + 1]))]
    m = field(str(len(body)), _COUNTS)
    text = "\n".join([magic, " ".join([k_tok] + sizes), m] + body) + "\n"
    try:
        want = reference.parse_khg(text)
    except KhgParseError as exc:
        with pytest.raises(KhgParseError) as err:
            parse_khg(text)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        assert 1 <= err.value.line <= text.count("\n")
        return
    got = parse_khg(text)
    assert got.part_sizes == want.part_sizes and got.edges == want.edges
    diag = validate(got)
    assert diag.violations == tuple(reference.validate(want))
    if diag.ok:
        assert (got.k, got.part_sizes, len(got.edge_array)) == (
            int(k_tok), tuple(map(int, sizes)), int(m)
        )


def test_parse_index_beyond_intp_reaches_validate():
    h = parse_khg("khg 1\n2 1 1\n1\n0 99999999999999999999\n")
    assert h.edges == ((0, 99999999999999999999),)
    assert validate(h).violations == (
        "edge 0 (0, 99999999999999999999): index 99999999999999999999 out of range in part 2",
    )
    assert parse_khg("khg 1\n2 1 1\n1\n0 9223372036854775807\n").edges == ((0, 2**63 - 1),)


@st.composite
def colored_hypergraphs(draw):
    """A valid hypergraph (k in 2..4, often edgeless) with a palette q in
    1..8 and per-part color lists holding None for uncolored.  Half the
    time all parts get one color multiset, so classes are balanced."""
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 6))] * k
    else:
        sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    edge = st.tuples(*[st.integers(0, sz - 1) for sz in sizes])
    edges = draw(st.lists(edge, unique=True, max_size=24))
    q = draw(st.integers(1, 8))
    color = st.none() | st.integers(1, q)
    first = draw(st.lists(color, min_size=sizes[0], max_size=sizes[0]))
    if len(set(sizes)) == 1 and draw(st.booleans()):
        colors = [first] + [draw(st.permutations(first)) for _ in sizes[1:]]
    else:
        colors = [first] + [draw(st.lists(color, min_size=sz, max_size=sz)) for sz in sizes[1:]]
    return KPartiteHypergraph(sizes, edges), q, colors


def as_color_arrays(colors, dtype=np.intp):
    return [np.array([0 if c is None else c for c in part], dtype=dtype) for part in colors]


@settings(max_examples=300, deadline=None)
@given(colored_hypergraphs())
def test_proper_checks_match_reference(case):
    h, q, colors = case
    phi = PartialColoring(q, colors)
    assert is_proper_on_colored(h, phi) == reference.is_proper_on_colored(h, colors)
    for total in (True, False):
        assert is_proper_balanced_coloring(h, phi, require_total=total) == (
            reference.is_proper_balanced_coloring(h, colors, require_total=total)
        )


@settings(max_examples=200, deadline=None)
@given(colored_hypergraphs())
def test_max_degree_matches_reference(case):
    h = case[0]
    assert h.max_degree == reference.max_degree(h)
    assert KPartiteHypergraph(h.part_sizes, h.edge_array).max_degree == h.max_degree


def _subset_forms(values):
    """Ways to hand `values` to `induced`: list, tuple, generator, ndarray."""
    return (
        lambda: list(values),
        lambda: tuple(values),
        lambda: (v for v in values),
        lambda: np.array(values, dtype=np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_induced_matches_reference(data):
    """Same subhypergraph and remap, or the same error, for subsets with
    repeats and out-of-range indices on unbalanced part sizes."""
    h = data.draw(colored_hypergraphs())[0]
    count = data.draw(st.sampled_from([h.k] * 8 + [h.k - 1, h.k + 1]))
    picks = []
    for j in range(count):
        sz = h.part_sizes[j % h.k]
        values = data.draw(st.lists(st.integers(-2, sz + 1) | st.integers(0, sz - 1), max_size=8))
        picks.append((data.draw(st.integers(0, 3)), values))
    args = lambda: [_subset_forms(values)[form]() for form, values in picks]
    try:
        want = reference.induced(h, args())
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            induced(h, args())
        assert str(err.value) == str(exc)
        return
    sub, remap = induced(h, args())
    assert (sub.part_sizes, sub.edges, remap) == want
    assert sub.edge_array.shape == (len(want[1]), h.k)


def test_induced_index_beyond_intp():
    h = KPartiteHypergraph([3, 3], [(0, 0)])
    for subsets, smallest in (([(0, 2**70, -5, 2**70), (0,)], -5), ([(0, 2**70), (0,)], 2**70)):
        with pytest.raises(ValueError) as err:
            induced(h, subsets)
        with pytest.raises(ValueError) as want:
            reference.induced(h, subsets)
        assert str(err.value) == str(want.value) == f"index {smallest} out of range in part 1"


@settings(max_examples=200, deadline=None)
@given(colored_hypergraphs(), st.sampled_from([np.intp, np.int8, np.int32, np.uint16, np.uint64]))
def test_partial_coloring_arrays_match_tuples(case, dtype):
    _, q, colors = case
    tup = PartialColoring(q, colors)
    arr = PartialColoring(q, as_color_arrays(colors, dtype))
    assert arr == tup and tup == arr
    assert arr.colors == tup.colors == tuple(tuple(part) for part in colors)
    for a in arr.color_arrays:
        assert a.dtype == np.intp and not a.flags.writeable
    assert arr.is_total() == all(c is not None for p in colors for c in p)
    assert arr.colors_used() == tuple(sorted({c for p in colors for c in p if c is not None}))
    for c in range(q + 2):
        assert arr.class_of(c) == tuple(
            tuple(i for i, col in enumerate(p) if col == c) for p in colors
        )
    assert arr != PartialColoring(q + 1, colors)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partial_coloring_palette_error(data):
    """Arrays and tuples name the same first color outside [1..q]; in an
    array 0 is uncolored, in a tuple it is outside the palette."""
    q = data.draw(st.integers(1, 8))
    parts = data.draw(st.lists(st.lists(st.integers(-3, q + 3) | st.none(), max_size=5),
                               min_size=1, max_size=4))
    outside = [c for p in parts for c in p if c is not None and not 1 <= c <= q]
    nonzero_outside = [c for c in outside if c != 0]
    try:
        PartialColoring(q, parts)
        assert not outside
    except ValueError as exc:
        assert str(exc) == f"color {outside[0]} outside palette [1..{q}]"
    try:
        PartialColoring(q, as_color_arrays(parts))
        assert not nonzero_outside
    except ValueError as exc:
        assert str(exc) == f"color {nonzero_outside[0]} outside palette [1..{q}]"


def test_partial_coloring_array_constructor():
    phi = PartialColoring(3, [np.array([1, 0, 3], dtype=np.int16), np.array([0, 2, 2])])
    assert phi.colors == ((1, None, 3), (None, 2, 2))
    assert phi.color_of(Vertex(1, 1)) is None and phi.color_of(Vertex(2, 2)) == 2
    assert not phi.is_total()
    assert phi.colors_used() == (1, 2, 3)
    with pytest.raises(ValueError, match="color 4 outside palette"):
        PartialColoring(3, [np.array([4], dtype=np.uint8)])
    with pytest.raises(ValueError, match=r"color 18446744073709551615 outside palette \[1..3\]"):
        PartialColoring(3, [np.array([2**64 - 1], dtype=np.uint64)])
    with pytest.raises(ValueError, match="color 99999999999999999999 outside palette"):
        PartialColoring(3, [[1, 99999999999999999999]])
    for bad in (np.zeros((2, 2), dtype=int), np.zeros(2)):
        with pytest.raises(ValueError):
            PartialColoring(3, [bad])
    src = np.array([1, 2])
    phi = PartialColoring(2, [src])
    src[0] = 2  # the coloring keeps its own copy
    assert phi.colors == ((1, 2),)
