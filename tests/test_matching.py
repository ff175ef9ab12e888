"""Tests for complement perfect matchings and the matching-based coloring."""

import random
import warnings

import numpy as np
import pytest

import balhyp.matching
from balhyp.cli import main
from balhyp.core import (
    KPartiteHypergraph,
    emit_khg,
    induced,
    is_proper_balanced_coloring,
)
from balhyp.errors import BudgetExceededError
from balhyp.matching import (
    Matching,
    color_from_matching,
    exact_pm_complement,
    fallback_coloring,
    find_pm_complement,
    matching_violations,
)
from balhyp.models import sample_hknp

from conftest import cap_max_degree, mixed_instances, product_instances
import reference


def test_violations_clean():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    m = Matching(edges=((0, 1), (1, 0)), perfect=True)
    assert matching_violations(h, m) == ()


def test_violations_reported():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    assert any(
        "edge of the host" in v
        for v in matching_violations(h, Matching(edges=((0, 0),)))
    )
    assert any(
        "covered twice" in v
        for v in matching_violations(h, Matching(edges=((0, 0), (0, 1))))
    )
    assert any(
        "out of range" in v
        for v in matching_violations(h, Matching(edges=((0, 5),)))
    )
    assert any(
        "arity" in v for v in matching_violations(h, Matching(edges=((0,),)))
    )
    assert any(
        "uncovered" in v
        for v in matching_violations(h, Matching(edges=((0, 1),), perfect=True))
    )


def test_violations_match_reference():
    """Same messages, in the same order, as the one-pass loop."""
    h = KPartiteHypergraph([3, 3, 2], [(0, 0, 0), (1, 2, 1), (2, 1, 0)])
    big = 2**70
    malformed = [
        ((0, 1), (1, 0, 1, 0)),  # wrong arity
        ((0, 1, 2), (3, 0, 0), (-1, 2, 1), (1, 1, big), (-big, 0, 0)),  # out of range
        ((0, 1, 0), (0, 2, 1), (1, 1, 1), (2, 1, 1)),  # repeated vertex
        ((1, 2, 1), (0, 1, 0), (2, 0, 1)),  # host edge
        ((0, 1, 0), (1, 0, 1)),  # missing tuples
        ((0, 0, 0), (0, 0, 0), (1, 2), (1, 2, 1), (2, 1, 0), (5, 0, 0),
         (np.int64(2), 2, 1), (1, 0, 7)),  # mixed: host edges repeated too
        (),
    ]
    for tuples in malformed:
        for perfect in (False, True):
            want = reference.matching_violations(h, tuples, perfect)
            assert matching_violations(h, Matching(tuples, perfect)) == want, tuples
            assert want or not perfect
    assert matching_violations(h, Matching(((0, 1, 0), (1, 0, 1)), perfect=True)) == (
        "part 1: 1 vertices uncovered", "part 2: 1 vertices uncovered",
    )
    # seeded fuzz over mostly unbalanced hosts
    pick = random.Random(130)
    for h in product_instances(131, 6, n_max=5):
        edges = list(h.edges)
        for _ in range(10):
            tuples = []
            for _ in range(pick.randint(0, 2 * max(h.part_sizes))):
                r = pick.random()
                if r < 0.15 and edges:
                    t = pick.choice(edges)
                elif r < 0.2:
                    t = tuple(pick.randint(0, 4) for _ in range(pick.choice([1, h.k + 1])))
                elif r < 0.3:
                    t = tuple(pick.choice([-1, sz, big, pick.randrange(sz)])
                              for sz in h.part_sizes)
                else:
                    t = tuple(pick.randrange(sz) for sz in h.part_sizes)
                tuples.append(t)
            for perfect in (False, True):
                want = reference.matching_violations(h, tuples, perfect)
                got = matching_violations(h, Matching(tuple(tuples), perfect))
                assert got == want, (h.part_sizes, h.edges, tuples)


def test_find_pm_edgeless():
    h = KPartiteHypergraph([3, 3], [])
    m = find_pm_complement(h, seed=0)
    assert m.perfect
    assert len(m.edges) == 3
    assert matching_violations(h, m) == ()


def test_find_pm_complete():
    h = sample_hknp(2, 3, 1.0, 0)
    with pytest.raises(BudgetExceededError, match="no perfect matching exists"):
        find_pm_complement(h, seed=0)


def test_find_pm_random_low_degree():
    for i in range(5):
        h = cap_max_degree(sample_hknp(3, 6, 0.1, (60, i)), 3)
        m = find_pm_complement(h, seed=i)
        assert m.perfect
        assert len(m.edges) == 6
        assert matching_violations(h, m) == ()


def test_find_pm_determinism():
    h = cap_max_degree(sample_hknp(2, 8, 0.3, 2), 4)
    a = find_pm_complement(h, seed=7)
    b = find_pm_complement(h, seed=7)
    assert a == b


def test_find_pm_requires_balanced():
    with pytest.raises(ValueError):
        find_pm_complement(KPartiteHypergraph([2, 3], []))


def test_find_pm_edgeless_k3_k4_budget_one(tmp_path):
    # a completion may reuse an earlier pick's index in a later part
    for k in (3, 4):
        for n in range(1, 5):
            h = KPartiteHypergraph([n] * k, [])
            m = find_pm_complement(h, seed=3, budget=1)
            assert len(m.edges) == n
            assert matching_violations(h, m) == ()
            path = tmp_path / f"e{k}_{n}.khg"
            path.write_text(emit_khg(h))
            out = str(tmp_path / "fb.json")
            assert main(["fallback-color", "--in", str(path), "--seed", "3",
                         "--budget", "1", "--out", out]) == 0


def _pm_outcome(find, h, seed, budget):
    try:
        return tuple(find(h, seed=seed, budget=budget))
    except BudgetExceededError as exc:
        return str(exc)


def test_find_pm_matches_reference():
    """Same tuples, or the same BudgetExceededError, as the pre-array walk."""
    cases = []
    for i, k in enumerate((2, 3, 4)):
        for n in (1, 2, 3, 5):
            cases.append(KPartiteHypergraph([n] * k, []))
            cases.append(sample_hknp(k, n, 1.0, (90, i, n)))
            cases.append(sample_hknp(k, n, min(1.0, 1.5 / n ** (k - 1)), (91, i, n)))
            dense = sample_hknp(k, n, 0.7, (92, i, n))
            cases.append(cap_max_degree(dense, max(1, n // 2)))
    cases += [
        sample_hknp(2, 256, 32 / 256, 93),
        sample_hknp(3, 256, 32 / 256**2, 94),
        sample_hknp(2, 128, 0.4, 95),
        sample_hknp(2, 512, 32 / 512, 99),
        sample_hknp(3, 128, 16 / 128**2, 100),
    ]
    outcomes = set()
    for i, h in enumerate(cases):
        for budget in (1, 2, 10**4):
            want = _pm_outcome(reference.find_pm_complement, h, (96, i), budget)
            got = _pm_outcome(lambda *a, **kw: find_pm_complement(*a, **kw).edges,
                              h, (96, i), budget)
            assert got == want, (i, budget)
            outcomes.add(type(want))
    assert outcomes == {tuple, str}


def _dense_instances():
    """k=2, n=64 with Delta capped at n/2: walks that release and restart."""
    return [cap_max_degree(sample_hknp(2, 64, 0.55, (97, 2, 64, s)), 32) for s in range(3)]


def test_find_pm_matches_reference_dense(monkeypatch):
    calls = {"rng_for": 0, "insort": 0}
    for name in calls:
        fn = getattr(balhyp.matching, name)
        monkeypatch.setattr(balhyp.matching, name,
                            lambda *a, _fn=fn, _name=name: calls.__setitem__(
                                _name, calls[_name] + 1) or _fn(*a))
    for i, h in enumerate(_dense_instances()):
        assert h.max_degree == 32
        for seed in range(3):
            want = reference.find_pm_complement(h, seed=(98, seed))
            assert find_pm_complement(h, seed=(98, seed)).edges == want, (i, seed)
    # a restart draws a new stream; a release puts a tuple's vertices back
    assert calls["rng_for"] > 9 and calls["insort"] > 0


def test_exact_pm_edgeless():
    h = KPartiteHypergraph([3, 3, 3], [])
    m = exact_pm_complement(h)
    assert m is not None and m.perfect
    assert matching_violations(h, m) == ()


def test_exact_pm_crossing_pairs():
    # Complement = the two crossing pairs, disjoint: matching exists.
    h = KPartiteHypergraph([2, 2], [(0, 0), (1, 1)])
    m = exact_pm_complement(h)
    assert m is not None
    assert sorted(m.edges) == [(0, 1), (1, 0)]
    # Complement = {(0,1),(1,1)}, sharing a vertex: no matching.
    h2 = KPartiteHypergraph([2, 2], [(0, 0), (1, 0)])
    assert exact_pm_complement(h2) is None


def test_exact_pm_complete():
    assert exact_pm_complement(sample_hknp(2, 3, 1.0, 0)) is None
    assert exact_pm_complement(sample_hknp(3, 2, 1.0, 0)) is None


def test_exact_pm_budget():
    h = KPartiteHypergraph([9, 9], [])
    with pytest.raises(BudgetExceededError):
        exact_pm_complement(h, budget=5)


def test_find_agrees_with_exact_on_small():
    for i, h in enumerate(mixed_instances(70, 20)):
        if not h.n_balanced:
            continue
        n = h.part_sizes[0]
        h = cap_max_degree(h, max(1, n // 2))
        exact = exact_pm_complement(h)
        assert exact is not None  # Delta <= n/2 guarantees existence
        m = find_pm_complement(h, seed=(5, i))
        assert matching_violations(h, m) == ()


def test_color_edgeless():
    h = KPartiteHypergraph([3, 3], [])
    m = find_pm_complement(h, seed=0)
    phi = color_from_matching(h, m)
    assert phi.colors_used() == (1,)
    assert is_proper_balanced_coloring(h, phi)


def test_color_transcript_one_edge():
    # Hand simulation: tuple (0,1) takes color 1; (1,0) cannot (the host
    # edge (0,0) would go monochromatic), takes 2; (2,2) takes 1 again.
    h = KPartiteHypergraph([3, 3], [(0, 0)])
    m = Matching(edges=((0, 1), (1, 0), (2, 2)), perfect=True)
    phi = color_from_matching(h, m)
    assert phi.colors == ((1, 2, 1), (2, 1, 1))
    assert phi.colors_used() == (1, 2)
    assert is_proper_balanced_coloring(h, phi)


def test_color_delta_one_bound():
    h = KPartiteHypergraph([2, 2], [(0, 0), (1, 1)])
    phi = fallback_coloring(h, seed=0)
    assert len(phi.colors_used()) <= 3
    assert is_proper_balanced_coloring(h, phi)


def test_color_rejects_bad_matching():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    with pytest.raises(ValueError):
        color_from_matching(h, Matching(edges=((0, 1),)))  # uncovered
    with pytest.raises(ValueError):
        color_from_matching(h, Matching(edges=((0, 0), (1, 1))))  # host edge


def test_color_bound_random():
    for i in range(6):
        h = cap_max_degree(sample_hknp(2, 10, 0.25, (81, i)), 5)
        phi = fallback_coloring(h, seed=i)
        assert is_proper_balanced_coloring(h, phi)
        assert len(phi.colors_used()) <= 2 * h.max_degree + 1


def test_fallback_edgeless():
    phi = fallback_coloring(KPartiteHypergraph([4, 4], []))
    assert phi.colors_used() == (1,)


def test_fallback_random_bound():
    h = cap_max_degree(sample_hknp(2, 64, 8 / 64, 19), 8)
    phi = fallback_coloring(h, seed=3)
    assert is_proper_balanced_coloring(h, phi)
    assert len(phi.colors_used()) <= 17


def test_fallback_complete_warns_then_fails():
    h = sample_hknp(2, 4, 1.0, 0)
    with pytest.warns(UserWarning, match="exceeds n/2"):
        with pytest.raises(BudgetExceededError):
            fallback_coloring(h, seed=0)


def test_balanced_classes_give_matchings():
    # Each color class of a balanced coloring induces an edgeless balanced
    # subinstance, whose complement then has a perfect matching.
    h = cap_max_degree(sample_hknp(2, 6, 0.2, 44), 3)
    phi = fallback_coloring(h, seed=1)
    assert is_proper_balanced_coloring(h, phi)
    for c in phi.colors_used():
        cls = phi.class_of(c)
        if all(len(side) == 0 for side in cls):
            continue
        sub, _ = induced(h, [list(side) for side in cls])
        assert sub.edges == ()
        m = exact_pm_complement(sub)
        assert m is not None
        assert matching_violations(sub, m) == ()


def _matched_instance(k, n, p, seed):
    """H(k, n, p) minus the tuples of a random perfect matching, taken in a
    random order, with that matching; p = 1 leaves only the matching out."""
    rng = np.random.default_rng(seed)
    tuples = list(zip(*(rng.permutation(n).tolist() for _ in range(k))))
    tuples = [tuples[i] for i in rng.permutation(n)]
    skip = set(tuples)
    h = sample_hknp(k, n, p, seed)
    return KPartiteHypergraph(h.part_sizes, [e for e in h.edges if e not in skip]), tuples


def test_color_from_matching_matches_reference():
    cases = [(k, n, p) for k in (2, 3, 4) for n in (1, 2, 5) for p in (0.0, 0.3, 0.7, 1.0)]
    cases += [(2, 256, 32 / 256), (3, 256, 32 / 256**2), (2, 128, 0.4),
              (2, 512, 32 / 512), (3, 128, 16 / 128**2), (2, 64, 0.45)]
    for seed, (k, n, p) in enumerate(cases):
        h, tuples = _matched_instance(k, n, p, seed)
        phi = color_from_matching(h, Matching(edges=tuple(tuples), perfect=True))
        assert (phi.q, phi.colors) == reference.color_from_matching(h, tuples)
    for i, h in enumerate([sample_hknp(3, 6, 0.2, 9)] + _dense_instances()):
        m = find_pm_complement(h, seed=4 + i)
        phi = color_from_matching(h, m)
        assert (phi.q, phi.colors) == reference.color_from_matching(h, m.edges)


def test_color_from_matching_raises_past_palette_bound():
    # the second tuple closes edge (0, 0) in color 1, so it takes color 2
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    m = Matching(edges=((0, 1), (1, 0)), perfect=True)
    assert color_from_matching(h, m).colors == ((1, 2), (2, 1))
    h.max_degree = 0  # bound k * 0 + 1 = 1
    with pytest.raises(RuntimeError, match="greedy used 2 colors, bound 1"):
        color_from_matching(h, m)
