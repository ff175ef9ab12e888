"""Tests for the random model, trimming, and union-bound calculators."""

import itertools
import math
import random

import pytest

import balhyp.models
from balhyp.cli import main
from balhyp.core import KPartiteHypergraph
from balhyp.errors import BudgetExceededError, RegimeError
from balhyp.models import (
    UpperBoundParams,
    exists_balanced_is,
    sample_hknp,
    trim_top_degree,
    union_bound_bis,
)

from conftest import mixed_instances, oracle_exists_bis, product_instances
import reference


def test_sample_p0_edgeless():
    h = sample_hknp(3, 4, 0.0, 1)
    assert h.part_sizes == (4, 4, 4)
    assert h.edges == ()
    # N^k beyond intp: no rank is ever formed
    assert sample_hknp(3, 10**7, 0.0, 1).edge_array.shape == (0, 3)


def test_sample_p1_respects_edge_budget(monkeypatch, tmp_path):
    # N^k = 400 certain edges against a budget of 100: refused before any
    # rank is formed, through the API and as `gen` exit code 3
    monkeypatch.setattr(balhyp.models, "_MAX_EDGES", 100)
    with pytest.raises(BudgetExceededError):
        sample_hknp(2, 20, 1.0, 0)
    out = tmp_path / "h.khg"
    assert main(["gen", "--k", "2", "--n", "20", "--p", "1", "--seed", "0", "--out", str(out)]) == 3
    assert not out.exists()
    assert len(sample_hknp(2, 10, 1.0, 0).edge_array) == 100


def test_sample_p1_complete():
    h = sample_hknp(2, 4, 1.0, 1)
    assert len(h.edges) == 16
    for part in range(1, 3):
        for i in range(4):
            assert h.degree((part, i)) == 4
    h3 = sample_hknp(3, 3, 1.0, 99)
    assert len(h3.edges) == 27
    assert all(h3.degree((1, i)) == 9 for i in range(3))


def test_sample_mean_edge_count():
    # k=2, N=32, p=0.1: E[m] = 1024 * 0.1 = 102.4.
    k, n, p = 2, 32, 0.1
    trials = 1000
    counts = [len(sample_hknp(k, n, p, (7, t)).edges) for t in range(trials)]
    mean = sum(counts) / trials
    tol = 3 * math.sqrt(n**2 * p * (1 - p))
    assert abs(mean - 102.4) <= tol


def test_sample_determinism():
    a = sample_hknp(2, 16, 0.3, 5)
    b = sample_hknp(2, 16, 0.3, 5)
    c = sample_hknp(2, 16, 0.3, (5,))
    d = sample_hknp(2, 16, 0.3, 6)
    assert a == b == c
    assert a != d


def test_sample_edges_sorted_distinct():
    h = sample_hknp(3, 5, 0.4, 11)
    assert list(h.edges) == sorted(set(h.edges))
    for e in h.edges:
        assert len(e) == 3
        assert all(0 <= v < 5 for v in e)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_hknp(1, 4, 0.5, 0)
    with pytest.raises(ValueError):
        sample_hknp(2, 0, 0.5, 0)
    with pytest.raises(ValueError):
        sample_hknp(2, 4, -0.1, 0)
    with pytest.raises(ValueError):
        sample_hknp(2, 4, 1.1, 0)


def test_sample_binomial_path():
    # N^k above the per-edge limit exercises the count-then-subset path.
    h = sample_hknp(2, 3200, 5e-6, 42)
    h2 = sample_hknp(2, 3200, 5e-6, 42)
    assert h == h2
    assert list(h.edges) == sorted(set(h.edges))
    assert all(0 <= v < 3200 for e in h.edges for v in e)
    # E[m] = 51.2; a run of zero or thousands would mean the path is broken.
    assert 10 <= len(h.edges) <= 150


@pytest.mark.parametrize("k, N, p, seed", [
    (2, 1024, 64 / 1024, 7),  # 2^20 candidates: sixteen uniform chunks
    (2, 300, 0.05, (3, 1)),  # a partial last chunk
    (3, 5, 0.4, 11),
    (4, 3, 0.9, 2),
    (2, 3, 0.0, 1),
    (3, 3, 1.0, 1),
])
def test_sample_per_edge_path_matches_reference(k, N, p, seed):
    h = sample_hknp(k, N, p, seed)
    assert h.edges == tuple(reference.sample_hknp(k, N, p, seed))
    assert h.edge_array.shape == (len(h.edges), k)


@pytest.mark.parametrize("k, N, p, seed", [
    (2, 3200, 5e-6, 42),
    (3, 1024, 32 / 1024**2, 5),
])
def test_sample_binomial_path_matches_reference(k, N, p, seed):
    assert sample_hknp(k, N, p, seed).edges == tuple(reference.sample_hknp(k, N, p, seed))


def test_sample_binomial_path_with_repeats_matches_reference(monkeypatch):
    # Dense cells draw many repeated ranks, and batches that overshoot.
    monkeypatch.setattr(balhyp.models, "_PER_EDGE_LIMIT", 10)
    for k, N, p, seed in [(2, 6, 0.8, 1), (3, 4, 0.5, 2), (2, 5, 0.97, 3), (2, 40, 0.3, 4)]:
        want = reference.sample_hknp(k, N, p, seed, per_edge_limit=10)
        assert sample_hknp(k, N, p, seed).edges == tuple(want)


def test_sample_edge_budget():
    with pytest.raises(BudgetExceededError):
        sample_hknp(2, 10**4, 0.9, 0)


def test_trim_t0_identity():
    h = sample_hknp(2, 5, 0.5, 3)
    assert trim_top_degree(h, 0) == h


def test_trim_star_loses_all_edges():
    h = KPartiteHypergraph([3, 3], [(0, 0), (0, 1), (0, 2)])
    out = trim_top_degree(h, 1)
    assert out.part_sizes == (2, 2)
    assert out.edges == ()


def test_trim_example_recomputed():
    # Degrees (3,1,1,1) / (2,2,1,1); t=1 drops part-1 vertex 0 and, among
    # the degree-2 tie in part 2, the lowest index (vertex 0).
    h = KPartiteHypergraph(
        [4, 4], [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 3)]
    )
    assert [h.degree((1, i)) for i in range(4)] == [3, 1, 1, 1]
    assert [h.degree((2, i)) for i in range(4)] == [2, 2, 1, 1]
    out = trim_top_degree(h, 1)
    assert out.part_sizes == (3, 3)
    # Survivors 1,2,3 in both parts, compacted to 0,1,2: the surviving
    # edges (2,1) and (3,3) land on (1,0) and (2,2).
    assert out.edges == ((1, 0), (2, 2))
    deg1 = [sum(1 for e in out.edges if e[0] == i) for i in range(3)]
    deg2 = [sum(1 for e in out.edges if e[1] == i) for i in range(3)]
    assert [out.degree((1, i)) for i in range(3)] == deg1
    assert [out.degree((2, i)) for i in range(3)] == deg2
    assert out.max_degree <= h.max_degree


def test_trim_errors():
    h = sample_hknp(2, 3, 0.5, 0)
    with pytest.raises(ValueError):
        trim_top_degree(h, -1)
    with pytest.raises(ValueError):
        trim_top_degree(h, 3)


def test_trim_invariants_random():
    for h in mixed_instances(21, 12):
        t = 1
        if any(sz <= t for sz in h.part_sizes):
            continue
        out = trim_top_degree(h, t)
        assert out.part_sizes == tuple(sz - t for sz in h.part_sizes)
        assert out.max_degree <= h.max_degree
        # Removed degree >= every surviving degree, per part (pre-removal).
        for deg in h.degrees:
            degs = sorted(deg.tolist(), reverse=True)
            removed_min = degs[t - 1]
            assert all(d <= removed_min for d in degs[t:])


def test_trim_top_degree_matches_reference():
    cases = product_instances(41, rounds=3) + [
        sample_hknp(2, 64, 0.05, 4),
        sample_hknp(3, 16, 0.02, 5),
    ]
    for h in cases:
        for t in range(min(h.part_sizes)):
            out = trim_top_degree(h, t)
            sizes, edges, _ = reference.induced(h, reference.trim_top_degree(h, t))
            assert (out.part_sizes, out.edges) == (sizes, edges)


def test_union_bound_trivial():
    assert union_bound_bis(2, 10, 0, 0.3) == 1.0
    assert union_bound_bis(3, 10, 2, 1.0) == 0.0


def test_union_bound_example():
    # C(6,2)^2 * 0.5^4 = 225/16.
    assert math.isclose(union_bound_bis(2, 6, 2, 0.5), 225 / 16, rel_tol=1e-12)


def test_union_bound_matches_direct():
    for (k, n, s, p) in [(2, 8, 3, 0.2), (3, 5, 2, 0.4), (2, 12, 6, 0.05)]:
        direct = math.comb(n, s) ** k * (1 - p) ** (s**k)
        assert math.isclose(union_bound_bis(k, n, s, p), direct, rel_tol=1e-10)


def test_union_bound_no_overflow():
    val = union_bound_bis(2, 10**6, 100, 1e-9)
    assert math.isfinite(val) or val == math.inf
    assert union_bound_bis(2, 1000, 500, 1e-9) == math.inf


def test_union_bound_errors():
    with pytest.raises(ValueError):
        union_bound_bis(2, 5, -1, 0.5)
    with pytest.raises(ValueError):
        union_bound_bis(2, 5, 6, 0.5)
    with pytest.raises(ValueError):
        union_bound_bis(2, 5, 2, 1.5)


def test_exists_trivial():
    h = sample_hknp(2, 3, 0.5, 1)
    assert exists_balanced_is(h, 0) is True
    complete = sample_hknp(2, 3, 1.0, 0)
    assert exists_balanced_is(complete, 1) is False
    assert exists_balanced_is(sample_hknp(3, 2, 1.0, 0), 1) is False


def test_exists_diagonal_matching():
    # Any two part-1 vertices block two of the three part-2 vertices, so
    # no side-2 set survives.
    h = KPartiteHypergraph([3, 3], [(0, 0), (1, 1), (2, 2)])
    assert oracle_exists_bis(h, 2) is False
    assert exists_balanced_is(h, 2) is False
    assert exists_balanced_is(h, 1) is True


def test_exists_vs_oracle():
    for h in mixed_instances(33, 14):
        for s in range(min(h.part_sizes) + 1):
            assert exists_balanced_is(h, s) == oracle_exists_bis(h, s)


def test_exists_matches_reference():
    for h in product_instances(42, rounds=3):
        for s in range(max(h.part_sizes) + 2):
            assert exists_balanced_is(h, s) == reference.exists_balanced_is(h, s)


def test_witness_matches_reference():
    # the same first witness, not just the same verdict; part k of more
    # than 128 vertices catches a fixed-width mask
    pick = random.Random(7)
    wide = [
        KPartiteHypergraph(sizes, [
            t for t in itertools.product(*map(range, sizes)) if pick.random() < 0.7
        ])
        for sizes in ([6, 130], [3, 2, 150])
    ]
    wide.append(KPartiteHypergraph([2, 130], [(u, w) for u in range(2) for w in range(129)]))
    for h in product_instances(42, rounds=3) + wide:
        for s in range(1, min(h.part_sizes) + 1):
            got = balhyp.models._balanced_is_witness(h, s)
            want = reference.balanced_is_witness(h, s)
            assert (None if got is None else got.parts) == want, (h, s)


def test_exists_too_large_for_side():
    h = KPartiteHypergraph([2, 3], [])
    assert exists_balanced_is(h, 3) is False


def test_exists_budget():
    h = KPartiteHypergraph([30, 30], [])
    with pytest.raises(BudgetExceededError):
        exists_balanced_is(h, 15)
    assert exists_balanced_is(KPartiteHypergraph([8, 8], []), 4) is True


def test_exists_budget_counts_enumerated_parts_only():
    # only part 1 is enumerated here (3 * C(6, 3) = 60 mask ORs); part k is
    # completed, so its C(10^4, 3) does not count
    assert exists_balanced_is(KPartiteHypergraph([6, 10**4], []), 3) is True


def test_exists_wide_last_part_stays_small():
    # masks are indexed by distinct part-k ends, not by vertex, so a part k
    # of 10^12 vertices costs one bit here
    h = KPartiteHypergraph([3, 10**12], [(0, 10**12 - 1), (1, 0)])
    assert exists_balanced_is(h, 2) is True
    assert exists_balanced_is(KPartiteHypergraph([2, 10**12], [(0, 5), (1, 5)]), 2) is True


def test_exists_budget_bounds_the_side():
    # one side-s choice of part 1, but it costs s = 50 mask ORs and witness
    # slots, so the side itself is bounded by the budget
    h = KPartiteHypergraph([50, 10**6], [])
    with pytest.raises(BudgetExceededError):
        exists_balanced_is(h, 50, budget=49)
    assert exists_balanced_is(h, 50, budget=50) is True


def test_params_derived_values():
    pr = UpperBoundParams(epsilon=0.2, k=2, Delta=16.0, n=100)
    gamma = 0.2 / 8
    assert pr.gamma == gamma
    assert pr.N == 100 / (1 - gamma)
    assert math.isclose(pr.p, 16.0 / ((1 + gamma) * pr.N), rel_tol=1e-12)
    s = ((2.2 / 1) * math.log(16.0) / 16.0) ** 1 * 100
    assert math.isclose(pr.s, s, rel_tol=1e-12)
    assert pr.trim_count == math.ceil(gamma * pr.N)
    assert pr.ambient_n == 100 + pr.trim_count
    assert pr.s_int == math.floor(s)


def test_params_reject_nan_epsilon():
    with pytest.raises(RegimeError, match="epsilon=nan must be positive"):
        UpperBoundParams(epsilon=math.nan, k=2, Delta=16.0, n=100)


def test_params_rejections():
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=0.2, k=1, Delta=4.0, n=10)
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=0.2, k=2, Delta=4.0, n=0)
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=0.0, k=2, Delta=4.0, n=10)
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=0.2, k=2, Delta=0.5, n=10)
    # gamma = 8/(2*4) = 1.
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=8.0, k=2, Delta=4.0, n=10)
    # p = 20 / ((1+gamma) N) > 1.
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=0.2, k=2, Delta=20.0, n=10)
    # s = (3.5 * log 3 / 3) * 10 = 12.8 > n.
    with pytest.raises(RegimeError):
        UpperBoundParams(epsilon=1.5, k=2, Delta=3.0, n=10)


def test_params_frozen():
    pr = UpperBoundParams(epsilon=0.2, k=2, Delta=16.0, n=100)
    with pytest.raises(Exception):
        pr.n = 50


def test_degree_is_binomial():
    # deg of a fixed vertex in H(2, 8, 0.3) is Binomial(8, 0.3).
    n, p, trials = 8, 0.3, 2000
    total = 0
    for t in range(trials):
        h = sample_hknp(2, n, p, (13, t))
        total += h.degree((1, 0))
    mean = total / trials
    se = math.sqrt(n * p * (1 - p) / trials)
    assert abs(mean - n * p) <= 3 * se
