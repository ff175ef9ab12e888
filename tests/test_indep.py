"""Tests for the randomized balanced-independent-set procedure."""

import math
import statistics
import warnings

import numpy as np
import pytest

from balhyp.core import (
    KPartiteHypergraph,
    emit_khg,
    is_balanced_independent,
    parse_khg,
    validate,
)
from balhyp.errors import BudgetExceededError, RegimeError
from balhyp.indep import (
    best_of_trials,
    exact_alpha_b,
    ind_params,
    run_ind,
    target_supported,
)
from balhyp.models import sample_hknp

from conftest import mixed_instances, oracle_alpha_b, product_instances
import reference


def naive_run_ind(h, p, seed_components):
    """Independent re-simulation of the documented randomness contract."""
    n = h.part_sizes[0]
    k = h.k
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(list(seed_components)))
    )
    kept = []
    for _ in range(k - 1):
        u = rng.random(n)
        kept.append([i for i in range(n) if u[i] < p])
    last = []
    for v in range(n):
        ok = True
        for e in h.edges:
            if e[k - 1] == v and all(e[j] in kept[j] for j in range(k - 1)):
                ok = False
                break
        if ok:
            last.append(v)
    kept.append(last)
    side = min(len(part) for part in kept)
    return [tuple(part) for part in kept], [tuple(part[:side]) for part in kept]


def test_ind_params_values():
    pr = ind_params(2, 0.2, 100, 512)
    assert math.isclose(pr.p, 0.95 * math.log(100) / 100, rel_tol=1e-12)
    assert math.isclose(pr.delta, 100 ** (-0.975), rel_tol=1e-12)
    assert math.isclose(pr.target, 0.8 * math.log(100) / 100 * 512, rel_tol=1e-12)
    pr3 = ind_params(3, 0.3, 1000, 64)
    want = math.sqrt((0.925 / 2) * math.log(1000) / 1000)
    assert math.isclose(pr3.p, want, rel_tol=1e-12)
    assert math.isclose(pr3.delta, 1000 ** (-(1 - 0.3 / 8) / 2), rel_tol=1e-12)


def test_ind_params_rejections():
    with pytest.raises(RegimeError):
        ind_params(1, 0.2, 100, 8)
    with pytest.raises(RegimeError):
        ind_params(2, 0.0, 100, 8)
    with pytest.raises(RegimeError):
        ind_params(2, 1.0, 100, 8)
    with pytest.raises(RegimeError):
        ind_params(2, 0.2, 1, 8)
    with pytest.raises(RegimeError):
        ind_params(2, 0.2, 100, 0)


def test_target_supported():
    # k=2 needs astronomically large D for the guarantee; D=100 fails it.
    assert target_supported(ind_params(2, 0.2, 100, 512)) is False
    # k=3, large eps, D=1000: target/n = 0.0186 <= delta/2 = 0.0233.
    assert target_supported(ind_params(3, 0.9, 1000, 16)) is True


def test_default_trials():
    pr = ind_params(2, 0.2, 100, 512)
    assert pr.default_trials == math.ceil(8 / pr.delta)
    # delta near 1 clamps to at least one trial.
    assert ind_params(3, 0.9, 2.5, 8).default_trials >= 1


def test_run_ind_edgeless_p1():
    h = KPartiteHypergraph([3, 3, 3], [])
    out = run_ind(h, 1.0, 0)
    assert out.raw == ((0, 1, 2),) * 3
    assert out.balanced.parts == ((0, 1, 2),) * 3
    assert out.side == 3


def test_run_ind_complete_p1():
    h = sample_hknp(2, 3, 1.0, 0)
    out = run_ind(h, 1.0, 5)
    assert out.raw[0] == (0, 1, 2)
    assert out.raw[1] == ()
    assert out.side == 0
    assert out.balanced.parts == ((), ())


def test_run_ind_golden():
    # Frozen from the first run at seed 2; the independent re-simulation
    # below recomputes it from the documented randomness contract.
    h = KPartiteHypergraph(
        [4, 4], [(0, 1), (1, 0), (2, 2), (2, 3), (3, 1)]
    )
    out = run_ind(h, 0.6, 2)
    assert out.raw == ((0, 1, 3), (2, 3))
    assert out.balanced.parts == ((0, 1), (2, 3))
    assert out.part_sizes == (3, 2)
    raw, bal = naive_run_ind(h, 0.6, (2,))
    assert out.raw == tuple(raw)
    assert out.balanced.parts == tuple(bal)


def test_run_ind_matches_naive_scan():
    # Ind2 bookkeeping vs a per-vertex scan over all edges, many cases.
    cases = 0
    for i, h in enumerate(mixed_instances(55, 40)):
        if not h.n_balanced:
            continue
        for p in (0.1, 0.4, 0.8):
            out = run_ind(h, p, (9, i))
            raw, bal = naive_run_ind(h, p, (9, i))
            assert out.raw == tuple(raw)
            assert out.balanced.parts == tuple(bal)
            cases += 1
    assert cases >= 100


def test_run_ind_validity_random():
    for i, h in enumerate(mixed_instances(77, 30)):
        out = run_ind(h, 0.5, (4, i))
        assert is_balanced_independent(h, out.balanced)
        assert all(
            set(bp) <= set(rp) for bp, rp in zip(out.balanced.parts, out.raw)
        )
        assert out.side == min(out.part_sizes)


def test_run_ind_errors():
    with pytest.raises(ValueError):
        run_ind(KPartiteHypergraph([2, 3], []), 0.5, 0)
    with pytest.raises(ValueError):
        run_ind(KPartiteHypergraph([2, 2], []), 1.5, 0)


def test_run_ind_raises_when_check_fails(monkeypatch):
    # An explicit check, so it also runs under python -O.
    monkeypatch.setattr("balhyp.indep.is_balanced_independent", lambda h, a: False)
    with pytest.raises(RuntimeError, match="containing an edge"):
        run_ind(sample_hknp(2, 8, 0.3, 1), 0.5, 0)


def test_bis_path_never_builds_edge_tuples():
    # gen, validate, trials and emit all run on edge_array; holding the
    # tuple view as well would multiply the memory of a large instance.
    h = parse_khg(emit_khg(sample_hknp(2, 64, 0.1, 3)))
    assert validate(h).ok
    best_of_trials(h, None, T=3, seed=1, p=0.3)
    emit_khg(h)
    assert "edges" not in vars(h)


def test_run_ind_determinism():
    h = sample_hknp(3, 6, 0.2, 8)
    a = run_ind(h, 0.5, (3, 1))
    b = run_ind(h, 0.5, (3, 1))
    c = run_ind(h, 0.5, (3, 2))
    assert a == b
    assert a.raw != c.raw or a.seed != c.seed


def test_best_of_trials_t1_matches_run_ind():
    h = sample_hknp(2, 8, 0.3, 12)
    best = best_of_trials(h, None, T=1, seed=5, p=0.5)
    single = run_ind(h, 0.5, (5, 0))
    assert best.raw == single.raw
    assert best.balanced == single.balanced
    assert best.trial_index == 0
    assert best.trial_sides == (single.side,)


def test_best_of_trials_edgeless_full():
    h = KPartiteHypergraph([4, 4], [])
    out = best_of_trials(h, None, T=3, seed=0, p=1.0)
    assert out.side == 4
    assert out.balanced.total() == 8
    assert out.trial_index == 0  # tie on every trial; lowest index wins


def test_best_of_trials_requires_t_or_params():
    h = KPartiteHypergraph([2, 2], [])
    with pytest.raises(ValueError):
        best_of_trials(h, None, seed=0, p=0.5)
    with pytest.raises(ValueError):
        best_of_trials(h, None, T=0, seed=0, p=0.5)


def test_best_of_trials_warns_unsupported():
    pr = ind_params(2, 0.2, 16, 32)
    h = sample_hknp(2, 32, 16 / 32, 3)
    with pytest.warns(UserWarning, match="best effort"):
        out = best_of_trials(h, pr, T=5, seed=1)
    assert len(out.trial_sides) == 5
    assert out.side == max(out.trial_sides)


def test_best_of_trials_beats_median():
    pr = ind_params(2, 0.2, 16, 512)
    h = sample_hknp(2, 512, 16 / 512, 17)
    T = pr.default_trials
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = best_of_trials(h, pr, T=T, seed=9)
    assert len(out.trial_sides) == T
    assert out.side >= statistics.median(out.trial_sides)
    assert out.side == max(out.trial_sides)


def test_kept_part_sizes_binomial():
    # |I cap V_j| for j < k is Binomial(n, p) on the nose.
    h = sample_hknp(2, 64, 0.1, 23)
    n, p, trials = 64, 0.3, 2000
    total = 0
    for t in range(trials):
        out = run_ind(h, p, (31, t))
        total += out.part_sizes[0]
    mean = total / trials
    se = math.sqrt(n * p * (1 - p) / trials)
    assert abs(mean - n * p) <= 3 * se


def test_survivor_mean_product_lower_bound():
    # E|I cap V_k| >= sum_v (1 - p^(k-1))^deg(v), within 3 standard errors.
    h = sample_hknp(2, 32, 0.15, 41)
    p, trials = 0.25, 2000
    sizes = [run_ind(h, p, (47, t)).part_sizes[-1] for t in range(trials)]
    mean = sum(sizes) / trials
    bound = sum(
        (1 - p ** (h.k - 1)) ** h.degree((h.k, v))
        for v in range(h.part_sizes[-1])
    )
    se = statistics.stdev(sizes) / math.sqrt(trials)
    assert mean >= bound - 3 * se


def test_exact_alpha_b_trivial():
    assert exact_alpha_b(KPartiteHypergraph([3, 3], []))[0] == 3
    assert exact_alpha_b(sample_hknp(2, 3, 1.0, 0))[0] == 0
    assert exact_alpha_b(sample_hknp(3, 2, 1.0, 0))[0] == 0


def test_exact_alpha_b_single_edge():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    s, witness = exact_alpha_b(h)
    assert s == 1
    assert witness.parts == ((0,), (1,))
    assert is_balanced_independent(h, witness)


def test_exact_alpha_b_vs_oracle():
    for h in mixed_instances(91, 25):
        s, witness = exact_alpha_b(h)
        assert s == oracle_alpha_b(h)
        assert is_balanced_independent(h, witness)
        assert witness.side == s


def test_exact_alpha_b_matches_reference():
    for h in product_instances(43, rounds=3):
        s, witness = exact_alpha_b(h)
        assert (s, witness.parts) == reference.exact_alpha_b(h)


def test_exact_alpha_b_raises_when_check_fails(monkeypatch):
    # An explicit check, so it also runs under python -O.
    monkeypatch.setattr("balhyp.indep.is_balanced_independent", lambda h, a: False)
    with pytest.raises(RuntimeError, match="witness of side 1 contains an edge"):
        exact_alpha_b(KPartiteHypergraph([2, 2], [(0, 0)]))


def test_exact_alpha_b_budget():
    h = KPartiteHypergraph([40, 40], [])
    with pytest.raises(BudgetExceededError):
        exact_alpha_b(h)


def test_exact_alpha_b_budget_counts_enumerated_parts_only():
    # sum over s of s * C(6, s) = 192; part 2's 10^4 vertices are completed
    side, witness = exact_alpha_b(KPartiteHypergraph([6, 10**4], []))
    assert side == 6
    assert witness.parts == (tuple(range(6)), tuple(range(6)))


def test_exact_alpha_b_wide_last_part():
    # the part-k end 10^12 - 1 is one mask bit, not bit 10^12 - 1
    side, witness = exact_alpha_b(KPartiteHypergraph([3, 10**12], [(0, 10**12 - 1)]))
    assert side == 3
    assert witness.parts == ((0, 1, 2), (0, 1, 2))
    h = KPartiteHypergraph([2, 10**12], [(0, 0), (1, 1), (0, 2)])
    side, witness = exact_alpha_b(h)
    assert (side, witness.parts) == (2, ((0, 1), (3, 4)))


def test_dominance_small_cases():
    for i, h in enumerate(mixed_instances(13, 30)):
        if not h.n_balanced:
            continue
        cap = exact_alpha_b(h)[0]
        out = best_of_trials(h, None, T=20, seed=(2, i), p=0.5)
        assert out.side <= cap
