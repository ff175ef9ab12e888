"""Acceptance gate: eight criteria, one pass/fail line each.

Each test prints a single "criterion N: PASS/FAIL" line and asserts it.
Tolerances and case counts are pinned; do not loosen them here.
"""

import math
import pathlib
import time
import warnings
from fractions import Fraction

import numpy as np

from balhyp.core import (
    KPartiteHypergraph,
    is_balanced_independent,
    is_proper_balanced_coloring,
)
from balhyp.coloring import col_params, col_random_phase, full_coloring
from balhyp.errors import BudgetExceededError
from balhyp.indep import best_of_trials, exact_alpha_b, ind_params, run_ind
from balhyp.matching import (
    exact_pm_complement,
    fallback_coloring,
    find_pm_complement,
)
from balhyp.models import exists_balanced_is, sample_hknp, union_bound_bis

from conftest import cap_max_degree, random_instance
from golden_defs import materialize

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _is_total(phi) -> bool:
    return all(c is not None for part in phi.colors for c in part)


def test_c1_validity_suite():
    """10^4 randomized cases, k in {2,3,4}: every output validates."""
    t0 = time.monotonic()
    cases = 0

    for i in range(8000):
        k = (2, 3, 4)[i % 3]
        n = (4, 6, 8)[(i // 3) % 3]
        h = sample_hknp(k, n, 1.5 / n ** (k - 1), (101, i))
        out = run_ind(h, 0.5, (102, i))
        assert is_balanced_independent(h, out.balanced)
        cases += 1

    for i in range(1000):
        k = (2, 3, 4)[i % 3]
        n = (6, 8, 10)[(i // 3) % 3]
        h = cap_max_degree(sample_hknp(k, n, 2.0 / n ** (k - 1), (103, i)), n // 2)
        phi = fallback_coloring(h, seed=(104, i))
        assert _is_total(phi) and is_proper_balanced_coloring(h, phi)
        cases += 1

    for i in range(1000):
        k = (2, 3, 4)[i % 3]
        n = (6, 8)[(i // 3) % 2]
        h = cap_max_degree(sample_hknp(k, n, 2.0 / n ** (k - 1), (105, i)), n // 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi, _ = full_coloring(h, 0.2, seed=(106, i), max_retries=3)
        assert _is_total(phi) and is_proper_balanced_coloring(h, phi)
        cases += 1

    elapsed = time.monotonic() - t0
    assert cases == 10_000
    assert elapsed <= 300.0, f"validity suite took {elapsed:.1f}s > 300s"
    _report(1, True, f"{cases} cases valid in {elapsed:.1f}s")


def test_c2_oracle_dominance_and_controls():
    """10^3 instances: trial sides never exceed exact alpha_b; controls."""
    for i in range(1000):
        k = 2 if i % 2 == 0 else 3
        n = 2 + (i % 5)
        h = random_instance(201, i, k, n, density=(0.2, 0.4, 0.6)[i % 3])
        out = best_of_trials(h, None, T=5, seed=(202, i), p=0.5)
        s_exact, _ = exact_alpha_b(h)
        assert max(out.trial_sides) <= s_exact, (i, out.trial_sides, s_exact)

    controls = []
    for k in (2, 3):
        for n in (3, 4, 5, 6):
            controls.append(("edgeless", KPartiteHypergraph([n] * k, [])))
            controls.append(("one-edge", KPartiteHypergraph([n] * k, [(0,) * k])))
            if n >= 4:
                controls.append(
                    ("one-edge", KPartiteHypergraph([n] * k, [(1,) * (k - 1) + (n - 1,)]))
                )
    hits = edgeless_hits = edgeless_total = 0
    for idx, (kind, h) in enumerate(controls):
        out = best_of_trials(h, None, T=200, seed=(203, idx), p=1.0)
        s_exact, _ = exact_alpha_b(h)
        hit = out.side == s_exact
        hits += hit
        if kind == "edgeless":
            edgeless_total += 1
            edgeless_hits += hit
    assert edgeless_hits == edgeless_total, "edgeless controls must all hit alpha_b"
    rate = hits / len(controls)
    assert rate >= 0.60, f"control hit rate {rate:.2f} < 0.60"
    _report(2, True, f"1000 instances dominated; control rate {rate:.2f}")


def test_c3_fallback_bound_and_matching_agreement():
    """500 instances with Delta <= n/2: palette bound and oracle agreement."""
    for i in range(300):
        k = 2 if i % 2 == 0 else 3
        n = (8, 16, 32, 64)[i % 4]
        p_edge = max(1, n // 4) / n ** (k - 1)
        h = cap_max_degree(sample_hknp(k, n, p_edge, (301, i)), n // 2)
        phi = fallback_coloring(h, seed=(302, i))
        assert len(phi.colors_used()) <= k * h.max_degree + 1
        assert _is_total(phi) and is_proper_balanced_coloring(h, phi)

    for i in range(200):
        k = 2 if i % 2 == 0 else 3
        n = 3 + (i % 4)
        h = cap_max_degree(random_instance(303, i, k, n, density=0.4), n // 2)
        try:
            find_pm_complement(h, seed=(304, i))
            greedy_ok = True
        except BudgetExceededError:
            greedy_ok = False
        exact_ok = exact_pm_complement(h) is not None
        assert exact_ok, "Delta <= n/2 must admit a complement matching"
        assert greedy_ok == exact_ok
    _report(3, True, "300 palettes within k*Delta+1; 200 matching agreements")


def test_c4_fixed_instance_inequalities():
    """H(2, 256, 32/256), 5000 trials: Harris-style lower bound and the
    banned-color upper bound, each within 3 standard errors."""
    t0 = time.monotonic()
    h = sample_hknp(2, 256, 32 / 256, 4040)
    n = 256
    trials = 5000

    p = ind_params(2, 0.2, 32.0, n).p
    xs = np.empty(trials)
    for t in range(trials):
        xs[t] = run_ind(h, p, (406, t)).part_sizes[-1]
    lower = sum((1.0 - p) ** h.degree((2, i)) for i in range(n))
    se = xs.std(ddof=1) / math.sqrt(trials)
    assert xs.mean() >= lower - 3.0 * se, (xs.mean(), lower, se)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = col_params(2, 0.2, float(h.max_degree), n).q
    vstar = max(range(n), key=lambda i: h.degree((2, i)))
    deg = h.degree((2, vstar))
    banned = 0
    for t in range(trials):
        st = col_random_phase(h, q, (405, t))
        banned += not st.allowed[vstar, 1]
    freq = banned / trials
    upper = 1.0 - (1.0 - 1.0 / q) ** deg
    se_f = math.sqrt(freq * (1.0 - freq) / trials)
    assert freq <= upper + 3.0 * se_f, (freq, upper, se_f)

    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0, f"fixed-instance suite took {elapsed:.1f}s > 600s"
    _report(
        4,
        True,
        f"mean {xs.mean():.3f} >= {lower:.3f} - 3se; "
        f"ban freq {freq:.4f} <= {upper:.4f} + 3se; q={q}; {elapsed:.1f}s",
    )


def test_c5_exact_enumeration_ban_product():
    """k=2, n=3, q=2, one shared part-2 vertex of degree 3: enumerate all
    random-phase outcomes exactly and check P[L empty] <= prod_c P[c banned]."""
    h = KPartiteHypergraph([3, 3], [(0, 0), (1, 0), (2, 0)])
    q = 2
    probe = 0
    neighbors = sorted({e[0] for e in h.edges if e[1] == probe})
    assert len(neighbors) == 3 == h.degree((2, probe))

    outcomes = q ** len(neighbors)
    empty = 0
    for code in range(outcomes):
        colors = [(code // q**j) % q + 1 for j in range(len(neighbors))]
        if set(colors) == set(range(1, q + 1)):
            empty += 1
    p_empty = Fraction(empty, outcomes)

    product = Fraction(1)
    for _ in range(q):
        product *= 1 - Fraction(q - 1, q) ** len(neighbors)

    assert p_empty == Fraction(3, 4) and product == Fraction(49, 64)
    assert float(p_empty) <= float(product) + 1e-12
    _report(5, True, f"P[L empty] = {p_empty} <= {product} over {outcomes} outcomes")


def test_c6_union_bound_vs_empirical():
    """k=2, N=10, s=4: empirical existence frequency stays under the union
    bound (pinned to 0.2) plus 3 standard errors over 2000 samples."""
    # bound = C(10,4)^2 (1-p)^16 = 0.2 exactly at this p
    p = 1.0 - (0.2 / math.comb(10, 4) ** 2) ** (1.0 / 16.0)
    bound = union_bound_bis(2, 10, 4, p)
    assert 0.05 <= bound <= 0.5
    samples = 2000
    found = 0
    for i in range(samples):
        h = sample_hknp(2, 10, p, (606, i))
        found += exists_balanced_is(h, 4)
    freq = found / samples
    se = math.sqrt(freq * (1.0 - freq) / samples)
    assert freq <= bound + 3.0 * se, (freq, bound, se)
    _report(6, True, f"freq {freq:.4f} <= bound {bound:.4f} + 3se")


def test_c7_binomial_concentration():
    """2000 trials: kept part-1 sizes track n*p and phase class sizes track
    n/q, both within 3 sigma of the mean estimator."""
    h = sample_hknp(2, 64, 0.1, 77)
    n, trials = 64, 2000

    p = 0.3
    xs = np.array(
        [run_ind(h, p, (707, t)).part_sizes[0] for t in range(trials)], dtype=float
    )
    tol = 3.0 * math.sqrt(n * p * (1 - p) / trials)
    assert abs(xs.mean() - n * p) <= tol, (xs.mean(), n * p, tol)

    q = 8
    ys = np.array(
        [len(col_random_phase(h, q, (708, t)).phi.class_of(1)[0]) for t in range(trials)],
        dtype=float,
    )
    tol_q = 3.0 * math.sqrt(n * (1 / q) * (1 - 1 / q) / trials)
    assert abs(ys.mean() - n / q) <= tol_q, (ys.mean(), n / q, tol_q)
    _report(
        7,
        True,
        f"|{xs.mean():.3f} - {n * p}| <= {tol:.3f}; "
        f"|{ys.mean():.3f} - {n / q}| <= {tol_q:.3f}",
    )


def test_c8_golden_determinism(tmp_path):
    """Regenerate every golden command output and compare bytes."""
    names = materialize(tmp_path)
    assert len(names) >= 10
    stale = [
        name
        for name in names
        if (tmp_path / name).read_bytes() != (GOLDEN_DIR / name).read_bytes()
    ]
    assert not stale, f"golden drift: {stale}"
    _report(8, True, f"{len(names)} goldens byte-identical")
