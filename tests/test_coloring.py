"""Tests for the two-stage balanced coloring."""

import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balhyp.coloring
from balhyp.coloring import (
    PhaseState,
    accepts,
    col_params,
    col_random_phase,
    full_coloring,
    is_clamped,
    rebalance,
    residual,
)
from balhyp.core import (
    KPartiteHypergraph,
    PartialColoring,
    is_proper_balanced_coloring,
    is_proper_on_colored,
)
from balhyp.errors import RegimeError
from balhyp.models import sample_hknp

from conftest import cap_max_degree
import reference


def quiet_col_params(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return col_params(*args)


def survivor_lists(state):
    """The random phase's survivor lists L(v) of part k, as sorted tuples."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in state.allowed)


def uncolored_k(state):
    """Sorted part-k vertices the coloring leaves uncolored."""
    return tuple(np.flatnonzero(state.phi.color_arrays[-1] == 0).tolist())


def state_of(h, phi):
    """A phase state for `phi` in which every part-k vertex may take every color."""
    allowed = np.ones((h.part_sizes[-1], phi.q + 1), dtype=bool)
    allowed[:, 0] = False
    return PhaseState(h=h, phi=phi, allowed=allowed)


def test_col_params_example_k2():
    pr = quiet_col_params(2, 0.2, 256.0, 10**5)
    logd = math.log(256.0)
    assert pr.gamma == 0.025
    assert math.isclose(pr.q_real, 1.0125 * 256 / logd, rel_tol=1e-12)
    assert pr.q == 47
    assert math.isclose(pr.omega, 1 / (256 * math.sqrt(logd)), rel_tol=1e-12)
    assert math.isclose(pr.delta_tilde, 0.00625 * 256 / logd, rel_tol=1e-12)
    assert pr.delta_tilde_eff == 1
    assert math.isclose(pr.delta, math.exp(-(256.0**0.0005)), rel_tol=1e-12)
    assert pr.n_c == math.floor((1 - 2 * pr.omega) * 10**5 / 47)
    assert pr.final_budget == 47 + 2
    assert pr.q * pr.n_c <= pr.n


def test_col_params_example_k3():
    # Direct evaluation: q_real = (1 + 0.3/36) * sqrt(2e4 / ln(1e4)) = 46.99.
    pr = quiet_col_params(3, 0.3, 1e4, 10**6)
    want = (1 + 0.3 / 36) * math.sqrt(2e4 / math.log(1e4))
    assert math.isclose(pr.q_real, want, rel_tol=1e-12)
    assert pr.q == 47


def test_col_params_rejections():
    with pytest.raises(RegimeError):
        col_params(2, 0.2, math.e, 100)  # log Delta must exceed 1
    with pytest.raises(RegimeError):
        col_params(1, 0.2, 16.0, 100)
    with pytest.raises(RegimeError):
        col_params(2, 0.0, 16.0, 100)
    with pytest.raises(RegimeError):
        quiet_col_params(2, 0.2, 16.0, 2)  # n below q


def test_col_params_advisory():
    with pytest.warns(UserWarning, match="delta_tilde"):
        pr = col_params(2, 0.2, 256.0, 10**5)
    assert pr.advisories
    # Large enough Delta pushes delta_tilde past 1: no advisory.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr2 = col_params(2, 0.2, 1200.0, 2000)
    assert pr2.delta_tilde >= 1
    assert pr2.advisories == ()
    assert pr2.delta_tilde_eff == math.ceil(pr2.delta_tilde)


def test_phase_edgeless():
    h = KPartiteHypergraph([5, 5], [])
    state = col_random_phase(h, 3, 0)
    assert uncolored_k(state) == ()
    assert state.phi.is_total()
    assert all(L == (1, 2, 3) for L in survivor_lists(state))


def test_phase_forced_uncolored():
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    state = col_random_phase(h, 1, 4)
    assert survivor_lists(state)[0] == ()
    assert uncolored_k(state) == (0,)
    assert state.phi.colors[1][0] is None
    assert state.phi.colors[1][1] == 1


def test_phase_golden():
    # Frozen from the first run at seed 11 and recomputed below from the
    # documented randomness contract.
    h = KPartiteHypergraph(
        [6, 6],
        [(0, 0), (0, 3), (1, 1), (2, 0), (2, 2), (3, 4), (4, 0), (5, 5), (5, 0)],
    )
    state = col_random_phase(h, 3, 11)
    assert state.phi.colors == ((1, 1, 3, 2, 2, 2), (None, 2, 2, 2, 1, 3))
    assert survivor_lists(state) == ((), (2, 3), (1, 2), (2, 3), (1, 3), (1, 3))
    assert uncolored_k(state) == (0,)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11])))
    c1 = [int(c) for c in rng.integers(1, 4, size=6)]
    sel = rng.random(6)
    assert state.phi.colors[0] == tuple(c1)
    banned = [set() for _ in range(6)]
    for (a, b) in h.edges:
        banned[b].add(c1[a])
    for v in range(6):
        L = [c for c in (1, 2, 3) if c not in banned[v]]
        assert survivor_lists(state)[v] == tuple(L)
        if L:
            want = L[max(1, math.ceil(sel[v] * len(L))) - 1]
            assert state.phi.colors[1][v] == want
        else:
            assert state.phi.colors[1][v] is None


def test_phase_proper_and_lists_match_naive():
    for i in range(8):
        h = sample_hknp(3, 5, 0.25, (14, i))
        state = col_random_phase(h, 3, (15, i))
        assert is_proper_on_colored(h, state.phi)
        # survivor lists recomputed by a direct definition scan
        for v in range(5):
            L = []
            for c in range(1, 4):
                forced = any(
                    e[2] == v
                    and all(state.phi.colors[j][e[j]] == c for j in range(2))
                    for e in h.edges
                )
                if not forced:
                    L.append(c)
            assert survivor_lists(state)[v] == tuple(L)
        assert uncolored_k(state) == tuple(
            v for v in range(5) if survivor_lists(state)[v] == ()
        )


def test_rebalance_identity_when_already_balanced():
    h = KPartiteHypergraph([4, 4], [])
    phi = PartialColoring(2, [[1, 1, 2, 2], [1, 2, 1, 2]])
    out = rebalance(state_of(h, phi), SimpleNamespace(n_c=2, delta_tilde_eff=1))
    assert out.phi.colors == phi.colors
    assert out.n_c == 2
    assert out.clamped is False
    assert out.good_shortage is False
    assert uncolored_k(out) == ()


def test_rebalance_arithmetic():
    h = cap_max_degree(sample_hknp(2, 24, 0.12, 9), 6)
    pr = quiet_col_params(2, 0.2, max(h.max_degree, 3), 24)
    state = col_random_phase(h, pr.q, 21)
    before = reference.classes(state.phi.colors, pr.q)
    out = rebalance(state, pr)
    n, q, k = 24, pr.q, 2
    after = reference.classes(out.phi.colors, q)
    for j in range(1, k + 1):
        for c in range(1, q + 1):
            cls = after[(j, c)]
            assert len(cls) == out.n_c
            assert set(cls) <= set(before[(j, c)])
    for j in range(k):
        uncolored = [i for i, col in enumerate(out.phi.colors[j]) if col is None]
        assert len(uncolored) == n - q * out.n_c
    assert set(uncolored_k(state)) <= set(uncolored_k(out))
    assert sum(len(after[(k, c)]) for c in range(1, q + 1)) == q * out.n_c
    assert out.n_c == min([pr.n_c] + [len(v) for v in before.values()])
    assert out.clamped == (out.n_c < pr.n_c)
    # part-k classes keep their highest-index members
    for c in range(1, q + 1):
        cls = before[(2, c)]
        assert after[(2, c)] == cls[len(cls) - out.n_c:]


def test_rebalance_good_vertices_first():
    # Recount badness from the rebalanced part-k pool and the edges: no
    # class may drop a bad vertex while it keeps a good one, and with the
    # shortage flag clear every dropped vertex is good.
    dense = cap_max_degree(sample_hknp(2, 30, 0.1, 31), 8)
    sparse = sample_hknp(2, 60, 1.5 / 60, 32)
    seen = set()
    for h in (dense, sparse):
        n = h.part_sizes[0]
        pr = quiet_col_params(2, 0.2, max(h.max_degree, 3), n)
        for seed in range(4, 12):
            state = col_random_phase(h, pr.q, seed)
            out = rebalance(state, pr)
            pool = set(uncolored_k(out))
            bad = [sum(1 for e in h.edges if e[0] == u and e[1] in pool) >= pr.delta_tilde_eff
                   for u in range(n)]
            before = reference.classes(state.phi.colors, pr.q)
            after = reference.classes(out.phi.colors, pr.q)
            for c in range(1, pr.q + 1):
                dropped = set(before[(1, c)]) - set(after[(1, c)])
                bad_dropped = any(bad[u] for u in dropped)
                bad_kept = [bad[u] for u in after[(1, c)]]
                assert not (bad_dropped and not all(bad_kept))
                if not out.good_shortage:
                    assert not bad_dropped
                seen.add((bad_dropped, any(bad_kept), out.good_shortage))
    # both regimes occur: bad vertices dropped under a shortage, and kept
    # while good ones are dropped instead
    assert {(True, True, True), (False, True, False)} <= seen


def test_residual_whole_instance():
    # n = q forces n_c = 0: everything is uncolored and the residual is H.
    h = KPartiteHypergraph([3, 3], [(0, 0), (1, 2)])
    pr = quiet_col_params(2, 0.2, 3.0, 3)
    assert pr.n_c == 0
    state = rebalance(col_random_phase(h, pr.q, 2), pr)
    sub, remap = residual(h, state)
    assert sub == h
    assert remap == ((0, 1, 2), (0, 1, 2))


def test_residual_empty():
    h = KPartiteHypergraph([4, 4], [])
    phi = PartialColoring(2, [[1, 1, 2, 2], [1, 2, 1, 2]])
    out = rebalance(state_of(h, phi), SimpleNamespace(n_c=2, delta_tilde_eff=1))
    sub, remap = residual(h, out)
    assert sub.part_sizes == (0, 0)
    assert sub.edges == ()


def test_residual_requires_rebalance():
    h = KPartiteHypergraph([3, 3], [])
    state = col_random_phase(h, 2, 0)
    with pytest.raises(ValueError):
        residual(h, state)


def test_full_coloring_edgeless():
    h = KPartiteHypergraph([5, 5], [])
    phi, report = full_coloring(h, 0.2, seed=0)
    assert phi.colors_used() == (1,)
    assert report["path"] == "main"
    assert report["palette"] == 1
    assert all(report["validator"].values())


def test_full_coloring_random_instances():
    for i in range(4):
        h = cap_max_degree(sample_hknp(2, 16, 0.2, (50, i)), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi, report = full_coloring(h, 0.2, seed=(1, i))
        assert phi.is_total()
        assert is_proper_balanced_coloring(h, phi)
        assert all(report["validator"].values())
        if report["path"] == "fallback":
            assert report["palette"] <= 2 * h.max_degree + 1
        else:
            bound = report["q"] + 2 * report["residual_delta"] + 1
            assert report["palette"] <= bound
        sizes = list(report["per_class_sizes"].values())
        assert all(len(set(v)) == 1 for v in sizes)


def test_full_coloring_deterministic():
    h = cap_max_degree(sample_hknp(2, 12, 0.2, 6), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a, ra = full_coloring(h, 0.2, seed=3)
        b, rb = full_coloring(h, 0.2, seed=3)
    assert a == b
    assert ra == rb


def test_full_coloring_small_delta_advisory():
    h = KPartiteHypergraph([6, 6], [(0, 0), (1, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi, report = full_coloring(h, 0.2, seed=0)
    assert any("below ledger minimum" in a for a in report["advisories"])
    assert is_proper_balanced_coloring(h, phi)


def test_full_coloring_regime_rejected_falls_back():
    # n=2 < q: ledger construction fails, output comes from the matching path.
    h = KPartiteHypergraph([2, 2], [(0, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi, report = full_coloring(h, 0.2, seed=0)
    assert report["path"] == "fallback"
    assert any("regime rejected" in a for a in report["advisories"])
    assert report["palette"] <= 2 * 1 + 1
    assert is_proper_balanced_coloring(h, phi)


def test_class_sizes_binomial():
    # |V_1(c)| is Binomial(n, 1/q) exactly.
    h = sample_hknp(2, 30, 0.2, 3)
    q, trials = 4, 600
    total = 0
    for t in range(trials):
        state = col_random_phase(h, q, (70, t))
        total += sum(1 for c in state.phi.colors[0] if c == 1)
    mean = total / trials
    se = math.sqrt(30 * (1 / q) * (1 - 1 / q) / trials)
    assert abs(mean - 30 / q) <= 3 * se


def test_ban_frequency_upper_bound():
    # P[c not in L(v)] <= 1 - (1 - 1/q^(k-1))^deg(v), within 3 SE.
    h = sample_hknp(2, 24, 0.3, 19)
    q, trials = 3, 1500
    n = 24
    v = max(range(n), key=lambda i: (h.degree((2, i)), -i))
    hits = 0
    for t in range(trials):
        state = col_random_phase(h, q, (71, t))
        if not state.allowed[v, 1]:
            hits += 1
    freq = hits / trials
    bound = 1 - (1 - 1 / q) ** h.degree((2, v))
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
    assert freq <= bound + 3 * se


def test_empty_list_product_exact_enumeration():
    # q=2, k=2, n=3, part-2 vertex 0 sees all of part 1: enumerating the
    # 2^3 first-stage colorings gives P[L empty] = 3/4 and
    # prod_c P[c not in L] = (7/8)^2; negative correlation holds exactly.
    edges = [(0, 0), (1, 0), (2, 0)]
    q, n = 2, 3
    outcomes = 0
    empty = 0
    not_in = {1: 0, 2: 0}
    for assignment in itertools.product(range(1, q + 1), repeat=n):
        outcomes += 1
        bans = {assignment[a] for (a, b) in edges if b == 0}
        if len(bans) == q:
            empty += 1
        for c in (1, 2):
            if c in bans:
                not_in[c] += 1
    p_empty = Fraction(empty, outcomes)
    product = Fraction(not_in[1], outcomes) * Fraction(not_in[2], outcomes)
    assert p_empty == Fraction(3, 4)
    assert product == Fraction(49, 64)
    assert p_empty <= product


# --- differential tests against the pure-Python references -----------------


@st.composite
def balanced_hypergraphs(draw):
    """n-balanced, k in 2..4, n in 1..7, duplicate-free edges, often edgeless."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 7))
    edges = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * k), unique=True, max_size=40))
    return KPartiteHypergraph([n] * k, edges)


@settings(max_examples=300, deadline=None)
@given(balanced_hypergraphs(), st.integers(1, 8), st.integers(0, 2**32))
def test_col_random_phase_matches_reference(h, q, seed):
    state = col_random_phase(h, q, seed)
    got = (state.phi.colors, survivor_lists(state), uncolored_k(state))
    assert got == reference.col_random_phase(h, q, seed)
    assert state.allowed.shape == (h.part_sizes[-1], q + 1)
    assert not state.allowed[:, 0].any()
    assert not state.allowed.flags.writeable


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rebalance_matches_reference(data):
    """Any partial coloring, uncolored vertices included, any target n_c
    and badness threshold."""
    h = data.draw(balanced_hypergraphs())
    n, q = h.part_sizes[0], data.draw(st.integers(1, 8))
    color = st.none() | st.integers(1, q)
    colors = [data.draw(st.lists(color, min_size=n, max_size=n)) for _ in range(h.k)]
    params = SimpleNamespace(n_c=data.draw(st.integers(0, n)),
                             delta_tilde_eff=data.draw(st.integers(1, 3)))
    state = state_of(h, PartialColoring(q, colors))
    out = rebalance(state, params)
    assert is_clamped(state, params) == out.clamped
    want_colors, n_c, u_k_prime, _, clamped, good_shortage = reference.rebalance(
        h, colors, q, params.n_c, params.delta_tilde_eff)
    got = (out.phi.colors, out.n_c, uncolored_k(out), out.clamped, out.good_shortage)
    assert got == (want_colors, n_c, u_k_prime, clamped, good_shortage)


# --- post-conditions are explicit checks, kept under python -O ---------------


def test_col_random_phase_raises_when_check_fails(monkeypatch):
    h = KPartiteHypergraph([3, 3], [(0, 0)])
    col_random_phase(h, 2, 0)
    monkeypatch.setattr(balhyp.coloring, "is_proper_on_colored", lambda h, phi: False)
    with pytest.raises(RuntimeError, match="monochromatic"):
        col_random_phase(h, 2, 0)


def _main_path_instance():
    # the first attempt at seed 0 is accepted and leaves a residual with edges
    h = sample_hknp(2, 12, 0.05, (50, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, report = full_coloring(h, 0.2, seed=0)
    assert (report["path"], report["retries_used"], report["residual_delta"]) == ("main", 1, 1)
    return h


@pytest.mark.parametrize("check", ["total", "proper_balanced", "palette"])
def test_full_coloring_main_path_raises_when_check_fails(monkeypatch, check):
    h = _main_path_instance()
    if check == "total":
        monkeypatch.setattr(PartialColoring, "is_total", lambda self: False)
        match = "uncolored"
    elif check == "proper_balanced":
        monkeypatch.setattr(balhyp.coloring, "is_proper_balanced_coloring", lambda *a, **kw: False)
        match = "not a proper balanced coloring"
    else:
        monkeypatch.setattr(PartialColoring, "colors_used", lambda self: tuple(range(1, 10**3)))
        match = "main path used 999 colors"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match=match):
            full_coloring(h, 0.2, seed=0)


@pytest.mark.parametrize("route", ["regime_rejected", "no_attempt_accepted"])
def test_full_coloring_fallback_bound_raises(monkeypatch, route):
    if route == "regime_rejected":
        h, retries = KPartiteHypergraph([2, 2], [(0, 0)]), 16  # n=2 below q
    else:
        h, retries = _main_path_instance(), 0
    monkeypatch.setattr(PartialColoring, "colors_used", lambda self: tuple(range(1, 10**3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="fallback path used 999 colors"):
            full_coloring(h, 0.2, seed=0, max_retries=retries)


@pytest.mark.parametrize("route", ["edgeless", "regime_rejected", "no_attempt_accepted"])
def test_full_coloring_fallback_verdict_raises(monkeypatch, route):
    if route == "edgeless":
        h, retries = KPartiteHypergraph([3, 3], []), 16
    elif route == "regime_rejected":
        h, retries = KPartiteHypergraph([2, 2], [(0, 0)]), 16  # n=2 below q
    else:
        h, retries = _main_path_instance(), 0
    monkeypatch.setattr(balhyp.coloring, "is_proper_balanced_coloring", lambda *a, **kw: False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="path coloring is not a proper balanced coloring"):
            full_coloring(h, 0.2, seed=0, max_retries=retries)


# --- one acceptance rule, applied before the residual is built ---------------


def test_clamped_attempts_build_no_residual(monkeypatch):
    # every attempt is clamped here, so none is rebalanced or gets a residual
    h = sample_hknp(2, 64, 8 / 64, 5)
    calls = {"col_random_phase": 0, "rebalance": 0, "residual": 0}
    verdicts = []

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(balhyp.coloring, name, wrapped)

    for name in calls:
        spy(name, getattr(balhyp.coloring, name))
    monkeypatch.setattr(balhyp.coloring, "is_clamped",
                        lambda *a: verdicts.append(is_clamped(*a)) or verdicts[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, report = full_coloring(h, 0.2, seed=0)
    assert calls == {"col_random_phase": 16, "rebalance": 0, "residual": 0}
    assert verdicts == [True] * 16
    assert (report["path"], report["retries_used"]) == ("fallback", 16)


def test_is_clamped_matches_rebalance():
    seen = set()
    for i, (k, n, d) in enumerate([(2, 30, 1.5), (2, 64, 8), (3, 40, 4), (2, 200, 3)]):
        params = quiet_col_params(k, 0.2, 3.0 + i, n)
        h = sample_hknp(k, n, d / n ** (k - 1), (120, i))
        for t in range(12):
            state = col_random_phase(h, params.q, (121, i, t))
            for n_c in (0, params.n_c, params.n_c + 1, n):
                ledger = SimpleNamespace(n_c=n_c, delta_tilde_eff=params.delta_tilde_eff)
                verdict = is_clamped(state, ledger)
                assert verdict == rebalance(state, ledger).clamped
                seen.add(verdict)
    assert seen == {True, False}


def test_accepts_is_the_stated_rule():
    h = sample_hknp(2, 30, 1.5 / 30, (1, 0, 0))
    params = quiet_col_params(2, 0.2, max(h.max_degree, 3), 30)
    verdicts = set()
    for t in range(20):
        state = rebalance(col_random_phase(h, params.q, (1, 0, t + 1)), params)
        h_res, _ = residual(h, state)
        d, n_res = h_res.max_degree, h_res.part_sizes[0]
        want = not state.clamped and d <= params.delta_tilde_eff and 2 * d <= n_res
        assert accepts(state, params, h_res) == want
        verdicts.add((state.clamped, want))
    assert verdicts == {(True, False), (False, False), (False, True)}
