"""Two-stage randomized balanced coloring.

Stage one colors parts 1..k-1 uniformly with q colors and then gives each
part-k vertex a color from its survivor list (colors not forced mono by an
edge), leaving vertices with empty lists uncolored.  Rebalancing trims all
classes to a common size n_c while steering clear of vertices whose edges
meet the uncolored part-k pool.  The leftover vertices induce a residual
hypergraph that is finished off with the matching-based colorer on a fresh
palette.  High-probability events from the analysis become runtime checks
with retry; a whole-instance matching fallback guards the worst case.
Every coloring returned, from either path, passes one output check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from balhyp.core import (
    KPartiteHypergraph,
    PartialColoring,
    is_proper_balanced_coloring,
    is_proper_on_colored,
    induced,
)
from balhyp.errors import RegimeError
from balhyp.matching import fallback_coloring
from balhyp.rng import SeedLike, as_stream, rng_for

__all__ = [
    "ColParams",
    "PhaseState",
    "col_params",
    "col_random_phase",
    "is_clamped",
    "rebalance",
    "residual",
    "accepts",
    "full_coloring",
]


@dataclass(frozen=True)
class ColParams:
    """Parameter ledger for the two-stage coloring at max degree Delta.

        gamma       = epsilon / (2 k^2)
        q_real      = (1 + gamma/2) * ((k-1) Delta / log Delta)^(1/(k-1))
        q           = ceil(q_real)
        delta       = exp(-Delta^(gamma/50))
        omega       = 1 / (Delta * (log Delta)^(1/(2(k-1))))
        delta_tilde = (gamma/(2k)) * ((k-1) Delta / log Delta)^(1/(k-1))
        n_c         = floor((1 - 2 omega) n / q)
        final_budget = q + k * delta_tilde_eff

    Roundings all weaken the side that is re-verified at runtime: more
    colors, smaller classes, and a residual degree target of at least 1.
    Natural log.
    """

    k: int
    epsilon: float
    Delta: float
    n: int
    gamma: float = field(init=False)
    q_real: float = field(init=False)
    q: int = field(init=False)
    delta: float = field(init=False)
    omega: float = field(init=False)
    delta_tilde: float = field(init=False)
    delta_tilde_eff: int = field(init=False)
    n_c: int = field(init=False)
    final_budget: int = field(init=False)
    advisories: tuple = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise RegimeError(f"k={self.k} must be at least 2")
        if self.Delta < 3:
            raise RegimeError(f"Delta={self.Delta} below 3; log Delta must exceed 1")
        if self.epsilon <= 0:
            raise RegimeError(f"epsilon={self.epsilon} must be positive")
        if self.n < 1:
            raise RegimeError(f"n={self.n} must be positive")
        k, logd = self.k, math.log(self.Delta)
        gamma = self.epsilon / (2 * k**2)
        base = ((k - 1) * self.Delta / logd) ** (1 / (k - 1))
        q_real = (1 + gamma / 2) * base
        q = math.ceil(q_real)
        delta = math.exp(-(self.Delta ** (gamma / 50)))
        omega = 1 / (self.Delta * logd ** (1 / (2 * (k - 1))))
        delta_tilde = (gamma / (2 * k)) * base
        delta_tilde_eff = max(math.ceil(delta_tilde), 1)
        if self.n < q:
            raise RegimeError(f"n={self.n} below q={q}: no room for one vertex per class")
        if not 0 < omega < 0.5:
            raise RegimeError(f"omega={omega} outside (0, 1/2)")
        n_c = math.floor((1 - 2 * omega) * self.n / q)
        notes = []
        if delta_tilde < 1:
            notes.append(
                f"delta_tilde={delta_tilde:.4g} below 1 at Delta={self.Delta}; "
                f"residual degree target clamped to 1 (asymptotic regime not reached)"
            )
            warnings.warn(notes[-1], stacklevel=3)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "q_real", q_real)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "delta_tilde", delta_tilde)
        object.__setattr__(self, "delta_tilde_eff", delta_tilde_eff)
        object.__setattr__(self, "n_c", n_c)
        object.__setattr__(self, "final_budget", q + k * delta_tilde_eff)
        object.__setattr__(self, "advisories", tuple(notes))


def col_params(k: int, epsilon: float, Delta: float, n: int) -> ColParams:
    return ColParams(k=k, epsilon=epsilon, Delta=Delta, n=n)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Coloring state after the random phase, optionally rebalanced.

    `allowed` is the read-only (n, q+1) boolean survivor matrix of part k:
    allowed[v, c] says color c is in L(v), and column 0 is False, so a
    part-k vertex is uncolored after the random phase exactly when its row
    is all False.  Rebalancing fills in n_c and the two failure flags
    (class clamped below target, good vertices exhausted).  States compare
    by identity, since a field-wise == is ambiguous on arrays.
    """

    h: KPartiteHypergraph
    phi: PartialColoring
    allowed: np.ndarray
    n_c: Optional[int] = None
    clamped: bool = False
    good_shortage: bool = False


def col_random_phase(h: KPartiteHypergraph, q: int, seed: SeedLike) -> PhaseState:
    """Steps one and two: uniform colors on parts 1..k-1, survivor-list
    colors on part k.

    Randomness contract, in order: one rng.integers(1, q+1, size=n) block
    per part 1..k-1, then one rng.random(n) block of selector variates for
    part k.  Vertex v's selector T picks the ceil(T * len(L))-th smallest
    survivor color (selectors of vertices with empty lists stay unused).
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    if q < 1:
        raise ValueError(f"q={q} must be at least 1")
    n = h.part_sizes[0]
    k = h.k
    rng = rng_for(seed)
    cols = [rng.integers(1, q + 1, size=n) for _ in range(k - 1)]
    selectors = rng.random(n)
    # an edge bans its part-1 color at its part-k vertex when parts 1..k-1 agree
    e = h.edge_array
    c0 = cols[0][e[:, 0]]
    mono = np.ones(len(e), dtype=bool)
    for j in range(1, k - 1):
        mono &= cols[j][e[:, j]] == c0
    allowed = np.ones((n, q + 1), dtype=bool)  # column c: color c survives; 0 unused
    allowed[:, 0] = False
    allowed[e[:, k - 1], c0 * mono] = False  # an edge that bans nothing hits column 0
    sizes = allowed.sum(axis=1)
    # the same doubles as max(1, math.ceil(T * len(L))); no column reaches
    # the rank of an empty list, so argmax picks column 0, uncolored
    rank = np.maximum(1, np.ceil(selectors * sizes))
    part_k = (np.cumsum(allowed, axis=1) >= rank[:, None]).argmax(axis=1)
    allowed.flags.writeable = False
    phi = PartialColoring(q, cols + [part_k])
    if not is_proper_on_colored(h, phi):
        raise RuntimeError("random phase produced a monochromatic edge")
    return PhaseState(h=h, phi=phi, allowed=allowed)


def is_clamped(state: PhaseState, params) -> bool:
    """Whether `rebalance` clamps n_c: some part's smallest class after
    the random phase is below params.n_c.  Rebalancing draws nothing, so
    this settles the `clamped` flag before it runs."""
    return any(
        np.bincount(a, minlength=state.phi.q + 1)[1:].min() < params.n_c
        for a in state.phi.color_arrays
    )


def rebalance(state: PhaseState, params) -> PhaseState:
    """Steps three and four: trim every class to a common size n_c.

    n_c is clamped to the smallest class when needed (setting `clamped`).
    Part k uncolors lowest-index vertices first.  A vertex of a part below
    k is bad when at least delta_tilde_eff of its edges meet the enlarged
    uncolored part-k pool; those parts uncolor lowest-index good vertices
    first, dipping into bad ones only when good ones run out (setting
    `good_shortage`).  Afterwards every class has exactly n_c vertices per
    part and each part has n - q*n_c uncolored.
    """
    h = state.h
    q, k = state.phi.q, h.k
    colors = [np.array(a) for a in state.phi.color_arrays]
    counts = [np.bincount(a, minlength=q + 1) for a in colors]
    clamped = is_clamped(state, params)
    n_c = min(int(cnt[1:].min()) for cnt in counts) if clamped else params.n_c
    _uncolor_lowest(colors[k - 1], counts[k - 1], n_c, np.zeros(len(colors[k - 1]), dtype=bool))
    e = h.edge_array
    in_pool = colors[k - 1][e[:, k - 1]] == 0
    n = h.part_sizes[0]
    good_shortage = False
    for j in range(k - 1):
        a = colors[j]
        bad = np.bincount(e[:, j].compress(in_pool), minlength=n) >= params.delta_tilde_eff
        good = np.bincount(a[~bad], minlength=q + 1)
        good_shortage |= bool((good[1:] < counts[j][1:] - n_c).any())
        _uncolor_lowest(a, counts[j], n_c, bad)
    return replace(
        state,
        phi=PartialColoring(q, colors),
        n_c=n_c,
        clamped=clamped,
        good_shortage=good_shortage,
    )


def _uncolor_lowest(a: np.ndarray, counts: np.ndarray, n_c: int, bad: np.ndarray) -> None:
    """Uncolor, in place, all but n_c vertices of every class of `a`
    (class sizes `counts`): lowest-index good vertices first, then
    lowest-index bad ones."""
    order = np.lexsort((bad, a))  # by color, then good before bad, then index
    color = a[order]
    rank = np.arange(len(a)) - (np.cumsum(counts) - counts)[color]
    drop = (color != 0) & (rank < counts[color] - n_c)
    a[order[drop]] = 0


def residual(h: KPartiteHypergraph, state: PhaseState):
    """Subhypergraph induced by the uncolored vertices, with the remap."""
    if state.n_c is None:
        raise ValueError("state has not been rebalanced")
    return induced(h, [np.flatnonzero(a == 0) for a in state.phi.color_arrays])


def accepts(state: PhaseState, params: ColParams, h_res: KPartiteHypergraph) -> bool:
    """The acceptance rule for a rebalanced attempt with residual `h_res`:
    no class was clamped, and the residual's max degree is at most
    delta_tilde_eff and at most half the residual part size."""
    d = h_res.max_degree
    return not state.clamped and d <= params.delta_tilde_eff and d <= h_res.part_sizes[0] / 2


def full_coloring(
    h: KPartiteHypergraph,
    epsilon: float,
    seed: SeedLike = 0,
    max_retries: int = 16,
):
    """Total balanced coloring of an n-balanced hypergraph, with a report.

    Each attempt r runs the random phase on stream seed+(r, 0), rebalances,
    and is judged by `accepts`; a clamped attempt (`is_clamped`) is
    rejected before it is rebalanced.  The residual of the first accepted
    attempt is colored by the matching fallback on stream seed+(r, 1) with
    palette offset q.  If the parameter ledger rejects the instance or no
    attempt is accepted, the whole instance goes to the matching fallback
    on stream seed+(max_retries, 1), so max_retries=0 goes straight to the
    fallback and a negative max_retries raises ValueError.  Edgeless input
    short-circuits to the single-color answer.

    Every path ends in one output check: the coloring must be total,
    proper and balanced, and use at most q + k*Delta_res + 1 colors
    (main path) or k*Delta + 1 (fallback and edgeless); a failure raises
    RuntimeError.

    Returns (coloring, report); the report records palette, q,
    delta_tilde_eff, retries_used, path ("main" or "fallback"), validator
    verdicts, per-class sizes, and any advisories.
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    if max_retries < 0:
        raise ValueError(f"max_retries={max_retries} must be non-negative")
    n = h.part_sizes[0]
    k = h.k
    base = as_stream(seed)
    delta_h = h.max_degree
    if delta_h == 0:
        phi = PartialColoring(1, [np.ones(n, dtype=np.intp) for _ in range(k)])
        return phi, _report(h, phi, 1, q=1, eff=0, retries_used=0, path="main",
                            advisories=["edgeless instance: single color"])
    advisories = []
    ledger_delta = float(delta_h)
    if delta_h < 3:
        ledger_delta = 3.0
        advisories.append(
            f"Delta={delta_h} below ledger minimum 3; parameters computed at Delta=3"
        )
    try:
        params = col_params(k, epsilon, ledger_delta, n)
    except RegimeError as exc:
        advisories.append(f"parameter regime rejected ({exc}); using matching fallback")
        q = eff = retries_used = 0
    else:
        advisories.extend(params.advisories)
        q, eff, retries_used = params.q, params.delta_tilde_eff, max_retries
        for r in range(max_retries):
            state = col_random_phase(h, q, base + (r, 0))
            if is_clamped(state, params):
                continue  # `accepts` rejects it whatever the residual
            state = rebalance(state, params)
            h_phi, remap = residual(h, state)
            if not accepts(state, params, h_phi):
                continue
            # accepted: n_res >= n - q*n_c >= 2*omega*n > 0
            sub_phi = fallback_coloring(h_phi, seed=base + (r, 1))
            colors = [np.array(a) for a in state.phi.color_arrays]
            for j in range(k):
                colors[j][np.array(remap[j], dtype=np.intp)] = q + sub_phi.color_arrays[j]
            merged = PartialColoring(q + sub_phi.q, colors)
            return merged, _report(
                h, merged, q + k * h_phi.max_degree + 1, q=q, eff=eff,
                retries_used=r + 1, path="main", advisories=advisories,
                extra={"n_c": state.n_c, "residual_delta": h_phi.max_degree,
                       "residual_n": h_phi.part_sizes[0],
                       "good_shortage": state.good_shortage},
            )
        advisories.append(f"no attempt accepted in {max_retries} tries; using matching fallback")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = fallback_coloring(h, seed=base + (max_retries, 1))
    return phi, _report(h, phi, k * delta_h + 1, q=q, eff=eff, retries_used=retries_used,
                        path="fallback", advisories=advisories)


def _report(h, phi, bound, q, eff, retries_used, path, advisories, extra=None):
    """The report of a finished coloring, which is also its output check:
    a failed validator verdict or more than `bound` colors raises
    RuntimeError."""
    validator = {
        "total": phi.is_total(),
        "proper": is_proper_on_colored(h, phi),
        "balanced": is_proper_balanced_coloring(h, phi),
    }
    for verdict, failure in (("total", "leaves a vertex uncolored"),
                             ("proper", "has a monochromatic edge"),
                             ("balanced", "is not a proper balanced coloring")):
        if not validator[verdict]:
            raise RuntimeError(f"{path} path coloring {failure}")
    used = phi.colors_used()
    if len(used) > bound:
        raise RuntimeError(f"{path} path used {len(used)} colors, bound {bound}")
    top = used[-1] + 1 if used else 1
    counts = [np.bincount(a, minlength=top).tolist() for a in phi.color_arrays]
    report = {
        "palette": len(used),
        "q": q,
        "delta_tilde_eff": eff,
        "retries_used": retries_used,
        "path": path,
        "validator": validator,
        "per_class_sizes": {c: [cnt[c] for cnt in counts] for c in used},
        "advisories": list(advisories),
    }
    if extra:
        report.update(extra)
    return report
