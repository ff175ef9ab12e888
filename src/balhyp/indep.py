"""Randomized balanced independent sets, plus an exact small-case oracle.

The three-step procedure: parts 1..k-1 keep each vertex independently with
probability p; a part-k vertex joins iff no edge through it has all other
ends already kept; finally every part is truncated to the common minimum
size.  The result is always a balanced independent set, and with the right
p its side is close to the extremal bound for average degree D.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from balhyp.core import BalancedSet, KPartiteHypergraph, is_balanced_independent
from balhyp.errors import BudgetExceededError, RegimeError
from balhyp.models import _balanced_is_witness, _enumeration_cost
from balhyp.rng import SeedLike, as_stream, rng_for

__all__ = [
    "IndParams",
    "IndOutcome",
    "ind_params",
    "run_ind",
    "best_of_trials",
    "exact_alpha_b",
    "target_supported",
]

_TRIALS_CAP = 10**5


@dataclass(frozen=True)
class IndParams:
    """Parameter ledger for the randomized procedure at average degree D.

        p      = (((1 - eps/4)/(k-1)) * log(D)/D)^(1/(k-1))
        delta  = D^(-(1 - eps/8)/(k-1))
        target = (((1 - eps)/(k-1)) * log(D)/D)^(1/(k-1)) * n

    delta lower-bounds the per-trial probability (up to the factor 4) of
    the truncated set reaching the per-part target.  Natural log.
    """

    k: int
    epsilon: float
    D: float
    n: int
    p: float = field(init=False)
    delta: float = field(init=False)
    target: float = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise RegimeError(f"k={self.k} must be at least 2")
        if not 0 < self.epsilon < 1:
            raise RegimeError(f"epsilon={self.epsilon} outside (0, 1)")
        if self.n < 1:
            raise RegimeError(f"n={self.n} must be positive")
        if self.D < 2:
            raise RegimeError(f"D={self.D} must be at least 2")
        p = (
            ((1 - self.epsilon / 4) / (self.k - 1)) * math.log(self.D) / self.D
        ) ** (1 / (self.k - 1))
        delta = self.D ** (-(1 - self.epsilon / 8) / (self.k - 1))
        target = (
            ((1 - self.epsilon) / (self.k - 1)) * math.log(self.D) / self.D
        ) ** (1 / (self.k - 1)) * self.n
        if not 0 < p < 1:
            raise RegimeError(f"p={p} outside (0, 1); D={self.D} too small")
        if not 0 < delta < 1:
            raise RegimeError(f"delta={delta} outside (0, 1)")
        if target > self.n:
            raise RegimeError(f"target={target} exceeds n={self.n}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "target", target)

    @property
    def default_trials(self) -> int:
        """ceil(8/delta), clamped to [1, 100000]: per-trial success is at
        least delta/4, so this many trials push failure below e^-2."""
        return max(1, min(_TRIALS_CAP, math.ceil(8 / self.delta)))


def ind_params(k: int, epsilon: float, D: float, n: int) -> IndParams:
    return IndParams(k=k, epsilon=epsilon, D=D, n=n)


def target_supported(params: IndParams) -> bool:
    """Whether target/n <= delta/2 holds numerically at these parameters.

    The guarantee chains through this inequality; it only kicks in for
    large D, so small-D runs are best-effort and flagged by the driver.
    """
    return params.target / params.n <= params.delta / 2


@dataclass(frozen=True)
class IndOutcome:
    """One run: the raw kept set, its balanced truncation, and provenance."""

    raw: tuple  # per part, sorted kept indices (before truncation)
    balanced: BalancedSet
    part_sizes: tuple  # per part, |raw|
    seed: tuple
    trial_index: Optional[int] = None
    trial_sides: Optional[tuple] = None

    @property
    def side(self) -> int:
        return self.balanced.side


def run_ind(h: KPartiteHypergraph, p: float, seed: SeedLike) -> IndOutcome:
    """One pass of the three-step procedure on an n-balanced hypergraph.

    Randomness contract: one rng.random(n) block per part 1..k-1, drawn in
    part order from rng_for(seed); vertex i of part j is kept iff its
    uniform is < p.  Part k and the truncation are deterministic: a part-k
    vertex joins iff no edge through it has all other ends kept, and
    truncation keeps the lowest-index vertices of each part.  The result
    is checked to be balanced independent; a failure raises RuntimeError.
    """
    if not h.n_balanced:
        raise ValueError(f"part sizes {h.part_sizes} are not all equal")
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    n = h.part_sizes[0]
    k = h.k
    rng = rng_for(seed)
    e = h.edge_array
    hit = np.ones(len(e), dtype=bool)
    kept = []
    for j in range(k - 1):
        keep = rng.random(n) < p
        hit &= keep[e[:, j]]
        kept.append(np.flatnonzero(keep).tolist())
    blocked = np.zeros(n, dtype=bool)
    blocked[e[hit, k - 1]] = True
    kept.append(np.flatnonzero(~blocked).tolist())
    side = min(len(part) for part in kept)
    balanced = BalancedSet([part[:side] for part in kept])
    out = IndOutcome(
        raw=tuple(tuple(part) for part in kept),
        balanced=balanced,
        part_sizes=tuple(len(part) for part in kept),
        seed=as_stream(seed),
    )
    if not is_balanced_independent(h, out.balanced):
        raise RuntimeError(f"run_ind at seed {out.seed} produced a set containing an edge")
    return out


def best_of_trials(
    h: KPartiteHypergraph,
    params: Optional[IndParams],
    T: Optional[int] = None,
    seed: SeedLike = 0,
    p: Optional[float] = None,
) -> IndOutcome:
    """Run T independent trials (streams seed+(t,)) and keep the largest.

    Ties go to the lowest trial index, so the result is independent of any
    evaluation order.  The returned outcome carries every trial's side.
    `p` overrides the ledger probability for control experiments (params
    may then be None, but T must be given).
    """
    if T is None:
        if params is None:
            raise ValueError("T is required when no params are given")
        T = params.default_trials
    if T < 1:
        raise ValueError(f"T={T} must be at least 1")
    if p is None:
        p = params.p
        if not target_supported(params):
            warnings.warn(
                f"target/n = {params.target / params.n:.4g} exceeds delta/2 = "
                f"{params.delta / 2:.4g}; the success guarantee does not apply "
                f"at D = {params.D}, reporting best effort",
                stacklevel=2,
            )
    base = as_stream(seed)
    best: Optional[IndOutcome] = None
    best_t = -1
    sides = []
    for t in range(T):
        out = run_ind(h, p, base + (t,))
        sides.append(out.side)
        if best is None or out.side > best.side:
            best = out
            best_t = t
    return dataclasses.replace(best, trial_index=best_t, trial_sides=tuple(sides))


def exact_alpha_b(
    h: KPartiteHypergraph, budget: int = 10**8
) -> Tuple[int, BalancedSet]:
    """Maximum side of a balanced independent set, with a witness.

    Exhaustive over side-s subsets of parts 1..k-1, s descending from the
    minimum part size; refuses (never guesses) when the sum over s of
    s * prod_{j<k} C(n_j, s) exceeds the budget.  Meant for very small
    instances.  The witness is checked to be balanced independent; a
    failure raises RuntimeError.
    """
    smax = min(h.part_sizes)
    cost = 0
    for s in range(1, smax + 1):
        cost += _enumeration_cost(h.part_sizes, s)
        if cost > budget:
            raise BudgetExceededError(
                f"sum over s of s*prod_{{j<k}} C(n_j,s) exceeds enumeration budget {budget}"
            )
    for s in range(smax, 0, -1):
        witness = _balanced_is_witness(h, s)
        if witness is not None:
            if not is_balanced_independent(h, witness):
                raise RuntimeError(f"exact_alpha_b witness of side {s} contains an edge")
            return s, witness
    return 0, BalancedSet([()] * h.k)
