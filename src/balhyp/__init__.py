"""Balanced independent sets and balanced colorings in k-uniform k-partite hypergraphs.

The package provides:
  * core        -- the hypergraph data model, validators and structural queries
  * models      -- the random model H(k, N, p), degree trimming and union bounds
  * indep       -- the randomized balanced-independent-set procedure and exact oracle
  * matching    -- perfect matchings in the k-partite complement and the induced coloring
  * coloring    -- the two-stage balanced coloring pipeline
  * experiments -- the Monte Carlo harness behind `balhyp experiment`
  * cli         -- the `balhyp` command line front end
"""

from balhyp.coloring import ColParams, col_params, col_random_phase, full_coloring
from balhyp.core import (
    BalancedSet,
    KPartiteHypergraph,
    PartialColoring,
    Vertex,
    codegree,
    complement_edges,
    dump_khg,
    emit_khg,
    induced,
    is_balanced_independent,
    is_proper_balanced_coloring,
    load_khg,
    min_codegree,
    parse_khg,
    validate,
)
from balhyp.errors import BudgetExceededError, KhgParseError, RegimeError
from balhyp.indep import (
    IndParams,
    best_of_trials,
    exact_alpha_b,
    ind_params,
    run_ind,
)
from balhyp.matching import (
    Matching,
    exact_pm_complement,
    fallback_coloring,
    find_pm_complement,
)
from balhyp.models import (
    UpperBoundParams,
    exists_balanced_is,
    sample_hknp,
    trim_top_degree,
    union_bound_bis,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedSet",
    "BudgetExceededError",
    "ColParams",
    "IndParams",
    "KPartiteHypergraph",
    "KhgParseError",
    "Matching",
    "PartialColoring",
    "RegimeError",
    "UpperBoundParams",
    "Vertex",
    "best_of_trials",
    "codegree",
    "col_params",
    "col_random_phase",
    "complement_edges",
    "dump_khg",
    "emit_khg",
    "exact_alpha_b",
    "exact_pm_complement",
    "exists_balanced_is",
    "fallback_coloring",
    "find_pm_complement",
    "full_coloring",
    "ind_params",
    "induced",
    "is_balanced_independent",
    "is_proper_balanced_coloring",
    "load_khg",
    "min_codegree",
    "parse_khg",
    "run_ind",
    "sample_hknp",
    "trim_top_degree",
    "union_bound_bis",
    "validate",
    "__version__",
]
