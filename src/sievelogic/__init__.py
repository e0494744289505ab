"""Contextual truth values for finite quantum systems.

Propositions "observable in subset" are assigned sieves: up-closed sets
of spectrum partitions forming a Heyting algebra per observable.  The
package builds these truth values from states, density matrices,
thresholds or pointwise valuations, verifies the axioms they satisfy,
mirrors the construction on Boolean subalgebra posets, and demonstrates
by exhaustive search that suitable finite context families admit no
global 0/1 valuation.
"""
from .errors import (
    BaseMismatchError,
    DegenerateClusteringError,
    InconsistentAssignmentsError,
    InputError,
    NotHermitianError,
    NotSubalgebraError,
    SieveLogicError,
    StillColorableError,
    ZeroNormError,
)
from .report import Report
from .sieves import (
    Classification,
    CoarseGraining,
    Mode,
    Partition,
    Sieve,
    admissible_partitions,
    all_partitions,
    bell_number,
    coarsenings_of,
    compose,
    covering_pairs,
    lattice_dot,
    up_closure,
)
from .spectral import (
    DEFAULT_TOL,
    QuantumState,
    SpectralOperator,
    Tolerances,
    apply_function,
    cluster_values,
    coarse_grained_projector,
    common_coarsening,
    decompose,
    from_spectral_data,
    is_function_of,
    prob,
    value_fibers,
)
from .valuations import (
    DisjunctionStrength,
    GeneralizedValuation,
    PartialValuation,
    Proposition,
    SieveComparison,
    canonical_graining,
    check_axioms,
    check_disjunction_strength,
    check_functional_rule,
    check_naturality,
    compare_direct_vs_induced,
    extract_partial,
)
from .contexts import (
    BooleanContext,
    SubalgebraPoset,
    SubalgebraSieve,
    canonical_coarsening,
    check_coarsening_axioms,
    check_local_valuation,
    check_restriction_compatibility,
    context_from_vectors,
    true_w,
    valuation_sieve,
)
from .categories import (
    CoarseGrainingLattice,
    FunctionalRelation,
    SectionAssignment,
    TwoValuedHom,
    check_indicator_naturality,
    detect_relations,
    restrict_hom,
    search_global_section,
    spectral_algebra,
)
from .ks_search import (
    ContextFamily,
    DualSectionWitness,
    context_operator,
    minimal_uncolorable_subfamily,
    search_dual_section,
    section_to_partial_valuation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
