"""Contextual truth values for finite quantum systems.

Propositions "observable in subset" are assigned sieves: up-closed sets
of spectrum partitions forming a Heyting algebra per observable.  The
package builds these truth values from states, density matrices,
thresholds or pointwise valuations, verifies the axioms they satisfy,
mirrors the construction on Boolean subalgebra posets, and demonstrates
by exhaustive search that suitable finite context families admit no
global 0/1 valuation.

Importing the package loads no submodule: each public name below is
imported from its home module on first access (PEP 562), so the sieve
algebra alone runs without numpy.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BaseMismatchError", "DegenerateClusteringError", "InconsistentAssignmentsError",
        "InputError", "NotHermitianError", "NotSubalgebraError", "SieveLogicError",
        "StillColorableError", "ZeroNormError",
    ),
    "report": ("Report",),
    "sieves": (
        "Classification", "CoarseGraining", "Mode", "Partition", "Sieve",
        "admissible_partitions", "all_partitions", "bell_number", "coarsenings_of",
        "compose", "covering_pairs", "lattice_dot", "up_closure",
    ),
    "spectral": (
        "DEFAULT_TOL", "QuantumState", "SpectralOperator", "Tolerances", "apply_function",
        "cluster_values", "coarse_grained_projector", "common_coarsening", "decompose",
        "from_spectral_data", "is_function_of", "prob", "value_fibers",
    ),
    "valuations": (
        "DisjunctionStrength", "GeneralizedValuation", "PartialValuation", "Proposition",
        "SieveComparison", "canonical_graining", "check_axioms", "check_disjunction_strength",
        "check_functional_rule", "check_naturality", "compare_direct_vs_induced",
        "extract_partial",
    ),
    "contexts": (
        "BooleanContext", "SubalgebraPoset", "SubalgebraSieve", "canonical_coarsening",
        "check_coarsening_axioms", "check_local_valuation", "check_restriction_compatibility",
        "context_from_vectors", "true_w", "valuation_sieve",
    ),
    "categories": (
        "CoarseGrainingLattice", "FunctionalRelation", "SectionAssignment", "TwoValuedHom",
        "check_indicator_naturality", "detect_relations", "restrict_hom",
        "search_global_section",
    ),
    "ks_search": (
        "ContextFamily", "DualSectionWitness", "context_operator",
        "minimal_uncolorable_subfamily", "search_dual_section", "section_to_partial_valuation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
