"""Spans around the package's layer entry points, for the traced run.

The benchmark changes no package code.  Instead, during the traced
phase it replaces the entry points listed in SPANS with wrappers that
record a span per call, then restores the originals.  A function is
replaced under every name it is bound to in the package's modules, so
calls between modules go through the wrapper too.  Spans nest on one
stack: a span's self time is its duration minus the time its child
spans cover, and a layer's self time is the sum over its spans.  Time
spent in helpers that are not listed (numpy, the Report record, small
private functions) counts toward the span that called them.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module, class or None, attribute, span name).  Hot helpers whose cost
# stays inside their own layer (cached partition tables, fingerprints)
# are left out so the wrappers do not dominate what they measure.
SPANS = [
    ("sieves", "Sieve", "__init__", "sieve_init"),
    ("sieves", "Sieve", "pullback", "pullback"),
    ("sieves", "Sieve", "meet", "heyting"),
    ("sieves", "Sieve", "join", "heyting"),
    ("sieves", "Sieve", "implies", "heyting"),
    ("sieves", "Sieve", "neg", "heyting"),
    ("sieves", "Sieve", "leq", "heyting"),
    ("sieves", "Sieve", "classify", "classify"),
    ("sieves", "Sieve", "__eq__", "sieve_eq"),
    ("sieves", "Partition", "of", "partition_of"),
    ("sieves", "Partition", "coarsens", "partition_ops"),
    ("sieves", "Partition", "merge_blocks", "partition_ops"),
    ("sieves", "Partition", "block_of", "partition_ops"),
    ("sieves", "CoarseGraining", "__init__", "coarse_graining"),
    ("sieves", "CoarseGraining", "image_indices", "coarse_graining"),
    ("sieves", None, "up_closure", "up_closure"),
    ("sieves", None, "lattice_dot", "lattice_dot"),
    ("spectral", None, "decompose", "decompose"),
    ("spectral", None, "apply_function", "apply_function"),
    ("spectral", None, "is_function_of", "is_function_of"),
    ("spectral", None, "prob", "prob"),
    ("spectral", None, "from_spectral_data", "from_spectral_data"),
    ("spectral", None, "value_fibers", "value_fibers"),
    ("spectral", None, "as_matrix", "matrix_helpers"),
    ("spectral", None, "is_hermitian", "matrix_helpers"),
    ("spectral", None, "max_abs", "matrix_helpers"),
    ("spectral", "SpectralOperator", "__init__", "operator_init"),
    ("spectral", "SpectralOperator", "projector", "operator_projector"),
    ("spectral", "SpectralOperator", "eigenvalue_index", "operator_projector"),
    ("spectral", "QuantumState", "vector", "state_init"),
    ("spectral", "QuantumState", "density", "state_init"),
    ("spectral", "QuantumState", "projector", "state_init"),
    ("spectral", "QuantumState", "density_matrix", "density_matrix"),
    ("valuations", "GeneralizedValuation", "evaluate", "evaluate"),
    ("valuations", "GeneralizedValuation", "from_state", "valuation_init"),
    ("valuations", "GeneralizedValuation", "threshold", "valuation_init"),
    ("valuations", "GeneralizedValuation", "from_partial", "valuation_init"),
    ("valuations", "PartialValuation", "maximal", "partial_init"),
    ("valuations", "PartialValuation", "explicit", "partial_init"),
    ("valuations", "PartialValuation", "locate", "partial_locate"),
    ("valuations", "Proposition", "__init__", "proposition"),
    ("valuations", None, "check_axioms", "check_axioms"),
    ("valuations", None, "check_naturality", "check_naturality"),
    ("valuations", None, "check_disjunction_strength", "check_disjunction"),
    ("valuations", None, "check_functional_rule", "check_functional_rule"),
    ("contexts", "BooleanContext", "__init__", "boolean_context"),
    ("contexts", "BooleanContext", "elements", "boolean_context"),
    ("contexts", None, "context_from_vectors", "context_from_vectors"),
    ("contexts", "SubalgebraPoset", "__init__", "poset"),
    ("contexts", "SubalgebraPoset", "down_set", "poset"),
    ("contexts", "SubalgebraPoset", "elements", "poset"),
    ("contexts", "SubalgebraPoset", "is_element", "poset"),
    ("contexts", "SubalgebraSieve", "__init__", "subalgebra_sieve"),
    ("contexts", "SubalgebraSieve", "restrict", "subalgebra_sieve"),
    ("contexts", None, "canonical_coarsening", "canonical_coarsening"),
    ("contexts", None, "check_coarsening_axioms", "check_coarsening_axioms"),
    ("contexts", None, "check_restriction_compatibility", "check_restriction_compatibility"),
    ("contexts", None, "valuation_sieve", "valuation_sieve"),
    ("contexts", None, "check_local_valuation", "check_local_valuation"),
    ("ks_search", "ContextFamily", "__init__", "context_family"),
    ("ks_search", "DualSectionWitness", "verify", "witness_verify"),
    ("ks_search", None, "search_dual_section", "search_dual_section"),
    ("ks_search", None, "minimal_uncolorable_subfamily", "minimal_uncolorable_subfamily"),
    ("cli", None, "load_system", "load_system"),
    ("cli", None, "load_context_family", "load_context_family"),
    ("cli", None, "build_valuation", "parse_args"),
    ("cli", None, "parse_proposition", "parse_args"),
    ("cli", None, "parse_sieve_text", "parse_args"),
]


class Tracer:
    """Span statistics keyed by "layer.span": [calls, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.totals: dict[str, float] = {}
        self.active = False
        self._stack: list[list[float]] = []
        self._restore: list = []
        self._seen_keys: set = set()

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0])

    def _wrap(self, fn, name, after=None):
        stat = self._stat(name)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one in-process
        CLI command; its whole duration is also kept in `totals`."""
        if not self.active:
            yield
            return
        stat = self._stat(name)
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            stat[0] += 1
            stat[1] += dur - frame[0]
            self.totals[name] = self.totals.get(name, 0.0) + dur
            if self._stack:
                self._stack[-1][0] += dur

    def begin_job(self):
        self._seen_keys.clear()

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_evaluate(self, args, result):
        nu, prop = args[0], args[1]
        key = (id(nu), id(prop.operator), prop.indices)
        if key in self._seen_keys:
            self._count("valuations.evaluate.hits")
        else:
            self._seen_keys.add(key)

    def _checks_of(self, layer):
        def after(args, report):
            self._count(f"{layer}.checks", report.checks)
        return after

    def install(self, package_name="sievelogic"):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package_name or n.startswith(package_name + "."))
        ]
        for layer, owner, attr, span in SPANS:
            module = sys.modules.get(f"{package_name}.{layer}")
            if module is None:
                continue
            name = f"{layer}.{span}"
            after = None
            if attr == "evaluate":
                after = self._after_evaluate
            elif attr.startswith("check_") and attr != "check_disjunction_strength":
                after = self._checks_of(layer)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(original, name, after)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._restore.append((m, key, original))
            else:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name, after))
                else:
                    new = self._wrap(raw, name, after)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def layer_self_s(self, layer) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.split(".", 1)[0] == layer)
