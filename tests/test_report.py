"""Violation texts of the exhaustive checks, pinned in full.

Messages are formatted only when a check fails; these tests fix the
exact text each audit reports for one deliberately broken input.
"""
import numpy as np

from sievelogic import (
    BooleanContext,
    GeneralizedValuation,
    Mode,
    Partition,
    QuantumState,
    Report,
    Sieve,
    SubalgebraPoset,
    SubalgebraSieve,
    check_axioms,
    check_coarsening_axioms,
    check_local_valuation,
    check_naturality,
    decompose,
    true_w,
)
from helpers import bit_rows

FINEST2 = Partition.discrete(2)


def poset2():
    return SubalgebraPoset(BooleanContext([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))


class TestRecord:
    def test_plain_string(self):
        report = Report("r")
        report.record(True, "unused")
        report.record(False, "second")
        report.record(False, "first")
        assert report.finish().violations == ["first", "second"]
        assert report.checks == 3

    def test_callable_formatted_only_on_failure(self):
        calls = []

        def message():
            calls.append(1)
            return "failed"

        report = Report("r")
        report.record(True, message)
        assert calls == [] and report.ok
        report.record(False, message)
        assert calls == [1] and report.violations == ["failed"]


def test_coarsening_axioms_text():
    discrete = Partition.discrete(2)

    def theta(w1, w2, alpha):
        # canonical, except that the discrete node maps {0} to zero and
        # the unit to {0} within itself
        if w1 == w2 == discrete and alpha:
            return {frozenset([0]): frozenset(), frozenset([0, 1]): frozenset([0])}.get(alpha, alpha)
        return frozenset(i for b in w2.blocks if alpha & set(b) for i in b)

    report = check_coarsening_axioms(poset2(), theta)
    assert str(report) == "\n".join([
        "coarse-graining axioms: 43 checks, 7 violation(s)",
        "  violation: composition fails on [0, 1] along 0|1 -> 0|1 -> 0|1",
        "  violation: composition fails on [0] along 0|1 -> 0|1 -> 0,1",
        "  violation: domination fails: theta([0, 1]) from 0|1 to 0|1 loses atoms",
        "  violation: domination fails: theta([0]) from 0|1 to 0|1 loses atoms",
        "  violation: monotonicity fails for [1] within [0, 1] from 0|1 to 0|1",
        "  violation: retraction fails on [0, 1] from 0|1 to 0|1",
        "  violation: retraction fails on [0] from 0|1 to 0|1",
    ])


def test_local_valuation_text():
    poset = poset2()
    full = true_w(poset, FINEST2)
    empty = SubalgebraSieve(poset, FINEST2, [])
    phi = {alpha: full if len(alpha) == 1 else empty for alpha in poset.elements(FINEST2)}
    phi[frozenset()] = full
    report = check_local_valuation(poset, FINEST2, phi)
    assert str(report) == "\n".join([
        "local valuation: 14 checks, 10 violation(s)",
        "  violation: exclusivity fails for disjoint [0] / [1]",
        "  violation: exclusivity fails for disjoint [0] / []",
        "  violation: exclusivity fails for disjoint [1] / [0]",
        "  violation: exclusivity fails for disjoint [1] / []",
        "  violation: exclusivity fails for disjoint [] / [0]",
        "  violation: exclusivity fails for disjoint [] / [1]",
        "  violation: monotonicity fails for [0] within [0, 1]",
        "  violation: monotonicity fails for [1] within [0, 1]",
        "  violation: monotonicity fails for [] within [0, 1]",
        "  violation: null condition: zero element not false",
        "  note: unit condition: violated",
    ])


class _Singletons(GeneralizedValuation):
    """Broken on purpose: exactly the one-element subsets are true."""

    def _matrix(self, a, cg=None):
        k = a.k if cg is None else cg.codomain_size
        full = Sieve.totally_true(k, self.mode).mask
        return bit_rows(k, self.mode, [full if bin(s).count("1") == 1 else 0 for s in range(1 << k)])


class _OnlyOn(GeneralizedValuation):
    """Broken on purpose: nonempty subsets are true for one operator only."""

    def __init__(self, op, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.op = op

    def _matrix(self, a, cg=None):
        k = a.k if cg is None else cg.codomain_size
        full = Sieve.totally_true(k, self.mode).mask
        return bit_rows(k, self.mode, [full if cg is None and a is self.op and s else 0 for s in range(1 << k)])


def test_axioms_text():
    a = decompose(np.diag([0.0, 1.0]))
    nu = _Singletons("state", Mode.WITH_CONSTANTS, state=QuantumState.vector([1.0, 0.0]))
    assert str(check_axioms(nu, a)) == "\n".join([
        "valuation axioms: 15 checks, 5 violation(s)",
        "  violation: exclusivity fails for disjoint [0] / [1]",
        "  violation: exclusivity fails for disjoint [1] / [0]",
        "  violation: monotonicity fails for [0] within [0, 1]",
        "  violation: monotonicity fails for [1] within [0, 1]",
        "  violation: unit condition: full spectrum not totally true",
    ])


def test_naturality_text():
    a = decompose(np.diag([0.0, 1.0, 2.0]))
    nu = _OnlyOn(a, "state", Mode.WITH_CONSTANTS, state=QuantumState.vector([1.0, 0.0, 0.0]))
    assert str(check_naturality(nu, a, lambda x: x * x - 2 * x)) == "\n".join([
        "naturality: 11 checks, 10 violation(s)",
        "  violation: pointwise square fails on eigenvalue index 0 for map (0.0, -1.0)",
        "  violation: pointwise square fails on eigenvalue index 1 for map (0.0, -1.0)",
        "  violation: pointwise square fails on eigenvalue index 2 for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [0, 1, 2] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [0, 1] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [0, 2] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [0] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [1, 2] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [1] for map (0.0, -1.0)",
        "  violation: proposition square fails on subset [2] for map (0.0, -1.0)",
    ])
