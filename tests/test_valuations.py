import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itertools

from sievelogic import (
    DEFAULT_TOL,
    BaseMismatchError,
    BooleanContext,
    Classification,
    DisjunctionStrength,
    GeneralizedValuation,
    InconsistentAssignmentsError,
    InputError,
    Mode,
    Partition,
    PartialValuation,
    Proposition,
    QuantumState,
    Sieve,
    SubalgebraPoset,
    Tolerances,
    admissible_partitions,
    all_partitions,
    apply_function,
    canonical_graining,
    check_axioms,
    check_disjunction_strength,
    check_functional_rule,
    check_naturality,
    compare_direct_vs_induced,
    decompose,
    extract_partial,
    from_spectral_data,
    is_function_of,
    prob,
    report,
    sieves,
    spectral,
    valuation_sieve,
    valuations,
)
from sievelogic.spectral import value_fibers
from helpers import (
    bit_rows,
    brute_axiom_report,
    brute_consistent,
    brute_induced_sieve,
    brute_mass_sieve,
    brute_naturality_failures,
    brute_partial_blocks,
    brute_partial_sieve,
    brute_up_set,
    rand_density_state,
    rand_operator,
    rand_related_operator,
    rand_unitary,
    rand_value_map,
    rand_vector_state,
    reconstructed_function_of,
)


def sieve_of(nu, op, indices):
    return nu.evaluate(Proposition(op, frozenset(indices)))


class TestProposition:
    def test_index_validation(self, spin1_sx):
        with pytest.raises(InputError):
            Proposition(spin1_sx, frozenset([3]))
        with pytest.raises(InputError):
            Proposition(spin1_sx, frozenset([-1]))

    @pytest.mark.parametrize("index", [1.7, 0.0, "1", None, True])
    def test_non_integral_index_rejected(self, spin1_sx, index):
        with pytest.raises(InputError, match="is not an integer"):
            Proposition(spin1_sx, frozenset([index]))

    @pytest.mark.parametrize("index", [-1, 3, 10**12, 10**20])
    def test_index_outside_spectrum_rejected(self, spin1_sx, index):
        with pytest.raises(InputError, match=r"^eigenvalue index outside 0\.\.2$"):
            Proposition(spin1_sx, frozenset([index]))

    def test_integer_like_indices(self, spin1_sx):
        p = Proposition(spin1_sx, [np.int64(2), 0, 2, np.uint8(1)])
        assert p.indices == frozenset([0, 1, 2]) and p.bits == 0b111
        assert all(type(i) is int for i in p.indices)
        assert Proposition(spin1_sx, (i for i in [1])).indices == frozenset([1])

    def test_by_values(self, spin1_sx):
        p = Proposition.by_values(spin1_sx, [1.0, -1.0])
        assert p.indices == frozenset([0, 2])
        assert p.values == pytest.approx((-1.0, 1.0))
        with pytest.raises(InputError):
            Proposition.by_values(spin1_sx, [0.5])

    def test_canonical_graining(self, spin1_sx):
        cg = canonical_graining(spin1_sx, Partition.of([(0, 2), (1,)]))
        assert cg.partition.blocks == ((0, 2), (1,))
        assert cg.base is spin1_sx

    def test_canonical_graining_checks_base_size(self, spin1_sx):
        with pytest.raises(BaseMismatchError, match="partition of 5 indices for an operator with 3 eigenvalues"):
            canonical_graining(spin1_sx, Partition.discrete(5))


class TestPartialValuation:
    def test_maximal_members(self, spin1_sx):
        v = PartialValuation.maximal(spin1_sx, 2)
        assert v.kind == "maximal"
        assert len(v.members) == 1

    def test_locate_descends_to_functions(self, spin1_sx, spin1_sx2):
        v = PartialValuation.maximal(spin1_sx, 2)
        # anchor itself
        assert v.locate(spin1_sx) == pytest.approx(1.0)
        # h(anchor) gets h(value)
        assert v.locate(spin1_sx2) == pytest.approx(1.0)
        cube = apply_function(spin1_sx, lambda x: x**3)
        assert v.locate(cube) == pytest.approx(1.0)

    def test_locate_misses_unrelated(self, spin1_sx, spin1_sz):
        v = PartialValuation.maximal(spin1_sx, 2)
        assert v.locate(spin1_sz) is None

    def test_single_indices_checked_like_index_sets(self, spin1_sx):
        # one eigenvalue index goes through the same check as a set of them
        for bad, text in ((1.5, "index 1.5 is not an integer"), (3, r"outside 0\.\.2"), (10**12, r"outside 0\.\.2"),
                          (True, "index True is not an integer")):
            with pytest.raises(InputError, match=text):
                PartialValuation.maximal(spin1_sx, bad)
            with pytest.raises(InputError, match=text):
                PartialValuation.explicit([(spin1_sx, bad)])
        for v in (PartialValuation.maximal(spin1_sx, np.int64(2)), PartialValuation.explicit([(spin1_sx, np.int64(2))])):
            assert v.members == [(spin1_sx, 2)] and type(v.members[0][1]) is int

    def test_explicit_consistent(self, spin1_sz):
        sz2 = apply_function(spin1_sz, lambda x: x * x)
        v = PartialValuation.explicit([(spin1_sz, 0), (sz2, 1)])
        assert v.locate(spin1_sz) == pytest.approx(spin1_sz.eigenvalues[0])

    def test_explicit_direct_conflict(self, spin1_sz):
        sz2 = apply_function(spin1_sz, lambda x: x * x)
        # Sz at index 0 squares to the nonzero fiber, not to 0
        with pytest.raises(InconsistentAssignmentsError):
            PartialValuation.explicit([(spin1_sz, 0), (sz2, 0)])

    def test_explicit_common_coarsening_conflict(self):
        # no direct functional relation either way, but the two operators
        # share a common coarse-graining that separates the assignments
        a1 = decompose(np.diag([0.0, 0.0, 1.0, 2.0]))
        a2 = decompose(np.diag([3.0, 4.0, 5.0, 5.0]))
        PartialValuation.explicit([(a1, 0), (a2, 0)])
        with pytest.raises(InconsistentAssignmentsError):
            PartialValuation.explicit([(a1, 0), (a2, 2)])

    def test_explicit_duplicate_operator_conflict(self, spin1_sx):
        with pytest.raises(InconsistentAssignmentsError):
            PartialValuation.explicit([(spin1_sx, 0), (spin1_sx, 2)])


class TestStateValuation:
    def test_spin1_intermediate(self, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        s = sieve_of(nu, spin1_sx, [2])
        assert set(s.partitions) == {
            Partition.of([(0, 1, 2)]),
            Partition.of([(0, 2), (1,)]),
        }
        assert s.classify() is Classification.INTERMEDIATE

    def test_spin1_union_totally_true(self, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        s = sieve_of(nu, spin1_sx, [0, 2])
        assert s.classify() is Classification.TOTALLY_TRUE

    def test_eigenstate_totally_true(self, spin1_sx):
        plus = QuantumState.vector([0.5, np.sqrt(0.5), 0.5])
        nu = GeneralizedValuation.from_state(plus, Mode.WITH_CONSTANTS)
        assert sieve_of(nu, spin1_sx, [2]).classify() is Classification.TOTALLY_TRUE

    def test_spin_half_minimally_true(self, spinh_sz, spinh_psi):
        # psi = (1, 1) is a superposition of both z eigenstates
        nu_o = GeneralizedValuation.from_state(spinh_psi, Mode.WITH_CONSTANTS)
        s = sieve_of(nu_o, spinh_sz, [1])
        # only the one-block partition admits the proposition
        assert s.partitions == frozenset([Partition.of([(0, 1)])])
        assert s.classify() is Classification.MINIMALLY_TRUE

    def test_spin_half_without_constants_empty(self, spinh_sz, spinh_psi):
        nu = GeneralizedValuation.from_state(spinh_psi, Mode.WITHOUT_CONSTANTS)
        s = sieve_of(nu, spinh_sz, [1])
        assert s.partitions == frozenset()
        assert s.classify() is Classification.TOTALLY_FALSE

    def test_density_agrees_with_vector(self, spin1_sx, spin1_psi):
        rho = QuantumState.density(spin1_psi.density_matrix())
        nu_v = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        nu_d = GeneralizedValuation.from_state(rho, Mode.WITH_CONSTANTS)
        for n in range(4):
            for combo in [frozenset([0]), frozenset([1]), frozenset([0, 2]), frozenset()]:
                assert sieve_of(nu_v, spin1_sx, combo) == sieve_of(nu_d, spin1_sx, combo)

    def test_negation_empty_for_nonempty_subset(self, spin1_sx, spin1_psi):
        # with constants allowed, every nonempty subset holds at the
        # one-block stage, so nothing can imply the empty sieve
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        for idx in ([0], [1], [2], [0, 1], [0, 2], [0, 1, 2]):
            assert nu.evaluate(Proposition(spin1_sx, frozenset(idx))).neg().partitions == frozenset()

    def test_caching_computes_each_mask_once(self, spin1_sx, spin1_psi, monkeypatch):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        p = Proposition(spin1_sx, frozenset([2]))
        first = nu.evaluate(p)
        calls = []
        monkeypatch.setattr(valuations, "mass_rows", lambda *args: calls.append(args))
        assert nu.evaluate(p) == first
        assert nu.evaluate(Proposition(spin1_sx, frozenset([2]))).mask == first.mask
        assert calls == []

    @pytest.mark.parametrize("s", [-1, 8, 2.0, "1", None, True])
    def test_sieve_mask_rejects_bad_subset(self, spin1_sx, spin1_psi, s):
        # a sieve mask is read through a Proposition, which refuses an
        # index outside 0..2 (-1 must not read the row's last entry) or
        # one that is not an int
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError, match=r"^eigenvalue index "):
            nu.evaluate(Proposition(spin1_sx, frozenset([s])))
        assert nu.evaluate(Proposition(spin1_sx, frozenset(range(3)))).mask == Sieve.totally_true(3, Mode.WITH_CONSTANTS).mask
        assert nu.evaluate(Proposition(spin1_sx, frozenset())).mask == 0

    def test_coarse_rows_not_kept(self):
        # every naturality square builds f(a)'s matrix from a's kept data
        # and keeps nothing of it; only a's entry is kept
        rng = np.random.default_rng(81)
        a = rand_operator(rng, 6, 5)
        for nu in (
            GeneralizedValuation.from_state(rand_vector_state(rng, 6), Mode.WITH_CONSTANTS),
            GeneralizedValuation.from_partial(PartialValuation.maximal(a, 2), Mode.WITH_CONSTANTS),
        ):
            for _ in range(2):
                for p in all_partitions(5):
                    check_naturality(nu, a, [float(p.block_of(i)) for i in range(5)])
            assert len(nu._rows) == 1


class TestPartialFamilyValuation:
    def test_anchor_totally_true(self, spin1_sx):
        v = PartialValuation.maximal(spin1_sx, 2)
        nu = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
        assert sieve_of(nu, spin1_sx, [2]).classify() is Classification.TOTALLY_TRUE

    def test_unit_only_one_block(self, spin1_sz, spin1_sx):
        # domain anchored at Sz never contains a partition of Sx's
        # spectrum other than the trivial one
        v = PartialValuation.maximal(spin1_sz, 1)
        nu = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
        s = sieve_of(nu, spin1_sx, [0, 1, 2])
        assert s.partitions == frozenset([Partition.of([(0, 1, 2)])])
        report = check_axioms(nu, spin1_sx)
        assert report.ok
        assert any("violated (legal" in n for n in report.notes)

    def test_unit_violation_fails_state_kind(self, spin1_sx):
        # a state family must satisfy the unit axiom, so the same sieve
        # shape flagged above is a real failure here; verify the clause
        # is active by checking a passing case reports no unit note
        plus = QuantumState.vector([0.5, np.sqrt(0.5), 0.5])
        nu = GeneralizedValuation.from_state(plus, Mode.WITH_CONSTANTS)
        report = check_axioms(nu, spin1_sx)
        assert report.ok
        assert not any("unit" in n for n in report.notes)

    def test_no_strong_conjunction(self, spin1_sx):
        # both singleton sieves contain the one-block partition, so their
        # meet is nonempty even though the subsets are disjoint
        v = PartialValuation.maximal(spin1_sx, 2)
        nu = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
        met = sieve_of(nu, spin1_sx, [2]).meet(sieve_of(nu, spin1_sx, [0]))
        empty = sieve_of(nu, spin1_sx, [])
        assert empty.partitions == frozenset()
        assert met.partitions != frozenset()

    def test_functional_numerics_sum_product(self):
        # an assignment on commuting diagonal observables respects sums
        # and products of the observables themselves
        a1 = decompose(np.diag([0.0, 1.0, 2.0]))
        a2 = decompose(np.diag([5.0, 3.0, 4.0]))
        v = PartialValuation.explicit([(a1, 1), (a2, 0)])
        total = decompose(a1.matrix + a2.matrix)
        product = decompose(a1.matrix @ a2.matrix)
        assert v.locate(total) == pytest.approx(v.locate(a1) + v.locate(a2))
        assert v.locate(product) == pytest.approx(v.locate(a1) * v.locate(a2))


def _near_e0(tol=DEFAULT_TOL):
    """An operator on C^3 whose eigenprojector Q_0 = |v><v| is off by
    about 1e-7 (max-abs) from E_00, the first eigenprojector of diag(0, 1, 2)."""
    v = np.array([1.0, 1e-7, 0.0]) / np.sqrt(1.0 + 1e-14)
    q0 = np.outer(v, v)
    return from_spectral_data((0.0, 1.0), (q0, np.eye(3) - q0), tol)


class TestTolerances:
    """Domains and consistency of partial valuations are decided by
    tau_proj, so an overridden Tolerances moves them."""

    def test_partial_domain_reads_tau_proj(self):
        a = decompose(np.diag([0.0, 1.0, 2.0]))
        separated = Partition.of([(0,), (1, 2)])
        prop = Proposition(a, frozenset([0]))
        strict = GeneralizedValuation.from_partial(PartialValuation.maximal(_near_e0(), 0), Mode.WITH_CONSTANTS)
        assert separated not in strict.evaluate(prop)
        loose_tol = Tolerances(tau_proj=1e-6)
        loose = GeneralizedValuation.from_partial(
            PartialValuation.maximal(_near_e0(loose_tol), 0, loose_tol), Mode.WITH_CONSTANTS, loose_tol
        )
        assert separated in loose.evaluate(prop)

    def test_consistency_reads_tau_proj(self):
        # a at index 1 and the anchor at index 0 (the eigenspace near
        # E_00) conflict once the two projectors are identified; a looser
        # tau_proj can only refine the common coarsening, so it is the
        # loose side that finds the conflict
        a = decompose(np.diag([0.0, 1.0, 2.0]))
        PartialValuation.explicit([(a, 1), (_near_e0(), 0)])
        loose_tol = Tolerances(tau_proj=1e-6)
        with pytest.raises(InconsistentAssignmentsError):
            PartialValuation.explicit([(a, 1), (_near_e0(loose_tol), 0)], loose_tol)


class TestNearPsdState:
    """A density matrix may have eigenvalues down to -tau_psd; its
    negative weights must not break the up-closure of its sieves."""

    RHO = np.diag([1 - 0.9e-9, -0.5e-9, 1.4e-9])

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    def test_evaluate_and_valuation_sieve(self, mode):
        rho = QuantumState.density(self.RHO)
        a = decompose(np.diag([0.0, 1.0, 2.0]))
        sieve = GeneralizedValuation.from_state(rho, mode).evaluate(Proposition(a, {0}))
        assert Partition.discrete(3) in sieve
        assert len(sieve) == len(Sieve.totally_true(3, mode))
        poset = SubalgebraPoset(BooleanContext(a.projectors), mode)
        truth = valuation_sieve(rho, poset, Partition.discrete(3), frozenset({0}))
        assert truth.is_true


class TestThresholdValuation:
    def test_r_validation(self, spin1_psi):
        rho = QuantumState.density(np.eye(3) / 3)
        with pytest.raises(InputError):
            GeneralizedValuation.threshold(rho, 0.0, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError):
            GeneralizedValuation.threshold(rho, 1.5, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError):
            GeneralizedValuation.threshold(spin1_psi, 0.5, Mode.WITH_CONSTANTS)

    # the rule of `Tolerances`: a real number, not a bool
    @pytest.mark.parametrize("r", [True, "0.5", None, float("nan")])
    def test_r_not_a_real_refused(self, r):
        rho = QuantumState.density(np.eye(3) / 3)
        with pytest.raises(InputError, match="threshold"):
            GeneralizedValuation.threshold(rho, r, Mode.WITH_CONSTANTS)

    def test_r_numpy_real_accepted(self):
        rho = QuantumState.density(np.eye(3) / 3)
        assert GeneralizedValuation.threshold(rho, np.float64(0.5), Mode.WITH_CONSTANTS).r == 0.5

    def test_r_one_equals_state_valuation(self, spin1_sx, spin1_psi):
        rho = QuantumState.density(spin1_psi.density_matrix())
        nu1 = GeneralizedValuation.threshold(rho, 1.0, Mode.WITH_CONSTANTS)
        nu2 = GeneralizedValuation.from_state(rho, Mode.WITH_CONSTANTS)
        for combo in [frozenset(), frozenset([0]), frozenset([2]), frozenset([0, 2])]:
            assert sieve_of(nu1, spin1_sx, combo) == sieve_of(nu2, spin1_sx, combo)

    def test_threshold_monotone_in_r(self, spin1_sx):
        rho = QuantumState.density(np.diag([0.5, 0.3, 0.2]))
        lo = GeneralizedValuation.threshold(rho, 0.4, Mode.WITH_CONSTANTS)
        hi = GeneralizedValuation.threshold(rho, 0.8, Mode.WITH_CONSTANTS)
        for combo in [frozenset([0]), frozenset([1, 2]), frozenset([0, 2])]:
            assert sieve_of(hi, spin1_sx, combo).leq(sieve_of(lo, spin1_sx, combo))

    def test_low_threshold_breaks_exclusivity(self):
        # uniform mixture at r = 0.4 marks two disjoint halves both true
        a = decompose(np.diag([0.5, -0.5]))
        rho = QuantumState.density(np.eye(2) / 2)
        nu = GeneralizedValuation.threshold(rho, 0.4, Mode.WITH_CONSTANTS)
        assert sieve_of(nu, a, [0]).classify() is Classification.TOTALLY_TRUE
        assert sieve_of(nu, a, [1]).classify() is Classification.TOTALLY_TRUE
        report = check_axioms(nu, a)
        assert not report.ok
        assert any("exclusivity" in v for v in report.violations)


class TestAxioms:
    def test_random_state_families_pass(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            for mode in (Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS):
                # one-point spectra have no stage without constants
                k_lo = 1 if mode is Mode.WITH_CONSTANTS else 2
                k = int(rng.integers(k_lo, min(dim, 4) + 1))
                a = rand_operator(rng, dim, k)
                psi = rand_vector_state(rng, dim)
                assert check_axioms(GeneralizedValuation.from_state(psi, mode), a).ok
                rho = rand_density_state(rng, dim)
                assert check_axioms(GeneralizedValuation.from_state(rho, mode), a).ok
                assert check_axioms(GeneralizedValuation.threshold(rho, 0.75, mode), a).ok

    def test_one_point_spectrum_without_constants_breaks_unit(self):
        # there is no admissible stage at all, so nothing can be totally
        # true, and a state family honestly fails the unit clause
        a = decompose(np.eye(2) * 3.0)
        psi = QuantumState.vector([1.0, 0.0])
        report = check_axioms(GeneralizedValuation.from_state(psi, Mode.WITHOUT_CONSTANTS), a)
        assert not report.ok
        assert any("unit" in v for v in report.violations)

    def test_random_partial_families_pass(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(dim, 4) + 1))
            a = rand_operator(rng, dim, k)
            anchor = rand_operator(rng, dim, dim)
            v = PartialValuation.maximal(anchor, int(rng.integers(0, dim)))
            for mode in (Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS):
                assert check_axioms(GeneralizedValuation.from_partial(v, mode), a).ok


class TestDisjunctionStrength:
    def test_state_family_strict(self, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        got = check_disjunction_strength(nu, spin1_sx, [0], [2])
        assert got is DisjunctionStrength.STRICT_INEQUALITY

    def test_partial_family_equality_everywhere(self, spin1_sx):
        v = PartialValuation.maximal(spin1_sx, 2)
        nu = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
        import itertools
        subsets = [frozenset(c) for n in range(4) for c in itertools.combinations(range(3), n)]
        for d1 in subsets:
            for d2 in subsets:
                got = check_disjunction_strength(nu, spin1_sx, d1, d2)
                assert got is DisjunctionStrength.EQUALITY


    def test_non_integral_indices_rejected(self, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError, match="eigenvalue index 0.9 is not an integer"):
            check_disjunction_strength(nu, spin1_sx, [0.9], [1.2])
        with pytest.raises(InputError, match="eigenvalue index 1.2 is not an integer"):
            check_disjunction_strength(nu, spin1_sx, [0], [1.2])
        with pytest.raises(InputError, match="eigenvalue index True is not an integer"):
            check_disjunction_strength(nu, spin1_sx, [True], [False])


class TestFunctionalRule:
    def test_square_map_spin1(self, spin1_sx, spin1_psi, spin1_sx2):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        report = check_functional_rule(nu, spin1_sx, lambda x: x * x, [0, 2])
        assert report.ok
        # and the coarse proposition itself is totally true for psi
        s = sieve_of(nu, spin1_sx2, [1])
        assert s.classify() is Classification.TOTALLY_TRUE

    def test_random_families(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(dim, 4) + 1))
            a = rand_operator(rng, dim, k)
            f = rand_value_map(rng, k)
            delta = [i for i in range(k) if rng.random() < 0.5]
            psi = rand_vector_state(rng, dim)
            for mode in (Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS):
                nu = GeneralizedValuation.from_state(psi, mode)
                assert check_functional_rule(nu, a, f, delta).ok


    def test_non_integral_delta_rejected(self, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError, match="eigenvalue index 0.5 is not an integer"):
            check_functional_rule(nu, spin1_sx, lambda x: x * x, [0.5])
        with pytest.raises(InputError, match="outside 0..2"):
            check_functional_rule(nu, spin1_sx, lambda x: x * x, [3])


class TestExtractPartial:
    def test_spin1_state(self, spin1_sx, spin1_sx2, spin1_sz, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        v = extract_partial(nu, [spin1_sx, spin1_sx2, spin1_sz])
        ops = [op for op, _ in v.members]
        assert all(op is not spin1_sx for op in ops)
        assert v.locate(spin1_sx2) == pytest.approx(1.0)
        assert v.locate(spin1_sz) == pytest.approx(0.0)

    def test_round_trip_shrinks(self, spin1_sx, spin1_sx2, spin1_psi):
        # state -> pointwise assignment -> valuation strictly loses the
        # partitions that certified Sx in {-1, +1}
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        v = extract_partial(nu, [spin1_sx, spin1_sx2])
        nu2 = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
        direct = sieve_of(nu, spin1_sx, [0, 2])
        induced = sieve_of(nu2, spin1_sx, [0, 2])
        assert induced.leq(direct)
        assert induced != direct

    def test_partial_round_trip_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            anchor = rand_operator(rng, dim, dim)
            v = PartialValuation.maximal(anchor, int(rng.integers(0, dim)))
            nu = GeneralizedValuation.from_partial(v, Mode.WITH_CONSTANTS)
            fam = [anchor, apply_function(anchor, lambda x: x * x)]
            v2 = extract_partial(nu, fam)
            for op in fam:
                assert v2.locate(op) == pytest.approx(v.locate(op))


class TestDirectVsInduced:
    def test_singletons_and_eigenstate_agree(self, spin1_sx, spin1_psi):
        for i in range(3):
            cmp = compare_direct_vs_induced(spin1_psi, Proposition(spin1_sx, frozenset([i])), Mode.WITH_CONSTANTS)
            assert cmp.equal
        plus = QuantumState.vector([0.5, np.sqrt(0.5), 0.5])
        cmp = compare_direct_vs_induced(plus, Proposition(spin1_sx, frozenset([0, 2])), Mode.WITH_CONSTANTS)
        assert cmp.equal

    def test_superposition_differs_on_union(self, spin1_sx, spin1_psi):
        cmp = compare_direct_vs_induced(spin1_psi, Proposition(spin1_sx, frozenset([0, 2])), Mode.WITH_CONSTANTS)
        assert not cmp.equal
        assert cmp.induced.leq(cmp.direct)
        # the stage separating the extremes survives the induced variant,
        # finer stages only certify the direct one
        assert Partition.of([(0, 2), (1,)]) in cmp.induced.partitions
        assert Partition.of([(0, 1), (2,)]) in cmp.difference


@st.composite
def induced_cases(draw):
    """An operator with k eigenspaces (dimension k or k+1), a vector or
    density state supported on a random set of them with weight at least
    about 0.04 on each, the eigenspace weights computed from the
    eigenspace bases, and a subset of the spectrum."""
    k = draw(st.integers(1, 5))
    mode = draw(st.sampled_from([Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS]))
    kind = draw(st.sampled_from(["vector", "density"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = frozenset(draw(st.sets(st.integers(0, k - 1))))
    dim = k + int(rng.integers(2))
    q = rand_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=k - 1, replace=False)) if k > 1 else []
    bases = np.split(q, cuts, axis=1)
    op = from_spectral_data(np.arange(k, dtype=float), [b @ b.conj().T for b in bases])
    support = rng.permutation(k)[: int(rng.integers(1, k + 1))]

    def vector():
        v = np.zeros(dim, dtype=complex)
        for i, w in zip(support, rng.uniform(0.2, 1.0, len(support))):
            c = rng.normal(size=bases[i].shape[1]) + 1j * rng.normal(size=bases[i].shape[1])
            v += np.sqrt(w) * (bases[i] @ (c / np.linalg.norm(c)))
        return v / np.linalg.norm(v)

    if kind == "vector":
        v = vector()
        psi = QuantumState.vector(v)
        weights = [float(np.linalg.norm(b.conj().T @ v) ** 2) for b in bases]
    else:
        rho = sum(np.outer(v, v.conj()) for v in (vector(), vector())) / 2.0
        psi = QuantumState.density(rho)
        weights = [float(np.trace(b.conj().T @ rho @ b).real) for b in bases]
    return k, mode, psi, op, weights, delta


class TestInducedSecondRoute:
    @settings(max_examples=200, deadline=None)
    @given(induced_cases())
    def test_induced_matches_single_block_definition(self, case):
        k, mode, psi, op, weights, delta = case
        cmp = compare_direct_vs_induced(psi, Proposition(op, delta), mode)
        expected = brute_induced_sieve(weights, delta, k, mode, 1.0 - DEFAULT_TOL.tau_one)
        assert cmp.induced.partitions == expected


@st.composite
def partial_cases(draw):
    """An operator a with 2-5 eigenvalues, diagonal in a random basis u
    of C^dim (dim 2-6), 1-3 assigned members, each commuting, partly
    commuting or not with a, and a subset of a's spectrum.  The
    assigned indices either follow the shared basis vector u[:, 0]
    (mostly consistent) or are random (often conflicting)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from([Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS]))
    coherent = draw(st.booleans())
    dim = int(rng.integers(2, 7))
    u = rand_unitary(rng, dim)
    a, group = rand_related_operator(rng, u, 5)
    members = []
    for _ in range(int(rng.integers(1, 4))):
        c, _ = rand_related_operator(rng, u, dim, group)
        weights = [abs(np.vdot(u[:, 0], q @ u[:, 0])) for q in c.projectors]
        idx = int(np.argmax(weights)) if coherent else int(rng.integers(c.k))
        members.append((c, idx))
    delta = frozenset(np.flatnonzero(rng.random(a.k) < 0.5).tolist())
    return a, members, mode, delta


class TestPartialSecondRoute:
    """The common-coarsening kernel against the per-partition definition
    (one coarse observable per partition, reconstruction test)."""

    @settings(max_examples=300, deadline=None)
    @given(partial_cases())
    def test_sieve_and_consistency_match_definition(self, case):
        a, members, mode, delta = case
        if len(members) == 1:
            v = PartialValuation.maximal(*members[0])
        elif brute_consistent(members, DEFAULT_TOL):
            v = PartialValuation.explicit(members)
        else:
            with pytest.raises(InconsistentAssignmentsError):
                PartialValuation.explicit(members)
            return
        nu = GeneralizedValuation.from_partial(v, mode)
        got = nu.evaluate(Proposition(a, delta)).partitions
        assert got == brute_partial_sieve(a, members, delta, mode, DEFAULT_TOL)

    @settings(max_examples=200, deadline=None)
    @given(partial_cases())
    def test_is_function_of_matches_reconstruction(self, case):
        a, members, _, _ = case
        c = members[0][0]
        derived = apply_function(c, [float(i % 2) for i in range(c.k)])
        for x, m in [(a, c), (c, a), (derived, c), (c, derived)]:
            got = is_function_of(x, m)
            want = reconstructed_function_of(x, m)
            assert (got is None) == (want is None)
            if got is not None:
                table = [x.eigenvalue_index(got[j], 1e-8) for j in range(m.k)]
                assert table == [x.eigenvalue_index(want[j], 1e-8) for j in range(m.k)]


def _supported_state(rng, a, kind):
    """A vector or density state carried by a random nonempty set of a's
    eigenspaces, so that sieves other than the extremes occur."""
    support = [i for i in range(a.k) if rng.random() < 0.6] or [int(rng.integers(a.k))]

    def vector():
        v = np.zeros(a.dim, dtype=complex)
        for i in support:
            g = a.projectors[i] @ (rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim))
            v += rng.uniform(0.2, 1.0) * g / np.linalg.norm(g)
        return v / np.linalg.norm(v)

    if kind == "vector":
        return QuantumState.vector(vector())
    return QuantumState.density(sum(np.outer(v, v.conj()) for v in (vector(), vector())) / 2.0)


class TestMaskRowSecondRoute:
    """Every entry of a valuation's per-operator row of sieve masks,
    read through `evaluate` on each subset, against the block-mass and
    per-partition definitions."""

    @staticmethod
    def _row(nu, a):
        return [nu.evaluate(Proposition(a, TestMaskRowSecondRoute._subset(s))).partitions for s in range(1 << a.k)]

    @staticmethod
    def _subset(s):
        return frozenset(i for i in range(s.bit_length()) if s >> i & 1)

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("kind", ["vector", "density", "threshold"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_state_rows(self, k, kind, mode):
        rng = np.random.default_rng([k, len(kind), mode is Mode.WITH_CONSTANTS])
        for _ in range(3):
            a = rand_operator(rng, k + int(rng.integers(0, 3)), k)
            state = _supported_state(rng, a, kind)
            if kind == "threshold":
                r = float(rng.uniform(0.05, 1.0))
                nu = GeneralizedValuation.threshold(state, r, mode)
            else:
                r = 1.0
                nu = GeneralizedValuation.from_state(state, mode)
            weights = [prob(state, p) for p in a.projectors]
            cutoff = r - DEFAULT_TOL.tau_one
            want = [brute_mass_sieve(k, mode, weights, self._subset(s), cutoff) for s in range(1 << k)]
            assert self._row(nu, a) == want

    @settings(max_examples=40, deadline=None)
    @given(partial_cases())
    def test_partial_rows(self, case):
        a, members, mode, _ = case
        if len(members) == 1:
            v = PartialValuation.maximal(*members[0])
        elif brute_consistent(members, DEFAULT_TOL):
            v = PartialValuation.explicit(members)
        else:
            return
        nu = GeneralizedValuation.from_partial(v, mode)
        blocks = brute_partial_blocks(a, members, mode, DEFAULT_TOL)
        want = [
            frozenset(q for q, block in blocks.items() if self._subset(s) & block) for s in range(1 << a.k)
        ]
        assert self._row(nu, a) == want


class _MaskTable(GeneralizedValuation):
    """Broken on purpose: the sieve mask of subset s is table(s), for any
    operator."""

    def __init__(self, table, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.table = table

    def _matrix(self, a, cg=None):
        k = a.k if cg is None else cg.codomain_size
        return bit_rows(k, self.mode, [self.table(a, s) for s in range(1 << k)])


class TestAxiomReportSecondRoute:
    """`check_axioms` reports, byte for byte, against the report rebuilt
    from the axioms' definitions on frozensets."""

    @staticmethod
    def _valuations(rng, a, mode):
        k = a.k
        width = len(admissible_partitions(k, mode))
        full = (1 << width) - 1
        masks = [int.from_bytes(rng.bytes(width // 8 + 1), "little") & full for _ in range(1 << k)]  # uniform, past 64 bits too
        yield GeneralizedValuation.from_state(_supported_state(rng, a, "vector"), mode)
        yield GeneralizedValuation.from_state(_supported_state(rng, a, "density"), mode)
        yield GeneralizedValuation.threshold(_supported_state(rng, a, "density"), float(rng.uniform(0.05, 1.0)), mode)
        yield GeneralizedValuation.from_partial(PartialValuation.maximal(a, int(rng.integers(k))), mode)
        coarse = apply_function(a, rand_value_map(rng, k))
        yield GeneralizedValuation.from_partial(PartialValuation.maximal(coarse, int(rng.integers(coarse.k))), mode)
        state = QuantumState.vector(np.eye(a.dim)[0])
        for table in (
            lambda b, s: full if bin(s).count("1") == 1 else 0,  # exactly the singletons true
            lambda b, s: full,  # everything true, the empty subset too
            lambda b, s: masks[s],  # arbitrary masks
        ):
            yield _MaskTable(table, "state", mode, state=state)
            yield _MaskTable(table, "partial", mode, partial=PartialValuation.maximal(a, 0))

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_reports_match_definition(self, k, mode):
        rng = np.random.default_rng([k, mode is Mode.WITH_CONSTANTS, 61])
        subsets = [frozenset(c) for n in range(k + 1) for c in itertools.combinations(range(k), n)]
        whole = admissible_partitions(k, mode)
        failed = set()
        for _ in range(2):
            a = rand_operator(rng, k + int(rng.integers(0, 2)), k)
            for nu in self._valuations(rng, a, mode):
                values = {d: nu.evaluate(Proposition(a, d)).partitions for d in subsets}
                want = brute_axiom_report("spectrum", values, whole, partial=nu.kind == "partial")
                got = check_axioms(nu, a)
                assert str(got) == want
                failed.update(v.split()[0] for v in got.violations)
        if k > 1:  # a one-point spectrum has no two nonempty disjoint subsets
            assert {"monotonicity", "exclusivity"} <= failed


class TestNaturality:
    def test_all_kinds_spin1(self, spin1_sx, spin1_psi):
        kinds = [
            GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS),
            GeneralizedValuation.from_state(
                QuantumState.density(np.diag([0.2, 0.5, 0.3])), Mode.WITH_CONSTANTS
            ),
            GeneralizedValuation.threshold(
                QuantumState.density(np.diag([0.2, 0.5, 0.3])), 0.5, Mode.WITH_CONSTANTS
            ),
            GeneralizedValuation.from_partial(
                PartialValuation.maximal(spin1_sx, 2), Mode.WITH_CONSTANTS
            ),
        ]
        for nu in kinds:
            assert check_naturality(nu, spin1_sx, lambda x: x * x).ok

    def test_random(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(dim, 4) + 1))
            a = rand_operator(rng, dim, k)
            f = rand_value_map(rng, k)
            psi = rand_vector_state(rng, dim)
            mode = Mode.WITH_CONSTANTS if rng.random() < 0.5 else Mode.WITHOUT_CONSTANTS
            assert check_naturality(GeneralizedValuation.from_state(psi, mode), a, f).ok


class TestGathersRecord:
    """The cached `_gathers` record of an index map: the same index
    arrays as the tables it is read from, read-only, keyed on `to`."""

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_tables(self, k, mode):
        maps = [to for to in itertools.product(range(k), repeat=k) if set(to) == set(range(max(to) + 1))]
        for to in maps:  # every surjective map, so maps with equal fibers follow each other
            fibers = [sum(1 << i for i in range(k) if to[i] == j) for j in range(max(to) + 1)]
            record = valuations._gathers(to, mode)
            want = (
                sieves._pullback_table(to, mode),
                sieves._unions([1 << j for j in to]),
                sieves._unions(fibers),
            )
            for table, expected in zip(record, want):
                assert table.dtype == np.intp and table.tolist() == list(expected)
                assert not table.flags.writeable

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    def test_reversed_labels(self, mode):
        """Two maps with the same fibers in opposite label order: their
        `to` differ, and so must their records."""
        rng = np.random.default_rng(29)
        a = rand_operator(rng, 4, 3)
        for nu in (
            GeneralizedValuation.from_state(rand_vector_state(rng, 4), mode),
            GeneralizedValuation.from_partial(PartialValuation.maximal(a, 1), mode),
        ):
            for values in ([0.0, 1.0, 0.0], [1.0, 0.0, 1.0]):
                assert check_naturality(nu, a, values).ok


class _Scrambled(GeneralizedValuation):
    """Broken on purpose: per (spectrum size, subset), a seeded choice
    between the valuation's own sieve and the up-closure of random
    partitions, so that squares fail on some subsets and hold on
    others."""

    def __init__(self, seed, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seed = seed

    def _matrix(self, a, cg=None):
        bits = super()._matrix(a, cg)
        k = a.k if cg is None else cg.codomain_size
        for s in range(1 << k):
            rng = np.random.default_rng([self.seed, k, s])
            if rng.random() >= 0.5:
                seed = [p for p in sorted(admissible_partitions(k, self.mode)) if rng.random() < 0.3]
                bits[s] = bit_rows(k, self.mode, [Sieve(k, self.mode, brute_up_set(k, self.mode, seed)).mask])[0]
        return bits


class TestNaturalitySecondRoute:
    """The failing squares of `check_naturality`, decided on whole rows
    of bits, against frozenset sieves and `brute_pullback` per subset;
    `check_functional_rule` agrees subset by subset."""

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_failures_match_definition(self, k, mode):
        def members(s):
            return [i for i in range(k) if s >> i & 1]

        rng = np.random.default_rng([k, mode is Mode.WITH_CONSTANTS, 71])
        a = rand_operator(rng, k + 1, k)
        state = _supported_state(rng, a, "vector")
        partial = PartialValuation.maximal(a, int(rng.integers(k)))
        partitions = all_partitions(k)
        if k > 4:  # the brute route over all Bell(5) = 52 maps takes about 2 s per mode: sample 10
            partitions = [partitions[i] for i in sorted(rng.choice(len(partitions), size=10, replace=False))]
        seen = set()
        for seed in range(2):
            for nu in (_Scrambled(seed, "state", mode, state=state), _Scrambled(seed, "partial", mode, partial=partial)):
                for p in partitions:
                    values = [float(rng.permutation(p.n_blocks)[p.block_of(i)]) for i in range(k)]
                    want = brute_naturality_failures(nu, a, values)
                    labels = value_fibers(a, values).labels
                    report = check_naturality(nu, a, values)
                    assert report.checks == (1 << k) + k
                    assert report.violations == sorted(
                        [f"proposition square fails on subset {members(s)} for map {labels}" for s in want]
                        + [f"pointwise square fails on eigenvalue index {i} for map {labels}" for i in range(k) if 1 << i in want]
                    )
                    for s in range(1 << k):
                        assert check_functional_rule(nu, a, values, members(s)).ok == (s not in want)
                    seen.update(s in want for s in range(1 << k))
        if k > 2:  # below, lattices of one or two partitions may pass everywhere
            assert seen == {False, True}

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    def test_every_partition_past_64_bits(self, mode):
        """At k=6 a row of sieve masks spans Bell(6) = 203 bits, several
        machine words once packed into bytes."""
        k = 6
        rng = np.random.default_rng([k, mode is Mode.WITH_CONSTANTS, 73])
        a = rand_operator(rng, k + 1, k)
        for nu in (
            GeneralizedValuation.from_state(_supported_state(rng, a, "vector"), mode),
            GeneralizedValuation.from_partial(PartialValuation.maximal(a, int(rng.integers(k))), mode),
        ):
            for p in all_partitions(k):
                report = check_naturality(nu, a, [float(p.block_of(i)) for i in range(k)])
                assert report.ok and report.checks == (1 << k) + k


def _own_data_case(rng, kind, mode):
    """An operator a with 2-6 eigenvalues in dimension up to 7, a valuation
    of the given kind on it (threshold cutoffs at least 1e-6 away from
    every subset mass of a), and a value map of a: a random one, mostly
    non-injective, or a partition's blocks under permuted labels."""
    dim = int(rng.integers(2, 8))
    u = rand_unitary(rng, dim)
    a, group = rand_related_operator(rng, u, 6)
    if kind in ("vector", "density"):
        nu = GeneralizedValuation.from_state(_supported_state(rng, a, kind), mode)
    elif kind == "threshold":
        state = _supported_state(rng, a, "density")
        w = state.weights(a.projectors)
        masses = [sum(w[i] for i in c) for n in range(a.k + 1) for c in itertools.combinations(range(a.k), n)]
        r = float(rng.uniform(0.05, 1.0))
        while min(abs(r - DEFAULT_TOL.tau_one - m) for m in masses) <= 1e-6:
            r = float(rng.uniform(0.05, 1.0))
        nu = GeneralizedValuation.threshold(state, r, mode)
    else:
        members = []
        for _ in range(1 if kind == "maximal" else 3):
            c, _ = rand_related_operator(rng, u, dim, group)
            members.append((c, int(np.argmax([abs(np.vdot(u[:, 0], q @ u[:, 0])) for q in c.projectors]))))
        while kind == "explicit" and not brute_consistent(members, DEFAULT_TOL):
            members.pop()
        v = PartialValuation.maximal(*members[0]) if kind == "maximal" else PartialValuation.explicit(members)
        nu = GeneralizedValuation.from_partial(v, mode)
    if rng.random() < 0.5:
        f = rand_value_map(rng, a.k)
    else:
        p = all_partitions(a.k)[int(rng.integers(len(all_partitions(a.k))))]
        labels = rng.permutation(p.n_blocks)
        f = [float(labels[p.block_of(i)]) for i in range(a.k)]
    return nu, a, f


class TestCoarseMatrixFromOwnData:
    """The naturality squares build the matrix of f(a) from a's own data:
    its subset masses or its members' coarsenings and links.  That route
    must agree bit for bit with the matrix of f(a) built from f(a)'s own
    projectors, and the squares must reach no projector."""

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("kind", ["vector", "density", "threshold", "maximal", "explicit"])
    def test_matches_projector_route(self, kind, mode):
        rng = np.random.default_rng([len(kind), mode is Mode.WITH_CONSTANTS, 83])
        for _ in range(12):
            nu, a, f = _own_data_case(rng, kind, mode)
            own = nu._matrix(a, value_fibers(a, f))
            assert np.array_equal(own, nu._matrix(apply_function(a, f)))

    def test_squares_reach_no_projector(self, monkeypatch):
        rng = np.random.default_rng(85)
        a = rand_operator(rng, 6, 5)
        valuations_ = [
            GeneralizedValuation.from_state(rand_vector_state(rng, 6), Mode.WITH_CONSTANTS),
            GeneralizedValuation.threshold(rand_density_state(rng, 6), 0.4, Mode.WITHOUT_CONSTANTS),
            GeneralizedValuation.from_partial(PartialValuation.maximal(a, 2), Mode.WITH_CONSTANTS),
        ]
        for nu in valuations_:
            nu._row(a)

        def refuse(*args, **kwargs):
            raise AssertionError("a naturality square reached the projectors")

        monkeypatch.setattr(spectral, "_coarse_operator", refuse)
        monkeypatch.setattr(spectral, "_overlaps", refuse)
        monkeypatch.setattr(valuations, "_overlaps", refuse)
        monkeypatch.setattr(QuantumState, "weights", refuse)
        for nu in valuations_:
            for p in all_partitions(5):
                assert check_naturality(nu, a, [float(p.block_of(i)) for i in range(5)]).ok

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    def test_threshold_cutoff_at_a_subset_mass(self, mode):
        """A cutoff equal to the mass of a subset: summed from a's weights
        the coarse masses stay on the cutoff's side; from f(a)'s traces
        they could land across it (at seed 1, 5 false violations on
        0,2|1; 163 of 6000 calls over these seeds)."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = rand_operator(rng, 4, 3)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = QuantumState.density(np.outer(v, v.conj()) / np.vdot(v, v).real)
            w = state.weights(a.projectors)
            for chosen in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                r = sum(w[i] for i in chosen) + DEFAULT_TOL.tau_one
                nu = GeneralizedValuation.threshold(state, r, mode)
                for p in all_partitions(3):
                    report = check_naturality(nu, a, [float(p.block_of(i)) for i in range(3)])
                    assert report.ok, (seed, chosen, str(p), report.violations)

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("tau_proj", [0.3, 2.0])
    def test_loose_tau_proj(self, tau_proj, mode):
        """Under a loose tau_proj the overlap pass of f(a) need not be the
        push of a's (3 and 13 false failures at the two tolerances)."""
        rng = np.random.default_rng(12)
        a = rand_operator(rng, 5, 4)
        c = rand_operator(rng, 5, 3)
        nu = GeneralizedValuation.from_partial(PartialValuation.maximal(c, 0, Tolerances(tau_proj=tau_proj)), mode)
        for p in all_partitions(4):
            report = check_naturality(nu, a, [float(p.block_of(i)) for i in range(4)])
            assert report.ok and report.checks == 16 + 4, (str(p), report.violations)


class TestPartialCaches:
    """A partial valuation member's domain (its coarsening pushed through
    a map) and held rows (per lattice, held index and cutoff) are cached
    across operators and valuations; each answer must still be the
    valuation's own."""

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("kind", ["maximal", "explicit"])
    def test_cutoff_does_not_leak(self, kind, mode):
        """Two valuations on one partial valuation, one with tau_one above
        1 (cutoff below 0: every subset is held), on the same maps in
        alternation: each matches its own projector route, and they
        differ."""
        rng = np.random.default_rng([len(kind), mode is Mode.WITH_CONSTANTS, 87])
        differ = 0
        for _ in range(8):
            nu, a, f = _own_data_case(rng, kind, mode)
            loose = GeneralizedValuation.from_partial(nu.partial, mode, Tolerances(tau_one=1.5))
            cg = value_fibers(a, f)
            own = [v._matrix(a, cg) for v in (nu, loose)]
            coarse = [v._matrix(apply_function(a, f)) for v in (nu, loose)]
            assert all(np.array_equal(o, c) for o, c in zip(own, coarse))
            assert not own[0][0].any()
            differ += bool(own[1][0].any())  # the empty subset is held only below 0, on a nonempty domain
        assert differ

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("kind", ["maximal", "explicit"])
    def test_failures_match_brute(self, kind, mode):
        rng = np.random.default_rng([len(kind), mode is Mode.WITH_CONSTANTS, 89])
        for _ in range(4):
            nu, a, f = _own_data_case(rng, kind, mode)
            for v in (nu, GeneralizedValuation.from_partial(nu.partial, mode, Tolerances(tau_one=1.5))):
                for p in all_partitions(a.k):
                    values = [float(rng.permutation(p.n_blocks)[p.block_of(i)]) for i in range(a.k)]
                    assert valuations._failed_squares(v, a, values)[1] == brute_naturality_failures(v, a, values)

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    def test_cached_arrays_read_only_and_unaliased(self, mode):
        rng = np.random.default_rng(91)
        a = rand_operator(rng, 6, 5)
        idx = 2
        nu = GeneralizedValuation.from_partial(PartialValuation.maximal(a, idx), mode)
        cutoff = nu.r - nu.tol.tau_one
        for p in all_partitions(5):
            cg = value_fibers(a, [float(p.block_of(i)) for i in range(5)])
            coarse = nu._matrix(a, cg)
            held = valuations._held_rows(cg.codomain_size, mode, cg.to[idx], cutoff)
            assert not held.flags.writeable
            assert coarse.flags.writeable and not np.shares_memory(coarse, held)
            for _, row, _ in nu._rows.values():
                assert row is None or not np.shares_memory(row, held)
        assert not np.shares_memory(nu._row(a)[0], valuations._held_rows(5, mode, idx, cutoff))

    def test_bounded(self):
        for cache in (valuations._domain, valuations._held_rows, valuations._gathers, sieves._pullback_table, report._pair_table):
            assert cache.cache_info().maxsize is not None


class TestModeDiscipline:
    def test_mixed_mode_comparison_rejected(self, spin1_sx, spin1_psi):
        from sievelogic import BaseMismatchError
        nu_o = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        nu_s = GeneralizedValuation.from_state(spin1_psi, Mode.WITHOUT_CONSTANTS)
        s1 = sieve_of(nu_o, spin1_sx, [2])
        s2 = sieve_of(nu_s, spin1_sx, [2])
        with pytest.raises(BaseMismatchError):
            s1.meet(s2)
