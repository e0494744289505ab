import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelogic import (
    DEFAULT_TOL,
    BooleanContext,
    GeneralizedValuation,
    InputError,
    Mode,
    NotSubalgebraError,
    Partition,
    Proposition,
    QuantumState,
    Sieve,
    admissible_partitions,
    SubalgebraPoset,
    SubalgebraSieve,
    ZeroNormError,
    bell_number,
    canonical_coarsening,
    check_axioms,
    check_coarsening_axioms,
    check_local_valuation,
    check_restriction_compatibility,
    context_from_vectors,
    decompose,
    prob,
    report,
    true_w,
    valuation_sieve,
)
from sievelogic import contexts
from sievelogic.contexts import _node_tables
from sievelogic.sieves import _image
from sievelogic.spectral import max_abs
from helpers import (
    broken_coarsening,
    brute_axiom_report,
    brute_coarsening,
    brute_coarsening_checks,
    brute_coarsening_report,
    brute_node_elements,
    brute_restriction_checks,
    brute_subalgebras,
    brute_valuation_sieve,
    least_dominating_oracle,
    rand_basis_context,
    rand_density_state,
)


FINEST4 = Partition.of([(0,), (1,), (2,), (3,)])
FINEST3 = Partition.of([(0,), (1,), (2,)])


class TestBooleanContext:
    def test_counts_and_elements(self, diag_context_4):
        assert diag_context_4.n_atoms == 4
        assert len(list(diag_context_4.elements())) == 16
        m = diag_context_4.element([1, 3])
        assert max_abs(m - np.diag([0.0, 1.0, 0.0, 1.0])) < 1e-12

    def test_rejections(self):
        eye = np.eye(2)
        with pytest.raises(InputError):
            BooleanContext([])
        with pytest.raises(InputError):
            BooleanContext([np.array([[0.0, 1.0], [0.0, 0.0]]), eye])
        with pytest.raises(InputError):
            BooleanContext([eye * 0.5, eye * 0.5])
        with pytest.raises(InputError):
            BooleanContext([np.zeros((2, 2)), eye])
        with pytest.raises(InputError):
            # not orthogonal
            BooleanContext([np.diag([1.0, 0.0]), np.ones((2, 2)) / 2])
        with pytest.raises(InputError):
            # does not resolve the identity
            BooleanContext([np.diag([1.0, 0.0])])

    def test_caller_arrays_stay_writable(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        ctx = BooleanContext([a, b])
        a[0, 0] = 5.0
        assert ctx.atoms[0][0, 0] == 1.0
        assert not ctx.atoms[0].flags.writeable

    def test_element_index_guard(self, diag_context_4):
        with pytest.raises(InputError):
            diag_context_4.element([4])

    def test_from_vectors(self):
        ctx = context_from_vectors([[2.0, 0.0], [0.0, -3.0]])
        assert max_abs(ctx.atoms[0] - np.diag([1.0, 0.0])) < 1e-12
        with pytest.raises(ZeroNormError):
            context_from_vectors([[0.0, 0.0], [1.0, 0.0]])


class TestSubalgebraPoset:
    def test_node_counts(self, poset4):
        assert len(poset4.nodes) == bell_number(4)
        ctx5 = BooleanContext([np.diag([1.0 if i == j else 0.0 for i in range(5)]) for j in range(5)])
        assert len(SubalgebraPoset(ctx5).nodes) == bell_number(5)
        assert len(SubalgebraPoset(ctx5, Mode.WITHOUT_CONSTANTS).nodes) == bell_number(5) - 1

    def test_leq_is_coarsening(self, poset4):
        one = Partition.of([(0, 1, 2, 3)])
        assert poset4.leq(one, FINEST4)
        assert not poset4.leq(FINEST4, one)
        assert len(poset4.down_set(FINEST4)) == bell_number(4)
        assert poset4.down_set(one) == frozenset([one])

    def test_elements(self, poset4):
        w = Partition.of([(0, 1), (2, 3)])
        els = poset4.elements(w)
        assert els == (
            frozenset(),
            frozenset([0, 1]),
            frozenset([2, 3]),
            frozenset([0, 1, 2, 3]),
        )
        assert poset4.is_element(w, frozenset([0, 1]))
        assert poset4.is_element(w, [1, 0, 1])
        assert not poset4.is_element(w, frozenset([0]))
        for alpha in ([0, 1, 4], [-1], [0.0, 1], ["a"], [0, 1, 10**12], [10**20]):
            assert not poset4.is_element(w, alpha)

    def test_element_matrix_and_node_context(self, poset4):
        w = Partition.of([(0, 1), (2, 3)])
        assert max_abs(poset4.top.element(frozenset([0, 1])) - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12
        sub = poset4.node_context(w)
        assert sub.n_atoms == 2

    def test_unknown_node_rejected(self, poset4):
        with pytest.raises(InputError):
            poset4.down_set(Partition.of([(0, 1), (2,)]))


class TestCanonicalCoarsening:
    def test_spin1_example(self, spin1_sz):
        poset = SubalgebraPoset(BooleanContext(spin1_sz.projectors))
        w2 = Partition.of([(0, 2), (1,)])
        # the +1 eigenprojector coarsens to the two-sided element
        got = canonical_coarsening(poset, FINEST3, w2, frozenset([2]))
        assert got == frozenset([0, 2])

    def test_retraction(self, poset4):
        w2 = Partition.of([(0, 1), (2, 3)])
        alpha = frozenset([0, 1])
        assert canonical_coarsening(poset4, FINEST4, w2, alpha) == alpha

    def test_zero_element_fixed(self, poset4):
        w2 = Partition.of([(0, 1, 2, 3)])
        assert canonical_coarsening(poset4, FINEST4, w2, frozenset()) == frozenset()

    def test_guards(self, poset4):
        w2 = Partition.of([(0, 1), (2, 3)])
        with pytest.raises(NotSubalgebraError):
            canonical_coarsening(poset4, w2, FINEST4, frozenset([0, 1]))
        with pytest.raises(InputError):
            canonical_coarsening(poset4, w2, w2, frozenset([0]))
        with pytest.raises(InputError, match="is not an element"):
            canonical_coarsening(poset4, w2, w2, frozenset([0, 1, 10**12]))

    def test_matches_least_dominating_oracle(self, poset4):
        for w1 in poset4.nodes:
            for w2 in poset4.down_set(w1):
                for alpha in poset4.elements(w1):
                    got = canonical_coarsening(poset4, w1, w2, alpha)
                    assert got == least_dominating_oracle(poset4, w2, alpha)


class TestCoarseningAxioms:
    def test_single_atom_vacuous(self):
        poset = SubalgebraPoset(BooleanContext([np.eye(2)]))
        assert check_coarsening_axioms(poset).ok

    def test_poset4_passes(self, poset4):
        report = check_coarsening_axioms(poset4)
        assert report.ok
        assert report.checks == 4046

    def test_broken_map_detected(self, poset4):
        top = frozenset(range(4))

        def bad(w1, w2, alpha):
            # jump straight to the unit whenever alpha is nonzero
            return top if alpha else frozenset()

        report = check_coarsening_axioms(poset4, bad)
        assert not report.ok
        assert any("retraction" in v for v in report.violations)

    def test_canonical_table_passes(self, poset4):
        table = {
            (w1, w2): {alpha: canonical_coarsening(poset4, w1, w2, alpha) for alpha in poset4.elements(w1)}
            for w1 in poset4.nodes
            for w2 in poset4.down_set(w1)
        }
        report = check_coarsening_axioms(poset4, table)
        assert report.ok
        assert report.checks == check_coarsening_axioms(poset4).checks

    def test_table_missing_entry_rejected(self, poset4):
        with pytest.raises(InputError, match="no entry"):
            check_coarsening_axioms(poset4, {})
        w2 = Partition.of([(0, 1), (2, 3)])
        table = {
            (w1, q): {alpha: canonical_coarsening(poset4, w1, q, alpha) for alpha in poset4.elements(w1)}
            for w1 in poset4.nodes
            for q in poset4.down_set(w1)
        }
        del table[(FINEST4, w2)][frozenset([0, 2])]
        with pytest.raises(InputError, match=r"no entry for \(0\|1\|2\|3, 0,1\|2,3, \[0, 2\]\)"):
            check_coarsening_axioms(poset4, table)

    def test_list_and_set_answers_match_frozenset(self, poset4):
        pair = Partition.of([(0, 1), (2, 3)])

        def broken(w1, w2, alpha):
            # canonical, except that singletons coarsen to the unit at 01|23
            if w2 == pair and len(alpha) == 1:
                return frozenset(range(4))
            return frozenset(i for b in w2.blocks if alpha & set(b) for i in b)

        want = check_coarsening_axioms(poset4, broken)
        assert not want.ok
        as_list = check_coarsening_axioms(poset4, lambda *args: sorted(broken(*args)) * 2)
        as_set = check_coarsening_axioms(poset4, lambda *args: set(broken(*args)))
        assert str(as_list) == str(as_set) == str(want)

    @pytest.mark.parametrize("answer", [None, ["a"], [-1], [1.5], [0, 4], [10**12]])
    def test_non_index_answer_rejected(self, poset4, answer):
        with pytest.raises(InputError, match="is not a set of atom indices"):
            check_coarsening_axioms(poset4, lambda w1, w2, alpha: answer)

    def test_non_dominating_map_detected(self, poset4):
        def bad(w1, w2, alpha):
            return frozenset()

        report = check_coarsening_axioms(poset4, bad)
        assert not report.ok
        assert any("domination" in v for v in report.violations)

    def test_user_map_asked_once_per_slot(self, poset4):
        """A user map is asked once per slot (w1, w2 within w1, element of
        w1): composition reads the answers at (w2, w3) it already has."""
        calls = []

        def counted(w1, w2, alpha):
            calls.append((w1, w2, alpha))
            return canonical_coarsening(poset4, w1, w2, alpha)

        assert str(check_coarsening_axioms(poset4, counted)) == str(check_coarsening_axioms(poset4))
        assert len(calls) == len(set(calls)) == brute_restriction_checks(4, Mode.WITH_CONSTANTS) == 538

    def test_table_read_off_element(self, poset4):
        """A table answer at (w1, w2) that is not an element of w2 is
        looked up at (w2, w3) for every w3 within w2; a missing entry there
        is rejected by name."""
        pair, unit = Partition.of([(0, 1), (2, 3)]), frozenset(range(4))
        table = {
            (w1, q): {alpha: canonical_coarsening(poset4, w1, q, alpha) for alpha in poset4.elements(w1)}
            for w1 in poset4.nodes
            for q in poset4.down_set(w1)
        }
        table[(FINEST4, pair)][frozenset([0])] = frozenset([0])
        for w3 in poset4.down_set(pair) - {pair}:
            table[(pair, w3)][frozenset([0])] = unit
        with pytest.raises(InputError, match=r"^theta table has no entry for \(0,1\|2,3, 0,1\|2,3, \[0\]\)$"):
            check_coarsening_axioms(poset4, table)
        table[(pair, pair)][frozenset([0])] = frozenset([0])
        report = check_coarsening_axioms(poset4, table)
        assert str(report) == brute_coarsening_report(
            4, Mode.WITH_CONSTANTS, lambda w1, w2, alpha: table[(w1, w2)][alpha]
        )
        assert report.violations == [
            "composition fails on [0] along 0|1|2|3 -> 0,1|2|3 -> 0,1|2,3",
            "composition fails on [0] along 0|1|2|3 -> 0|1|2,3 -> 0,1|2,3",
        ]


class TestValuationSieve:
    def test_atom_state_gives_unit(self, poset4):
        psi = QuantumState.vector([1.0, 0.0, 0.0, 0.0])
        s = valuation_sieve(psi, poset4, FINEST4, frozenset([0]))
        assert s == true_w(poset4, FINEST4)
        assert s.is_true

    def test_zero_element_is_false(self, poset4):
        psi = QuantumState.vector([1.0, 0.0, 0.0, 0.0])
        s = valuation_sieve(psi, poset4, FINEST4, frozenset())
        assert s.is_false

    def test_spin1_partial_support(self, spin1_sz):
        # state spread over the upper two atoms: the singleton element is
        # certified only where the subalgebra merges those atoms
        poset = SubalgebraPoset(BooleanContext(spin1_sz.projectors))
        psi = QuantumState.vector([1.0, 1.0, 0.0])
        s = valuation_sieve(psi, poset, FINEST3, frozenset([1]))
        assert set(s.members) == {
            Partition.of([(0, 1, 2)]),
            Partition.of([(0,), (1, 2)]),
        }
        assert not s.is_true and not s.is_false

    def test_guards(self, poset4):
        psi = QuantumState.vector([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(InputError, match=r"^\[7\] is not an element of 0\|1\|2\|3$"):
            valuation_sieve(psi, poset4, FINEST4, frozenset([7]))
        pair = Partition.of([(0, 1), (2, 3)])
        for alpha, text in ([[0], r"\[0\]"], [[1.5], r"\[1.5\]"], [[-1, 0, 1], r"\[-1, 0, 1\]"], [[10**12], r"\[1000000000000\]"]):
            with pytest.raises(InputError, match=rf"^{text} is not an element of 0,1\|2,3$"):
                valuation_sieve(psi, poset4, pair, alpha)
        with pytest.raises(InputError, match="is not a node of this poset"):
            valuation_sieve(psi, poset4, Partition.of([(0, 1), (2,)]), frozenset())

    def test_state_of_other_dimension_rejected(self):
        # three atoms on a 4-dimensional space against a 3-dimensional state
        atoms = [np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
        poset = SubalgebraPoset(BooleanContext(atoms))
        psi = QuantumState.vector([1.0, 0.0, 0.0])
        with pytest.raises(InputError):
            valuation_sieve(psi, poset, FINEST3, frozenset([0]))
        with pytest.raises(InputError):
            check_restriction_compatibility(psi, poset)
        nu = GeneralizedValuation.from_state(psi, Mode.WITH_CONSTANTS)
        with pytest.raises(InputError):
            nu.evaluate(Proposition(decompose(np.diag([0.0, 1.0, 2.0, 2.0])), frozenset([0])))

    def test_weights_computed_once_per_state(self, poset4, monkeypatch):
        # the poset's (state, cutoff) row cache is the one place weights are kept
        rho = rand_density_state(np.random.default_rng(7), 4)
        calls = []
        weights = QuantumState.weights
        monkeypatch.setattr(QuantumState, "weights", lambda s, atoms: calls.append(atoms) or weights(s, atoms))
        first, second = ([valuation_sieve(rho, poset4, w, alpha) for w in poset4.nodes for alpha in poset4.elements(w)]
                         for _ in range(2))
        assert first == second
        assert calls == [poset4.top.atoms]
        assert weights(rho, poset4.top.atoms) == tuple(prob(rho, a) for a in poset4.top.atoms)


class TestLocalValuation:
    def test_state_map_passes(self, poset4):
        rho = QuantumState.density(np.diag([0.4, 0.3, 0.2, 0.1]))
        phi = {
            alpha: valuation_sieve(rho, poset4, FINEST4, alpha)
            for alpha in poset4.elements(FINEST4)
        }
        report = check_local_valuation(poset4, FINEST4, phi)
        assert report.ok
        assert any(n == "unit condition: holds" for n in report.notes)

    def test_constant_false_map_legal(self, poset4):
        empty = SubalgebraSieve(poset4, FINEST4, [])
        phi = {alpha: empty for alpha in poset4.elements(FINEST4)}
        report = check_local_valuation(poset4, FINEST4, phi)
        assert report.ok
        assert any(n == "unit condition: violated" for n in report.notes)

    def test_monotonicity_violation_detected(self, poset4):
        empty = SubalgebraSieve(poset4, FINEST4, [])
        phi = {alpha: empty for alpha in poset4.elements(FINEST4)}
        phi[frozenset([0])] = true_w(poset4, FINEST4)
        report = check_local_valuation(poset4, FINEST4, phi)
        assert not report.ok
        assert any("monotonicity" in v for v in report.violations)

    def test_exclusivity_violation_detected(self, poset4):
        full = true_w(poset4, FINEST4)
        phi = {alpha: full for alpha in poset4.elements(FINEST4)}
        report = check_local_valuation(poset4, FINEST4, phi)
        assert not report.ok
        assert any("exclusivity" in v for v in report.violations)
        assert any("null" in v for v in report.violations)

    def test_partial_map_rejected(self, poset4):
        with pytest.raises(InputError):
            check_local_valuation(poset4, FINEST4, {})

    def test_values_at_another_node_rejected(self):
        poset = SubalgebraPoset(BooleanContext([np.diag(row) for row in np.eye(3)]))
        one = Partition.one_block(3)
        phi = {alpha: true_w(poset, one) for alpha in poset.elements(FINEST3)}
        with pytest.raises(InputError, match=r"the value at \[\] is not a truth value at 0\|1\|2"):
            check_local_valuation(poset, FINEST3, phi)
        phi = {alpha: true_w(poset, FINEST3) for alpha in poset.elements(FINEST3)}
        phi[frozenset([0, 2])] = true_w(poset, one)
        with pytest.raises(InputError, match=r"the value at \[0, 2\] is not a truth value at 0\|1\|2"):
            check_local_valuation(poset, FINEST3, phi)
        phi[frozenset([0, 2])] = true_w(poset, FINEST3).sieve
        with pytest.raises(InputError, match=r"the value at \[0, 2\]"):
            check_local_valuation(poset, FINEST3, phi)
        other_mode = SubalgebraPoset(poset.top, Mode.WITHOUT_CONSTANTS)
        phi[frozenset([0, 2])] = true_w(other_mode, FINEST3)
        with pytest.raises(InputError, match=r"the value at \[0, 2\]"):
            check_local_valuation(poset, FINEST3, phi)

    def test_values_from_an_equal_poset_accepted(self, poset4):
        # truth values are compared by base, mode and mask, as in ==
        twin = SubalgebraPoset(BooleanContext(poset4.top.atoms))

        def phi(poset):
            empty = SubalgebraSieve(poset, FINEST4, [])
            return {alpha: true_w(poset, FINEST4) if alpha else empty for alpha in poset.elements(FINEST4)}

        assert phi(twin) == phi(poset4)
        report = check_local_valuation(poset4, FINEST4, phi(twin))
        assert str(report) == str(check_local_valuation(poset4, FINEST4, phi(poset4)))
        assert not report.ok

    def test_keys_outside_the_node_rejected(self, poset4):
        pair = Partition.of([(0, 1), (2, 3)])
        phi = {alpha: true_w(poset4, pair) for alpha in poset4.elements(pair)}
        phi[frozenset([0])] = true_w(poset4, pair)
        with pytest.raises(InputError, match=r"map key frozenset\(\{0\}\) is not an element of 0,1\|2,3"):
            check_local_valuation(poset4, pair, phi)


class TestRestrictionCompatibility:
    def test_spin1(self, spin1_sz):
        poset = SubalgebraPoset(BooleanContext(spin1_sz.projectors))
        psi = QuantumState.vector([1.0, 1.0, 0.0])
        assert check_restriction_compatibility(psi, poset).ok

    def test_random_densities(self, poset4):
        rng = np.random.default_rng(71)
        for _ in range(5):
            rho = rand_density_state(rng, 4)
            assert check_restriction_compatibility(rho, poset4).ok

    def test_random_context(self):
        rng = np.random.default_rng(72)
        ctx = rand_basis_context(rng, 4)
        poset = SubalgebraPoset(ctx)
        rho = rand_density_state(rng, 4)
        assert check_restriction_compatibility(rho, poset).ok


class TestSubalgebraSieve:
    def test_down_closure_enforced(self, poset4):
        w = Partition.of([(0,), (1, 2, 3)])
        with pytest.raises(InputError):
            SubalgebraSieve(poset4, FINEST4, [w])

    def test_foreign_member_rejected(self, poset4):
        one = Partition.of([(0, 1, 2, 3)])
        w = Partition.of([(0,), (1, 2, 3)])
        with pytest.raises(InputError):
            SubalgebraSieve(poset4, w, [Partition.of([(0, 1), (2, 3)]), one])

    def test_restrict(self, poset4):
        w = Partition.of([(0,), (1, 2, 3)])
        one = Partition.of([(0, 1, 2, 3)])
        s = SubalgebraSieve(poset4, FINEST4, [w, one])
        r = s.restrict(w)
        assert r.base == w
        assert r.is_true
        with pytest.raises(NotSubalgebraError):
            s.restrict(Partition.of([(0, 1), (2, 3)])).restrict(FINEST4)

    def test_leq_base_guard(self, poset4):
        one = Partition.of([(0, 1, 2, 3)])
        s1 = SubalgebraSieve(poset4, FINEST4, [one])
        s2 = true_w(poset4, one)
        assert s1.leq(true_w(poset4, FINEST4))
        with pytest.raises(InputError):
            s1.leq(s2)

    @pytest.mark.parametrize("mode", [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_view_parity(self, n, mode):
        """The view's protocol against the member set and the mask it
        stands for, at every node, with random up-closed members."""
        rng = np.random.default_rng([n, mode is Mode.WITH_CONSTANTS, 81])
        poset = diag_poset(n, mode)
        twin = SubalgebraPoset(rand_basis_context(rng, n), mode)
        other = Mode.WITHOUT_CONSTANTS if mode is Mode.WITH_CONSTANTS else Mode.WITH_CONSTANTS
        nodes = sorted(admissible_partitions(n, mode))
        for w in nodes:
            down = sorted(brute_subalgebras(n, mode, w))
            picks = [rng.choice(len(down), size=int(rng.integers(0, 3))) for _ in range(3)]
            for seed in picks:
                members = frozenset(q for j in seed for q in brute_subalgebras(n, mode, down[j]))
                mask = sum(1 << nodes.index(q) for q in members)
                s = SubalgebraSieve(poset, w, members)
                assert s.base == w and s.members == members and len(s) == len(members)
                assert list(s) == sorted(members)
                assert [q in s for q in nodes] == [q in members for q in nodes]
                assert Partition.discrete(n + 1) not in s
                assert s.sieve == Sieve._of_mask(n, mode, mask)
                assert s.is_true == (members == frozenset(down)) and s.is_false == (not members)
                # equal exactly when base, mode and mask are equal
                same = SubalgebraSieve(twin, w, sorted(members))
                assert s == same and hash(s) == hash(same)
                for seed2 in picks:
                    members2 = frozenset(q for j in seed2 for q in brute_subalgebras(n, mode, down[j]))
                    assert (s == SubalgebraSieve(poset, w, members2)) == (members == members2)
                assert s != s.sieve
                if not members and w in admissible_partitions(n, other):
                    # the same base and mask in the other mode
                    assert s != SubalgebraSieve(diag_poset(n, other), w, members)
                for w2 in nodes:
                    if w2 != w:
                        with pytest.raises(InputError, match="different nodes"):
                            s.leq(true_w(poset, w2))
                    if w2 in down:
                        r = s.restrict(w2)
                        assert r.base == w2 and r.members == members & brute_subalgebras(n, mode, w2)
                        assert r == SubalgebraSieve(poset, w2, members & brute_subalgebras(n, mode, w2))
                    else:
                        with pytest.raises(NotSubalgebraError):
                            s.restrict(w2)
                assert s.leq(true_w(twin, w)) and SubalgebraSieve(poset, w, []).leq(s)


MODES = [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS]


@lru_cache(maxsize=None)
def diag_poset(n: int, mode: Mode) -> SubalgebraPoset:
    eye = np.eye(n)
    return SubalgebraPoset(BooleanContext([np.outer(eye[i], eye[i]) for i in range(n)]), mode)


@st.composite
def node_cases(draw):
    """A poset of at most 5 atoms in either mode, its nodes listed
    independently of the poset, and one node."""
    mode = draw(st.sampled_from(MODES))
    n = draw(st.integers(1 if mode is Mode.WITH_CONSTANTS else 2, 5))
    nodes = sorted(admissible_partitions(n, mode))
    return diag_poset(n, mode), n, mode, nodes, draw(st.sampled_from(nodes))


class TestOversizedPoset:
    """Past MAX_POSET_ATOMS atoms the audits refuse before building
    their tables."""

    def test_audits_refuse_nine_atoms(self):
        poset = diag_poset(9, Mode.WITH_CONSTANTS)
        rho = QuantumState.vector(np.eye(9)[0])
        audits = [
            lambda: check_coarsening_axioms(poset),
            lambda: check_restriction_compatibility(rho, poset),
            lambda: check_local_valuation(poset, Partition.discrete(9), {}),
        ]
        for audit in audits:
            with pytest.raises(InputError, match="9 atoms"):
                audit()


class TestSubalgebraSecondRoute:
    """The poset and its truth values against plain-frozenset brute force."""

    @settings(max_examples=100, deadline=None)
    @given(node_cases())
    def test_down_set_and_leq(self, case):
        poset, n, mode, nodes, w = case
        assert list(poset.nodes) == nodes
        down = brute_subalgebras(n, mode, w)
        assert poset.down_set(w) == down
        assert [poset.leq(q, w) for q in nodes] == [q in down for q in nodes]
        assert [poset.leq(w, q) for q in nodes] == [w in brute_subalgebras(n, mode, q) for q in nodes]

    @settings(max_examples=150, deadline=None)
    @given(node_cases(), st.data())
    def test_restrict(self, case, data):
        poset, n, mode, nodes, w = case
        down = brute_subalgebras(n, mode, w)
        seed = data.draw(st.sets(st.sampled_from(sorted(down)), max_size=4))
        members = frozenset(q for p in seed for q in brute_subalgebras(n, mode, p))
        s = SubalgebraSieve(poset, w, members)
        assert s.members == members and len(s) == len(members) and list(s) == sorted(members)
        assert s.is_true == (members == down) and s.is_false == (not members)
        assert s == SubalgebraSieve(poset, w, sorted(members))
        w2 = data.draw(st.sampled_from(nodes))
        if w2 in down:
            r = s.restrict(w2)
            assert r.base == w2
            assert r.members == members & brute_subalgebras(n, mode, w2)
        else:
            with pytest.raises(NotSubalgebraError):
                s.restrict(w2)

    @settings(max_examples=150, deadline=None)
    @given(node_cases(), st.data())
    def test_constructor_rejects(self, case, data):
        poset, n, mode, nodes, w = case
        down = brute_subalgebras(n, mode, w)
        chosen = frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=6)))
        if not chosen <= down:
            with pytest.raises(InputError, match="not a subalgebra of the base"):
                SubalgebraSieve(poset, w, chosen)
        elif all(brute_subalgebras(n, mode, p) <= chosen for p in chosen):
            assert SubalgebraSieve(poset, w, chosen).members == chosen
        else:
            with pytest.raises(InputError, match="missing"):
                SubalgebraSieve(poset, w, chosen)
        with pytest.raises(InputError, match="not a subalgebra of the base"):
            SubalgebraSieve(poset, w, [Partition.discrete(n + 1)])

    @settings(max_examples=150, deadline=None)
    @given(node_cases(), st.integers(0, 2**32 - 1), st.data())
    def test_valuation_sieve_block_mass(self, case, seed, data):
        poset, n, mode, nodes, w = case
        rng = np.random.default_rng(seed)
        weights = rng.random(n) * (rng.random(n) < 0.7)
        if not weights.any():
            weights[int(rng.integers(n))] = 1.0
        weights = weights / weights.sum()
        rho = QuantumState.density(np.diag(weights))
        chosen = data.draw(st.sets(st.integers(0, w.n_blocks - 1)))
        alpha = frozenset(i for j in chosen for i in w.blocks[j])
        got = valuation_sieve(rho, poset, w, alpha)
        assert got.base == w
        want = brute_valuation_sieve(n, mode, w, alpha, [float(x) for x in weights], 1.0 - DEFAULT_TOL.tau_one)
        assert got.members == want

    def test_audits_pass_without_constants(self):
        poset = SubalgebraPoset(rand_basis_context(np.random.default_rng(73), 4), Mode.WITHOUT_CONSTANTS)
        assert len(poset.nodes) == bell_number(4) - 1
        assert check_coarsening_axioms(poset).ok
        rng = np.random.default_rng(74)
        for _ in range(3):
            assert check_restriction_compatibility(rand_density_state(rng, 4), poset).ok


class TestAuditSecondRoute:
    """The mask audits and their tables against frozenset definitions."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_node_tables(self, n, mode):
        poset = diag_poset(n, mode)
        images, elements = _node_tables(n, mode)
        assert len(images) == len(elements) == len(poset.nodes)
        for w, image, els in zip(poset.nodes, images, elements):
            assert els == tuple(sum(1 << i for i in e) for e in poset.elements(w))
            assert len(image) == 1 << n
            for s in range(1 << n):
                subset = frozenset(i for i in range(n) if s >> i & 1)
                least = least_dominating_oracle(poset, w, subset)
                assert image[s] == _image(w, s) == sum(1 << i for i in least)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_check_counts(self, n, mode):
        poset = diag_poset(n, mode)
        coarsening = check_coarsening_axioms(poset)
        assert coarsening.ok and coarsening.checks == brute_coarsening_checks(n, mode)
        rho = rand_density_state(np.random.default_rng(n), n)
        restriction = check_restriction_compatibility(rho, poset)
        assert restriction.ok and restriction.checks == brute_restriction_checks(n, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_coarsening_reports(self, n, mode):
        """`check_coarsening_axioms` reports, byte for byte, against the
        report rebuilt from the axioms' definitions on frozensets: the
        canonical map (by default and as a table), the map of the report
        text test, and seeded broken maps, some of whose answers lose atoms
        or are not elements of w2 (so composition asks off w2's elements)."""
        poset = diag_poset(n, mode)
        canonical = brute_coarsening_report(n, mode, brute_coarsening)
        assert str(check_coarsening_axioms(poset)) == canonical
        table = {
            (w1, w2): {alpha: brute_coarsening(w1, w2, alpha) for alpha in brute_node_elements(w1)}
            for w1 in poset.nodes
            for w2 in brute_subalgebras(n, mode, w1)
        }
        assert str(check_coarsening_axioms(poset, table)) == canonical
        discrete = Partition.discrete(n)
        remap = {frozenset([0]): frozenset(), frozenset(range(n)): frozenset([0])}

        def text_map(w1, w2, alpha):
            # canonical, except at the discrete node within itself (the map of test_report)
            if w1 == w2 == discrete and alpha:
                return remap.get(alpha, alpha)
            return brute_coarsening(w1, w2, alpha)

        off = set()

        def watched(theta):
            def ask(w1, w2, alpha):
                if alpha not in poset.elements(w1):
                    off.add(alpha)
                return theta(w1, w2, alpha)
            return ask

        seeds = range(4 if n < 5 else 2)
        maps = [text_map] + [broken_coarsening(n, mode, 100 * n + seed, count=1 + seed) for seed in seeds]
        for theta in maps:
            assert str(check_coarsening_axioms(poset, watched(theta))) == brute_coarsening_report(n, mode, theta)
        assert off or n < 3

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_local_valuation_reports(self, n, mode):
        """`check_local_valuation` reports, byte for byte, against the
        report rebuilt from the axioms' definitions on frozensets, at every
        node: a state's map, random up-closed maps and broken maps."""
        rng = np.random.default_rng([n, mode is Mode.WITH_CONSTANTS, 91])
        poset = diag_poset(n, mode)
        weights = rng.random(n) * (rng.random(n) < 0.6)
        weights[int(rng.integers(n))] += 0.5
        rho = QuantumState.density(np.diag(weights / weights.sum()))
        for w in poset.nodes:
            down = sorted(brute_subalgebras(n, mode, w))
            elements = brute_node_elements(w)

            def up_closed():
                seed = rng.choice(len(down), size=int(rng.integers(0, 3)))
                return SubalgebraSieve(poset, w, {q for j in seed for q in brute_subalgebras(n, mode, down[j])})

            full, empty = true_w(poset, w), SubalgebraSieve(poset, w, [])
            maps = [
                {alpha: valuation_sieve(rho, poset, w, alpha) for alpha in elements},
                {alpha: up_closed() for alpha in elements},
                {alpha: up_closed() for alpha in elements},
                {alpha: full if len(alpha) == 1 else empty for alpha in elements},
                {alpha: full for alpha in elements},
                {alpha: full if alpha else empty for alpha in elements},
            ]
            for phi in maps:
                values = {alpha: value.members for alpha, value in phi.items()}
                want = brute_axiom_report("poset", values, frozenset(down))
                assert str(check_local_valuation(poset, w, phi)) == want

    def test_pair_tables_match_definition(self):
        """`report._pair_table`, built in numpy, against the pairs of its
        definition on the 2^b elements of b atoms (element x the union of
        the atoms at its bits), for b = 0..9, with and without x = y."""
        for b, distinct in itertools.product(range(10), (True, False)):
            span = range(1 << b)
            pairs = [[y for y in span if not (distinct and x == y)] for x in span]
            assert report._pair_table(b, distinct) == (
                tuple(tuple(y for y in ys if not x & ~y) for x, ys in enumerate(pairs)),
                tuple(tuple(y for y in ys if not x & y) for x, ys in enumerate(pairs)),
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_pair_table_per_block_count(self, mode):
        """Nodes 0|1|2,3 and 0,1|2|3 have three blocks each, but {0,1} is
        a union of two blocks in one and a block in the other: both read
        the one pair table of three blocks, and a broken map reports at
        both, one after the other, as the definitions say."""
        poset = diag_poset(4, mode)
        report._pair_table.cache_clear()
        for w in (Partition.of([(0,), (1,), (2, 3)]), Partition.of([(0, 1), (2,), (3,)])):
            full, empty = true_w(poset, w), SubalgebraSieve(poset, w, [])
            phi = {alpha: full if 0 < len(alpha) < 3 else empty for alpha in poset.elements(w)}
            values = {alpha: value.members for alpha, value in phi.items()}
            want = brute_axiom_report("poset", values, frozenset(brute_subalgebras(4, mode, w)))
            assert "monotonicity" in want and "exclusivity" in want
            assert str(check_local_valuation(poset, w, phi)) == want
        info = report._pair_table.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_elements_by_block_bitmask(self, n, mode):
        """Element x of a node is the union of the blocks j for which bit
        j of x is set."""
        poset = diag_poset(n, mode)
        for w in poset.nodes:
            elements = poset.elements(w)
            assert len(elements) == 1 << w.n_blocks
            for x, alpha in enumerate(elements):
                assert alpha == frozenset(i for j, block in enumerate(w.blocks) if x >> j & 1 for i in block)

    def test_audits_cache_no_element_lists(self):
        """Audits in both modes at 6 atoms, and the spectrum axioms on 2 to
        6 points, leave one pair table per block count and flag, and no
        node's frozensets."""
        report._pair_table.cache_clear()
        contexts._node_elements.cache_clear()
        rho = rand_density_state(np.random.default_rng(6), 6)
        for mode in MODES:
            poset = diag_poset(6, mode)
            assert check_coarsening_axioms(poset).ok
            assert check_coarsening_axioms(poset, brute_coarsening).ok
            assert check_restriction_compatibility(rho, poset).ok
            for k in range(2, 7):
                a = decompose(np.diag(np.arange(float(k))))
                assert check_axioms(GeneralizedValuation.from_state(QuantumState.vector(np.ones(k)), mode), a).ok
        assert report._pair_table.cache_info().currsize <= 14
        assert contexts._node_elements.cache_info().currsize == 0

    def test_four_atom_counts(self):
        assert brute_coarsening_checks(4, Mode.WITH_CONSTANTS) == 4046
        assert brute_restriction_checks(4, Mode.WITH_CONSTANTS) == 538
