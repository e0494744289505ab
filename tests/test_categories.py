import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelogic import (
    BooleanContext,
    CoarseGrainingLattice,
    FunctionalRelation,
    InputError,
    Mode,
    NotSubalgebraError,
    Partition,
    PartialValuation,
    SectionAssignment,
    SubalgebraPoset,
    TwoValuedHom,
    apply_function,
    bell_number,
    canonical_graining,
    check_indicator_naturality,
    compose,
    context_operator,
    decompose,
    detect_relations,
    restrict_hom,
    search_global_section,
)
from sievelogic import contexts
from sievelogic.spectral import max_abs, projector_leq
from helpers import (
    ks_operator_family,
    rand_operator,
    rand_related_operator,
    rand_unitary,
    reconstructed_function_of,
    section_ok_independent,
)


class TestSpectralAlgebra:
    def test_scalar_operator_is_trivial(self):
        ctx = BooleanContext(decompose(np.eye(3) * 2.5).projectors)
        assert ctx.n_atoms == 1
        assert max_abs(ctx.atoms[0] - np.eye(3)) < 1e-12

    def test_spin1_sz_counts(self, spin1_sz):
        ctx = BooleanContext(spin1_sz.projectors)
        assert ctx.n_atoms == 3
        assert len(list(ctx.elements())) == 8

    def test_coarse_algebra_embeds(self, spin1_sx, spin1_sx2):
        big = BooleanContext(spin1_sx.projectors)
        small = BooleanContext(spin1_sx2.projectors)
        for q in small.atoms:
            dominated = [p for p in big.atoms if projector_leq(p, q, 1e-9)]
            assert max_abs(q - sum(dominated)) < 1e-9


class TestCoarseValue:
    def test_identity_and_constant(self, spin1_sx):
        lattice = CoarseGrainingLattice(spin1_sx)
        finest = Partition.of([(0,), (1,), (2,)])
        ident = lattice.arrow(finest)
        for i in range(3):
            assert ident.value_at(i) == float(i)
        one_block = Partition.of([(0, 1, 2)])
        const = lattice.arrow(one_block)
        assert all(const.value_at(i) == 0.0 for i in range(3))

    def test_square_collapse(self, spin1_sx):
        lattice = CoarseGrainingLattice(spin1_sx)
        arrow = lattice.arrow(Partition.of([(0, 2), (1,)]))
        assert arrow.value_at(0) == arrow.value_at(2) == 0.0
        assert arrow.value_at(1) == 1.0


class TestLattice:
    def test_object_counts(self, spin1_sx):
        assert len(CoarseGrainingLattice(spin1_sx, Mode.WITH_CONSTANTS).objects) == bell_number(3)
        assert len(CoarseGrainingLattice(spin1_sx, Mode.WITHOUT_CONSTANTS).objects) == bell_number(3) - 1

    def test_operator_eigenvalues_are_block_positions(self, spin1_sx):
        lattice = CoarseGrainingLattice(spin1_sx)
        op = lattice.operator_at(Partition.of([(0, 2), (1,)]))
        assert op.k == 2
        assert op.eigenvalues == pytest.approx((0.0, 1.0))

    def test_unknown_object_rejected(self, spin1_sx):
        lattice = CoarseGrainingLattice(spin1_sx, Mode.WITHOUT_CONSTANTS)
        with pytest.raises(InputError):
            lattice.operator_at(Partition.of([(0, 1, 2)]))

    def test_hom_direction(self, spin1_sx):
        lattice = CoarseGrainingLattice(spin1_sx)
        coarse = Partition.of([(0, 1, 2)])
        fine = Partition.of([(0,), (1,), (2,)])
        assert coarse.coarsens(fine) and not fine.coarsens(coarse)
        assert lattice.arrow_between(coarse, fine).codomain_size == 1
        with pytest.raises(InputError, match="does not coarsen"):
            lattice.arrow_between(fine, coarse)

    def test_arrow_between_composes(self):
        a = decompose(np.diag([0.0, 1.0, 2.0, 3.0]))
        lattice = CoarseGrainingLattice(a)
        fine = Partition.of([(0,), (1,), (2,), (3,)])
        mid = Partition.of([(0, 1), (2,), (3,)])
        coarse = Partition.of([(0, 1), (2, 3)])
        f1 = lattice.arrow_between(mid, fine)
        f2 = lattice.arrow_between(coarse, mid)
        direct = lattice.arrow_between(coarse, fine)
        composed = compose(f1, f2)
        assert composed.partition == direct.partition
        for i in range(4):
            assert composed.value_at(i) == direct.value_at(i)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_arrows_match_owner_map(self, k):
        # the representative at `fine` has eigenvalue j on fine's block j,
        # which the connecting arrow sends to the coarse block holding it
        a = decompose(np.diag(np.arange(k, dtype=float)))
        lattice = CoarseGrainingLattice(a)
        for p in lattice.objects:
            assert lattice.arrow(p) == canonical_graining(a, p)
        for coarse, fine in itertools.product(lattice.objects, repeat=2):
            if not coarse.coarsens(fine):
                continue
            owner = [next(pos for pos, c in enumerate(coarse.blocks) if set(b) <= set(c)) for b in fine.blocks]
            arrow = lattice.arrow_between(coarse, fine)
            assert arrow.base is lattice.operator_at(fine)
            assert [arrow.value_at(j) for j in range(fine.n_blocks)] == [float(x) for x in owner]
            assert arrow.to == tuple(owner)

    def test_arrow_matrix_consistency(self, spin1_sx):
        # the connecting arrow applied as a value map reproduces the
        # coarse representative operator
        lattice = CoarseGrainingLattice(spin1_sx)
        fine = Partition.of([(0,), (1,), (2,)])
        coarse = Partition.of([(0, 2), (1,)])
        arrow = lattice.arrow_between(coarse, fine)
        fine_op = lattice.operator_at(fine)
        rebuilt = apply_function(fine_op, lambda x: arrow.value_at(int(round(x))))
        assert max_abs(rebuilt.matrix - lattice.operator_at(coarse).matrix) < 1e-9


class TestTwoValuedHom:
    def test_values_by_membership(self, spin1_sz):
        ctx = BooleanContext(spin1_sz.projectors)
        chi = TwoValuedHom(ctx, 1)
        assert chi.value([1]) == 1
        assert chi.value([0, 2]) == 0
        assert chi.value([0, 1, 2]) == 1
        for bad in ([7], ["a"], [1.0], [True]):
            with pytest.raises(InputError):
                chi.value(bad)
        assert chi.value_projector(ctx.element([1, 2])) == 1
        assert chi.value_projector(ctx.element([0])) == 0

    def test_bad_atom_rejected(self, spin1_sz):
        ctx = BooleanContext(spin1_sz.projectors)
        with pytest.raises(InputError):
            TwoValuedHom(ctx, 3)

    @pytest.mark.parametrize("atom", [0.5, -1, 2, "a", True])
    def test_non_index_atom_rejected(self, atom):
        # a 2-atom context: 2 is one past the last atom
        ctx = BooleanContext(decompose(np.diag([0.0, 1.0])).projectors)
        with pytest.raises(InputError):
            TwoValuedHom(ctx, atom)

    def test_unit_is_true_for_every_atom(self):
        ctx = BooleanContext(decompose(np.diag([0.0, 1.0])).projectors)
        for atom in range(2):
            assert TwoValuedHom(ctx, atom).value([0, 1]) == 1

    def test_restrict_to_trivial(self, spin1_sz):
        ctx = BooleanContext(spin1_sz.projectors)
        trivial = BooleanContext(decompose(np.eye(3)).projectors)
        for atom in range(3):
            chi = restrict_hom(TwoValuedHom(ctx, atom), trivial)
            assert chi.chosen_atom == 0

    def test_restrict_spin1(self, spin1_sz):
        # Sz eigenvalue +s restricts to the s^2 atom of the squared
        # observable's context
        sz2 = apply_function(spin1_sz, lambda x: x * x)
        big = BooleanContext(spin1_sz.projectors)
        small = BooleanContext(sz2.projectors)
        chi = restrict_hom(TwoValuedHom(big, 2), small)
        assert projector_leq(spin1_sz.projectors[2], small.atoms[chi.chosen_atom], 1e-9)
        assert chi.chosen_atom == 1

    def test_restrict_rejects_non_subalgebra(self, spin1_sz, spin1_sx):
        big = BooleanContext(spin1_sz.projectors)
        other = BooleanContext(spin1_sx.projectors)
        with pytest.raises(NotSubalgebraError):
            restrict_hom(TwoValuedHom(big, 0), other)

    def test_restriction_contravariant_chain(self):
        a = decompose(np.diag([0.0, 1.0, 2.0, 3.0]))
        w1 = BooleanContext(a.projectors)
        w2 = BooleanContext(apply_function(a, [0.0, 0.0, 1.0, 2.0]).projectors)
        w3 = BooleanContext(apply_function(a, [0.0, 0.0, 1.0, 1.0]).projectors)
        for atom in range(4):
            chi = TwoValuedHom(w1, atom)
            two_step = restrict_hom(restrict_hom(chi, w2), w3)
            one_step = restrict_hom(chi, w3)
            assert two_step.chosen_atom == one_step.chosen_atom


class TestIndicatorNaturality:
    def test_spin1(self, spin1_sx):
        report = check_indicator_naturality(spin1_sx)
        assert report.ok
        assert report.checks > 0

    def test_trivial(self):
        assert check_indicator_naturality(decompose(np.eye(2))).ok

    def test_random(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(dim, 4) + 1))
            assert check_indicator_naturality(rand_operator(rng, dim, k)).ok


class TestDerivedContexts:
    """Contexts built from an operator's eigenprojectors, or from block
    sums of a context's atoms, are not checked a second time."""

    @pytest.fixture
    def resolution_checks(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return check(*args)

        check = contexts._check_resolution
        monkeypatch.setattr(contexts, "_check_resolution", counting)
        return calls

    def test_no_check_after_the_operators(self, resolution_checks, spin1_sx, spin1_sx2, spin1_sz):
        rng = np.random.default_rng(5)
        a = rand_operator(rng, 6, 5)
        poset = SubalgebraPoset(BooleanContext(a.projectors))
        assert len(resolution_checks) == 1
        check_indicator_naturality(a)
        search_global_section([spin1_sx, spin1_sx2, spin1_sz])
        for w in poset.nodes:
            poset.node_context(w)
        assert len(resolution_checks) == 1
        with pytest.raises(InputError, match="atoms 0 and 1 are not orthogonal"):
            BooleanContext([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        assert len(resolution_checks) == 2

    def test_same_reports_as_checked_contexts(self, monkeypatch):
        rng = np.random.default_rng(29)
        ops = [rand_operator(rng, int(rng.integers(k, 7)), k) for k in (1, 2, 3, 4, 5) for _ in range(2)]
        u = rand_unitary(rng, 5)
        families = []
        for _ in range(4):
            a, group = rand_related_operator(rng, u, 5)
            families.append([a] + [rand_related_operator(rng, u, 5, group)[0] for _ in range(3)])
        derived = [check_indicator_naturality(a) for a in ops]
        sections = [search_global_section(family) for family in families]
        monkeypatch.setattr(BooleanContext, "_of_checked", classmethod(lambda cls, atoms, tol: cls(atoms, tol)))
        for a, got in zip(ops, derived):
            want = check_indicator_naturality(a)
            assert (got.checks, got.violations) == (want.checks, want.violations)
        assert sections == [search_global_section(family) for family in families]


class TestDetectRelations:
    def test_square_pair(self, spin1_sx, spin1_sx2):
        rels = detect_relations([spin1_sx, spin1_sx2])
        assert len(rels) == 1
        r = rels[0]
        assert (r.source, r.target) == (0, 1)
        # both extreme indices square onto the upper fiber
        assert r.table == (1, 0, 1)

    def test_no_relation(self, spin1_sx, spin1_sz):
        assert detect_relations([spin1_sx, spin1_sz]) == ()

    def test_identity_pair(self, spin1_sx):
        rels = detect_relations([spin1_sx, spin1_sx])
        tables = {(r.source, r.target): r.table for r in rels}
        assert tables[(0, 1)] == (0, 1, 2)
        assert tables[(1, 0)] == (0, 1, 2)

    def test_matches_reconstruction(self):
        # the tables read the overlap links directly; the oracle
        # reconstructs each target on the source's eigenspaces and reads
        # the index of each value back
        related = 0
        for seed in range(60):
            rng = np.random.default_rng([23, seed])
            dim = int(rng.integers(2, 7))
            u = rand_unitary(rng, dim)
            a, group = rand_related_operator(rng, u, 6)
            family = [a] + [rand_related_operator(rng, u, 6, group)[0] for _ in range(int(rng.integers(1, 4)))]
            want = {}
            for i, j in itertools.permutations(range(len(family)), 2):
                g = reconstructed_function_of(family[j], family[i])
                if g is not None:
                    want[(i, j)] = tuple(family[j].eigenvalue_index(g[x], 1e-8) for x in range(family[i].k))
            got = detect_relations(family)
            assert {(r.source, r.target): r.table for r in got} == want
            assert [(r.source, r.target) for r in got] == sorted(want)
            related += len(want)
        assert related > 50


class TestGlobalSection:
    def test_single_operator(self, spin1_sx):
        section = search_global_section([spin1_sx])
        assert section is not None
        assert section.choices == (0,)
        assert section.verify()

    def test_functionally_closed_triple(self, spinh_sz, spinh_sx):
        szsq = apply_function(spinh_sz, lambda x: x * x)
        family = [spinh_sz, spinh_sx, szsq]
        section = search_global_section(family)
        assert section is not None
        assert section.verify()
        assert section_ok_independent(family, section)
        # lexicographically least: both free members pick index 0
        assert section.choices[:2] == (0, 0)

    def test_declared_relation_checked(self, spin1_sx, spin1_sx2):
        ok = search_global_section([spin1_sx, spin1_sx2], declared=[(0, 1, (1, 0, 1))])
        assert ok is not None
        with pytest.raises(InputError):
            search_global_section([spin1_sx, spin1_sx2], declared=[(0, 1, (0, 0, 1))])

    def test_section_respects_relations(self, spin1_sx, spin1_sx2):
        section = search_global_section([spin1_sx, spin1_sx2])
        assert section is not None
        idx_sx, idx_sq = section.choices
        expected = 1 if idx_sx in (0, 2) else 0
        assert idx_sq == expected

    def test_contradictory_family_has_no_section(self, ks18):
        family = ks_operator_family(ks18.family)
        assert len(family) == 27
        section = search_global_section(family)
        assert section is None

    def test_permutation_invariance(self, ks18):
        family = ks_operator_family(ks18.family)
        rng = np.random.default_rng(7)
        order = list(range(len(family)))
        rng.shuffle(order)
        assert search_global_section([family[i] for i in order]) is None

    def test_section_feeds_partial_valuation(self, spinh_sz, spinh_sx):
        szsq = apply_function(spinh_sz, lambda x: x * x)
        family = [spinh_sz, spinh_sx, szsq]
        section = search_global_section(family)
        v = PartialValuation.explicit(list(zip(family, section.choices)))
        for op, idx in zip(family, section.choices):
            assert v.locate(op) == pytest.approx(op.eigenvalues[idx])

    def test_verify_rejects_broken_choice(self, spin1_sx, spin1_sx2):
        rels = detect_relations([spin1_sx, spin1_sx2])
        bad = SectionAssignment((0, 0), rels)
        assert not bad.verify()

    def test_empty_family(self):
        section = search_global_section([])
        assert section is not None and section.choices == ()

    def test_context_operators_of_ks18_have_no_section(self, ks18):
        # no context operator is a function of another, so no relation
        # is detected; the rays the contexts share rule out every choice
        family = [context_operator(c) for c in ks18.family.contexts]
        assert detect_relations(family) == ()
        assert search_global_section(family) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ks18_subfamily_section_is_consistent(self, ks18, n):
        family = [context_operator(c) for c in ks18.family.contexts[:n]]
        section = search_global_section(family)
        assert section is not None
        PartialValuation.explicit(list(zip(family, section.choices)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_explicit_accepts_every_section(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        u = rand_unitary(rng, dim)
        a, group = rand_related_operator(rng, u, dim)
        family = [a] + [rand_related_operator(rng, u, dim, group)[0] for _ in range(int(rng.integers(1, 4)))]
        section = search_global_section(family)
        if section is not None:
            assert section.verify()
            PartialValuation.explicit(list(zip(family, section.choices)))
