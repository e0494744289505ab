import itertools
import time

import numpy as np
import pytest

from sievelogic import (
    DEFAULT_TOL,
    BooleanContext,
    ContextFamily,
    DualSectionWitness,
    InputError,
    StillColorableError,
    context_from_vectors,
    context_operator,
    from_spectral_data,
    minimal_uncolorable_subfamily,
    search_dual_section,
    section_to_partial_valuation,
)
from sievelogic.ks_search import MAX_SHARED_UNIONS, _compile, _pair_blocks
from sievelogic.sieves import Partition, _bits
from sievelogic.spectral import _check_resolution, _overlaps
from helpers import (
    brute_atom_masks,
    brute_dual_section,
    brute_shared_classes,
    rand_basis_context,
    rand_unitary,
    witness_ok_independent,
)


def diag_context(bits):
    # orthonormal basis grouped by a 0/1 mask is not needed; each call
    # builds the standard basis context of the given dimension
    return BooleanContext([np.diag([1.0 if i == j else 0.0 for i in range(bits)]) for j in range(bits)])


def class_of(fam, ci, subset):
    """The class id of one subset-sum projector of one context."""
    return next(
        cid for cid, entries in fam.index.items() if (ci, frozenset(subset)) in entries
    )


def pair_family(a, b, tol=DEFAULT_TOL):
    """Two two-atom contexts whose first atoms are a and b."""
    eye = np.eye(2)
    return ContextFamily(
        [BooleanContext([a, eye - a], tol), BooleanContext([b, eye - b], tol)], tol
    )


class TestFingerprint:
    def test_equal_up_to_noise(self):
        a = np.diag([1.0, 0.0])
        b = a + np.array([[1e-9, 1e-10], [-1e-10, -1e-9]])
        # b is a projector only to about 1e-9, so identify at 1e-8
        fam = pair_family(a, b, DEFAULT_TOL.replace(tau_proj=1e-8))
        assert class_of(fam, 0, [0]) == class_of(fam, 1, [0])

    def test_distinct(self):
        fam = pair_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert class_of(fam, 0, [0]) != class_of(fam, 1, [0])
        assert class_of(fam, 0, [0]) == class_of(fam, 1, [1])

    def test_negative_zero_and_phase(self):
        # one ray with a complex phase, entered with +0.0 and with -0.0
        # real parts off the diagonal
        a = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        b = np.array([[0.5, complex(-0.0, -0.5)], [complex(-0.0, 0.5), 0.5]])
        fam = pair_family(a, b)
        assert len(fam.index) == 4
        assert class_of(fam, 0, [0]) == class_of(fam, 1, [0])
        assert class_of(fam, 0, [1]) == class_of(fam, 1, [1])


class TestContextFamily:
    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ContextFamily([diag_context(2), diag_context(3)])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ContextFamily([])

    def test_shared_projectors_ks18(self, ks18):
        shared = ks18.family.index
        # every ray of the 18-ray family occurs in exactly two contexts,
        # as does its rank-3 complement; identity and zero occur in all 9
        by_count = {}
        for entries in shared.values():
            by_count[len(entries)] = by_count.get(len(entries), 0) + 1
        assert by_count[9] == 2
        assert by_count[2] == 36
        assert len(shared) == 38

    def test_projector_on_grid_midpoint_is_shared(self):
        # sin(2t)/2 sits halfway between two points of a 1e-6 grid, so
        # the same ray entered as v and as 3.7 v must not be split by
        # rounding: classes 0, I, P_v and P_u are all shared
        theta = 0.5 * np.arcsin(2 * 123456.5e-6)
        v = np.array([np.cos(theta), np.sin(theta)])
        u = np.array([-np.sin(theta), np.cos(theta)])
        fam = ContextFamily([context_from_vectors([v, u]), context_from_vectors([3.7 * v, u])])
        assert len(fam.index) == 4
        assert class_of(fam, 0, [0]) == class_of(fam, 1, [0])

    def test_identification_reads_tau_proj(self):
        a = np.diag([1.0, 0.0])
        c, s = np.cos(1e-6), np.sin(1e-6)
        b = np.outer([c, s], [c, s])
        tight = pair_family(a, b)
        # only zero and the identity are shared; the atoms are not
        assert sorted(len(entries[0][1]) for entries in tight.index.values()) == [0, 2]
        loose = pair_family(a, b, DEFAULT_TOL.replace(tau_proj=1e-5))
        assert class_of(loose, 0, [0]) == class_of(loose, 1, [0])

    def test_single_context_shares_nothing(self):
        fam = ContextFamily([diag_context(3)])
        assert fam.index == {}

    def test_union_of_blocks_shared_beyond_tau(self):
        # each atom of the second context is within tau of the first's,
        # but the sums over {0, 1} differ by 2 eps > tau at entry (2, 2);
        # the union of two blocks is still shared
        eps, tol = 0.6e-3, DEFAULT_TOL.replace(tau_proj=1e-3)
        a = [np.diag(np.eye(4)[i]) for i in range(4)]
        c = [np.diag(v) for v in ([1, 0, eps, 0], [0, 1, eps, 0], [0, 0, 1 - eps, 0], [0, 0, -eps, 1])]
        fam = ContextFamily([BooleanContext(a, tol), BooleanContext(c, tol)], tol)
        assert np.abs(a[0] + a[1] - c[0] - c[1]).max() > tol.tau_proj
        assert class_of(fam, 0, [0, 1]) == class_of(fam, 1, [0, 1])
        assert len(fam.index) == 16

    def test_identity_shared_beyond_tau(self):
        # both contexts resolve the identity within tau, but their sums
        # differ by 2 eps > tau; the atoms are not shared, zero and the
        # identity are
        eps, tol = 0.6e-3, DEFAULT_TOL.replace(tau_proj=1e-3)
        fam = ContextFamily(
            [
                BooleanContext([np.diag([1 + eps, 0]), np.diag([0, 1 + eps])], tol),
                BooleanContext([np.diag([1 - eps, 0]), np.diag([0, 1 - eps])], tol),
            ],
            tol,
        )
        assert class_of(fam, 0, [0, 1]) == class_of(fam, 1, [0, 1])
        assert class_of(fam, 0, []) == class_of(fam, 1, [])
        assert len(fam.index) == 2

    def test_union_count_guard(self):
        # two equal 20-atom contexts: 2^20 - 2 unions, refused before the
        # first is built
        assert 2**20 - 2 > MAX_SHARED_UNIONS
        with pytest.raises(InputError, match="1048574 shared block unions"):
            ContextFamily([diag_context(20), diag_context(20)])


class TestSearch:
    def test_single_context_colorable(self):
        fam = ContextFamily([diag_context(4)])
        w = search_dual_section(fam)
        assert w is not None
        assert w.chosen == (0,)
        assert w.verify(fam)

    def test_two_disjoint_bases_colorable(self):
        c1 = diag_context(2)
        c2 = context_from_vectors([[1.0, 1.0], [1.0, -1.0]])
        fam = ContextFamily([c1, c2])
        w = search_dual_section(fam)
        assert w is not None
        assert w.verify(fam)
        assert witness_ok_independent(fam, w)

    def test_overlapping_bases_constrained(self):
        # contexts sharing the ray e0: choosing it in one forces it in
        # the other
        c1 = diag_context(3)
        c2 = context_from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
        fam = ContextFamily([c1, c2])
        w = search_dual_section(fam)
        assert w is not None
        assert w.verify(fam)
        v1 = w.value(0, [0])
        v2 = w.value(1, [0])
        assert v1 == v2

    def test_ks18_uncolorable(self, ks18):
        start = time.monotonic()
        assert search_dual_section(ks18.family) is None
        assert time.monotonic() - start < 1.0

    def test_ks18_permutation_invariant(self, ks18):
        rng = np.random.default_rng(3)
        order = list(range(len(ks18.family.contexts)))
        rng.shuffle(order)
        fam = ContextFamily([ks18.family.contexts[i] for i in order], ks18.family.tol)
        assert search_dual_section(fam) is None

    def test_random_small_families_colorable(self):
        # generic bases share no projectors, so a witness always exists
        rng = np.random.default_rng(17)
        for dim in (2, 3):
            contexts = [rand_basis_context(rng, dim) for _ in range(4)]
            fam = ContextFamily(contexts)
            w = search_dual_section(fam)
            assert w is not None
            assert w.verify(fam)
            assert witness_ok_independent(fam, w)

    def test_witness_is_lexicographically_least(self):
        fam = ContextFamily([diag_context(3), diag_context(3)])
        w = search_dual_section(fam)
        assert w.chosen == (0, 0)


class TestWitness:
    def test_value_and_table(self):
        fam = ContextFamily([diag_context(3), diag_context(3)])
        w = DualSectionWitness((1, 1))
        assert w.value(0, [1, 2]) == 1
        assert w.value(0, [0, 2]) == 0
        for bad in (["a"], [1.0], [True]):
            with pytest.raises(InputError):
                w.value(0, bad)
        table = w.value_table(fam)
        assert set(table.values()) <= {0, 1}

    def test_verify_rejects_conflict(self):
        fam = ContextFamily([diag_context(3), diag_context(3)])
        assert not DualSectionWitness((0, 1)).verify(fam)
        assert DualSectionWitness((2, 2)).verify(fam)

    def test_verify_rejects_bad_shape(self):
        fam = ContextFamily([diag_context(3)])
        assert not DualSectionWitness((3,)).verify(fam)
        assert not DualSectionWitness((0, 0)).verify(fam)


class TestMinimize:
    def test_ks18_is_already_minimal(self, ks18):
        sub = minimal_uncolorable_subfamily(ks18.family)
        assert len(sub) == 9

    def test_redundant_context_removed(self, ks18):
        padded = ContextFamily(
            list(ks18.family.contexts) + [ks18.family.contexts[0]], ks18.family.tol
        )
        sub = minimal_uncolorable_subfamily(padded)
        assert len(sub) == 9

    def test_colorable_family_rejected(self):
        fam = ContextFamily([diag_context(4)])
        with pytest.raises(StillColorableError):
            minimal_uncolorable_subfamily(fam)


class TestSectionToValuation:
    def test_round_trip(self):
        c1 = diag_context(3)
        c2 = context_from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
        fam = ContextFamily([c1, c2])
        w = search_dual_section(fam)
        v = section_to_partial_valuation(w, fam)
        for ci, ctx in enumerate(fam.contexts):
            op = context_operator(ctx)
            assert v.locate(op) == pytest.approx(float(w.chosen[ci]))

    def test_bad_witness_rejected(self):
        fam = ContextFamily([diag_context(3), diag_context(3)])
        with pytest.raises(InputError):
            section_to_partial_valuation(DualSectionWitness((0, 1)), fam)

    def test_context_operator_spectrum(self):
        op = context_operator(diag_context(4))
        assert op.k == 4
        assert op.eigenvalues == pytest.approx((0.0, 1.0, 2.0, 3.0))

    def test_context_operator_matches_checked_constructor(self, ks18):
        # the context checked its atoms; the operator wraps them unchecked
        for ctx in ks18.family.contexts:
            op = context_operator(ctx)
            want = from_spectral_data(range(ctx.n_atoms), ctx.atoms)
            assert op.eigenvalues == want.eigenvalues
            assert all(np.array_equal(g, w) for g, w in zip(op.projectors, want.projectors, strict=True))
            _check_resolution(op.projectors, DEFAULT_TOL, "spectral projector")


RAYS3 = np.array(
    [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
        (0, 1, 1), (0, 1, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
    ],
    dtype=float,
)


def ks18_variant(ks18, seed, change):
    """The bundled 18-ray family rotated by a random unitary and shuffled,
    with one basis dropped or added again in another atom order."""
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, 4)
    bases = [[u @ a @ u.conj().T for a in ctx.atoms] for ctx in ks18.family.contexts]
    j = int(rng.integers(len(bases)))
    if change == "drop":
        del bases[j]
    elif change == "dup":
        bases.append([bases[j][i] for i in rng.permutation(4)])
    return ContextFamily([BooleanContext(bases[i]) for i in rng.permutation(len(bases))])


def dim3_family(seed, n):
    """Orthogonal pairs of 13 small integer rays, each completed to a
    basis by the cross product, rotated and with atoms shuffled; the
    contexts share rays."""
    rng = np.random.default_rng(seed)
    pairs = [
        (a, b) for a, b in itertools.combinations(RAYS3, 2) if a @ b == 0
    ]
    u = rand_unitary(rng, 3)
    contexts = []
    for k in rng.choice(len(pairs), size=n, replace=False):
        a, b = pairs[k]
        basis = [a, b, np.cross(a, b)]
        contexts.append(context_from_vectors([u @ basis[i] for i in rng.permutation(3)]))
    return ContextFamily(contexts)


def coarse_family(ks18, seed):
    """The 18-ray family plus three of its bases coarsened, one pair of
    atoms or two pairs merged, so contexts of 4, 3 and 2 atoms share
    blocks of one and of two rays."""
    rng = np.random.default_rng(seed)
    contexts = list(ks18.family.contexts)
    for n, ci in enumerate(rng.choice(len(contexts), size=3, replace=False)):
        a = [contexts[ci].atoms[i] for i in rng.permutation(4)]
        contexts.append(BooleanContext([a[0] + a[1], a[2], a[3]] if n % 2 else [a[0] + a[1], a[2] + a[3]]))
    return ContextFamily([contexts[i] for i in rng.permutation(len(contexts))])


def shared_occurrences(fam):
    """The shared classes of a family as sorted occurrence lists, free of
    class ids."""
    return sorted(
        sorted((ci, tuple(sorted(s))) for ci, s in entries)
        for entries in fam.index.values()
    )


def assert_minimal(fam):
    sub = minimal_uncolorable_subfamily(fam)
    position = {id(c): j for j, c in enumerate(fam.contexts)}
    kept = [position[id(c)] for c in sub.contexts]
    assert kept == sorted(set(kept))
    assert shared_occurrences(sub) == shared_occurrences(ContextFamily(sub.contexts, sub.tol))
    assert brute_dual_section(sub) is None
    for drop in range(len(sub)):
        rest = ContextFamily([c for j, c in enumerate(sub.contexts) if j != drop], sub.tol)
        assert brute_dual_section(rest) is not None
    return sub


class TestSecondRoute:
    @pytest.mark.parametrize(
        "kind, seed",
        [("ks18", 0)] + [("drop", s) for s in range(6)] + [("dim3", s) for s in range(12)] + [("coarse", s) for s in range(3)],
    )
    def test_shared_classes_match_brute(self, ks18, kind, seed):
        make = {
            "ks18": lambda: ks18.family,
            "drop": lambda: ks18_variant(ks18, seed, "drop"),
            "dim3": lambda: dim3_family(seed, 4 + seed % 5),
            "coarse": lambda: coarse_family(ks18, seed),
        }
        fam = make[kind]()
        assert shared_occurrences(fam) == brute_shared_classes(fam)
        # the family pass partitions both contexts of every pair as the
        # overlap pass does, in either order
        pairs = _pair_blocks(fam.contexts, fam.tol.tau_proj)
        ops = [context_operator(ctx) for ctx in fam.contexts]
        for ci, cj in itertools.combinations(range(len(fam)), 2):
            blocks = pairs.get((ci, cj)) or [((1 << ops[ci].k) - 1, (1 << ops[cj].k) - 1)]
            assert Partition.of(_bits(ia) for ia, _ in blocks) == _overlaps(ops[ci], ops[cj], fam.tol)[0]
            assert Partition.of(_bits(jc) for _, jc in blocks) == _overlaps(ops[cj], ops[ci], fam.tol)[0]

    @pytest.mark.parametrize("kind, seed", [("ks18", 0)] + [("drop", s) for s in range(6)] + [("dim3", s) for s in range(12)])
    def test_atom_masks_match_plain_loops(self, ks18, kind, seed):
        """The packed tables of `_compile` give each atom the same class
        masks as one OR per class and atom."""
        make = {
            "ks18": lambda: ks18.family,
            "drop": lambda: ks18_variant(ks18, seed, "drop"),
            "dim3": lambda: dim3_family(seed, 4 + seed % 5),
        }
        fam = make[kind]()
        assert len(fam.index) > 2
        classes = [[(ci, sum(1 << i for i in subset)) for ci, subset in fam.index[cid]] for cid in sorted(fam.index)]
        assert fam._masks == brute_atom_masks([ctx.n_atoms for ctx in fam.contexts], classes)

    def test_atom_masks_edge_cases(self):
        """Two masks of one context in one class (both bits set for an
        atom in one of them only), contexts of 63 or more atoms (masks as
        Python ints), and a single context (no shared class)."""
        wide = (1 << 70) - 1
        cases = [
            ([3, 4], [[(0, 0), (1, 0)], [(0, 7), (1, 15)], [(0, 1), (0, 2), (1, 3)], [(0, 4), (1, 12)]]),
            ([71, 3, 2], [[(0, 0), (1, 0), (2, 0)], [(0, (1 << 71) - 1), (1, 7), (2, 3)], [(0, wide), (1, 3)], [(0, 1 << 69), (2, 1), (0, 2)]]),
            ([3], []),
        ]
        for sizes, classes in cases:
            assert _compile(sizes, classes) == brute_atom_masks(sizes, classes)

    @pytest.mark.parametrize("seed", range(6))
    def test_ks18_dropped_basis(self, ks18, seed):
        fam = ks18_variant(ks18, seed, "drop")
        w = search_dual_section(fam)
        assert w is not None
        assert w.chosen == brute_dual_section(fam)

    @pytest.mark.parametrize("seed", range(2))
    def test_ks18_duplicated_basis(self, ks18, seed):
        fam = ks18_variant(ks18, seed, "dup")
        assert search_dual_section(fam) is None
        assert brute_dual_section(fam) is None
        assert len(assert_minimal(fam)) == 9

    def test_ks18_shuffled_minimal(self, ks18):
        fam = ks18_variant(ks18, 7, None)
        assert brute_dual_section(fam) is None
        assert len(assert_minimal(fam)) == 9

    @pytest.mark.parametrize("seed", range(12))
    def test_dim3_shared_rays(self, seed):
        fam = dim3_family(seed, 4 + seed % 5)
        assert len(fam.index) > 2
        w = search_dual_section(fam)
        assert (None if w is None else w.chosen) == brute_dual_section(fam)

    def test_grid_midpoint_family(self):
        theta = 0.5 * np.arcsin(2 * 123456.5e-6)
        v = np.array([np.cos(theta), np.sin(theta)])
        u = np.array([-np.sin(theta), np.cos(theta)])
        fam = ContextFamily(
            [context_from_vectors([u, v]), context_from_vectors([3.7 * v, u])]
        )
        assert search_dual_section(fam).chosen == brute_dual_section(fam) == (0, 1)
