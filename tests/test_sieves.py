import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelogic import (
    DEFAULT_TOL,
    BaseMismatchError,
    Classification,
    CoarseGraining,
    GeneralizedValuation,
    InputError,
    Mode,
    Partition,
    Proposition,
    QuantumState,
    Sieve,
    admissible_partitions,
    all_partitions,
    bell_number,
    coarsenings_of,
    compose,
    covering_pairs,
    from_spectral_data,
    lattice_dot,
    prob,
    up_closure,
)
from sievelogic.sieves import _image, _images, _lattice, _mask_of, _pullback_table, _row_masks, mass_rows, subset_masses
from helpers import (
    brute_admissible,
    brute_classify,
    brute_coarsenings,
    brute_composite,
    brute_implies,
    brute_mass_sieve,
    brute_partitions,
    brute_pullback,
    brute_up_set,
    brute_up_sets,
)


class TestPartition:
    def test_canonical_block_order(self):
        p = Partition.of([[2, 0], [1]])
        assert p.blocks == ((0, 2), (1,))
        assert str(p) == "0,2|1"

    def test_constructors(self):
        assert Partition.discrete(3).blocks == ((0,), (1,), (2,))
        assert Partition.one_block(3).blocks == ((0, 1, 2),)

    def test_rejects_bad_cover(self):
        with pytest.raises(InputError):
            Partition.of([[0, 2]])
        with pytest.raises(InputError):
            Partition.of([[0], [0, 1]])
        with pytest.raises(InputError):
            Partition.of([])
        with pytest.raises(InputError, match="empty block in partition"):
            Partition.of([[0], [], [1, 2]])

    def test_block_of(self):
        p = Partition.of([[0, 2], [1]])
        assert [p.block_of(i) for i in range(3)] == [0, 1, 0]

    def test_coarsens_refines(self):
        fine = Partition.discrete(3)
        mid = Partition.of([[0, 2], [1]])
        top = Partition.one_block(3)
        assert mid.coarsens(fine) and top.coarsens(mid)
        assert mid.coarsens(fine) and not mid.coarsens(top)
        # reflexive, antisymmetric
        assert mid.coarsens(mid)
        assert not (mid.coarsens(top) and top.coarsens(mid))

    def test_merge_blocks(self):
        p = Partition.of([[0], [1], [2, 3]])
        merged = p.merge_blocks(Partition.of([[0, 2], [1]]))
        assert merged == Partition.of([[0, 2, 3], [1]])

    def test_format(self):
        p = Partition.of([[0, 2], [1]])
        assert p.format((-1.0, 0.0, 1.0), lambda v: f"{v:g}") == "{-1,1}|{0}"


class TestIndexMask:
    """The one reading of an index set as a bitmask."""

    @given(st.lists(st.integers(0, 70)))
    def test_matches_set_of_indices(self, indices):
        assert _mask_of(indices, 71, "atom") == sum(1 << i for i in set(indices))
        assert _mask_of(iter(indices), 71, "atom") == _mask_of(frozenset(indices), 71, "atom")

    def test_integer_like_accepted(self):
        assert _mask_of([np.int64(3), 1, 3], 4, "atom") == 0b1010

    @pytest.mark.parametrize("bad", [1.0, 1.7, "1", None, np.float64(2.0), True, np.True_])
    def test_rejected(self, bad):
        with pytest.raises(InputError, match=r"^atom index .* is not an integer$"):
            _mask_of([0, bad], 4, "atom")

    @pytest.mark.parametrize("bad", [-1, 4, 10**12, 10**20, np.int64(2**62)])
    def test_range_checked_before_the_shift(self, bad):
        # a huge index is refused, not shifted into a huge int
        with pytest.raises(InputError, match=r"^eigenvalue index outside 0\.\.3$"):
            _mask_of([0, bad], 4, "eigenvalue")


class TestEnumeration:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_partition_counts(self, k, count):
        assert len(all_partitions(k)) == count
        assert bell_number(k) == count

    def test_spectrum_past_the_limit_fails_fast(self):
        with pytest.raises(InputError, match=r"Bell\(10\) = 115975"):
            all_partitions(10)

    def test_bell_numbers_past_the_limit(self):
        assert [bell_number(k) for k in (7, 8, 9, 10, 11)] == [877, 4140, 21147, 115975, 678570]

    def test_admissible_modes(self):
        assert len(admissible_partitions(4, Mode.WITH_CONSTANTS)) == 15
        assert len(admissible_partitions(4, Mode.WITHOUT_CONSTANTS)) == 14
        assert len(admissible_partitions(1, Mode.WITHOUT_CONSTANTS)) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_coarsenings_match_brute_force(self, k):
        for p in all_partitions(k):
            assert set(coarsenings_of(p)) == brute_coarsenings(p)

    def test_coarsenings_of_rejects_a_partition_outside_the_lattice(self):
        # raw blocks out of canonical order: no bit of the lattice stands for it
        with pytest.raises(InputError, match="not a canonical partition"):
            coarsenings_of(Partition(((1,), (0,))))

    def test_covering_pairs_k3(self):
        edges = covering_pairs(3, Mode.WITH_CONSTANTS)
        # discrete covers the three pair partitions, each covers the top
        assert len(edges) == 6
        for fine, coarse in edges:
            assert coarse.coarsens(fine) and coarse != fine


class TestSieveConstruction:
    def test_rejects_non_up_closed(self):
        with pytest.raises(InputError):
            Sieve(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 2], [1]])])

    def test_rejects_inadmissible(self):
        with pytest.raises(InputError):
            Sieve(3, Mode.WITHOUT_CONSTANTS, [Partition.one_block(3)])

    def test_rejects_wrong_size(self):
        with pytest.raises(InputError):
            Sieve(3, Mode.WITH_CONSTANTS, [Partition.one_block(2)])

    def test_up_closure_matches_brute_force(self):
        seed = [Partition.of([[0, 2], [1], [3]])]
        s = up_closure(4, Mode.WITH_CONSTANTS, seed)
        expected = {q for q in all_partitions(4) if q.coarsens(seed[0])}
        assert s.partitions == frozenset(expected)

    def test_mode_mismatch_rejected(self):
        a = Sieve.totally_true(3, Mode.WITH_CONSTANTS)
        b = Sieve.totally_true(3, Mode.WITHOUT_CONSTANTS)
        with pytest.raises(BaseMismatchError):
            a.meet(b)
        c = Sieve.totally_true(2, Mode.WITH_CONSTANTS)
        with pytest.raises(BaseMismatchError):
            a.join(c)


class TestClassification:
    def test_totally_true_false(self):
        assert Sieve.totally_true(3, Mode.WITH_CONSTANTS).classify() is Classification.TOTALLY_TRUE
        assert Sieve.totally_false(3, Mode.WITH_CONSTANTS).classify() is Classification.TOTALLY_FALSE

    def test_minimally_true(self):
        s = Sieve(3, Mode.WITH_CONSTANTS, [Partition.one_block(3)])
        assert s.classify() is Classification.MINIMALLY_TRUE

    def test_intermediate(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 2], [1]])])
        assert s.classify() is Classification.INTERMEDIATE

    def test_empty_admissible_counts_as_false(self):
        # with one eigenvalue and constants excluded there are no stages
        s = Sieve(1, Mode.WITHOUT_CONSTANTS, [])
        assert s.classify() is Classification.TOTALLY_FALSE


def _sieves(k: int, mode: Mode):
    parts = sorted(admissible_partitions(k, mode))
    return st.sets(st.sampled_from(parts), max_size=len(parts)).map(
        lambda seed: up_closure(k, mode, seed)
    )


@st.composite
def sieve_triples(draw):
    k = draw(st.sampled_from([3, 4]))
    mode = draw(st.sampled_from([Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS]))
    strat = _sieves(k, mode)
    return draw(strat), draw(strat), draw(strat)


class TestHeytingLaws:
    @settings(max_examples=200, deadline=None)
    @given(sieve_triples())
    def test_lattice_laws(self, triple):
        s, r, q = triple
        assert s.meet(r) == r.meet(s)
        assert s.join(r) == r.join(s)
        assert s.meet(r.meet(q)) == s.meet(r).meet(q)
        assert s.join(r.join(q)) == s.join(r).join(q)
        assert s.meet(s.join(r)) == s
        assert s.join(s.meet(r)) == s

    @settings(max_examples=200, deadline=None)
    @given(sieve_triples())
    def test_distributivity(self, triple):
        s, r, q = triple
        assert s.meet(r.join(q)) == s.meet(r).join(s.meet(q))
        assert s.join(r.meet(q)) == s.join(r).meet(s.join(q))

    @settings(max_examples=200, deadline=None)
    @given(sieve_triples())
    def test_implication_adjunction(self, triple):
        s, r, q = triple
        imp = r.implies(q)
        assert s.meet(r).leq(q) == s.leq(imp)

    @settings(max_examples=200, deadline=None)
    @given(sieve_triples())
    def test_negation_laws(self, triple):
        s, _, _ = triple
        top = Sieve.totally_true(s.k, s.mode)
        assert s.join(s.neg()).leq(top)
        assert s.leq(s.neg().neg())
        assert s.neg() == s.neg().neg().neg()

    def test_excluded_middle_can_fail(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 2], [1]])])
        lem = s.join(s.neg())
        assert lem != Sieve.totally_true(3, Mode.WITH_CONSTANTS)

    def test_exhaustive_k3_adjunction(self):
        # every up-closed subset, all triples
        sieves = [Sieve(3, Mode.WITH_CONSTANTS, m) for m in brute_up_sets(3, Mode.WITH_CONSTANTS)]
        assert len(sieves) == 10
        for s, r, q in itertools.product(sieves, repeat=3):
            assert s.meet(r).leq(q) == s.leq(r.implies(q))


class TestPullback:
    def _graining(self, blocks, labels, k):
        return CoarseGraining(Partition.of(blocks), labels, base=None)

    def test_member_gives_principal(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 2], [1]])])
        f = self._graining([[0, 2], [1]], (1.0, 0.0), 3)
        assert s.pullback(f) == Sieve.totally_true(2, Mode.WITH_CONSTANTS)

    def test_non_member_pullback(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 1], [2]])])
        f = self._graining([[0, 2], [1]], (1.0, 0.0), 3)
        pulled = s.pullback(f)
        # only the codomain coarsenings whose composite lands in s survive
        assert pulled == Sieve(2, Mode.WITH_CONSTANTS, [Partition.one_block(2)])

    def test_functoriality(self):
        for seed in [[[0, 1], [2], [3]], [[0, 3], [1, 2]], [[0], [1], [2], [3]]]:
            s = up_closure(4, Mode.WITH_CONSTANTS, [Partition.of(seed)])
            f = self._graining([[0, 1], [2], [3]], (0.0, 1.0, 2.0), 4)
            g = self._graining([[0, 1], [2]], (0.0, 5.0), 3)
            fg = compose(f, g)
            assert s.pullback(fg) == s.pullback(f).pullback(g)

    def test_identity_pullback(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 1], [2]])])
        ident = self._graining([[0], [1], [2]], (0.0, 1.0, 2.0), 3)
        assert s.pullback(ident) == s


class TestCoarseGraining:
    def test_label_injectivity_required(self):
        with pytest.raises(InputError):
            CoarseGraining(Partition.of([[0], [1]]), (1.0, 1.0), base=None)
        with pytest.raises(InputError):
            CoarseGraining(Partition.of([[0], [1]]), (-0.0, 0.0), base=None)

    # NaN has no place in the codomain order: ranked by position it would
    # put 1.0 below 0.0, and two NaNs would pass the injectivity check
    @pytest.mark.parametrize("labels", [(1.0, float("nan"), 0.0), (float("nan"), 1.0, 0.0),
                                        (float("nan"), float("nan"), 0.0)])
    def test_nan_label_refused(self, labels):
        with pytest.raises(InputError, match="NaN"):
            CoarseGraining(Partition.discrete(3), labels, base=None)

    def test_infinite_labels_ranked(self):
        f = CoarseGraining(Partition.discrete(3), (float("inf"), float("-inf"), 0.0), base=None)
        assert f.to == (2, 0, 1)

    def test_value_and_image(self):
        f = CoarseGraining(Partition.of([[0, 2], [1]]), (1.0, 0.0), base=None)
        assert f.value_at(0) == 1.0 and f.value_at(1) == 0.0
        # label 0.0 sits on block {1}, so codomain index 0 is that block
        assert f.image_indices([1]) == frozenset([0])
        assert f.image_indices([0, 2]) == frozenset([1])
        assert f.codomain_size == 2

    def test_composite_partition(self):
        f = CoarseGraining(Partition.of([[0], [1], [2]]), (0.0, 1.0, 2.0), base=None)
        grouping = Partition.of([[0, 2], [1]])
        assert f.composite_partition(grouping) == Partition.of([[0, 2], [1]])


class TestDot:
    def test_lattice_shape_k3(self):
        text = lattice_dot(3, Mode.WITH_CONSTANTS)
        assert text.count("[label=") == 5
        assert text.count("->") == 6
        assert text == lattice_dot(3, Mode.WITH_CONSTANTS)

    def test_sieve_highlight(self):
        s = up_closure(3, Mode.WITH_CONSTANTS, [Partition.of([[0, 2], [1]])])
        text = lattice_dot(3, Mode.WITH_CONSTANTS, sieve=s)
        assert text.count("filled") == 2

    def test_sieve_base_mismatch(self):
        s = Sieve.totally_true(3, Mode.WITH_CONSTANTS)
        with pytest.raises(BaseMismatchError):
            lattice_dot(4, Mode.WITH_CONSTANTS, sieve=s)

    def test_label_count_must_match(self):
        with pytest.raises(InputError, match="need 3 eigenvalue labels, got 2"):
            lattice_dot(3, Mode.WITH_CONSTANTS, values=[1.0, 2.0])


# -- second route for the bitmask kernel ---------------------------------

MODES = [Mode.WITH_CONSTANTS, Mode.WITHOUT_CONSTANTS]


@st.composite
def up_sets(draw, k, mode):
    """Any up-set at k <= 4 (from the full enumeration); at k >= 5 the
    brute up-closure of a random seed."""
    if k <= 4:
        return draw(st.sampled_from(brute_up_sets(k, mode)))
    parts = sorted(admissible_partitions(k, mode))
    seed = draw(st.sets(st.sampled_from(parts), max_size=4))
    return brute_up_set(k, mode, seed)


@st.composite
def up_set_pairs(draw):
    k = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(MODES))
    return k, mode, draw(up_sets(k, mode)), draw(up_sets(k, mode))


@st.composite
def grainings(draw, k):
    """A coarse-graining of a k-element base with random fibers and
    distinct labels in random order."""
    fibers = draw(st.sampled_from(all_partitions(k)))
    labels = draw(st.permutations([float(x) for x in range(fibers.n_blocks)]))
    return CoarseGraining(fibers, tuple(labels), base=None)


@st.composite
def graining_cases(draw):
    """An up-set and a coarse-graining of its base with random fibers and
    distinct labels in random order, so the codomain index order need not
    follow block order."""
    k = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(MODES))
    return k, mode, draw(up_sets(k, mode)), draw(grainings(k))


class TestKernelSecondRoute:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_up_set_round_trips(self, k, mode):
        admissible = sorted(admissible_partitions(k, mode))
        for members in brute_up_sets(k, mode):
            s = Sieve(k, mode, members)
            assert s.partitions == members
            assert list(s) == sorted(members)
            assert len(s) == len(members)
            assert [p in s for p in admissible] == [p in members for p in admissible]
            assert s.classify() is brute_classify(k, mode, members)
            assert s.neg().partitions == brute_implies(k, mode, members, frozenset())
            assert s == Sieve(k, mode, sorted(members)) and hash(s) == hash(Sieve(k, mode, members))

    @settings(max_examples=300, deadline=None)
    @given(up_set_pairs())
    def test_binary_operations(self, case):
        k, mode, a, b = case
        sa, sb = Sieve(k, mode, a), Sieve(k, mode, b)
        assert sa.meet(sb).partitions == a & b
        assert sa.join(sb).partitions == a | b
        assert sa.implies(sb).partitions == brute_implies(k, mode, a, b)
        assert sa.neg().partitions == brute_implies(k, mode, a, frozenset())
        assert sa.leq(sb) == (a <= b)
        assert (sa == sb) == (a == b)
        assert sa.classify() is brute_classify(k, mode, a)

    @settings(max_examples=300, deadline=None)
    @given(graining_cases())
    def test_pullback(self, case):
        k, mode, s, f = case
        values = [f.value_at(i) for i in range(k)]
        pulled = Sieve(k, mode, s).pullback(f)
        assert (pulled.k, pulled.mode) == (f.codomain_size, mode)
        assert pulled.partitions == brute_pullback(s, mode, values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.sampled_from(MODES), st.data())
    def test_constructor_validates(self, k, mode, data):
        parts = sorted(admissible_partitions(k, mode))
        chosen = frozenset(data.draw(st.sets(st.sampled_from(parts), max_size=6))) if parts else frozenset()
        if chosen == brute_up_set(k, mode, chosen):
            assert Sieve(k, mode, chosen).partitions == chosen
        else:
            with pytest.raises(InputError, match="not up-closed"):
                Sieve(k, mode, chosen)
        foreign = data.draw(st.sampled_from(
            [Partition.discrete(k + 1)] + ([Partition.one_block(k)] if mode is Mode.WITHOUT_CONSTANTS else [])
        ))
        with pytest.raises(InputError, match="not admissible"):
            Sieve(k, mode, chosen | {foreign})

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from(MODES),
        st.sampled_from(["state", "threshold"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_state_evaluate_matches_block_masses(self, k, mode, kind, seed, data):
        rng = np.random.default_rng(seed)
        w = rng.random(k) * (rng.random(k) < 0.7)
        if not w.any():
            w[int(rng.integers(k))] = 1.0
        w = w / w.sum()
        eye = np.eye(k)
        op = from_spectral_data(np.arange(k, dtype=float), [np.outer(eye[i], eye[i]) for i in range(k)])
        state = QuantumState.density(np.diag(w))
        if kind == "state":
            nu, r = GeneralizedValuation.from_state(state, mode), 1.0
        else:
            r = float(rng.uniform(0.05, 1.0))
            nu = GeneralizedValuation.threshold(state, r, mode)
        weights = [prob(state, p) for p in op.projectors]
        delta = data.draw(st.sets(st.integers(0, k - 1)))
        got = nu.evaluate(Proposition(op, frozenset(delta))).partitions
        assert got == brute_mass_sieve(k, mode, weights, delta, r - DEFAULT_TOL.tau_one)


@st.composite
def graining_chains(draw):
    """Two composable coarse-grainings f, g of a base of at most six
    elements, and an up-set over that base."""
    k = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(MODES))
    f = draw(grainings(k))
    return k, mode, draw(up_sets(k, mode)), f, draw(grainings(f.codomain_size))


class TestIndexMapSecondRoute:
    """`CoarseGraining.to` against brute computations from `value_at`."""

    @settings(max_examples=300, deadline=None)
    @given(graining_chains(), st.data())
    def test_index_map(self, case, data):
        k, mode, s, f, g = case
        values = [f.value_at(i) for i in range(k)]
        codomain = sorted(set(values))
        assert list(f.to) == [codomain.index(v) for v in values]
        subset = data.draw(st.sets(st.integers(0, k - 1)))
        assert f.image_indices(subset) == frozenset(codomain.index(values[i]) for i in subset)
        grouping = data.draw(st.sampled_from(all_partitions(f.codomain_size)))

        def group(i):
            return grouping.block_of(codomain.index(values[i]))

        joined = {frozenset(j for j in range(k) if group(j) == group(i)) for i in range(k)}
        assert f.composite_partition(grouping) == Partition.of(joined)
        fg = compose(f, g)
        assert [fg.value_at(i) for i in range(k)] == [g.value_at(f.to[i]) for i in range(k)]
        sieve = Sieve(k, mode, s)
        assert sieve.pullback(fg) == sieve.pullback(f).pullback(g)

    def test_image_rejects_outside_base(self):
        f = CoarseGraining(Partition.of([[0, 2], [1]]), (1.0, 0.0), base=None)
        for bad in (-1, 3, 10**12):
            with pytest.raises(InputError, match=r"^base index outside 0\.\.2$"):
                f.image_indices([bad])
        with pytest.raises(InputError, match="^base index 1.5 is not an integer$"):
            f.image_indices([1.5])
        with pytest.raises(InputError, match="^base index True is not an integer$"):
            f.image_indices([True])
        assert f.image_indices([np.int64(2), 2]) == frozenset([1])


class TestKernelClosure:
    """Masks the kernel builds are wrapped unchecked, so each producer
    must return an up-closed set (brute up-closure as the oracle)."""

    @settings(max_examples=300, deadline=None)
    @given(up_set_pairs(), st.data())
    def test_kernel_masks_are_up_closed(self, case, data):
        k, mode, a, b = case
        sa, sb = Sieve(k, mode, a), Sieve(k, mode, b)
        weights = data.draw(st.lists(st.floats(-1e-9, 1.0), min_size=k, max_size=k))
        delta = data.draw(st.sets(st.integers(0, k - 1)))
        # a cutoff equal to the mass of some index set puts partitions
        # right at the boundary, where a negative weight would matter
        cut = data.draw(st.sets(st.integers(0, k - 1), min_size=1))
        cutoff = sum(weights[i] for i in sorted(cut))
        built = [
            sa.meet(sb), sa.join(sb), sa.implies(sb), sa.neg(),
            sa.pullback(data.draw(grainings(k))),
            Sieve._of_mask(k, mode, _row_masks(mass_rows(k, mode, subset_masses(weights), cutoff))[sum(1 << i for i in delta)]),
        ]
        for s in built:
            assert brute_up_set(s.k, mode, s.partitions) == s.partitions


class TestMassRowsSecondRoute:
    """The image table against `_image` per entry, and the sieve kernel
    against `brute_mass_sieve` per subset, at the largest routine sizes."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k", range(1, 8))
    def test_image_table(self, k, mode):
        images = _images(k, mode)
        parts = sorted(admissible_partitions(k, mode))
        assert images.shape == (1 << k, len(parts))
        assert images.tolist() == [[_image(p, s) for p in parts] for s in range(1 << k)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k", [6, 7])
    def test_kernel(self, k, mode):
        rng = np.random.default_rng([k, mode is Mode.WITH_CONSTANTS, 91])
        # dyadic weights add exactly in any order, so a cutoff equal to a
        # subset's mass sits exactly on the boundary; the one negative
        # weight, allowed down to -tau_psd, must count as 0
        weights = [float(w) for w in rng.integers(0, 9, size=k) / 32]
        weights[int(rng.integers(k))] = -DEFAULT_TOL.tau_psd / 2
        clamped = [max(w, 0.0) for w in weights]
        chosen = [i for i in range(k) if rng.random() < 0.5] or [0]
        for cutoff in (sum(clamped[i] for i in chosen), sum(clamped) - DEFAULT_TOL.tau_one):
            rows = mass_rows(k, mode, subset_masses(weights), cutoff)
            parts = sorted(admissible_partitions(k, mode))
            for s, row in enumerate(rows.tolist()):
                delta = [i for i in range(k) if s >> i & 1]
                assert frozenset(p for p, bit in zip(parts, row) if bit) == brute_mass_sieve(k, mode, clamped, delta, cutoff)


class TestLatticeSecondRoute:
    """The code-built lattice against `brute_partitions`: the partitions
    and their codes, the up masks and the pullback tables, at every
    k <= 7 in both modes."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_all_partitions(self, k):
        assert all_partitions(k) == brute_partitions(k)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k", range(1, 8))
    def test_up_masks(self, k, mode):
        lattice = _lattice(k, mode)
        parts = brute_admissible(k, mode)
        assert list(lattice.parts) == parts
        assert lattice.index == {p: i for i, p in enumerate(parts)}
        assert lattice.codes == {tuple(p.block_of(i) for i in range(k)): j for j, p in enumerate(parts)}
        assert list(lattice.codes.values()) == list(range(len(parts)))
        assert lattice.full == (1 << len(parts)) - 1
        top = Partition.one_block(k)
        assert lattice.one_block == (1 << parts.index(top) if top in parts else 0)
        for p, up in zip(parts, lattice.up):
            assert {q for j, q in enumerate(parts) if up >> j & 1} == brute_coarsenings(p) & set(parts)

    @pytest.mark.parametrize("k,mode,pairs", [
        (7, Mode.WITH_CONSTANTS, 19302), (8, Mode.WITH_CONSTANTS, 167894),
        (7, Mode.WITHOUT_CONSTANTS, 18425), (8, Mode.WITHOUT_CONSTANTS, 163754),
    ])
    def test_pair_counts(self, k, mode, pairs):
        assert sum(up.bit_count() for up in _lattice(k, mode).up) == pairs

    @pytest.mark.parametrize("k", range(1, 8))
    def test_pullback_tables(self, k):
        """Every surjective index map at k <= 6; at k = 7 the canonical
        map of every partition (its block positions)."""
        if k <= 6:
            maps = [to for to in itertools.product(range(k), repeat=k) if set(to) == set(range(max(to) + 1))]
        else:
            maps = [tuple(p.block_of(i) for i in range(k)) for p in brute_partitions(k)]
        index = {mode: {p: i for i, p in enumerate(brute_admissible(k, mode))} for mode in MODES}
        for to in maps:
            composites = [(q, brute_composite(to, q)) for q in brute_partitions(max(to) + 1)]
            for mode in MODES:
                expected = [index[mode][c] for q, c in composites if mode is Mode.WITH_CONSTANTS or q.n_blocks > 1]
                assert _pullback_table(to, mode) == tuple(expected)

    def test_tables_validate_no_partition(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a table build validated a Partition")

        monkeypatch.setattr(Partition, "_validate", refuse)
        for mode in MODES:
            for k in range(1, 8):
                lattice = _lattice.__wrapped__(k, mode)
                _images.__wrapped__(k, mode)
                for to in lattice.codes:
                    _pullback_table.__wrapped__(to, mode)


@st.composite
def presheaf_cases(draw):
    k = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(MODES))
    return k, mode, draw(up_sets(k, mode)), draw(up_sets(k, mode)), draw(grainings(k))


class TestPresheafLaws:
    """Pullback along a coarse-graining is a Heyting algebra map, and the
    identity graining pulls every sieve back to itself (k <= 6)."""

    @settings(max_examples=200, deadline=None)
    @given(presheaf_cases())
    def test_pullback_commutes_with_heyting_operations(self, case):
        k, mode, a, b, f = case
        sa, sb = Sieve(k, mode, a), Sieve(k, mode, b)
        pa, pb = sa.pullback(f), sb.pullback(f)
        assert sa.meet(sb).pullback(f) == pa.meet(pb)
        assert sa.join(sb).pullback(f) == pa.join(pb)
        assert sa.implies(sb).pullback(f) == pa.implies(pb)
        assert sa.neg().pullback(f) == pa.neg()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(MODES), st.data())
    def test_identity_pullback(self, k, mode, data):
        s = Sieve(k, mode, data.draw(up_sets(k, mode)))
        identity = CoarseGraining(Partition.discrete(k), tuple(float(i) for i in range(k)), base=None)
        assert identity.to == tuple(range(k))
        assert s.pullback(identity) == s
