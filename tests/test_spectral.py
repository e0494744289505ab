from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievelogic import (
    DEFAULT_TOL,
    BooleanContext,
    CoarseGrainingLattice,
    DegenerateClusteringError,
    GeneralizedValuation,
    InputError,
    Mode,
    NotHermitianError,
    QuantumState,
    Tolerances,
    Partition,
    ZeroNormError,
    all_partitions,
    apply_function,
    check_functional_rule,
    check_naturality,
    cluster_values,
    coarse_grained_projector,
    common_coarsening,
    decompose,
    from_spectral_data,
    is_function_of,
    prob,
    value_fibers,
)
from sievelogic import spectral
from sievelogic.spectral import _check_resolution, max_abs, projector_leq
from helpers import (
    brute_value_fibers,
    infimum_oracle,
    pairwise_common_coarsening,
    pairwise_linked,
    rand_operator,
    rand_projector_matrix,
    rand_related_operator,
    rand_unitary,
)


_E0 = np.diag([1.0, 0.0])

# Projector lists that fail to resolve the identity, with the text the
# error names: checked by contexts and by spectral data alike.
MALFORMED_RESOLUTIONS = [
    ("non-Hermitian", [np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])], "Hermitian"),
    ("non-idempotent", [np.eye(2) / 2, np.eye(2) / 2], "idempotent"),
    ("zero", [np.zeros((2, 2)), np.eye(2)], "zero"),
    ("overlapping", [_E0, np.ones((2, 2)) / 2], "orthogonal"),
    ("not summing to I", [_E0], "identity"),
    ("mixed shapes", [_E0, np.diag([0.0, 1.0, 0.0])], "dimension"),
]


class TestResolutionCheck:
    @pytest.mark.parametrize("mats, text", [c[1:] for c in MALFORMED_RESOLUTIONS],
                             ids=[c[0] for c in MALFORMED_RESOLUTIONS])
    def test_context_and_spectral_data_reject(self, mats, text):
        with pytest.raises(InputError, match=text):
            BooleanContext(mats)
        with pytest.raises(InputError, match=text):
            from_spectral_data(np.arange(len(mats), dtype=float), mats)


_E = [np.diag(row).astype(float) for row in np.eye(3)]

# The first failure of a resolution, in checking order: per index
# (Hermitian, idempotent, nonzero), then per pair, then the sum.
FIRST_FAILURES = [
    ("non-Hermitian", [_E[0], np.array([[0, 0, 0], [1, 1, 0], [0, 0, 0]]), _E[2]], "atom 1 is not Hermitian"),
    ("non-idempotent before a later non-Hermitian",
     [_E[0], _E[1] * 2, np.array([[0, 0, 0], [0, 0, 0], [1, 0, 1]])], "atom 1 is not idempotent"),
    ("zero", [_E[0] + _E[1], np.zeros((3, 3)), _E[2]], "atom 1 is zero"),
    ("first non-orthogonal pair", [_E[0], _E[1], _E[1], _E[0]], "atoms 0 and 3 are not orthogonal"),
    ("bad sum", [_E[0], _E[1]], "atoms do not sum to the identity"),
]


class TestResolutionFirstFailure:
    @pytest.mark.parametrize("mats, text", [c[1:] for c in FIRST_FAILURES],
                             ids=[c[0] for c in FIRST_FAILURES])
    def test_exact_text(self, mats, text):
        with pytest.raises(InputError) as err:
            BooleanContext(mats)
        assert str(err.value) == text

    def test_spectral_projector_noun(self):
        with pytest.raises(InputError) as err:
            from_spectral_data([0.0, 1.0, 2.0, 3.0], [_E[0], _E[1], _E[1], _E[0]])
        assert str(err.value) == "spectral projectors 0 and 3 are not orthogonal"


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.tau_one == 1e-9
        assert DEFAULT_TOL.eps_group == 1e-8

    def test_replace(self):
        t = DEFAULT_TOL.replace(tau_one=1e-6)
        assert t.tau_one == 1e-6 and t.tau_proj == 1e-9

    def test_from_mapping_rejects_unknown(self):
        with pytest.raises(InputError):
            Tolerances().replace(**{"tau_bogus": 1.0})

    def test_replace_rejects_unknown(self):
        with pytest.raises(InputError):
            DEFAULT_TOL.replace(tau_bogus=1.0)

    @pytest.mark.parametrize("field,value", [
        ("tau_one", float("nan")), ("tau_proj", -1.0), ("eps_group", float("inf")),
    ])
    def test_rejects_non_finite_and_negative(self, field, value):
        with pytest.raises(InputError, match=field):
            Tolerances(**{field: value})
        with pytest.raises(InputError, match=field):
            DEFAULT_TOL.replace(**{field: value})


    @pytest.mark.parametrize("value", ["abc", None, True, [1e-9]])
    def test_rejects_non_real_and_bool(self, value):
        with pytest.raises(InputError, match="tau_one"):
            Tolerances(tau_one=value)
        with pytest.raises(InputError, match="tau_one"):
            DEFAULT_TOL.replace(tau_one=value)


class TestClustering:
    def test_groups_by_gap(self):
        groups = cluster_values([0.0, 1.0, 1.0 + 5e-9, 2.0], 1e-8)
        assert groups == [[0], [1, 2], [3]]

    def test_chain_diameter_rejected(self):
        # pairwise gaps under eps but total spread over it
        with pytest.raises(DegenerateClusteringError):
            cluster_values([0.0, 0.6e-8, 1.2e-8], 1e-8)


class TestDecompose:
    def test_diagonal(self):
        a = decompose(np.diag([2.0, -1.0, 2.0]))
        assert a.eigenvalues == (-1.0, 2.0)
        assert a.k == 2
        assert np.allclose(a.projectors[1], np.diag([1.0, 0.0, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_merges_near_degenerate(self):
        a = decompose(np.diag([1.0, 1.0 + 1e-12]))
        assert a.k == 1

    def test_merges_everything_eps_group_allows(self):
        # the merged mean moves the matrix by 2.5e-9, more than tau_rec
        a = decompose(np.diag([0.0, 5e-9, 1.0]))
        assert a.k == 2
        assert a.eigenvalues == pytest.approx((2.5e-9, 1.0), abs=1e-18)

    def test_rejects_eigensolver_that_does_not_reconstruct(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0] + 1e-6, eigh(h)[1]))
        with pytest.raises(InputError, match="reconstruct"):
            decompose(np.diag([0.0, 1.0, 2.0]))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(1, dim + 1))
            a = rand_operator(rng, dim, k)
            assert a.k == k
            rebuilt = sum(v * p for v, p in zip(a.eigenvalues, a.projectors))
            assert max_abs(rebuilt - a.matrix) < 1e-9
            assert max_abs(sum(a.projectors) - np.eye(dim)) < 1e-9

    def test_spectral_data_validation(self):
        eye = np.eye(2)
        with pytest.raises(InputError):
            from_spectral_data((0.0, 0.0), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(InputError):
            from_spectral_data((0.0,), (eye * 0.5,))
        with pytest.raises(InputError):
            # projectors overlap
            from_spectral_data((0.0, 1.0), (eye, np.diag([1.0, 0.0])))

    @pytest.mark.parametrize("values", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
    def test_non_finite_eigenvalues_rejected(self, values):
        with pytest.raises(InputError, match="finite"):
            from_spectral_data(values, (_E0, np.eye(2) - _E0))

    @pytest.mark.parametrize("values, message", [
        (["x", 1.0], "eigenvalue 'x' at index 0 is not a finite real"),
        ([0.0, 1j], "eigenvalue 1j at index 1 is not a finite real"),
        ([0.0, 10**400], "at index 1 is not a finite real"),
        (5, "expected a sequence of eigenvalues, got 5"),
        (None, "expected a sequence of eigenvalues, got None"),
    ])
    def test_non_real_eigenvalues_rejected(self, values, message):
        with pytest.raises(InputError, match=message):
            spectral.SpectralOperator(values, (_E0, np.eye(2) - _E0))

    def test_eigenvalue_index(self):
        a = decompose(np.diag([0.5, -0.5]))
        assert a.eigenvalue_index(0.5, 1e-8) == 1
        with pytest.raises(InputError):
            a.eigenvalue_index(0.4, 1e-8)


class TestApplyFunction:
    def test_square_merges_fibers(self, spin1_sx):
        b = apply_function(spin1_sx, lambda x: x * x)
        assert b.k == 2
        assert abs(b.eigenvalues[0]) < 1e-9 and abs(b.eigenvalues[1] - 1.0) < 1e-9

    def test_value_map_forms(self, spin1_sx):
        by_callable = apply_function(spin1_sx, lambda x: x * x)
        by_sequence = apply_function(spin1_sx, [1.0, 0.0, 1.0])
        by_mapping = apply_function(spin1_sx, {0: 1.0, 1: 0.0, 2: 1.0})
        assert max_abs(by_callable.matrix - by_sequence.matrix) < 1e-9
        assert max_abs(by_sequence.matrix - by_mapping.matrix) < 1e-9

    def test_fibers_canonical(self, spin1_sx):
        cg = value_fibers(spin1_sx, lambda x: x * x)
        assert cg.partition.blocks == ((0, 2), (1,))
        assert len(cg.labels) == 2

    def test_partial_map_rejected(self, spin1_sx):
        with pytest.raises(InputError):
            apply_function(spin1_sx, {0: 1.0})

    def test_key_outside_spectrum_rejected(self, spinh_sz):
        with pytest.raises(InputError, match="index 7 outside 0..1"):
            apply_function(spinh_sz, {0: 1.0, 1: 2.0, 7: 3.0})

    @pytest.mark.parametrize("f, key", [
        ({0: 5.0, True: 7.0}, "True"),
        ({0: 5.0, 1.0: 7.0}, "1.0"),
    ])
    def test_key_not_an_integer_rejected(self, spinh_sz, f, key):
        with pytest.raises(InputError, match=f"^value map index {key} is not an integer$"):
            value_fibers(spinh_sz, f)

    def test_numpy_integer_keys_accepted(self, spinh_sz):
        cg = value_fibers(spinh_sz, {np.int64(0): 5.0, np.int64(1): 7.0})
        assert cg.labels == (5.0, 7.0) and cg.to == (0, 1)

    @pytest.mark.parametrize("f, index", [
        (["x", 1.0], 0),
        ([1j, 2.0], 0),
        (lambda v: v * 1j, 0),
        ([1.0, np.complex128(2.0)], 1),
        ([1.0, np.nan], 1),
        ({0: np.inf, 1: 2.0}, 0),
        (lambda v: float("inf") if v > 0 else v, 1),
    ])
    def test_non_real_or_non_finite_values_rejected(self, spinh_sz, f, index):
        with pytest.raises(InputError, match=f"at index {index} is not a finite real"):
            apply_function(spinh_sz, f)

    def test_noise_lands_in_one_fiber(self, spin1_sx):
        # squaring -0.9999999999999999 and 1.0000000000000002 must merge
        b = apply_function(spin1_sx, lambda x: x * x)
        assert b.k == 2


@lru_cache(maxsize=None)
def diagonal_operator(k: int):
    return from_spectral_data([float(i) for i in range(k)], [np.diag(row) for row in np.eye(k)])


@st.composite
def clustered_value_maps(draw):
    """A value map on k <= 7 indices: each index takes one of a few
    centers (in any order, -0.0 among them), moved by a small offset of
    up to twice eps_group, so that some fibers cluster and some chains
    are too wide."""
    k = draw(st.integers(1, 7))
    centers = draw(st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]) | st.floats(-10.0, 10.0, allow_subnormal=False),
        min_size=1, max_size=k,
    ))
    eps = DEFAULT_TOL.eps_group
    offsets = st.sampled_from([0.0, -0.0, eps / 3, -eps / 3, eps / 2, -eps / 2, eps, 2 * eps])
    return [draw(st.sampled_from(centers)) + draw(offsets) for _ in range(k)]


class TestValueFibersSecondRoute:
    """`value_fibers` against `brute_value_fibers`, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(clustered_value_maps())
    @example([-0.0])
    @example([-0.0, 2.0, -0.0, 0.0])
    def test_matches_union_find(self, values):
        a = diagonal_operator(len(values))
        try:
            fibers, labels, to = brute_value_fibers(values, DEFAULT_TOL.eps_group)
        except DegenerateClusteringError:
            with pytest.raises(DegenerateClusteringError):
                value_fibers(a, values)
            return
        cg = value_fibers(a, values)
        assert cg.partition == fibers and cg.to == to and cg.base is a
        assert all(type(v) is float for v in cg.labels)
        assert np.array(cg.labels).tobytes() == np.array(labels).tobytes()
        b = apply_function(a, values)
        assert np.array(b.eigenvalues).tobytes() == np.array(sorted(labels)).tobytes()


def fiber_clusters():
    """Clusters of 1 to 12 values on which float sums round: repeated
    0.1 (the mean of three is not 0.1), signed zeros, 1e16 with offsets
    below its spacing, and spreads within eps_group."""
    eps = DEFAULT_TOL.eps_group
    for n in range(1, 13):
        yield [0.1] * n
        yield [-0.0] * n
        yield [(-0.0, 0.0)[i % 2] for i in range(n)]
        yield [1e16] + [1.0] * (n - 1)
        yield [1e16 + (-1.0) ** i * 2.0 for i in range(n)] + [0.5]
        yield [0.7 + i * eps / 12 for i in range(n)]
        yield [-3.3 + (-1.0) ** i * eps / 3 for i in range(n)]


def seeded_value_maps(seed: int, k: int) -> list[float]:
    """A value map on k indices: a few centers (signed zeros, repeated
    0.1, 1e16, small integers), each index on one of them plus an
    offset within or just beyond eps_group."""
    rng = np.random.default_rng([seed, k])
    eps = DEFAULT_TOL.eps_group
    pool = [0.0, -0.0, 0.1, 1.0, -2.5, 1e16, 1e16 + 2.0, float(rng.integers(-9, 10))]
    centers = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, k + 1)))]
    offsets = [0.0, -0.0, 0.0, eps / 3, -eps / 3, eps / 2, 2 * eps]
    return [centers[int(rng.integers(len(centers)))] + offsets[int(rng.integers(len(offsets)))] for _ in range(k)]


def label_bytes(labels) -> bytes:
    return np.array(labels, dtype=float).tobytes()


class TestFiberCache:
    """`value_fibers` keeps one (partition, labels, to) record per value
    tuple and eps_group; every call still checks its map and answers
    based at its own operator."""

    def setup_method(self):
        spectral._fibers.cache_clear()

    def test_signed_zero_keys(self):
        a = diagonal_operator(3)
        for values in ((0.0, -0.0, 1.0), (-0.0, 0.0, 1.0), (-0.0, -0.0, 1.0)):
            cg = value_fibers(a, values)
            fibers, labels, to = brute_value_fibers(values, DEFAULT_TOL.eps_group)
            assert (cg.partition, cg.to) == (fibers, to)
            assert label_bytes(cg.labels) == label_bytes(labels) == label_bytes([0.0, 1.0])
        assert spectral._fibers.cache_info().hits == 2
        # at 8 values and more the label is np.mean's: still 0.0
        for values in ((-0.0,) * 9, (0.0,) + (-0.0,) * 8):
            cg = value_fibers(diagonal_operator(9), values)
            assert label_bytes(cg.labels) == label_bytes(brute_value_fibers(values, DEFAULT_TOL.eps_group)[1])

    def test_base_is_each_callers_operator(self):
        rng = np.random.default_rng(41)
        a, b = rand_operator(rng, 4, 3), rand_operator(rng, 5, 3)
        f = [2.0, 0.0, 2.0]
        first, second = value_fibers(a, f), value_fibers(b, f)
        assert first.base is a and second.base is b
        assert (first.partition, first.labels, first.to) == (second.partition, second.labels, second.to)
        assert apply_function(b, f).dim == 5

    def test_eps_group_is_part_of_the_key(self):
        a = diagonal_operator(3)
        values = [0.0, 0.3, 1.0]
        assert value_fibers(a, values).partition == Partition.discrete(3)
        loose = value_fibers(a, values, Tolerances(eps_group=0.5))
        assert loose.partition == Partition.of([[0, 1], [2]])
        assert label_bytes(loose.labels) == label_bytes([0.15, 1.0])
        assert value_fibers(a, values).partition == Partition.discrete(3)

    def test_degenerate_chain_raises_on_every_call(self):
        a = diagonal_operator(3)
        chain = [0.0, 0.6e-8, 1.2e-8]
        for _ in range(2):
            with pytest.raises(DegenerateClusteringError):
                value_fibers(a, chain)

    def test_checks_every_call(self):
        a = diagonal_operator(2)
        value_fibers(a, [0.0, 1.0])
        for bad in ([0.0, float("nan")], [0.0], {0: 1.0}):
            with pytest.raises(InputError):
                value_fibers(a, bad)

    def test_matches_union_find_twice(self):
        seen = 0
        for k in range(1, 9):
            a = diagonal_operator(k)
            for seed in range(150):
                values = seeded_value_maps(seed, k)
                try:
                    want = brute_value_fibers(values, DEFAULT_TOL.eps_group)
                except DegenerateClusteringError:
                    for _ in range(2):
                        with pytest.raises(DegenerateClusteringError):
                            value_fibers(a, values)
                    continue
                for _ in range(2):
                    cg = value_fibers(a, values)
                    assert (cg.partition, cg.to) == (want[0], want[2])
                    assert label_bytes(cg.labels) == label_bytes(want[1]), values
                    assert cg.base is a
                seen += 1
        assert seen >= 1000

    def test_bounded(self):
        assert spectral._fibers.cache_info().maxsize is not None


class TestFiberValue:
    """`_fiber_value` is `np.mean`, bit for bit."""

    def test_matches_numpy_mean(self):
        for values in fiber_clusters():
            got = spectral._fiber_value(values)
            assert type(got) is float
            assert np.array([got]).tobytes() == np.array([np.mean(values)]).tobytes(), values

    def test_ten_fold_eigenvalue(self):
        # ten raw eigenvalues within eps_group: a left-to-right sum of
        # these rounds differently from numpy's eight partial sums
        m = np.diag([0.7 + j * 1e-10 for j in range(10)] + [2.0])
        raw = np.linalg.eigh(spectral.require_hermitian(spectral.as_matrix(m), DEFAULT_TOL.tau_herm))[0]
        a = decompose(m)
        assert a.k == 2
        assert np.array(a.eigenvalues[:1]).tobytes() == np.array([np.mean(raw[:10])]).tobytes()


def near_hermitian_projectors(s: float = 0.45e-9) -> list[np.ndarray]:
    """The diagonal unit projectors of dimension 3, each moved off
    Hermitian by 2s (E + s (E X - X E), X = ones - I): within tau_herm
    one by one, while sum j P_j is Hermitian only within 4s."""
    x = np.ones((3, 3)) - np.eye(3)
    return [e + s * (e @ x - x @ e) for e in _E]


class TestDerivedOperators:
    """Operators derived from checked ones are wrapped unchecked; the
    checked constructor on the same data is the oracle."""

    def test_coarse_operator_matches_checked_constructor(self):
        rng = np.random.default_rng(21)
        for k in range(1, 7):
            a = rand_operator(rng, k + int(rng.integers(0, 2)), k)
            for p in all_partitions(k):
                labels = 1.5 * rng.permutation(p.n_blocks) - 2.0
                for jitter in (0.0, DEFAULT_TOL.eps_group / 3):  # clustered: each fiber within eps_group
                    f = [float(labels[p.block_of(i)] + jitter * rng.integers(-1, 2)) for i in range(k)]
                    fibers, means, _ = brute_value_fibers(f, DEFAULT_TOL.eps_group)
                    assert fibers == p
                    order = np.argsort(means)
                    want = from_spectral_data(
                        [means[j] for j in order],
                        [sum(a.projectors[i] for i in p.blocks[j]) for j in order],
                    )
                    got = apply_function(a, f)
                    assert got.eigenvalues == want.eigenvalues
                    assert all(np.array_equal(g, w) for g, w in zip(got.projectors, want.projectors, strict=True))
                    assert all(not g.flags.writeable for g in got.projectors)
                    _check_resolution(got.projectors, DEFAULT_TOL, "spectral projector")

    def test_audits_run_no_resolution_check(self, monkeypatch, spin1_sx, spin1_psi):
        nu = GeneralizedValuation.from_state(spin1_psi, Mode.WITH_CONSTANTS)
        calls = []

        def counting(*args):
            calls.append(args)
            return _check_resolution(*args)

        monkeypatch.setattr(spectral, "_check_resolution", counting)
        for f in ([0.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]):
            assert check_naturality(nu, spin1_sx, f).ok
            assert check_functional_rule(nu, spin1_sx, f, [0, 2]).ok
        assert calls == []
        from_spectral_data(spin1_sx.eigenvalues, spin1_sx.projectors)
        assert len(calls) == 1

    def test_near_hermitian_projectors_load_and_coarsen(self):
        projectors = near_hermitian_projectors()
        m = sum(j * p for j, p in enumerate(projectors))
        assert max_abs(m - m.conj().T) > DEFAULT_TOL.tau_herm
        a = from_spectral_data((0.0, 0.001, 0.002), projectors)
        b = apply_function(a, [0.0, 1.0, 2.0])
        assert b.eigenvalues == (0.0, 1.0, 2.0)
        nu = GeneralizedValuation.from_state(QuantumState.vector([1.0, 0.0, 0.0]), Mode.WITH_CONSTANTS)
        assert check_naturality(nu, a, [0.0, 1.0, 2.0]).ok
        lattice = CoarseGrainingLattice(a)
        assert [lattice.operator_at(p).k for p in lattice.objects] == [p.n_blocks for p in lattice.objects]


class TestIsFunctionOf:
    def test_positive(self, spin1_sx, spin1_sx2):
        g = is_function_of(spin1_sx2, spin1_sx)
        assert g is not None
        values = [g[i] for i in range(spin1_sx.k)]
        assert abs(values[0] - 1.0) < 1e-9
        assert abs(values[1]) < 1e-9
        assert abs(values[2] - 1.0) < 1e-9

    def test_negative(self, spin1_sx, spin1_sx2):
        assert is_function_of(spin1_sx, spin1_sx2) is None

    def test_identity(self, spin1_sx):
        g = is_function_of(spin1_sx, spin1_sx)
        assert g is not None
        for i, v in enumerate(spin1_sx.eigenvalues):
            assert abs(g[i] - v) < 1e-9

    def test_unrelated(self, spin1_sx, spin1_sz):
        assert is_function_of(spin1_sx, spin1_sz) is None

    def test_loose_tau_proj_still_links_every_projector(self):
        # at tau_proj = 0.45 no projector of a overlaps Q_0 of c by more
        # than tau_proj; Q_0 is linked to the largest overlap instead
        tol = Tolerances(tau_proj=0.45)
        rng = np.random.default_rng(2)
        a, c = [
            from_spectral_data((0.0, 1.0, 2.0), [np.outer(u[:, i], u[:, i].conj()) for i in range(3)], tol)
            for u in (rand_unitary(rng, 3), rand_unitary(rng, 3))
        ]
        assert all(max_abs(p @ c.projectors[0]) <= 0.45 for p in a.projectors)
        g = is_function_of(c, a, tol)
        assert g is not None and sorted(g.values()) == [0.0, 1.0, 2.0]
        assert common_coarsening(a, c, tol).n_blocks == 3

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, dim + 1))
            a = rand_operator(rng, dim, k)
            f = [float(rng.integers(0, 2)) for _ in range(k)]
            b = apply_function(a, f)
            g = is_function_of(b, a)
            assert g is not None
            for i in range(k):
                assert abs(g[i] - f[i]) < 1e-9


class TestBatchedOverlapsSecondRoute:
    """`_linked` overlaps a projector with an operator's whole stack of
    projectors in one batched product, and `_overlaps` stacks once per
    call; one product per pair gives the same links, the same first link
    per projector and the same partition."""

    # at tau_proj = 2 no overlap of two projectors exceeds it, so every
    # projector is linked through the argmax fallback
    @pytest.mark.parametrize("tau_proj", [1e-9, 0.3, 2.0])
    def test_batched_equals_pairwise(self, tau_proj):
        tol = Tolerances(tau_proj=tau_proj)
        rng = np.random.default_rng([17, round(tau_proj * 10)])
        linked = fallbacks = 0
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            u = rand_unitary(rng, dim)
            a, group = rand_related_operator(rng, u, 5)
            c, _ = rand_related_operator(rng, u, dim, group)
            for x, y in ((a, c), (c, a)):
                stack = np.stack(x.projectors)
                for q in y.projectors:
                    assert spectral._linked(stack, q, tol) == pairwise_linked(x, q, tau_proj)
                    linked += 1
                    fallbacks += all(max_abs(p @ q) <= tau_proj for p in x.projectors)
                r, links = spectral._overlaps(x, y, tol)
                assert links == [pairwise_linked(x, q, tau_proj)[0] for q in y.projectors]
                assert r == common_coarsening(x, y, tol) == pairwise_common_coarsening(x, y, tol)
        if tau_proj > 1:
            assert fallbacks == linked


class TestCoarseGrainedProjector:
    def test_trivial_full(self, spin1_sx):
        p = coarse_grained_projector(spin1_sx, lambda x: x * x, [0, 1, 2])
        assert max_abs(p - np.eye(3)) < 1e-9

    def test_example(self, spin1_sx):
        # squaring sends both extreme eigenvalues onto one fiber
        p = coarse_grained_projector(spin1_sx, lambda x: x * x, [2])
        expected = spin1_sx.projector([0, 2])
        assert max_abs(p - expected) < 1e-9

    def test_index_guards(self, spin1_sx):
        # an index set is read as a bitmask: non-integral indices are
        # rejected, not truncated or skipped
        square = lambda x: x * x  # noqa: E731
        for bad in ([0.5], [1, "2"]):
            with pytest.raises(InputError, match="is not an integer"):
                coarse_grained_projector(spin1_sx, square, bad)
            with pytest.raises(InputError, match="is not an integer"):
                spin1_sx.projector(bad)
        for bad in ([-1], [3], [0, 10**12], [10**20]):
            with pytest.raises(InputError, match="eigenvalue index outside 0..2"):
                coarse_grained_projector(spin1_sx, square, bad)
            with pytest.raises(InputError, match="eigenvalue index outside 0..2"):
                spin1_sx.projector(bad)
        assert max_abs(spin1_sx.projector([np.int64(2), 0, 2]) - spin1_sx.projector([0, 2])) < 1e-12
        ctx = BooleanContext([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(InputError, match="atom index 0.5 is not an integer"):
            ctx.element([0.5])
        with pytest.raises(InputError, match="atom index outside 0..1"):
            ctx.element([10**12])

    def test_matches_infimum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, dim + 1))
            a = rand_operator(rng, dim, k)
            f = [float(rng.integers(0, 3)) for _ in range(k)]
            delta = [i for i in range(k) if rng.random() < 0.5]
            got = coarse_grained_projector(a, f, delta)
            assert max_abs(got - infimum_oracle(a, f, delta)) < 1e-8


class TestQuantumState:
    def test_vector_zero_rejected(self):
        with pytest.raises(ZeroNormError):
            QuantumState.vector([0.0, 0.0])

    def test_density_validation(self):
        with pytest.raises(InputError):
            QuantumState.density(np.diag([0.7, 0.7]))
        with pytest.raises(InputError):
            QuantumState.density(np.diag([1.5, -0.5]))

    def test_projector_validation(self):
        with pytest.raises(InputError):
            QuantumState.projector(np.diag([0.5, 0.5]))
        with pytest.raises(InputError):
            QuantumState.projector(np.zeros((2, 2)))

    def test_density_matrix_paths(self):
        v = QuantumState.vector([2.0, 0.0])
        assert max_abs(v.density_matrix() - np.diag([1.0, 0.0])) < 1e-12
        p = QuantumState.projector(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2
        assert max_abs(p.density_matrix() - np.diag([0.5, 0.5, 0.0])) < 1e-12
        d = QuantumState.density(np.diag([0.25, 0.75]))
        assert max_abs(d.density_matrix() - np.diag([0.25, 0.75])) < 1e-12

    def test_prob(self):
        psi = QuantumState.vector([1.0, 1.0])
        assert abs(prob(psi, np.diag([1.0, 0.0])) - 0.5) < 1e-12
        with pytest.raises(InputError):
            prob(psi, np.array([[0.5, 0.0], [0.0, 0.3]]))

    def test_prob_projector_state(self):
        rng = np.random.default_rng(5)
        P = rand_projector_matrix(rng, 4, 2)
        s = QuantumState.projector(P)
        assert abs(prob(s, P) - 1.0) < 1e-9


class TestProjectorOrder:
    def test_leq(self):
        small = np.diag([1.0, 0.0, 0.0])
        big = np.diag([1.0, 1.0, 0.0])
        assert projector_leq(small, big, 1e-9)
        assert not projector_leq(big, small, 1e-9)

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(13)
        u = rand_unitary(rng, 4)
        assert max_abs(u @ u.conj().T - np.eye(4)) < 1e-9
