import numpy as np
import pytest

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
from helpers import infimum_oracle, rand_operator, rand_projector_matrix, rand_unitary


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
        fibers, labels = value_fibers(spin1_sx, lambda x: x * x)
        assert fibers.blocks == ((0, 2), (1,))
        assert len(labels) == 2

    def test_partial_map_rejected(self, spin1_sx):
        with pytest.raises(InputError):
            apply_function(spin1_sx, {0: 1.0})

    def test_key_outside_spectrum_rejected(self, spinh_sz):
        with pytest.raises(InputError, match="index 7 outside 0..1"):
            apply_function(spinh_sz, {0: 1.0, 1: 2.0, 7: 3.0})

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
                f = [float(labels[p.block_of(i)]) for i in range(k)]
                order = np.argsort(labels)
                want = from_spectral_data(
                    [float(labels[j]) for j in order],
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
