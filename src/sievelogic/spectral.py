"""Finite-dimensional Hermitian operator algebra.

Operators are stored together with a fully resolved spectrum: distinct
eigenvalues in ascending order and one orthogonal spectral projector per
eigenvalue.  All numerics are double-precision complex; every invariant
is checked against explicit tolerances because exact spectral theory has
to be approximated at machine precision.

Matrix closeness is always measured in the max-abs entry norm.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from collections import abc
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateClusteringError,
    InputError,
    NotHermitianError,
    ZeroNormError,
)
from .sieves import CoarseGraining, Partition, _bits, _from_values, _image, _index, _mask_of


def _require_real(value, noun: str) -> None:
    """Raise InputError unless value is a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{noun} must be a real number, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances; every field can be overridden and must be a
    finite non-negative real, not a bool (comparisons with NaN are false)."""

    tau_herm: float = 1e-9
    tau_proj: float = 1e-9
    tau_rec: float = 1e-9
    tau_psd: float = 1e-9
    tau_tr: float = 1e-9
    tau_one: float = 1e-9
    eps_group: float = 1e-8

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            _require_real(value, f"tolerance {name}")
            if not 0.0 <= value < math.inf:
                raise InputError(f"tolerance {name} must be finite and non-negative, got {value!r}")

    def replace(self, **overrides) -> "Tolerances":
        known = {f.name for f in dataclasses.fields(self)}
        bad = set(overrides) - known
        if bad:
            raise InputError(f"unknown tolerance key(s): {', '.join(sorted(bad))}")
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = Tolerances()

ValueMap = Union[Callable[[float], float], abc.Mapping[int, float], Sequence[float]]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def as_matrix(data, dim: Optional[int] = None) -> np.ndarray:
    """Validate and normalize a square complex matrix."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise InputError(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.isfinite(m.view(float)).all():
        raise InputError("matrix entries must be finite")
    return m


def max_abs(m: np.ndarray) -> float:
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def is_hermitian(m: np.ndarray, tol: float) -> bool:
    return max_abs(m - m.conj().T) <= tol


def require_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    if not is_hermitian(m, tol):
        raise NotHermitianError(f"matrix is not Hermitian within {tol:g}")
    return (m + m.conj().T) / 2.0


def is_projector(p: np.ndarray, tol: float) -> bool:
    return is_hermitian(p, tol) and max_abs(p @ p - p) <= tol


def projector_leq(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """Projector order: p <= q iff q absorbs p (q p = p)."""
    return max_abs(q @ p - p) <= tol


def _check_resolution(mats: Sequence[np.ndarray], tol: Tolerances, noun: str) -> None:
    """Raise InputError naming the first way the equally shaped matrices
    fail to be nonzero, mutually orthogonal projectors that sum to the
    identity: per index (Hermitian, idempotent, nonzero), then per pair
    (i, j > i) in ascending order, then for the sum, all on one stack."""
    p = np.stack(mats)
    herm = _stack_max_abs(p - p.conj().transpose(0, 2, 1))
    idem = _stack_max_abs(p @ p - p)
    size = _stack_max_abs(p)
    for i in range(len(p)):
        if herm[i] > tol.tau_herm:
            raise InputError(f"{noun} {i} is not Hermitian")
        if idem[i] > tol.tau_proj:
            raise InputError(f"{noun} {i} is not idempotent")
        if size[i] <= tol.tau_proj:
            raise InputError(f"{noun} {i} is zero")
    for i in range(len(p) - 1):  # one batched product per row: memory n d^2, not n^2 d^2
        bad = np.flatnonzero(_stack_max_abs(p[i] @ p[i + 1:]) > tol.tau_proj)
        if bad.size:
            raise InputError(f"{noun}s {i} and {i + 1 + bad[0]} are not orthogonal")
    if max_abs(p.sum(axis=0) - np.eye(p.shape[1])) > tol.tau_proj:
        raise InputError(f"{noun}s do not sum to the identity")


def _stack_max_abs(m: np.ndarray) -> np.ndarray:
    """max_abs of each matrix in a stack over the last two axes."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _subset_sum(mats: Sequence[np.ndarray], indices: Iterable[int], noun: str) -> np.ndarray:
    """The sum of mats[i] over a set of indices, added in ascending
    index order."""
    out = np.zeros(mats[0].shape, dtype=complex)
    for i in _bits(_mask_of(indices, len(mats), noun)):
        out += mats[i]
    return out


def cluster_values(values: Sequence[float], eps: float) -> list[list[int]]:
    """Group indices whose values chain together within eps.

    Raises DegenerateClusteringError when a chain spans more than eps,
    because then the grouping would depend on processing order.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    groups: list[list[int]] = []
    for i in order:
        if groups and values[i] - values[groups[-1][-1]] <= eps:
            groups[-1].append(i)
        else:
            groups.append([i])
    for g in groups:
        if values[g[-1]] - values[g[0]] > eps:
            raise DegenerateClusteringError(
                f"values {values[g[0]]!r}..{values[g[-1]]!r} merge only through a chain wider than {eps:g}"
            )
    return groups


def _fiber_value(values: Sequence[float]) -> float:
    """The mean of a cluster of values, bit-identical to `np.mean`.
    Below 8 values numpy's float64 sum adds left to right from 0.0 (so a
    lone -0.0 becomes 0.0), which one loop repeats without a numpy call;
    from 8 values on numpy keeps 8 partial sums, so `np.mean` is called
    (`decompose` can cluster that many raw eigenvalues).  Not the builtin
    `sum`: since Python 3.12 it compensates float rounding."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _finite_reals(values: Iterable, what: str) -> tuple[float, ...]:
    """The values as floats; the InputError names the index of the first
    one that is not a finite real number."""
    try:
        values = tuple(values)
    except TypeError:
        raise InputError(f"expected a sequence of {what}s, got {values!r}") from None
    for i, v in enumerate(values):
        try:
            ok = (type(v) is float or isinstance(v, numbers.Real)) and math.isfinite(v)
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise InputError(f"{what} {v!r} at index {i} is not a finite real")
    return tuple(float(v) for v in values)


class SpectralOperator:
    """A Hermitian operator held as its resolved finite spectrum.

    eigenvalues are finite and strictly increasing; projectors[i] projects
    onto the eigenspace of eigenvalues[i]; the projectors are orthogonal
    and resolve the identity.  The constructor checks outside data once.
    """

    __slots__ = ("eigenvalues", "projectors")

    def __init__(self, eigenvalues: Sequence[float], projectors: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOL):
        mats = [as_matrix(p) for p in projectors]
        if len({m.shape for m in mats}) > 1:
            raise InputError("spectral projectors differ in dimension")
        eigenvalues = _finite_reals(eigenvalues, "eigenvalue")
        if len(eigenvalues) != len(mats) or not eigenvalues:
            raise InputError("need one projector per eigenvalue")
        if any(b <= a for a, b in zip(eigenvalues, eigenvalues[1:])):
            raise InputError(f"eigenvalues must be strictly increasing, got {list(eigenvalues)}")
        _check_resolution(mats, tol, "spectral projector")
        self.eigenvalues, self.projectors = eigenvalues, tuple(_freeze(m) for m in mats)

    @classmethod
    def _of_checked(cls, eigenvalues: Sequence[float], projectors: Sequence[np.ndarray]) -> "SpectralOperator":
        """The operator of spectral data derived from checked data
        (projector sums over disjoint blocks, a context's atoms), unchecked."""
        op = cls.__new__(cls)
        op.eigenvalues, op.projectors = tuple(eigenvalues), tuple(_freeze(p) for p in projectors)
        return op

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The sum of v P over the spectrum."""
        return _freeze(sum(v * p for v, p in zip(self.eigenvalues, self.projectors)))

    @property
    def k(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.eigenvalues)

    def projector(self, indices) -> np.ndarray:
        """Spectral projector for a set of eigenvalue indices."""
        return _subset_sum(self.projectors, indices, "eigenvalue")

    def eigenvalue_index(self, value: float, eps: float) -> int:
        """Index of the eigenvalue matching `value` within eps."""
        if not math.isfinite(value):
            raise InputError(f"eigenvalue {value!r} is not finite")
        diffs = [abs(v - value) for v in self.eigenvalues]
        i = int(np.argmin(diffs))
        if diffs[i] > eps:
            raise InputError(f"no eigenvalue within {eps:g} of {value!r}")
        return i

    def __repr__(self):
        vals = ", ".join(f"{v:g}" for v in self.eigenvalues)
        return f"SpectralOperator(dim={self.dim}, eigenvalues=[{vals}])"


def decompose(m, tol: Tolerances = DEFAULT_TOL) -> SpectralOperator:
    """Resolve a Hermitian matrix into clustered eigenvalues and projectors.

    The eigensolver's output must reconstruct the matrix within tau_rec;
    then raw eigenvalues within tol.eps_group of each other merge into a
    single spectral point whose projector sums the corresponding eigenspaces.
    """
    if tol.eps_group <= 0:
        raise InputError("eps_group must be positive")
    herm = require_hermitian(as_matrix(m), tol.tau_herm)
    raw, vecs = np.linalg.eigh(herm)
    if max_abs((vecs * raw) @ vecs.conj().T - herm) > tol.tau_rec:
        raise InputError("spectral data does not reconstruct the matrix")
    groups = cluster_values([float(v) for v in raw], tol.eps_group)
    eigenvalues = []
    projectors = []
    for g in groups:
        eigenvalues.append(_fiber_value([float(raw[i]) for i in g]))
        cols = vecs[:, g]
        p = cols @ cols.conj().T
        projectors.append((p + p.conj().T) / 2.0)
    return SpectralOperator(eigenvalues, projectors, tol)


def from_spectral_data(
    eigenvalues: Sequence[float],
    projectors: Sequence[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralOperator:
    """Build an operator from exact spectral data, bypassing the eigensolver."""
    return SpectralOperator(eigenvalues, projectors, tol)


def normalize_value_map(a: SpectralOperator, f: ValueMap) -> tuple[float, ...]:
    """Resolve a value map to one real per eigenvalue index of `a`.

    Accepts a callable on eigenvalues, a mapping from index to value, or
    a sequence ordered by index; must be total, with finite real values.
    """
    if callable(f):
        values = [f(v) for v in a.eigenvalues]
    elif isinstance(f, abc.Mapping):
        keys = [_index(i, "value map") for i in f]
        missing = set(range(a.k)).difference(keys)
        if missing:
            raise InputError(f"value map missing indices {sorted(missing)}")
        extra = [i for i in keys if not 0 <= i < a.k]
        if extra:
            raise InputError(f"value map index {extra[0]!r} outside 0..{a.k - 1}")
        values = [f[i] for i in range(a.k)]
    else:
        values = list(f)
        if len(values) != a.k:
            raise InputError(f"value map must list {a.k} values")
    return _finite_reals(values, "value map value")


def value_fibers(a: SpectralOperator, f: ValueMap, tol: Tolerances = DEFAULT_TOL) -> CoarseGraining:
    """The coarse-graining of a's eigenvalue indices by f, based at a:
    each value is replaced by its cluster's `_fiber_value` (the mean,
    bit-identical to `np.mean`), and the indices are grouped into
    fibers, in canonical block order, labeled by those values.  f is
    normalized and checked on every call; the fibers, labels and index
    map come from `_fibers`, built once per (values, eps_group)."""
    return CoarseGraining._of_checked(*_fibers(normalize_value_map(a, f), tol.eps_group), a)


# Bounded: one entry per distinct value tuple, and a k = 8 audit passes
# Bell(8) = 4140 of them.
@lru_cache(maxsize=1 << 13)
def _fibers(values: tuple[float, ...], eps: float) -> tuple[Partition, tuple[float, ...], tuple[int, ...]]:
    """The (partition, labels, to) of the fibers of a value tuple, built
    by `_from_values` on the clustered values.  0.0 and -0.0 are one key,
    and both give the same record: a label is a sum from 0.0, never -0.0.
    A DegenerateClusteringError is raised again on every call (the
    cache keeps no exceptions)."""
    snapped = list(values)
    for g in cluster_values(values, eps):
        label = _fiber_value([values[i] for i in g])
        for i in g:
            snapped[i] = label
    cg = _from_values(snapped, None)
    return cg.partition, cg.labels, cg.to


def apply_function(a: SpectralOperator, f: ValueMap, tol: Tolerances = DEFAULT_TOL) -> SpectralOperator:
    """The operator f(a): same eigenbasis, eigenvalues pushed through f,
    fibers of f merged into single spectral points."""
    return _coarse_operator(a, value_fibers(a, f, tol))


def _coarse_operator(a: SpectralOperator, cg: CoarseGraining) -> SpectralOperator:
    """The operator with cg's labels as eigenvalues, ascending, and the
    sum of a's projectors over each fiber as its projector: projector i
    of a is added into slot cg.to[i], in ascending i."""
    projectors = [np.zeros(a.projectors[0].shape, dtype=complex) for _ in cg.labels]
    for i, j in enumerate(cg.to):
        projectors[j] += a.projectors[i]
    return SpectralOperator._of_checked(sorted(cg.labels), projectors)


def _linked(stack: np.ndarray, q: np.ndarray, tol: Tolerances) -> list[int]:
    """Indices i into a stack of an operator's projectors whose
    projector overlaps the projector q: max_abs(P_i q) > tau_proj, from
    one batched product.  Since the P_i q sum to q, one of them is
    nonzero; under a tau_proj that loose the largest is taken."""
    overlaps = _stack_max_abs(stack @ q)
    return np.flatnonzero(overlaps > tol.tau_proj).tolist() or [int(np.argmax(overlaps))]


def _components(links: Sequence[int]) -> list[tuple[int, int]]:
    """The connected components of a link relation as (a-mask, c-mask)
    bitmask pairs; links[j] is the mask of the a-indices linked to c's j."""
    components: list[tuple[int, int]] = []
    for j, ia in enumerate(links):
        jc = 1 << j
        for g in [g for g in components if g[0] & ia]:
            components.remove(g)
            ia, jc = ia | g[0], jc | g[1]
        components.append((ia, jc))
    return components


def _blocks(components: Sequence[tuple[int, int]], balanced: Sequence[bool], k: int) -> list[tuple[int, int]]:
    """The blocks of a common coarsening as (a-mask, c-mask) pairs: the
    balanced components, then any rest of a's k indices with its c side."""
    blocks, rest_a, rest_c = [], (1 << k) - 1, 0
    for g, ok in zip(components, balanced):
        if ok:
            blocks.append(g)
            rest_a -= g[0]
        else:
            rest_c |= g[1]
    return blocks + [(rest_a, rest_c)] if rest_a else blocks


def _overlaps(a: SpectralOperator, c: SpectralOperator, tol: Tolerances) -> tuple[Partition, list[int]]:
    """The one pass relating two operators' projectors: the common
    coarsening r of a by c, and links[j], the first index of a linked
    to c's projector Q_j.

    P_i(a) and Q_j(c) are joined when they overlap.  A connected
    component whose a-side and c-side projector sums agree within
    tau_proj is a block; the a-indices of every other component merge
    into one block, the complement of the others.  The coarse-grainings
    of a that are functions of c are exactly the coarsenings of r, and
    Q_j lies under the block of any index linked to it.
    """
    if a.dim != c.dim:
        raise InputError("operators act on different dimensions")
    stack = np.stack(a.projectors)  # memory k d^2: one row of overlaps at a time
    linked = [_linked(stack, q, tol) for q in c.projectors]
    components = _components([_mask_of(ia, a.k, "eigenvalue") for ia in linked])
    balanced = [max_abs(a.projector(_bits(ia)) - c.projector(_bits(jc))) <= tol.tau_proj for ia, jc in components]
    blocks = _blocks(components, balanced, a.k)
    return Partition.of(_bits(ia) for ia, _ in blocks), [ia[0] for ia in linked]


def common_coarsening(a: SpectralOperator, c: SpectralOperator, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """The finest partition r of a's eigenvalue indices whose block
    projectors all lie in c's algebra (see `_overlaps`)."""
    return _overlaps(a, c, tol)[0]


def is_function_of(
    a: SpectralOperator, m: SpectralOperator, tol: Tolerances = DEFAULT_TOL
) -> Optional[dict[int, float]]:
    """The value map g with a = g(m), if one exists.

    a = g(m) holds iff every eigenprojector of a lies in m's algebra,
    i.e. the common coarsening of a by m is discrete; g[j] is then the
    eigenvalue of a on the block holding Q_j(m).
    """
    r, links = _overlaps(a, m, tol)
    return None if r.n_blocks != a.k else {j: a.eigenvalues[i] for j, i in enumerate(links)}


def coarse_grained_projector(
    a: SpectralOperator, f: ValueMap, delta, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Spectral projector of f(a) for the image f(delta): the sum of a's
    projectors over every index sharing an f-fiber with delta."""
    s = _mask_of(delta, a.k, "eigenvalue")
    return a.projector(_bits(_image(value_fibers(a, f, tol).partition, s)))


class QuantumState:
    """A vector, density matrix or projector used to induce valuations."""

    __slots__ = ("kind", "payload", "rank")

    def __init__(self, kind: str, payload: np.ndarray, rank: int = 1):
        self.kind = kind
        self.payload = _freeze(payload)
        self.rank = rank

    @staticmethod
    def vector(v, tol: Tolerances = DEFAULT_TOL) -> "QuantumState":
        vec = np.asarray(v, dtype=complex).reshape(-1)
        if not np.isfinite(vec.view(float)).all():
            raise InputError("vector entries must be finite")
        if np.vdot(vec, vec).real <= tol.tau_psd:
            raise ZeroNormError("state vector has zero norm")
        return QuantumState("vector", vec)

    @staticmethod
    def density(m, tol: Tolerances = DEFAULT_TOL) -> "QuantumState":
        mat = require_hermitian(as_matrix(m), tol.tau_herm)
        if abs(np.trace(mat).real - 1.0) > tol.tau_tr:
            raise InputError("density matrix must have unit trace")
        if float(np.linalg.eigvalsh(mat).min()) < -tol.tau_psd:
            raise InputError("density matrix must be positive semidefinite")
        return QuantumState("density", mat)

    @staticmethod
    def projector(m, tol: Tolerances = DEFAULT_TOL) -> "QuantumState":
        mat = as_matrix(m)
        if not is_projector(mat, tol.tau_proj):
            raise InputError("projector state must be Hermitian idempotent")
        rank = round(float(np.trace(mat).real))
        if rank < 1:
            raise InputError("projector state must be nonzero")
        return QuantumState("projector", mat, rank)

    @property
    def dim(self) -> int:
        return int(self.payload.shape[0])

    def density_matrix(self) -> np.ndarray:
        """The density matrix this state induces probabilities through."""
        if self.kind == "vector":
            v = self.payload
            return np.outer(v, v.conj()) / np.vdot(v, v).real
        if self.kind == "projector":
            return self.payload / self.rank
        return self.payload

    def weights(self, projectors: Iterable[np.ndarray]) -> tuple[float, ...]:
        """The probability tr(rho P) of each projector, with the density
        matrix rho computed once."""
        d = self.density_matrix()
        out = []
        for p in projectors:
            if np.shape(p) != d.shape:
                raise InputError(f"projector shape {np.shape(p)} does not match state dimension {self.dim}")
            out.append(float(np.trace(d @ p).real))
        return tuple(out)


def prob(s: QuantumState, p: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability the state assigns to a projector."""
    p = as_matrix(p, s.dim)
    if not is_projector(p, tol.tau_proj):
        raise InputError("prob expects a Hermitian idempotent")
    return s.weights([p])[0]
