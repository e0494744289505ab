"""Sieve-valued truth assignments for propositions about observables.

A proposition asserts that an observable's value lies in a subset of its
spectrum.  A generalized valuation answers with a sieve: the set of
coarse-grainings under which the weakened proposition becomes certain.
Three construction families are provided:

* from a partial valuation (a consistent pointwise value assignment on a
  function-closed set of operators): certainty means the assigned value
  survives the coarse-graining;
* from a state (vector, density matrix, or projector, the latter acting
  through its normalized density matrix): certainty means probability
  one after coarse-graining;
* thresholded on a density matrix: probability at least r suffices.

Every family runs through one kernel, `sieves.subset_masses` and
`sieves.mass_rows`: the sieves of all 2^k subsets of an operator's
spectrum as one bit matrix, cut to a domain.  It reads the operator's
own data, computed once: a state's subset masses, or per member of a
partial valuation, r, the common coarsening of the operator by the
member, and the index linked to the member's assigned eigenprojector (a
partial valuation ORs one matrix per member, on the up-set of r, with
the indicator of that index as weights).  A coarse-graining f(a) is read
from a's data too, masses at preimages and r and the link pushed through
f, so the naturality audit checks the presheaf law exactly and builds no
f(a) from projectors; the tests keep that route.  Results depend only on
the fiber partition of a coarse-graining and never on its labels.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BaseMismatchError, InconsistentAssignmentsError, InputError
from .report import Report, _check_order
from .sieves import (
    Classification,
    CoarseGraining,
    Mode,
    Partition,
    Sieve,
    _bits,
    _canonical,
    _columns,
    _lattice,
    _mask_of,
    _pullback_table,
    _row_masks,
    _unions,
    mass_rows,
    subset_masses,
)
from .spectral import (
    DEFAULT_TOL,
    QuantumState,
    SpectralOperator,
    Tolerances,
    ValueMap,
    _overlaps,
    _require_real,
    is_function_of,
    value_fibers,
)


@dataclass(frozen=True)
class Proposition:
    """The assertion that an observable's value lies in a spectrum subset,
    given by eigenvalue indices; `bits` is the subset as a bitmask."""

    operator: SpectralOperator
    indices: frozenset[int]
    bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bits", _mask_of(self.indices, self.operator.k, "eigenvalue"))
        object.__setattr__(self, "indices", frozenset(_bits(self.bits)))

    @staticmethod
    def by_values(operator: SpectralOperator, values: Iterable[float], eps: float = DEFAULT_TOL.eps_group) -> "Proposition":
        idx = frozenset(operator.eigenvalue_index(v, eps) for v in values)
        return Proposition(operator, idx)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.operator.eigenvalues[i] for i in sorted(self.indices))


def canonical_graining(a: SpectralOperator, p: Partition) -> CoarseGraining:
    """The coarse-graining with fiber partition p and block positions as
    labels; the canonical representative of p's isomorphism class."""
    if p.k != a.k:
        raise BaseMismatchError(f"partition of {p.k} indices for an operator with {a.k} eigenvalues")
    return CoarseGraining(p, tuple(float(pos) for pos in range(p.n_blocks)), base=a)


class PartialValuation:
    """A pointwise value assignment on a function-closed set of operators.

    Either generated by one anchor operator and a chosen eigenvalue (the
    domain is everything expressible as a function of the anchor), or
    given explicitly as (operator, eigenvalue index) pairs, in which case
    the domain is the closure of the listed operators under functions.

    Explicit assignments are validated against the common coarsening of
    every listed pair, so values extend consistently to the whole domain.
    """

    def __init__(self, kind: str, members: list[tuple[SpectralOperator, int]], tol: Tolerances):
        self.kind = kind
        self.members = members
        self.tol = tol

    @staticmethod
    def maximal(anchor: SpectralOperator, index: int, tol: Tolerances = DEFAULT_TOL) -> "PartialValuation":
        (index,) = _bits(_mask_of([index], anchor.k, "eigenvalue"))  # checked, as an int
        return PartialValuation("maximal", [(anchor, index)], tol)

    @staticmethod
    def explicit(
        assignments: Sequence[tuple[SpectralOperator, int]], tol: Tolerances = DEFAULT_TOL
    ) -> "PartialValuation":
        # each index checked and read back as an int
        members = [(op, *_bits(_mask_of([idx], op.k, "eigenvalue"))) for op, idx in assignments]
        pv = PartialValuation("explicit", members, tol)
        pv._validate_consistency()
        return pv

    def _validate_consistency(self) -> None:
        # The coarse-grainings op1 and op2 share are the coarsenings of
        # their common coarsening r; the values agree on all of them
        # exactly when the r-block of a1 holds op2's assigned projector.
        for (op1, a1), (op2, a2) in itertools.combinations(self.members, 2):
            r, links = _overlaps(op1, op2, self.tol)
            mine, held = r.block_of(a1), r.block_of(links[a2])
            if held != mine:
                raise InconsistentAssignmentsError(
                    f"assignments conflict on a common coarse-graining of "
                    f"{op1!r} and {op2!r}: block {mine} vs block {held} of {r}"
                )

    def locate(self, b: SpectralOperator) -> Optional[float]:
        """The value this valuation gives to b, or None if b is outside
        the domain."""
        for op, idx in self.members:
            if b.dim != op.dim:
                continue
            g = is_function_of(b, op, self.tol)
            if g is not None:
                return g[idx]
        return None


class GeneralizedValuation:
    """A sieve-valued truth assignment over a fixed sieve mode.

    The mode is part of the valuation, so sieves from different modes can
    never be compared by accident.  Every answer comes from one bit
    matrix per operator, `_matrix`, kept with its rows as int masks;
    `evaluate` reads one mask, and the audits compare whole rows.
    """

    def __init__(self, kind, mode, *, partial=None, state=None, r=1.0, tol=DEFAULT_TOL):
        self.kind = kind
        self.mode = mode
        self.partial = partial
        self.state = state
        self.r = float(r)
        self.tol = tol
        self._rows: dict = {}  # per operator: [its `_data`, its `_matrix`, the matrix's rows as masks]

    @staticmethod
    def from_partial(v: PartialValuation, mode: Mode, tol: Tolerances = DEFAULT_TOL) -> "GeneralizedValuation":
        return GeneralizedValuation("partial", mode, partial=v, tol=tol)

    @staticmethod
    def from_state(s: QuantumState, mode: Mode, tol: Tolerances = DEFAULT_TOL) -> "GeneralizedValuation":
        return GeneralizedValuation("state", mode, state=s, tol=tol)

    @staticmethod
    def threshold(s: QuantumState, r: float, mode: Mode, tol: Tolerances = DEFAULT_TOL) -> "GeneralizedValuation":
        if s.kind != "density":
            raise InputError("thresholded valuations take a density matrix state")
        _require_real(r, "threshold")
        if not 0.0 < r <= 1.0:
            raise InputError("threshold must lie in (0, 1]")
        return GeneralizedValuation("threshold", mode, state=s, r=r, tol=tol)

    def _data(self, a: SpectralOperator):
        """a's own data, computed once and kept first in a's `_rows`
        entry: a state's `subset_masses` on a's spectrum; for a partial
        valuation, per member acting on a's space, the common coarsening
        r of a by the member and the index of a linked to the member's
        assigned projector, from one `_overlaps` pass under the partial
        valuation's own tolerances."""
        entry = self._rows.setdefault(a, [None, None, None])
        if entry[0] is None:
            if self.kind != "partial":
                entry[0] = subset_masses(self.state.weights(a.projectors))
            else:
                entry[0] = []
                for c, idx in self.partial.members:
                    if c.dim == a.dim:
                        r, links = _overlaps(a, c, self.partial.tol)
                        entry[0].append((r, links[idx]))
        return entry[0]

    def _matrix(self, a: SpectralOperator, cg: Optional[CoarseGraining] = None) -> np.ndarray:
        """The 2^k x |lattice| bit matrix of the sieves of cg(a), or of a
        when cg is None, with k the size of that spectrum: row s is the
        sieve of "cg(a) in s" for the subset bitmask s.  It is read from
        a's `_data`, through the index map `to` of cg (the identity when
        cg is None).  A state's is one `mass_rows` on a's mass at the
        preimage of each s, read from `to`'s `_gathers` record.  A partial
        valuation ORs one per member: the rows held at the image of the
        member's link (`_held_rows`, kept per lattice, index and cutoff),
        cut to the up-set of the member's coarsening r pushed through `to`
        (`_domain`, kept per (r, to, mode)).  Only those per-map records
        are cached; the matrix is built fresh on every call."""
        to = tuple(range(a.k)) if cg is None else cg.to
        k = max(to) + 1
        cutoff = self.r - self.tol.tau_one
        data = self._data(a)
        if self.kind != "partial":
            return mass_rows(k, self.mode, data[_gathers(to, self.mode).preimages], cutoff)
        lattice = _lattice(k, self.mode)
        bits = np.zeros((1 << k, len(lattice.parts)), dtype=bool)
        for r, link in data:
            i = _domain(r, to, self.mode)
            if i is not None:  # else the one-block partition without constants: empty domain
                bits |= _held_rows(k, self.mode, to[link], cutoff) & _columns(lattice.up[i], len(lattice.parts))
        return bits

    def _row(self, a: SpectralOperator) -> tuple[np.ndarray, tuple[int, ...]]:
        """a's `_matrix` and its rows as sieve masks, built once per
        operator and kept in a's `_rows` entry after its data."""
        entry = self._rows.setdefault(a, [None, None, None])
        if entry[1] is None:
            bits = self._matrix(a)
            entry[1:] = bits, _row_masks(bits)
        return entry[1], entry[2]

    def evaluate(self, p: Proposition) -> Sieve:
        return Sieve._of_mask(p.operator.k, self.mode, self._row(p.operator)[1][p.bits])  # bits checked by Proposition


class _Gathers(NamedTuple):
    """The index arrays a naturality square along a surjective index map
    `to` reads, as read-only np.intp: its `_pullback_table`, and per
    subset bitmask the image f(s) and the preimage f^-1(T)."""

    pullback: np.ndarray
    images: np.ndarray
    preimages: np.ndarray


@lru_cache(maxsize=1 << 13)
def _gathers(to: tuple[int, ...], mode: Mode) -> _Gathers:
    """The `_Gathers` record of (to, mode), built once, so that no square
    converts an index list or runs `_unions`."""
    fibers = [0] * (max(to) + 1)
    for i, j in enumerate(to):
        fibers[j] |= 1 << i
    tables = (_pullback_table(to, mode), _unions([1 << j for j in to]), _unions(fibers))
    record = _Gathers(*(np.array(table, dtype=np.intp) for table in tables))
    for table in record:
        table.setflags(write=False)
    return record


def _pushed(r: Partition, to: Sequence[int]) -> tuple[int, ...]:
    """The restricted-growth code of r pushed through a surjective index
    map: the finest partition of the codomain in which the image of each
    of r's blocks lies in one block (images that meet are merged)."""
    groups: list[set[int]] = []
    for block in r.blocks:
        image = {to[i] for i in block}
        joined = [g for g in groups if g & image]
        groups = [g for g in groups if not g & image] + [image.union(*joined)]
    label = {j: n for n, g in enumerate(groups) for j in g}
    return _canonical(label[j] for j in range(len(label)))


@lru_cache(maxsize=1 << 13)
def _domain(r: Partition, to: tuple[int, ...], mode: Mode) -> Optional[int]:
    """The lattice bit of r pushed through `to` (`_pushed`), whose up-set
    is a partial valuation member's domain on the codomain; None when
    that is the one-block partition in a mode without constants."""
    return _lattice(max(to) + 1, mode).codes.get(_pushed(r, to))


# Bounded: a k-point codomain has k of these 2^k x |lattice| bool matrices
# per mode and cutoff, 8.5 MB in all at k = 8 and 97 MB at k = 9.
@lru_cache(maxsize=64)
def _held_rows(k: int, mode: Mode, j: int, cutoff: float) -> np.ndarray:
    """The read-only `mass_rows` of (k, mode) with index j holding all the
    mass (the indicator of j as weights): the sieves of a partial
    valuation member held at j, before its domain is cut out."""
    rows = mass_rows(k, mode, subset_masses([float(i == j) for i in range(k)]), cutoff)
    rows.setflags(write=False)
    return rows


def _failed_squares(nu: GeneralizedValuation, a: SpectralOperator, f: ValueMap) -> tuple[CoarseGraining, list[int]]:
    """The coarse-graining cg of a by f, and the subset bitmasks s, in
    ascending order, for which the sieve of "cg(a) in f(s)" differs from
    the pullback of the sieve of "a in s": a column gather of a's bit
    matrix through the pullback table against a row gather, at the
    images f(s), of cg(a)'s matrix built on the codomain lattice from
    a's own masses or links (`_matrix(a, cg)`).  Both index arrays, and
    the preimages `_matrix` reads masses at, come from the one cached
    `_gathers` record of cg.to, so a square converts no index list.
    When the two gathers are bool matrices of one shape with equal bytes,
    every square holds and one byte compare says so; otherwise the rows
    that differ are the failing subsets.  That is the presheaf law,
    checked exactly; no coarse operator is built, no trace taken and no
    overlap pass run per square, so whether f(a)'s projectors give the
    same masses and links is left to the tests.  cg(a)'s matrix is not
    kept."""
    cg = value_fibers(a, f, nu.tol)
    gathers = _gathers(cg.to, nu.mode)
    pullbacks = nu._row(a)[0][:, gathers.pullback]
    coarse = nu._matrix(a, cg)[gathers.images]
    if pullbacks.dtype == coarse.dtype == bool and pullbacks.shape == coarse.shape and pullbacks.tobytes() == coarse.tobytes():
        return cg, []
    return cg, np.flatnonzero((pullbacks != coarse).any(axis=1)).tolist()


class DisjunctionStrength(Enum):
    EQUALITY = "Equality"
    STRICT_INEQUALITY = "StrictInequality"


def check_functional_rule(
    nu: GeneralizedValuation, a: SpectralOperator, h: ValueMap, delta: Iterable[int]
) -> Report:
    """Compatibility of the valuation with one coarse-graining: the sieve
    of the coarsened proposition must be the pullback of the original
    sieve."""
    report = Report("functional rule")
    cg, failed = _failed_squares(nu, a, h)
    s = _mask_of(delta, a.k, "eigenvalue")
    report.record(
        s not in failed,
        lambda: f"coarsened sieve differs from pullback for map {cg.labels} on subset {list(_bits(s))}",
    )
    return report.finish()


def check_axioms(nu: GeneralizedValuation, a: SpectralOperator) -> Report:
    """Null, monotonicity and exclusivity over every subset pair of a's
    spectrum; the unit condition is a violation for state-family
    valuations and an informational note for partial-family ones."""
    report = Report("valuation axioms")
    sieves = nu._row(a)[1]
    full = _lattice(a.k, nu.mode).full
    true = [m == full != 0 for m in sieves]  # an empty lattice is only totally false

    report.record(not sieves[0], "null condition: empty subset not totally false")
    _check_order(report, range(1 << a.k), sieves, true, distinct=False)
    if nu.kind == "partial":
        status = "holds" if true[-1] else "violated (legal for partial-valuation families)"
        report.notes.append(f"unit condition: {status}")
        report.checks += 1
    else:
        report.record(true[-1], "unit condition: full spectrum not totally true")
    return report.finish()


def check_disjunction_strength(
    nu: GeneralizedValuation, a: SpectralOperator, d1: Iterable[int], d2: Iterable[int]
) -> DisjunctionStrength:
    """Whether the sieve of a union equals the join of the sieves, or
    strictly exceeds it."""
    s1, s2 = _mask_of(d1, a.k, "eigenvalue"), _mask_of(d2, a.k, "eigenvalue")
    sieves = nu._row(a)[1]  # the masks are checked: index the row directly
    union, joined = sieves[s1 | s2], sieves[s1] | sieves[s2]
    if joined & ~union:
        raise InputError("join exceeds the union sieve; monotonicity is broken")
    return DisjunctionStrength.EQUALITY if union == joined else DisjunctionStrength.STRICT_INEQUALITY


def extract_partial(
    nu: GeneralizedValuation, family: Sequence[SpectralOperator]
) -> PartialValuation:
    """The pointwise assignment a valuation induces: an operator gets the
    eigenvalue whose singleton proposition is totally true."""
    assignments = []
    for op in family:
        hits = [
            i
            for i in range(op.k)
            if nu.evaluate(Proposition(op, frozenset([i]))).classify() is Classification.TOTALLY_TRUE
        ]
        if len(hits) > 1:
            raise InconsistentAssignmentsError(
                f"valuation marks {len(hits)} distinct eigenvalues of {op!r} totally true"
            )
        if hits:
            assignments.append((op, hits[0]))
    return PartialValuation.explicit(assignments, nu.tol)


@dataclass(frozen=True)
class SieveComparison:
    direct: Sieve
    induced: Sieve

    @property
    def difference(self) -> frozenset[Partition]:
        return self.direct.partitions - self.induced.partitions

    @property
    def equal(self) -> bool:
        return self.direct == self.induced


def compare_direct_vs_induced(
    psi: QuantumState, p: Proposition, mode: Mode, tol: Tolerances = DEFAULT_TOL
) -> SieveComparison:
    """Compare the state's own sieve with the sieve of the eigenvalue
    assignment the state induces.

    The induced variant admits a coarse-graining only when the state is
    an actual eigenvector of the coarse observable, with the eigenvalue
    landing in the coarsened subset: it is the join, over i in the
    subset, of the direct sieves of the singletons {i}.  It always
    refines the direct sieve and coincides with it on singleton subsets.
    """
    nu = GeneralizedValuation.from_state(psi, mode, tol)
    direct = nu.evaluate(p)
    a = p.operator
    induced = Sieve.totally_false(a.k, mode)
    for i in p.indices:
        induced = induced.join(nu.evaluate(Proposition(a, frozenset([i]))))
    if not induced.leq(direct):
        raise InputError("induced sieve escapes the direct sieve; weights are inconsistent")
    return SieveComparison(direct, induced)


def check_naturality(
    nu: GeneralizedValuation, a: SpectralOperator, f: ValueMap
) -> Report:
    """Commutation of the valuation with one coarse-graining across every
    subset (proposition square) and every eigenvalue (pointwise square
    through the singleton embedding): 2^k + k checks, all decided at
    once on whole rows of the valuation's bit matrices by
    `_failed_squares`, whose list of failing subsets is empty after one
    byte compare when every square holds.  The pointwise square of
    eigenvalue i is the proposition square of the singleton {i}.
    Messages are formatted for failed squares only."""
    report = Report("naturality")
    cg, failed = _failed_squares(nu, a, f)
    report.tally(1 << a.k, (
        f"proposition square fails on subset {list(_bits(s))} for map {cg.labels}" for s in failed
    ))
    report.tally(a.k, (
        f"pointwise square fails on eigenvalue index {s.bit_length() - 1} for map {cg.labels}"
        for s in failed if s.bit_count() == 1
    ))
    return report.finish()
