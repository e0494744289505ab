"""Finite coarse-graining categories over one observable, two-valued
homomorphisms on Boolean contexts, and global-section search.

The coarse-grainings of one observable form a lattice mirroring the
partition lattice of its spectrum; each node carries a representative
coarse observable with canonical labels.  A family of observables on one
Hilbert space carries auto-detected functional relations; a global
section is a choice of eigenvalue per observable that values every
projector two observables share alike (so it satisfies every relation),
and its absence on suitable families is the contextuality obstruction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .contexts import BooleanContext
from .errors import InputError, NotSubalgebraError
from .ks_search import ContextFamily, context_operator, search_dual_section
from .report import Report
from .sieves import CoarseGraining, Mode, Partition, _from_values, _lattice, _mask_of
from .spectral import (
    DEFAULT_TOL,
    SpectralOperator,
    Tolerances,
    _coarse_operator,
    _overlaps,
    is_function_of,
    projector_leq,
)
from .valuations import canonical_graining


class CoarseGrainingLattice:
    """All coarse-grainings of one observable, one per spectrum
    partition, each with a representative coarse observable labeled by
    block position.

    An arrow from the object at partition p to the object at a finer
    partition q exists exactly when p coarsens q; composing arrows
    corresponds to composing value maps.
    """

    __slots__ = ("top", "mode", "objects", "_index", "_ops")

    def __init__(self, top: SpectralOperator, mode: Mode = Mode.WITH_CONSTANTS):
        self.top = top
        self.mode = mode
        lattice = _lattice(top.k, mode)
        self.objects = lattice.parts
        self._index = lattice.index
        self._ops: dict[Partition, SpectralOperator] = {}

    def operator_at(self, p: Partition) -> SpectralOperator:
        """The representative coarse observable of one object."""
        if p not in self._index:
            raise InputError(f"partition {p} is not an object of this lattice")
        if p not in self._ops:
            self._ops[p] = _coarse_operator(self.top, canonical_graining(self.top, p))
        return self._ops[p]

    def arrow(self, p: Partition) -> CoarseGraining:
        """The canonical coarse-graining from the object at p into the
        top observable."""
        if p not in self._index:
            raise InputError(f"partition {p} is not an object of this lattice")
        return canonical_graining(self.top, p)

    def arrow_between(self, coarse: Partition, fine: Partition) -> CoarseGraining:
        """The connecting coarse-graining from the representative at
        `fine` onto the representative at `coarse`."""
        if not coarse.coarsens(fine):
            raise InputError(f"{coarse} does not coarsen {fine}")
        return _from_values([float(coarse.block_of(b[0])) for b in fine.blocks], self.operator_at(fine))


@dataclass(frozen=True)
class TwoValuedHom:
    """A 0/1 homomorphism on a Boolean context: one atom is valued 1 and
    an element is valued 1 exactly when it dominates that atom."""

    context: BooleanContext
    chosen_atom: int

    def __post_init__(self):
        _mask_of([self.chosen_atom], self.context.n_atoms, "atom")

    def value(self, atom_indices: Iterable[int]) -> int:
        return _mask_of(atom_indices, self.context.n_atoms, "atom") >> self.chosen_atom & 1

    def value_projector(self, m, tol: Tolerances = DEFAULT_TOL) -> int:
        """Evaluate on a projector by domination of the chosen atom."""
        return 1 if projector_leq(self.context.atoms[self.chosen_atom], m, tol.tau_proj) else 0


def restrict_hom(chi: TwoValuedHom, sub: BooleanContext, tol: Tolerances = DEFAULT_TOL) -> TwoValuedHom:
    """Restrict a two-valued homomorphism to a subalgebra: the subalgebra
    atom dominating the chosen one, named by the value map that makes
    sub's context operator a function of the larger context's."""
    if sub.dim != chi.context.dim:
        raise NotSubalgebraError("contexts act on different dimensions")
    table = is_function_of(context_operator(sub), context_operator(chi.context), tol)
    if table is None:
        raise NotSubalgebraError("an atom is not a sum of the larger context's atoms")
    return TwoValuedHom(sub, int(table[chi.chosen_atom]))


def check_indicator_naturality(a: SpectralOperator, tol: Tolerances = DEFAULT_TOL) -> Report:
    """Each eigenvalue of an observable induces a two-valued hom on its
    context by indicator membership.  Verify, for every coarse-graining,
    that the hom induced by the coarsened eigenvalue agrees with the
    restriction of the original hom on every subalgebra element.

    One side is pure index bookkeeping; the other evaluates projector
    domination on matrices, so agreement is a real computation."""
    report = Report("indicator naturality")
    lattice = CoarseGrainingLattice(a, Mode.WITH_CONSTANTS)
    top_context = BooleanContext._of_checked(a.projectors, tol)
    for p in lattice.objects:
        coarse_op = lattice.operator_at(p)
        sub = BooleanContext._of_checked(coarse_op.projectors, tol)
        for lam in range(a.k):
            chi = TwoValuedHom(top_context, lam)
            restricted = restrict_hom(chi, sub, tol)
            induced = TwoValuedHom(sub, p.block_of(lam))
            for n in range(p.n_blocks + 1):
                for combo in itertools.combinations(range(p.n_blocks), n):
                    element = sub.element(combo)
                    report.record(
                        induced.value(combo) == restricted.value_projector(element, tol)
                        and induced.value(combo)
                        == chi.value_projector(element, tol),
                        lambda: f"indicator square fails at partition {p}, eigenvalue index {lam}, blocks {combo}",
                    )
    return report.finish()


@dataclass(frozen=True)
class FunctionalRelation:
    """A detected relation: the target observable is a function of the
    source, with `table[i]` the target eigenvalue index at source
    eigenvalue index i."""

    source: int
    target: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class SectionAssignment:
    """A choice of eigenvalue index per family member satisfying every
    recorded functional relation."""

    choices: tuple[int, ...]
    relations: tuple[FunctionalRelation, ...]

    def verify(self) -> bool:
        return all(
            self.choices[r.target] == r.table[self.choices[r.source]]
            for r in self.relations
        )


def detect_relations(
    family: Sequence[SpectralOperator], tol: Tolerances = DEFAULT_TOL
) -> tuple[FunctionalRelation, ...]:
    """All pairwise functional relations within a family: family[j] is a
    function of family[i] when their common coarsening is discrete, and
    the table is the overlap pass's link of each projector of family[i]."""
    if not family:
        return ()
    dim = family[0].dim
    if any(op.dim != dim for op in family):
        raise InputError("family members act on different dimensions")
    out = []
    for i, j in itertools.permutations(range(len(family)), 2):
        r, links = _overlaps(family[j], family[i], tol)
        if r.n_blocks == family[j].k:
            out.append(FunctionalRelation(i, j, tuple(links)))
    return tuple(out)


def search_global_section(
    family: Sequence[SpectralOperator],
    declared: Iterable[tuple[int, int, Sequence[int]]] = (),
    tol: Tolerances = DEFAULT_TOL,
) -> Optional[SectionAssignment]:
    """Search for an eigenvalue choice per family member that values
    every projector two members share alike, and so satisfies every
    functional relation between members.

    Relations are auto-detected; declared (source, target, table)
    triples are cross-checked against detection and rejected on
    mismatch.  The search is `search_dual_section` on the members'
    spectral algebras, atom i being eigenvalue index i: members in
    family order, eigenvalue indices ascending, first witness returned.
    Returns None when no section exists.
    """
    relations = detect_relations(family, tol)
    detected = {(r.source, r.target): r.table for r in relations}
    for src, tgt, table in declared:
        if detected.get((src, tgt)) != tuple(table):
            raise InputError(
                f"declared relation {src} -> {tgt} does not match the detected one"
            )
    if not family:
        return SectionAssignment((), relations)
    w = search_dual_section(ContextFamily([BooleanContext._of_checked(a.projectors, tol) for a in family], tol))
    return None if w is None else SectionAssignment(w.chosen, relations)
