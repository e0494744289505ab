"""Exhaustive search for global 0/1 valuations over families of Boolean
contexts.

A family is a list of contexts on one Hilbert space.  A witness picks
one atom per context; the atom's indicator hom then values every
subset-sum projector of that context.  The witness must give every
projector the same value in every context where it occurs.

`ContextFamily` identifies equal projectors once, by tolerance: two
subset sums get the same class id when their entries differ by at most
`tau_proj` in absolute value, and chains of such pairs are joined by
union-find.  No rounding grid is involved, so the answer does not depend
on where an entry happens to round.  The family is then compiled into
integer bitmasks over the classes shared between contexts: for each
atom, the classes it sets to 1 and the classes it sets to 0.

The search backtracks over these masks, contexts in order and atoms
ascending, holding the decided classes as two masks.  After each choice
it checks forward that every later context sharing a newly decided
class still has a compatible atom, and decides the classes of a later
context left with only one (repeated until nothing more is forced).
That only cuts branches with no completion, so the first witness found
is the lexicographically least one.  The absence of a witness for
suitable families is the contextuality obstruction; an 18-ray,
9-context example in dimension 4 ships with the package data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .contexts import BooleanContext
from .errors import InputError, StillColorableError
from .spectral import DEFAULT_TOL, SpectralOperator, Tolerances

# valuations is imported only where a witness becomes a PartialValuation:
# the search itself never evaluates one, so `ks` does not load it
if TYPE_CHECKING:
    from .valuations import PartialValuation

# Per context, one (ones, zeros) pair of class masks per atom.
AtomMasks = tuple[tuple[int, int], ...]

_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


def _projector_classes(mats: np.ndarray, tau: float) -> list[int]:
    """Class ids for a stack of square matrices: two matrices share an id
    when a chain of pairs with max-abs difference at most tau joins them.
    Ids number the classes in order of first occurrence.

    Candidate pairs come from a sort-and-sweep on a fixed linear key with
    positive weights w: a pair within tau differs in key by at most
    ||w||_1 * tau, plus the rounding of the two dot products."""
    n = len(mats)
    flat = mats.reshape(n, -1)
    parts = flat.view(float)
    weights = (np.arange(1, parts.shape[1] + 1) * _GOLDEN) % 1.0 + 0.5
    keys = parts @ weights
    rounding = 2.0 * parts.shape[1] * np.finfo(float).eps * float(np.abs(parts).max(initial=0.0))
    window = float(weights.sum()) * (tau + rounding)
    order = np.argsort(keys, kind="stable")
    ends = np.searchsorted(keys[order], keys[order] + window, side="right")
    # every pair of sorted positions lo < hi < ends[lo]
    counts = ends - np.arange(1, n + 1)
    lo = np.repeat(np.arange(n), counts)
    hi = lo + 1 + np.arange(len(lo)) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[lo], order[hi]
    close = np.abs(flat[a] - flat[b]).max(axis=1, initial=0.0) <= tau

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(a[close].tolist(), b[close].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    label: dict[int, int] = {}
    return [label.setdefault(find(i), len(label)) for i in range(n)]


class ContextFamily:
    """A finite list of Boolean contexts on one Hilbert space, indexed so
    that equal subset-sum projectors (entries within `tol.tau_proj`) are
    recognized across contexts.

    `index` maps each projector class id to its occurrences, as
    (context position, atom index set) pairs."""

    __slots__ = ("dim", "contexts", "tol", "index", "_masks")

    def __init__(self, contexts: Sequence[BooleanContext], tol: Tolerances = DEFAULT_TOL):
        if not contexts:
            raise InputError("a context family needs at least one context")
        dim = contexts[0].dim
        if any(c.dim != dim for c in contexts):
            raise InputError("contexts act on different dimensions")
        where, mats = [], []
        for ci, ctx in enumerate(contexts):
            for subset, matrix in ctx.elements():
                where.append((ci, subset))
                mats.append(matrix)
        index: dict[int, list[tuple[int, frozenset[int]]]] = {}
        for occurrence, cid in zip(where, _projector_classes(np.stack(mats), tol.tau_proj)):
            index.setdefault(cid, []).append(occurrence)
        self.dim = dim
        self.contexts = tuple(contexts)
        self.tol = tol
        self.index = index
        self._masks = self._compile()

    def _compile(self) -> tuple[AtomMasks, ...]:
        """One bit per class that occurs in two contexts and is neither
        the zero nor the identity projector (those never conflict)."""
        ones = [[0] * ctx.n_atoms for ctx in self.contexts]
        zeros = [[0] * ctx.n_atoms for ctx in self.contexts]
        bit = 1
        for entries in self.shared_projectors().values():
            ci, subset = entries[0]
            if not 0 < len(subset) < self.contexts[ci].n_atoms:
                continue
            for ci, subset in entries:
                for atom in range(self.contexts[ci].n_atoms):
                    if atom in subset:
                        ones[ci][atom] |= bit
                    else:
                        zeros[ci][atom] |= bit
            bit <<= 1
        return tuple(tuple(zip(o, z)) for o, z in zip(ones, zeros))

    def _restrict(self, keep: Sequence[int]) -> "ContextFamily":
        """The subfamily of the contexts at positions `keep`, in that
        order, with its index and masks taken from this family."""
        pos = {ci: j for j, ci in enumerate(keep)}
        sub = ContextFamily.__new__(ContextFamily)
        sub.dim = self.dim
        sub.contexts = tuple(self.contexts[ci] for ci in keep)
        sub.tol = self.tol
        sub.index = {}
        for cid, entries in self.index.items():
            live = [(pos[ci], subset) for ci, subset in entries if ci in pos]
            if live:
                sub.index[cid] = live
        sub._masks = tuple(self._masks[ci] for ci in keep)
        return sub

    def __len__(self):
        return len(self.contexts)

    def shared_projectors(self) -> dict[int, list[tuple[int, frozenset[int]]]]:
        """Class ids occurring as subset sums in at least two distinct
        contexts, with their occurrences."""
        return {
            cid: entries
            for cid, entries in self.index.items()
            if len({ci for ci, _ in entries}) >= 2
        }

    def __repr__(self):
        return f"ContextFamily(dim={self.dim}, contexts={len(self.contexts)})"


@dataclass(frozen=True)
class DualSectionWitness:
    """One chosen atom per context, consistent across shared projectors."""

    chosen: tuple[int, ...]

    def value(self, context: int, subset) -> int:
        """The 0/1 value of a subset-sum projector of one context."""
        return 1 if self.chosen[context] in set(subset) else 0

    def value_table(self, fam: ContextFamily) -> dict[int, int]:
        """The implied value of every projector class shared between
        contexts."""
        out = {}
        for cid, entries in fam.shared_projectors().items():
            ci, subset = entries[0]
            out[cid] = self.value(ci, subset)
        return out

    def verify(self, fam: ContextFamily) -> bool:
        """Recheck cross-context agreement on every shared projector,
        independently of any search state."""
        if len(self.chosen) != len(fam.contexts):
            return False
        for ci, atom in enumerate(self.chosen):
            if not 0 <= atom < fam.contexts[ci].n_atoms:
                return False
        for entries in fam.index.values():
            values = {self.value(ci, subset) for ci, subset in entries}
            if len(values) > 1:
                return False
        return True


def _settle(
    masks: Sequence[AtomMasks], support: Sequence[int], start: int, d1: int, d0: int, fresh: int
) -> Optional[tuple[int, int]]:
    """Forward check of the contexts from `start` on against the decided
    classes (d1 set to 1, d0 set to 0), of which `fresh` were decided
    last.  A context sharing a fresh class is rechecked: with no
    compatible atom left the branch is dead (None); with exactly one,
    that atom's classes are decided too and count as fresh in the next
    pass.  Returns the decided masks once nothing new is forced."""
    n = len(masks)
    while fresh:
        forced = 0
        for j in range(start, n):
            if not support[j] & fresh:
                continue
            only = None
            for one, zero in masks[j]:
                if not (one & d0 or zero & d1):
                    if only is not None:
                        break
                    only = one, zero
            else:  # at most one compatible atom
                if only is None:
                    return None
                one, zero = only
                forced |= (one & ~d1) | (zero & ~d0)
                d1, d0 = d1 | one, d0 | zero
        fresh = forced
    return d1, d0


def _first_witness(masks: Sequence[AtomMasks]) -> Optional[tuple[int, ...]]:
    """The lexicographically least atom choice, one per context, under
    which no class is set to both 1 and 0; None when there is none.  A
    forced atom is the only one the search could take later, so forcing
    it early changes no choice."""
    n = len(masks)
    # Every atom sets each class of its context one way or the other.
    support = [m[0][0] | m[0][1] for m in masks]
    chosen = [0] * n

    def walk(ci: int, d1: int, d0: int) -> bool:
        if ci == n:
            return True
        for atom, (one, zero) in enumerate(masks[ci]):
            if one & d0 or zero & d1:
                continue
            fresh = (one & ~d1) | (zero & ~d0)
            settled = _settle(masks, support, ci + 1, d1 | one, d0 | zero, fresh)
            if settled is not None:
                chosen[ci] = atom
                if walk(ci + 1, *settled):
                    return True
        return False

    return tuple(chosen) if walk(0, 0, 0) else None


def search_dual_section(fam: ContextFamily) -> Optional[DualSectionWitness]:
    """Backtracking search for a consistent atom choice per context.

    Contexts are processed in order with atom indices ascending.  A
    branch is pruned as soon as a shared projector would receive
    conflicting values, or a later context sharing a projector with the
    decided ones has no compatible atom left; a later context left with
    one compatible atom has its values decided at once.  Pruning only
    cuts branches with no completion, so the first witness found is the
    lexicographically least one.  Returns None when the family admits no
    witness.
    """
    chosen = _first_witness(fam._masks)
    return None if chosen is None else DualSectionWitness(chosen)


def minimal_uncolorable_subfamily(fam: ContextFamily) -> ContextFamily:
    """Greedy removal loop: drop contexts (in order) whose removal keeps
    the family without a witness, until every remaining context is
    needed.  Requires the input family to have no witness already.

    Trials search the family's compiled masks of the kept contexts; the
    result is restricted from this family's index and holds the same
    context objects in the same order."""
    if search_dual_section(fam) is not None:
        raise StillColorableError("family admits a witness; nothing to minimize")
    keep = list(range(len(fam)))
    i = 0
    while i < len(keep):
        trial = keep[:i] + keep[i + 1 :]
        if trial and _first_witness([fam._masks[ci] for ci in trial]) is None:
            keep = trial
        else:
            i += 1
    return fam._restrict(keep)


def context_operator(ctx: BooleanContext) -> SpectralOperator:
    """An observable whose eigenprojectors are the context's atoms, with
    eigenvalue i on atom i; the context has checked the atoms."""
    return SpectralOperator._of_checked([float(i) for i in range(ctx.n_atoms)], ctx.atoms)


def section_to_partial_valuation(
    w: DualSectionWitness, fam: ContextFamily, tol: Tolerances = DEFAULT_TOL
) -> PartialValuation:
    """Turn a witness into an explicit pointwise valuation: each context
    contributes one observable (eigenvalue i on atom i) assigned the
    eigenvalue of the chosen atom.  Construction revalidates consistency
    from scratch."""
    from .valuations import PartialValuation

    if not w.verify(fam):
        raise InputError("witness does not fit the family")
    assignments = []
    for ci, ctx in enumerate(fam.contexts):
        assignments.append((context_operator(ctx), w.chosen[ci]))
    return PartialValuation.explicit(assignments, tol)
