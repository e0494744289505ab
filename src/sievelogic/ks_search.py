"""Exhaustive search for global 0/1 valuations over families of Boolean
contexts.

A family is a list of contexts on one Hilbert space.  A witness picks
one atom per context; the atom's indicator hom then values every
subset-sum projector of that context.  The witness must give every
projector the same value in every context where it occurs.

`ContextFamily` relates two contexts by the overlap pass of `spectral`:
they share exactly the unions of the blocks of their common coarsening,
and no subset sum is built.  The family is then compiled into integer
bitmasks over the shared classes: for each atom, the classes it sets to
1 and the classes it sets to 0.

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
from .sieves import _bits, _row_masks
from .spectral import DEFAULT_TOL, SpectralOperator, Tolerances, _blocks, _components

# valuations is imported only where a witness becomes a PartialValuation:
# the search itself never evaluates one, so `ks` does not load it
if TYPE_CHECKING:
    from .valuations import PartialValuation

# Per context, one (ones, zeros) pair of class masks per atom.
AtomMasks = tuple[tuple[int, int], ...]

# The most block unions a family may identify, counted over its context
# pairs before any is built.  Two equal 16-atom contexts have 65534: 0.85 s
# and 176 MB to build, 0.25-0.3 s of it compiling one search bit per class
# (three runs, 2-core Xeon); 20 atoms would have a million.
MAX_SHARED_UNIONS = 1 << 16


def _pair_blocks(contexts: Sequence[BooleanContext], tau: float) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The blocks of the common coarsening of each pair ci < cj of
    contexts that has two or more, as (ci-atom mask, cj-atom mask) pairs,
    from the routines of `spectral._overlaps`.  Atoms are linked when
    max_abs(P Q) > tau, or else to their largest overlap in the other
    context.  All P Q are the stacked atoms times their transposed stack,
    one context's rows at a time (k d x N d entries); all balance tests
    are one product of component indicators with the stack."""
    sizes = [ctx.n_atoms for ctx in contexts]
    n, starts = len(sizes), np.cumsum([0] + sizes)
    first, owner, cut = starts[:-1], np.repeat(np.arange(n), sizes), starts.tolist()
    local = np.arange(starts[-1]) - first[owner]  # an atom's index in its context
    bits = np.int64 if max(sizes) < 63 else object  # the dtype of an atom bitmask
    atoms = np.stack([a for ctx in contexts for a in ctx.atoms])
    m, d = len(atoms), atoms.shape[1]
    right = atoms.transpose(1, 2, 0)  # right[t, s, j] = P_j[t, s]
    overlaps = np.zeros((m, m))  # max_abs(P_i P_j) for atoms of different contexts
    for lo, hi in zip(cut[:-2], cut[1:-1]):
        products = atoms[lo:hi].reshape(-1, d) @ right[:, :, hi:].reshape(d, -1)
        overlaps[lo:hi, hi:] = np.abs(products).reshape(hi - lo, d * d, m - hi).max(axis=1)
    overlaps += overlaps.T
    linked = overlaps > tau
    for i, c in np.argwhere(~np.logical_or.reduceat(linked, first, axis=1) & (owner[:, None] != np.arange(n))).tolist():
        j = cut[c] + overlaps[i, cut[c] : cut[c + 1]].argmax()
        linked[i, j] = linked[j, i] = True
    masks = np.add.reduceat((np.ones(m, bits) << local)[:, None] * linked, first, axis=0).tolist()  # [ci][j]
    # an atom linked to every atom of the other context joins all into one component
    one = np.logical_or.reduceat(np.logical_and.reduceat(linked, first, axis=0), first, axis=1)
    one |= np.logical_or.reduceat(np.logical_and.reduceat(linked, first, axis=1), first, axis=0)
    pending = [(ci, cj, _components(masks[ci][cut[cj] : cut[cj + 1]])) for ci, cj in np.argwhere(np.triu(~one, 1)).tolist()]
    rows = [(ci, cj, ia, jc) for ci, cj, components in pending if len(components) > 1 for ia, jc in components]
    ci, cj, ia, jc = (np.array([r[i] for r in rows], dtype)[:, None] for i, dtype in enumerate((int, int, bits, bits)))
    shift, row = np.arange(max(sizes)), np.arange(len(rows))[:, None]
    indicator = np.zeros((len(rows), m + len(shift)))  # padded: no mask has a bit past its context
    indicator[row, starts[ci] + shift] = (ia >> shift) & 1
    indicator[row, starts[cj] + shift] -= ((jc >> shift) & 1).astype(float)
    sums = (indicator[:, :m] @ atoms.reshape(m, d * d).view(float)).view(complex)
    balanced, pairs = iter((np.abs(sums).max(axis=1) <= tau).tolist()), {}
    for ci, cj, components in pending:
        if len(components) > 1:
            blocks = _blocks(components, [next(balanced) for _ in components], sizes[ci])
            if len(blocks) > 1:
                pairs[ci, cj] = blocks
    return pairs


def _classes(sizes: Sequence[int], pairs: dict[tuple[int, int], list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """The shared classes as lists of (context, atom mask) nodes: the zero
    masks, the full masks, then the sorted classes of a union-find joining
    the unions of the same blocks on the two sides of every pair."""
    width = max(sizes)  # node (ci, mask) is the int ci << width | mask, ordered alike
    parent: dict[int, int] = {}  # a root has no entry

    def root(x):
        while x in parent:
            x = parent[x]
        return x

    for (ci, cj), blocks in pairs.items():
        unions = [(0, 0)]
        for ia, jc in blocks:
            unions += [(ua | ia, uc | jc) for ua, uc in unions]
        for ua, uc in unions[1:-1]:  # never empty or full on either side
            x, y = root(ci << width | ua), root(cj << width | uc)
            if x != y:
                parent[max(x, y)] = min(x, y)
    classes: dict[int, list[tuple[int, int]]] = {}
    for node in sorted(parent.keys() | parent.values()):
        classes.setdefault(root(node), []).append((node >> width, node & (1 << width) - 1))
    ends = [[(ci, 0) for ci in range(len(sizes))], [(ci, (1 << k) - 1) for ci, k in enumerate(sizes)]]
    return ends * (len(sizes) > 1) + list(classes.values())


def _compile(sizes: Sequence[int], classes: Sequence[Sequence[tuple[int, int]]]) -> tuple[AtomMasks, ...]:
    """One bit per class other than zero and the identity (those never
    conflict), set to 1 by the atoms in the class's masks, else to 0.
    One bool table over (context, atom, 1s or 0s, class) is filled from
    all occurrences at once, and each atom's two rows are packed into its
    int masks once (rows past a context's atoms are padding)."""
    shared = classes[2:]
    occurrences = [node for nodes in shared for node in nodes]
    ci, mask = zip(*occurrences) if occurrences else ((), ())
    n, k, width = len(sizes), max(sizes), len(shared)
    ci = np.array(ci, dtype=np.intp)
    bit = np.repeat(np.arange(width), [len(nodes) for nodes in shared])
    member = np.array(mask, dtype=np.int64 if k < 63 else object).reshape(-1, 1) >> np.arange(k) & 1 == 1
    table = np.zeros((n, k, 2, width), dtype=bool)
    for side, hit in enumerate((member, ~member)):
        node, atom = np.nonzero(hit)
        table[ci[node], atom, side, bit[node]] = True  # a class may hold two masks of one context
    masks = _row_masks(table.reshape(2 * n * k, width))
    pairs = list(zip(masks[::2], masks[1::2]))
    return tuple(tuple(pairs[c * k : c * k + size]) for c, size in enumerate(sizes))


class ContextFamily:
    """A finite list of Boolean contexts on one Hilbert space, indexed so
    that the projectors two contexts share are recognized.

    Two contexts share exactly the unions of the blocks of their common
    coarsening (`_pair_blocks`).  So, under `tol.tau_proj`, a union of
    blocks is shared when each block's two sums agree within tau_proj,
    even where the union sums differ by more; and the zero and the
    identity of all contexts form one class each, whatever their sums.
    `index` maps the id of each class occurring in two or more contexts
    to its occurrences, as (context position, atom index set) pairs.  A
    family whose pairs have more than `MAX_SHARED_UNIONS` block unions
    in all is refused with InputError before any is built."""

    __slots__ = ("dim", "contexts", "tol", "index", "_masks")

    def __init__(self, contexts: Sequence[BooleanContext], tol: Tolerances = DEFAULT_TOL):
        if not contexts:
            raise InputError("a context family needs at least one context")
        dim = contexts[0].dim
        if any(c.dim != dim for c in contexts):
            raise InputError("contexts act on different dimensions")
        pairs = _pair_blocks(contexts, tol.tau_proj) if len(contexts) > 1 else {}
        count = sum((1 << len(blocks)) - 2 for blocks in pairs.values())
        if count > MAX_SHARED_UNIONS:
            raise InputError(f"the context pairs have {count} shared block unions, more than {MAX_SHARED_UNIONS}")
        sizes = [c.n_atoms for c in contexts]
        classes = _classes(sizes, pairs)
        subset = {mask: frozenset(_bits(mask)) for mask in {mask for nodes in classes for _, mask in nodes}}
        self.dim, self.contexts, self.tol = dim, tuple(contexts), tol
        self.index = {cid: [(ci, subset[mask]) for ci, mask in nodes] for cid, nodes in enumerate(classes)}
        self._masks = _compile(sizes, classes)

    def _restrict(self, keep: Sequence[int]) -> "ContextFamily":
        """The subfamily of the contexts at positions `keep`, in that order,
        with this family's masks and classes left in two or more of them."""
        pos = {ci: j for j, ci in enumerate(keep)}
        sub = ContextFamily.__new__(ContextFamily)
        sub.dim, sub.contexts, sub.tol, sub.index = self.dim, tuple(self.contexts[ci] for ci in keep), self.tol, {}
        for cid, entries in self.index.items():
            live = [(pos[ci], subset) for ci, subset in entries if ci in pos]
            if len({ci for ci, _ in live}) > 1:
                sub.index[cid] = live
        sub._masks = tuple(self._masks[ci] for ci in keep)
        return sub

    def __len__(self):
        return len(self.contexts)

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
        """The implied value of every shared projector class."""
        return {cid: self.value(*entries[0]) for cid, entries in fam.index.items()}

    def verify(self, fam: ContextFamily) -> bool:
        """Recheck cross-context agreement on every shared projector,
        independently of any search state."""
        if len(self.chosen) != len(fam.contexts):
            return False
        if not all(0 <= atom < ctx.n_atoms for atom, ctx in zip(self.chosen, fam.contexts)):
            return False
        return all(len({self.value(ci, subset) for ci, subset in entries}) == 1 for entries in fam.index.values())


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
    """The lexicographically least atom choice per context that values
    every shared projector alike (contexts in order, atoms ascending,
    with the forward checks of the module docstring); None when the
    family admits none."""
    chosen = _first_witness(fam._masks)
    return None if chosen is None else DualSectionWitness(chosen)


def minimal_uncolorable_subfamily(fam: ContextFamily) -> ContextFamily:
    """Greedy removal loop: drop contexts (in order) whose removal keeps
    the family without a witness, until every remaining context is
    needed.  Requires the input family to have no witness already.

    Trials search the kept contexts' compiled masks; the result is
    restricted from this family: the same context objects, in order."""
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
    return PartialValuation.explicit([(context_operator(ctx), atom) for ctx, atom in zip(fam.contexts, w.chosen)], tol)
