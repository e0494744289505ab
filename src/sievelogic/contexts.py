"""Boolean contexts and the subalgebra poset.

A Boolean context is a finite Boolean algebra of commuting projectors,
presented by its atoms.  All subalgebras of one top context form a
poset: a subalgebra's atoms are sums of top atoms over the blocks of a
partition, and inclusion runs opposite to refinement.  Elements of a
node are unions of its blocks, written as frozensets of top-atom
indices, so all poset computations are exact set arithmetic.

Truth values over a node are down-closed sets of subalgebras (further
coarsenings).  A density matrix induces such a truth value for each
projector: the set of coarsenings under which the projector's canonical
coarse-graining has probability one.

The poset is the interned partition lattice of `sieves`: a node is a bit
index, its down set is its up-set mask, and a truth value is a mask
inside that down set.  The audits run on subset bitmasks (bit j = top
atom j), reading one image table per node and one mass table per state;
the local valuation axioms share their routine with `valuations`.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InputError, NotSubalgebraError, ZeroNormError
from .report import Report
from .sieves import Mode, Partition, Sieve, _bits, _image, _lattice, _mask_of, mass_sieve, subset_masses
from .spectral import (
    DEFAULT_TOL,
    QuantumState,
    Tolerances,
    _check_resolution,
    _freeze,
    _subset_sum,
    as_matrix,
)
from .valuations import _check_order

Element = frozenset[int]
ThetaMap = Union[
    Callable[[Partition, Partition, Element], Element],
    Mapping[tuple[Partition, Partition], Mapping[Element, Element]],
]


class BooleanContext:
    """A finite Boolean algebra of projectors, given by its atoms.

    Atoms must be nonzero mutually orthogonal projectors resolving the
    identity; the algebra's elements are the 2^n subset sums.
    """

    __slots__ = ("atoms", "dim", "tol")

    def __init__(self, atoms: Sequence, tol: Tolerances = DEFAULT_TOL):
        mats = [as_matrix(a) for a in atoms]
        if not mats:
            raise InputError("a Boolean context needs at least one atom")
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise InputError("atoms differ in dimension")
        _check_resolution(mats, tol, "atom")
        self.atoms = tuple(_freeze(m) for m in mats)
        self.dim = dim
        self.tol = tol

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def element(self, indices: Iterable[int]) -> np.ndarray:
        """The subset-sum projector over the given atom indices."""
        return _subset_sum(self.atoms, indices, "atom")

    def elements(self):
        """All (index set, projector) pairs of the algebra."""
        for n in range(self.n_atoms + 1):
            for combo in itertools.combinations(range(self.n_atoms), n):
                yield frozenset(combo), _subset_sum(self.atoms, combo, "atom")

    def __repr__(self):
        return f"BooleanContext(dim={self.dim}, atoms={self.n_atoms})"


def context_from_vectors(vectors: Sequence, tol: Tolerances = DEFAULT_TOL) -> BooleanContext:
    """The context whose atoms are the ray projectors of a list of
    mutually orthogonal vectors spanning the space.  Vectors need not be
    normalized."""
    mats = []
    for v in vectors:
        arr = np.asarray(v, dtype=complex).reshape(-1)
        norm2 = float(np.vdot(arr, arr).real)
        if norm2 <= tol.tau_proj:
            raise ZeroNormError("ray vector has zero norm")
        mats.append(np.outer(arr, arr.conj()) / norm2)
    return BooleanContext(mats, tol)


class SubalgebraPoset:
    """All subalgebras of one top context, ordered by inclusion.

    Nodes are partitions of the top's atom indices; a node's atoms are
    the block sums.  Node q is included in node p exactly when q
    coarsens p, so the top (discrete partition) is the greatest node.
    The mode chooses whether the trivial one-block algebra is a node.
    """

    __slots__ = ("top", "mode", "nodes", "_lattice", "_states")

    def __init__(self, top: BooleanContext, mode: Mode = Mode.WITH_CONSTANTS):
        self.top = top
        self.mode = mode
        self._lattice = _lattice(top.n_atoms, mode)
        self.nodes = self._lattice.parts
        self._states = {}

    def _require(self, w: Partition) -> int:
        i = self._lattice.index.get(w)
        if i is None:
            raise InputError(f"partition {w} is not a node of this poset")
        return i

    def leq(self, w2: Partition, w1: Partition) -> bool:
        """Whether w2 is a subalgebra of w1."""
        i1 = self._require(w1)
        return bool(self._lattice.up[i1] >> self._require(w2) & 1)

    def down_set(self, w: Partition) -> frozenset[Partition]:
        """All subalgebras of w, including w itself."""
        return frozenset(self.nodes[j] for j in _bits(self._lattice.up[self._require(w)]))

    def elements(self, w: Partition) -> tuple[Element, ...]:
        """All elements of node w as frozensets of top-atom indices,
        in a deterministic order."""
        self._require(w)
        return _node_elements(w)

    def is_element(self, w: Partition, alpha: Element) -> bool:
        self._require(w)
        return _element_mask(w, alpha) is not None

    def weights(self, rho: QuantumState) -> tuple[float, ...]:
        """The state's probability of each top atom."""
        return self._state(rho)[0]

    def _state(self, rho: QuantumState) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The state's atom weights and their `subset_masses` table,
        computed once per state and kept for the life of the poset."""
        hit = self._states.get(rho)
        if hit is None:
            weights = rho.weights(self.top.atoms)
            hit = self._states[rho] = (weights, tuple(subset_masses(weights)))
        return hit

    def node_context(self, w: Partition) -> BooleanContext:
        """The node as a standalone context with block-sum atoms."""
        self._require(w)
        return BooleanContext([self.top.element(b) for b in w.blocks], self.top.tol)

    def __repr__(self):
        return f"SubalgebraPoset(atoms={self.top.n_atoms}, nodes={len(self.nodes)})"


def _node_elements(w: Partition) -> tuple[Element, ...]:
    """The unions of w's blocks, ordered by size, then by sorted indices."""
    out = (frozenset(i for b in combo for i in b)
           for n in range(w.n_blocks + 1) for combo in itertools.combinations(w.blocks, n))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def _element_mask(w: Partition, alpha: Iterable[int]) -> Optional[int]:
    """The subset bitmask of alpha when it is an element of node w (a
    union of w's blocks), else None."""
    try:
        a = _mask_of(alpha, w.k, "atom")
    except InputError:
        return None
    return a if _image(w, a) == a else None


@lru_cache(maxsize=None)
def _node_tables(n: int, mode: Mode) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per node of the n-atom poset, in lattice order: the image of each
    of the 2^n subset bitmasks (the union of the node's blocks that meet
    it), and the node's element masks in `SubalgebraPoset.elements`
    order.  Only the audits build these tables."""
    parts = _lattice(n, mode).parts
    images = tuple(tuple(_image(w, s) for s in range(1 << n)) for w in parts)
    return images, tuple(tuple(_mask_of(e, n, "atom") for e in _node_elements(w)) for w in parts)


def canonical_coarsening(
    poset: SubalgebraPoset, w1: Partition, w2: Partition, alpha: Element
) -> Element:
    """The least element of subalgebra w2 dominating alpha: the union of
    w2's blocks that meet alpha."""
    if not poset.leq(w2, w1):
        raise NotSubalgebraError(f"{w2} is not a subalgebra of {w1}")
    if not poset.is_element(w1, alpha):
        raise InputError(f"{sorted(alpha)} is not an element of {w1}")
    return frozenset(_bits(_image(w2, _mask_of(alpha, w1.k, "atom"))))


def _theta_masks(poset: SubalgebraPoset, theta: Optional[ThetaMap], images: Sequence[Sequence[int]]):
    """The map as a function of (node index, node index, element mask)
    giving the image mask.  The canonical map is a read of the image
    tables; a user map is asked with frozensets, and its answer is
    turned into a mask."""
    if theta is None:
        return lambda i1, i2, a: images[i2][a]
    nodes = poset.nodes

    def ask(i1, i2, a):
        w1, w2, alpha = nodes[i1], nodes[i2], frozenset(_bits(a))
        if callable(theta):
            image = theta(w1, w2, alpha)
        else:
            try:
                image = theta[(w1, w2)][alpha]
            except KeyError:
                raise InputError(f"theta table has no entry for ({w1}, {w2}, {sorted(alpha)})") from None
        try:
            return _mask_of(image, poset.top.n_atoms, "atom")
        except (TypeError, InputError):
            raise InputError(
                f"theta({sorted(alpha)}) from {w1} to {w2} is not a set of atom indices: {image!r}"
            ) from None

    return ask


def check_coarsening_axioms(poset: SubalgebraPoset, theta: Optional[ThetaMap] = None) -> Report:
    """Exhaustive audit of a coarse-graining map over the whole poset:
    domination, monotonicity, retraction, and composition along chains.
    The canonical map is used when none is supplied."""
    images, elements = _node_tables(poset.top.n_atoms, poset.mode)
    th = _theta_masks(poset, theta, images)
    nodes, up = poset.nodes, poset._lattice.up
    report = Report("coarse-graining axioms")
    for i1, w1 in enumerate(nodes):
        els = elements[i1]
        nested = [(x, y) for x, y in itertools.combinations(range(len(els)), 2) if not els[x] & ~els[y]]
        # the map's image of each element of w1, per subalgebra w2
        rows = {i2: [th(i1, i2, a) for a in els] for i2 in _bits(up[i1])}
        for i2, row in rows.items():
            w2, image = nodes[i2], images[i2]
            report.tally(len(els), (
                f"domination fails: theta({list(_bits(a))}) from {w1} to {w2} loses atoms"
                for a, t in zip(els, row) if a & ~t
            ))
            retractable = [(a, t) for a, t in zip(els, row) if image[a] == a]
            report.tally(len(retractable), (
                f"retraction fails on {list(_bits(a))} from {w1} to {w2}" for a, t in retractable if t != a
            ))
            report.tally(len(nested), (
                f"monotonicity fails for {list(_bits(els[x]))} within {list(_bits(els[y]))} from {w1} to {w2}"
                for x, y in nested if row[x] & ~row[y]
            ))
            for i3 in _bits(up[i2]):
                report.tally(len(els), (
                    f"composition fails on {list(_bits(a))} along {w1} -> {w2} -> {nodes[i3]}"
                    for a, t, direct in zip(els, row, rows[i3]) if direct != th(i2, i3, t)
                ))
    return report.finish()


class SubalgebraSieve:
    """A down-closed set of subalgebras of a base node: a truth value at
    that node.  A view of the poset, the base's bit index `_node` and an
    up-closed mask in its down set; `Sieve` checks given members."""

    __slots__ = ("poset", "_node", "_mask")

    def __init__(self, poset: SubalgebraPoset, base: Partition, members: Iterable[Partition]):
        down = poset.down_set(base)
        members = tuple(members)
        for w in members:
            if w not in down:
                raise InputError(f"{w} is not a subalgebra of the base {base}")
        mask = Sieve(poset.top.n_atoms, poset.mode, members).mask
        self.poset, self._node, self._mask = poset, poset._require(base), mask

    @classmethod
    def _at(cls, poset: SubalgebraPoset, i: int, mask: int) -> "SubalgebraSieve":
        """The truth value with an up-closed mask at the node of bit index i."""
        out = cls.__new__(cls)
        out.poset, out._node, out._mask = poset, i, mask
        return out

    @property
    def base(self) -> Partition:
        return self.poset.nodes[self._node]

    @property
    def sieve(self) -> Sieve:
        """The same mask as a `Sieve` over the top's atoms."""
        return Sieve._of_mask(self.poset.top.n_atoms, self.poset.mode, self._mask)

    @property
    def members(self) -> frozenset[Partition]:
        return frozenset(self)

    @property
    def _site(self) -> tuple[Partition, Mode]:
        """Where the truth value lives: its base node and the poset's mode."""
        return self.base, self.poset.mode

    def __eq__(self, other):
        return isinstance(other, SubalgebraSieve) and (self._site, self._mask) == (other._site, other._mask)

    def __hash__(self):
        return hash((self._site, self._mask))

    def __contains__(self, w: Partition) -> bool:
        j = self.poset._lattice.index.get(w)
        return j is not None and bool(self._mask >> j & 1)

    def __len__(self):
        return self._mask.bit_count()

    def __iter__(self):
        nodes = self.poset.nodes
        return (nodes[j] for j in _bits(self._mask))

    def leq(self, other: "SubalgebraSieve") -> bool:
        if self._site != other._site:
            raise InputError("cannot compare truth values at different nodes")
        return not self._mask & ~other._mask

    @property
    def is_true(self) -> bool:
        return self._mask == self.poset._lattice.up[self._node]

    @property
    def is_false(self) -> bool:
        return not self._mask

    def restrict(self, w2: Partition) -> "SubalgebraSieve":
        """The induced truth value at a subalgebra of the base."""
        if not self.poset.leq(w2, self.base):
            raise NotSubalgebraError(f"{w2} is not a subalgebra of {self.base}")
        i2 = self.poset._require(w2)
        return SubalgebraSieve._at(self.poset, i2, self._mask & self.poset._lattice.up[i2])

    def __repr__(self):
        return f"SubalgebraSieve(base={self.base}, members={len(self)})"


def true_w(poset: SubalgebraPoset, w: Partition) -> SubalgebraSieve:
    """The unit truth value at node w: every subalgebra."""
    i = poset._require(w)
    return SubalgebraSieve._at(poset, i, poset._lattice.up[i])


def valuation_sieve(
    rho: QuantumState,
    poset: SubalgebraPoset,
    w: Partition,
    alpha: Element,
    tol: Tolerances = DEFAULT_TOL,
) -> SubalgebraSieve:
    """The truth value a state assigns to a projector at node w: the
    subalgebras whose canonical coarse-graining of the projector has
    probability one.  States of any kind act through their density
    matrix."""
    i = poset._require(w)
    a = _element_mask(w, alpha)
    if a is None:
        raise InputError(f"{sorted(alpha)} is not an element of {w}")
    mask = mass_sieve(poset.top.n_atoms, poset.mode, a, poset._state(rho)[1], 1.0 - tol.tau_one)
    return SubalgebraSieve._at(poset, i, mask & poset._lattice.up[i])


def check_local_valuation(
    poset: SubalgebraPoset,
    w: Partition,
    phi: Mapping[Element, SubalgebraSieve],
) -> Report:
    """Null, monotonicity and exclusivity of an element-to-truth-value
    map at one node, with the unit condition reported as a note.  Every
    key must be an element of the node and every value a truth value
    at it."""
    i = poset._require(w)
    elements = _node_tables(poset.top.n_atoms, poset.mode)[1][i]
    position = {frozenset(_bits(e)): x for x, e in enumerate(elements)}
    sieves = [None] * len(elements)
    for alpha, value in phi.items():
        x = position.get(alpha)
        if x is None:
            raise InputError(f"map key {alpha!r} is not an element of {w}")
        if not isinstance(value, SubalgebraSieve) or value._site != (w, poset.mode):
            raise InputError(f"the value at {sorted(alpha)} is not a truth value at {w}")
        sieves[x] = value._mask
    if None in sieves:
        raise InputError(f"map is not total on the node: missing {list(_bits(elements[sieves.index(None)]))}")
    true = [m == poset._lattice.up[i] for m in sieves]
    report = Report("local valuation")
    report.record(not sieves[0], "null condition: zero element not false")
    _check_order(report, elements, sieves, true, itertools.permutations(range(len(elements)), 2))
    report.notes.append(f"unit condition: {'holds' if true[-1] else 'violated'}")
    report.checks += 1
    return report.finish()


def check_restriction_compatibility(
    rho: QuantumState, poset: SubalgebraPoset, tol: Tolerances = DEFAULT_TOL
) -> Report:
    """For every inclusion w2 within w1 and every element of w1, the
    truth value at w2 of the coarse-grained element must equal the
    restriction of the truth value at w1."""
    n = poset.top.n_atoms
    images, elements = _node_tables(n, poset.mode)
    masses = poset._state(rho)[1]
    cutoff = 1.0 - tol.tau_one
    sieves = [mass_sieve(n, poset.mode, s, masses, cutoff) for s in range(1 << n)]
    nodes, up = poset.nodes, poset._lattice.up
    report = Report("restriction compatibility")
    for i1, w1 in enumerate(nodes):
        els = elements[i1]
        for i2 in _bits(up[i1]):
            image, down = images[i2], up[i2]
            report.tally(len(els), (
                f"mismatch at {list(_bits(a))} along {w1} -> {nodes[i2]}"
                for a in els if sieves[image[a]] & down != sieves[a] & down
            ))
    return report.finish()
