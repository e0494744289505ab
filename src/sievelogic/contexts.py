"""Boolean contexts and the subalgebra poset.

A Boolean context is a finite Boolean algebra of commuting projectors,
presented by its atoms.  All subalgebras of one top context form a
poset: a subalgebra's atoms are sums of top atoms over the blocks of a
partition, and inclusion runs opposite to refinement.  Elements of a
node are unions of its blocks, written as frozensets of top-atom
indices, so all poset computations are exact set arithmetic.  A node of
b blocks is a Boolean algebra of b atoms, so its elements are indexed
like the subsets of a b-point spectrum: element x is the union of the
blocks j for which bit j of x is set.

Truth values over a node are down-closed sets of subalgebras (further
coarsenings).  A density matrix induces such a truth value for each
projector: the set of coarsenings under which the projector's canonical
coarse-graining has probability one.

The poset is the interned partition lattice of `sieves`: a node is a bit
index, its down set is its up-set mask, and a truth value is a mask
inside that down set.  The audits run on subset bitmasks (bit j = top
atom j), reading the image table and the `subset_masses` / `mass_rows`
kernel of `sieves` (one row of sieve masks per state and cutoff); the
local valuation axioms share their routine with `valuations`.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import InputError, NotSubalgebraError, ZeroNormError
from .report import Report, _check_order, _pair_table
from .sieves import MAX_POSET_ATOMS, Mode, Partition, Sieve, _bits, _image, _images, _lattice, _mask_of, _row_masks, _unions, mass_rows, subset_masses
from .spectral import (
    DEFAULT_TOL,
    QuantumState,
    Tolerances,
    _check_resolution,
    _freeze,
    _subset_sum,
    as_matrix,
)

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

    @classmethod
    def _of_checked(cls, atoms: Sequence[np.ndarray], tol: Tolerances) -> "BooleanContext":
        """The context of atoms derived from checked projectors (an
        operator's eigenprojectors, block sums of a context's atoms),
        unchecked."""
        ctx = cls.__new__(cls)
        ctx.atoms, ctx.dim, ctx.tol = tuple(_freeze(a) for a in atoms), atoms[0].shape[0], tol
        return ctx

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

    __slots__ = ("top", "mode", "nodes", "_lattice", "_rows")

    def __init__(self, top: BooleanContext, mode: Mode = Mode.WITH_CONSTANTS):
        self.top = top
        self.mode = mode
        self._lattice = _lattice(top.n_atoms, mode)
        self.nodes = self._lattice.parts
        self._rows = {}

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
        """All elements of node w as frozensets of top-atom indices:
        element x is the union of the blocks j for which bit j of x is
        set."""
        self._require(w)
        return tuple(_node_elements(w))

    def is_element(self, w: Partition, alpha: Element) -> bool:
        self._require(w)
        return _element_mask(w, alpha) is not None

    def _row(self, rho: QuantumState, cutoff: float) -> tuple[int, ...]:
        """The sieve mask of every subset bitmask under the state's atom
        weights: their `subset_masses` through one `mass_rows` per (state,
        cutoff), kept for the life of the poset."""
        row = self._rows.get((rho, cutoff))
        if row is None:
            masses = subset_masses(rho.weights(self.top.atoms))
            row = self._rows[rho, cutoff] = _row_masks(mass_rows(self.top.n_atoms, self.mode, masses, cutoff))
        return row

    def node_context(self, w: Partition) -> BooleanContext:
        """The node as a standalone context with block-sum atoms."""
        self._require(w)
        return BooleanContext._of_checked([self.top.element(b) for b in w.blocks], self.top.tol)

    def __repr__(self):
        return f"SubalgebraPoset(atoms={self.top.n_atoms}, nodes={len(self.nodes)})"


def _node_masks(w: Partition) -> list[int]:
    """The subset bitmasks of w's elements: at x, the union of the blocks
    j for which bit j of x is set."""
    return _unions(w.masks)


# Filled by `elements` and `check_local_valuation` only; no poset-wide
# audit reads it.
@lru_cache(maxsize=None)
def _node_elements(w: Partition) -> dict[Element, int]:
    """w's elements as frozensets, each mapped to its `_node_masks` position
    (one dict shared by every caller)."""
    return {frozenset(_bits(m)): x for x, m in enumerate(_node_masks(w))}


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
    it: the node's column of `_images`), and the node's `_node_masks`.
    Only the audits build these tables, and past MAX_POSET_ATOMS atoms
    they refuse before building them."""
    if n > MAX_POSET_ATOMS:
        raise InputError(f"a poset audit over {n} atoms is out of reach; at most {MAX_POSET_ATOMS} atoms are supported")
    images = tuple(map(tuple, _images(n, mode).T.tolist()))
    return images, tuple(tuple(_node_masks(w)) for w in _lattice(n, mode).parts)


def canonical_coarsening(
    poset: SubalgebraPoset, w1: Partition, w2: Partition, alpha: Element
) -> Element:
    """The least element of subalgebra w2 dominating alpha: the union of
    w2's blocks that meet alpha."""
    if not poset.leq(w2, w1):
        raise NotSubalgebraError(f"{w2} is not a subalgebra of {w1}")
    a = _element_mask(w1, alpha)
    if a is None:
        raise InputError(f"{sorted(alpha)} is not an element of {w1}")
    return frozenset(_bits(_image(w2, a)))


# A chunk of an array check holds at most about this many cells, so its
# index arrays take a few MB: an 8-atom audit has 168 million composition
# cells and 127 million monotonicity cells.
_CELLS = 1 << 20
# Element and image masks per slot: at most 2^MAX_POSET_ATOMS subsets.
_MASK = np.min_scalar_type((1 << MAX_POSET_ATOMS) - 1)


class _Rows(NamedTuple):
    """The rows of one array check, widest first: per row a few int32
    columns and its width (its number of cells).  A chunk (lo, hi, width,
    cells) is the rows lo..hi-1 padded to the width of row lo, holding
    `cells` real cells."""

    columns: np.ndarray
    widths: np.ndarray  # a column
    chunks: tuple[tuple[int, int, int, int], ...]


def _chunked(widths: np.ndarray, *columns: np.ndarray) -> _Rows:
    """Rows of the given widths, widest first, and columns, cut into
    chunks."""
    widths = widths.astype(np.int32)
    chunks, lo = [], 0
    while lo < len(widths):
        width = int(widths[lo])
        hi = min(len(widths), lo + max(1, _CELLS // width))
        chunks.append((lo, hi, width, int(widths[lo:hi].sum())))
        lo = hi
    return _Rows(np.stack(columns, axis=1).astype(np.int32, copy=False), widths[:, None], tuple(chunks))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows of the given lengths laid end to end, each cell's row and
    its index within the row."""
    rows = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return rows, np.arange(len(rows), dtype=np.int32) - (np.cumsum(counts) - counts).astype(np.int32)[rows]


class _SlotIndex(NamedTuple):
    """The coarsening audit's structure over one (n, mode), shared by
    every map.  A slot is (w1, w2 within w1, element of w1), ordered by
    w1, then w2, then w1's elements, so that each node pair's slots are a
    range.  The per-slot arrays end in 2^n zero slots, so that the padded
    cells of a chunk read in range."""

    element: np.ndarray  # per slot, the element's mask
    canonical: np.ndarray  # per slot, the canonical image at w2
    start: np.ndarray  # per node pair, its first slot; then the slot count
    pairs: np.ndarray  # per node pair, (w1, w2)
    position: np.ndarray  # at w << n | mask, the mask's index among w's elements, or -1
    nested: tuple[np.ndarray, np.ndarray]  # per block count b = 0..n, the `_pair_table` pairs x within y, x != y
    monotone: _Rows  # per node pair: its first slot, the first nested pair of w1's block count
    chains: _Rows  # per chain w3 within w2 within w1: the first slots of (w1, w2), (w1, w3), (w2, w3); w2 << n


# One index is kept, that of the last (n, mode) audited: an 8-atom index
# holds about 60 MB, mostly its two slot arrays (9.9 million slots) and
# its 1.9 million chains, and the previous index is dropped before the
# next is built; a two-mode 8-atom audit peaks at 187 MB RSS.
_SLOT_INDEX: dict[tuple[int, Mode], "_SlotIndex"] = {}


def _slot_index(n: int, mode: Mode) -> _SlotIndex:
    if (n, mode) not in _SLOT_INDEX:
        _SLOT_INDEX.clear()
        _SLOT_INDEX[n, mode] = _build_slot_index(n, mode)
    return _SLOT_INDEX[n, mode]


def _build_slot_index(n: int, mode: Mode) -> _SlotIndex:
    """The slot index of (n, mode), from the node tables, the lattice's up
    masks and the pair table of each block count."""
    _, elements = _node_tables(n, mode)
    images = _images(n, mode).astype(_MASK)
    lattice = _lattice(n, mode)
    ups = [list(_bits(u)) for u in lattice.up]
    blocks = np.array([w.n_blocks for w in lattice.parts], dtype=np.int32)
    sizes = 1 << blocks
    pad = [np.zeros(1 << n, dtype=_MASK)]
    element = np.concatenate([np.tile(np.array(e, dtype=_MASK), len(u)) for e, u in zip(elements, ups)] + pad)
    canonical = np.concatenate([images[np.ix_(e, u)].T.ravel() for e, u in zip(elements, ups)] + pad)
    pairs = np.array([(i1, i2) for i1, u in enumerate(ups) for i2 in u], dtype=np.int32).reshape(-1, 2)
    w1, w2 = pairs.T
    start = np.concatenate(([0], np.cumsum(sizes[w1]))).astype(np.int32)
    position = np.full((len(elements), 1 << n), -1, dtype=np.int16)
    node, within = _ragged(sizes)
    position[node, np.array([a for e in elements for a in e], dtype=np.int64)] = within
    tables = [_pair_table(b, True)[0] for b in range(n + 1)]
    pad = np.zeros(3 ** n, dtype=np.int32)
    nested = (
        np.concatenate((np.fromiter((x for within in tables for x, ys in enumerate(within) for _ in ys), np.int32), pad)),
        np.concatenate((np.fromiter((y for within in tables for ys in within for y in ys), np.int32), pad)),
    )
    counts = np.array([sum(map(len, within)) for within in tables], dtype=np.int32)
    del ups, tables
    b1 = blocks[w1]
    p = np.argsort(-counts[b1], kind="stable")
    monotone = _chunked(counts[b1[p]], start[p], (np.cumsum(counts) - counts)[b1[p]])
    # the chains of pair (w1, w2) run over the range of pairs (w2, w3)
    firsts = np.searchsorted(w1, np.arange(len(elements) + 1)).astype(np.int32)
    p12, k = _ragged(firsts[1:][w2] - firsts[:-1][w2])
    p23 = firsts[:-1][w2[p12]] + k
    p = np.argsort(-sizes[w1[p12]], kind="stable")
    p12, p23 = p12[p], p23[p]
    del k, p
    p13 = np.searchsorted(w1 * len(elements) + w2, w1[p12] * len(elements) + w2[p23]).astype(np.int32)
    chains = _chunked(sizes[w1[p12]], start[p12], start[p13], start[p23], w2[p12] << n)
    return _SlotIndex(element, canonical, start, pairs, position.reshape(-1), nested, monotone, chains)


def _ask(theta: ThetaMap, n: int, w1: Partition, w2: Partition, alpha: Element) -> int:
    """A user map's image of alpha from w1 to w2, as a subset bitmask."""
    if callable(theta):
        image = theta(w1, w2, alpha)
    else:
        try:
            image = theta[(w1, w2)][alpha]
        except KeyError:
            raise InputError(f"theta table has no entry for ({w1}, {w2}, {sorted(alpha)})") from None
    try:
        return _mask_of(image, n, "atom")
    except (TypeError, InputError):
        raise InputError(f"theta({sorted(alpha)}) from {w1} to {w2} is not a set of atom indices: {image!r}") from None


def check_coarsening_axioms(poset: SubalgebraPoset, theta: Optional[ThetaMap] = None) -> Report:
    """Exhaustive audit of a coarse-graining map over the whole poset:
    domination, monotonicity, retraction, and composition along chains.
    The canonical map is used when none is supplied.

    The map is one array of image masks over the slots (w1, w2 within w1,
    element of w1) of the poset's slot index: the canonical map is read
    from the image table once per (n, mode), and a user map is asked once
    per slot.  Composition reads the map at (w2, w3, t), t the image at
    w2, from the same array, and asks a user map only when t is not an
    element of w2.  Each axiom is a few numpy comparisons per chunk of
    cells, and only failing cells are formatted."""
    n, nodes = poset.top.n_atoms, poset.nodes
    index = _slot_index(n, poset.mode)
    slots = int(index.start[-1])
    if theta is None:
        answers = index.canonical
    else:
        answers = np.zeros_like(index.canonical)
        flat = []
        for w1, masks, up in zip(nodes, _node_tables(n, poset.mode)[1], poset._lattice.up):
            alphas = [frozenset(_bits(a)) for a in masks]
            for i2 in _bits(up):
                flat += [_ask(theta, n, w1, nodes[i2], alpha) for alpha in alphas]
        answers[:slots] = flat

    def named(cells):
        """(w1, w2, element bits) of each slot."""
        if not len(cells):
            return []
        pairs = index.pairs[np.searchsorted(index.start, cells, "right") - 1].tolist()
        return [(nodes[i1], nodes[i2], list(_bits(a))) for (i1, i2), a in zip(pairs, index.element[cells].tolist())]

    report = Report("coarse-graining axioms")
    for lo in range(0, slots, _CELLS):
        a, t = index.element[lo:min(slots, lo + _CELLS)], answers[lo:min(slots, lo + _CELLS)]
        retract = index.canonical[lo:lo + len(a)] == a
        report.tally(len(a), (
            f"domination fails: theta({bits}) from {w1} to {w2} loses atoms"
            for w1, w2, bits in named(lo + np.flatnonzero(a & ~t))
        ))
        report.tally(int(np.count_nonzero(retract)), (
            f"retraction fails on {bits} from {w1} to {w2}"
            for w1, w2, bits in named(lo + np.flatnonzero(retract & (t != a)))
        ))
    nx, ny = index.nested
    rows = index.monotone
    for lo, hi, width, cells in rows.chunks:
        x = np.arange(width, dtype=np.int32)
        first, pair = rows.columns[lo:hi, :1], rows.columns[lo:hi, 1:] + x
        sx, sy = first + nx.take(pair), first + ny.take(pair)
        failed = np.flatnonzero((answers.take(sx) & ~answers.take(sy) != 0) & (x < rows.widths[lo:hi]))
        report.tally(cells, (
            f"monotonicity fails for {bits} within {list(_bits(b))} from {w1} to {w2}"
            for (w1, w2, bits), b in zip(named(sx.ravel()[failed]), index.element[sy.ravel()[failed]].tolist())
        ))
    asked = {}
    rows = index.chains
    for lo, hi, width, cells in rows.chunks:
        x = np.arange(width, dtype=np.int32)
        s12, s13, s23, row = (rows.columns[lo:hi, j, None] for j in range(4))
        image = answers.take(s12 + x)
        at = index.position.take(row + image)
        composed = answers.take(s23 + at)
        real = x < rows.widths[lo:hi]
        r, c = np.divmod(np.flatnonzero(real & (at < 0)), width)  # only a user map answers off w2's elements
        for cell, (_, w2, _), (_, w3, _) in zip(zip(r, c), named(s12[r, 0] + c), named(s13[r, 0] + c)):
            key = w2, w3, int(image[cell])
            if key not in asked:
                asked[key] = _ask(theta, n, w2, w3, frozenset(_bits(key[2])))
            composed[cell] = asked[key]
        r, c = np.divmod(np.flatnonzero(real & (answers.take(s13 + x) != composed)), width)
        report.tally(cells, (
            f"composition fails on {bits} along {w1} -> {w2} -> {w3}"
            for (w1, w2, bits), (_, w3, _) in zip(named(s12[r, 0] + c), named(s13[r, 0] + c))
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
        i2, up = self.poset._require(w2), self.poset._lattice.up
        if not up[self._node] >> i2 & 1:
            raise NotSubalgebraError(f"{w2} is not a subalgebra of {self.base}")
        return SubalgebraSieve._at(self.poset, i2, self._mask & up[i2])

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
    return SubalgebraSieve._at(poset, i, poset._row(rho, 1.0 - tol.tau_one)[a] & poset._lattice.up[i])


def check_local_valuation(
    poset: SubalgebraPoset,
    w: Partition,
    phi: Mapping[Element, SubalgebraSieve],
) -> Report:
    """Null, monotonicity and exclusivity of an element-to-truth-value
    map at one node, with the unit condition reported as a note.  Every
    key must be an element of the node and every value a truth value
    at it."""
    i, n = poset._require(w), poset.top.n_atoms
    elements = _node_tables(n, poset.mode)[1][i]
    position = _node_elements(w)
    sieves = [None] * len(elements)
    for alpha, value in phi.items():
        x = position.get(alpha)
        if x is None:
            raise InputError(f"map key {alpha!r} is not an element of {w}")
        # value._site == (w, poset.mode), read off its poset: node i is w in every n-atom poset of one mode
        if not isinstance(value, SubalgebraSieve) or value._node != i or value.poset.mode is not poset.mode or value.poset.top.n_atoms != n:
            raise InputError(f"the value at {sorted(alpha)} is not a truth value at {w}")
        sieves[x] = value._mask
    if None in sieves:
        raise InputError(f"map is not total on the node: missing {list(_bits(elements[sieves.index(None)]))}")
    true = [m == poset._lattice.up[i] for m in sieves]
    report = Report("local valuation")
    report.record(not sieves[0], "null condition: zero element not false")
    _check_order(report, elements, sieves, true, distinct=True)
    report.notes.append(f"unit condition: {'holds' if true[-1] else 'violated'}")
    report.checks += 1
    return report.finish()


def check_restriction_compatibility(
    rho: QuantumState, poset: SubalgebraPoset, tol: Tolerances = DEFAULT_TOL
) -> Report:
    """For every inclusion w2 within w1 and every element of w1, the
    truth value at w2 of the coarse-grained element must equal the
    restriction of the truth value at w1.  That check reads only w2 and the
    element, so it is decided once per node and subset, and only failing
    (w2, subset) pairs are expanded to the w1 holding the subset."""
    images, elements = _node_tables(poset.top.n_atoms, poset.mode)
    sieves = poset._row(rho, 1.0 - tol.tau_one)
    nodes, up = poset.nodes, poset._lattice.up
    failing = [sum([1 << a for a, t in enumerate(image) if t != a and (sieves[t] ^ sieves[a]) & down])
               for image, down in zip(images, up)]
    report = Report("restriction compatibility", sum(len(els) * u.bit_count() for els, u in zip(elements, up)))
    failed = sum(1 << i2 for i2, bad in enumerate(failing) if bad)
    for i1, w1 in enumerate(nodes):
        for i2 in _bits(up[i1] & failed):
            report.violations += [f"mismatch at {list(_bits(a))} along {w1} -> {nodes[i2]}" for a in elements[i1] if failing[i2] >> a & 1]
    return report.finish()
