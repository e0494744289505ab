"""Partition lattices and the Heyting algebra of sieves.

Propositions about a finite-spectrum observable are coarse-grained by
functions of the observable.  Up to relabeling, such a function is a
partition of the spectrum: two eigenvalues are identified exactly when
they land in the same block.  A sieve collects partitions and is closed
under further coarsening; sieves over one base form a Heyting algebra,
which serves as the truth-value object of the valuation modules.

A sieve is stored as an integer bitmask over the admissible partitions
of its (k, mode).  `_lattice`, the one enumerator, builds them from
restricted-growth codes and interns them once in sorted order, with
the up-set mask of each; lattice operations are bit operations and
pullbacks are code lookups.  The valuations' sieves come from one
kernel in two pieces: `subset_masses` sums the mass of every subset,
and `mass_rows` compares those masses with a cutoff and gathers the
verdicts through one image table per (k, mode) into the sieves of all
2^k subsets as a bool matrix.  Only these import numpy, when called.

Two regimes are supported and must always be chosen explicitly:
WITH_CONSTANTS admits the one-block partition (constant functions count
as coarse-grainings), WITHOUT_CONSTANTS excludes it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BaseMismatchError, InputError


class Mode(Enum):
    """Whether constant coarse-grainings are admitted as morphisms."""

    WITH_CONSTANTS = "o"
    WITHOUT_CONSTANTS = "ostar"

    @classmethod
    def parse(cls, token: str) -> "Mode":
        for mode in cls:
            if token == mode.value or token == mode.name:
                return mode
        raise InputError(f"unknown mode {token!r}; expected 'o' or 'ostar'")


class Classification(Enum):
    TOTALLY_TRUE = "TotallyTrue"
    TOTALLY_FALSE = "TotallyFalse"
    MINIMALLY_TRUE = "MinimallyTrue"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class Partition:
    """A set partition of {0..k-1} in canonical form.

    blocks are internally sorted tuples, ordered by least element.  The
    canonical form makes equality, hashing and lexicographic ordering
    plain tuple operations.  k, the block bitmasks `masks` and the hash
    are computed once, from blocks taken as given; `of` checks input.
    """

    blocks: tuple[tuple[int, ...], ...]
    k: int = field(init=False, compare=False, repr=False)
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # frozen: set through object.__setattr__; writing __dict__ directly would materialize it and slow attribute reads
        object.__setattr__(self, "k", sum(map(len, self.blocks)))
        object.__setattr__(self, "masks", tuple(sum(1 << i for i in b) for b in self.blocks))
        object.__setattr__(self, "_hash", hash((self.blocks,)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "Partition":
        # disjoint blocks sort by least element; checked before the masks are built
        canon = tuple(sorted(tuple(sorted({_index(i, "element") for i in b})) for b in blocks))
        Partition._validate(canon)
        return Partition(canon)

    @staticmethod
    def discrete(k: int) -> "Partition":
        return Partition(tuple((i,) for i in range(k)))

    @staticmethod
    def one_block(k: int) -> "Partition":
        if k < 1:
            raise InputError("partition base must be nonempty")
        return Partition((tuple(range(k)),))

    @staticmethod
    def _validate(blocks: tuple[tuple[int, ...], ...]) -> None:
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise InputError("empty block in partition")
            if seen & set(b):
                raise InputError("overlapping blocks in partition")
            seen |= set(b)
        if not blocks or seen != set(range(len(seen))):
            raise InputError("blocks must cover a range {0..k-1}")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> int:
        """Index (canonical position) of the block containing element i."""
        i = i if type(i) is int else _index(i, "element")
        for pos, b in enumerate(self.blocks):
            if i in b:
                return pos
        raise InputError(f"element {i} outside partition base")

    def coarsens(self, other: "Partition") -> bool:
        """True when every block of `other` lies inside a block of self."""
        if self.k != other.k:
            raise BaseMismatchError("partitions over different base sizes")
        owner = {}
        for pos, b in enumerate(self.blocks):
            for i in b:
                owner[i] = pos
        return all(len({owner[i] for i in b}) == 1 for b in other.blocks)

    def merge_blocks(self, grouping: "Partition") -> "Partition":
        """Coarsen by merging blocks as grouped by a partition of the
        block-index range {0..n_blocks-1}."""
        if grouping.k != self.n_blocks:
            raise BaseMismatchError("grouping must partition the block indices")
        merged = []
        for g in grouping.blocks:
            merged.append(sorted(i for pos in g for i in self.blocks[pos]))
        return Partition.of(merged)

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)

    def format(self, values: Sequence, fmt=str) -> str:
        """Block notation with elements replaced by their labels."""
        return "|".join("{" + ",".join(fmt(values[i]) for i in b) + "}" for b in self.blocks)

    def __lt__(self, other: "Partition") -> bool:
        return self.blocks < other.blocks


# The largest spectrum whose partition lattice is built: k = 9 has 21147
# partitions and 1.6 million (partition, coarsening) pairs, about 1 s to
# build cold; k = 10 would hold 115975 up-set masks of 115975 bits, 1.7 GB.
MAX_SPECTRUM = 9

# The most atoms a subalgebra-poset audit takes: its tables hold each
# node's image of every subset, and its cost grows about 13x per atom.
# check_coarsening_axioms on a diagonal context takes 0.2 s at 7 atoms
# and 2.6-3.2 s at 8 (one mode, unpinned runs, 2-core host); at 9
# the image table alone would hold 21147 x 512 ints.
MAX_POSET_ATOMS = 8


def bell_number(k: int) -> int:
    """The number of set partitions of a k-element set, by the Bell
    triangle: each row starts with the last entry of the row above, and
    each further entry adds the one before it and the one above that."""
    if k < 1:
        raise InputError("partition base must be nonempty")
    row = [1]
    for _ in range(k - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


def all_partitions(k: int) -> tuple[Partition, ...]:
    """Every set partition of {0..k-1}, sorted canonically (Bell(k) many)."""
    return _lattice(k, Mode.WITH_CONSTANTS).parts


@lru_cache(maxsize=None)
def coarsenings_of(p: Partition) -> tuple[Partition, ...]:
    """All partitions coarser than or equal to p, sorted."""
    lattice = _lattice(p.k, Mode.WITH_CONSTANTS)
    if p not in lattice.index:
        raise InputError(f"partition {p} is not a canonical partition of {{0..{p.k - 1}}}")
    return tuple(lattice.parts[j] for j in _bits(lattice.up[lattice.index[p]]))


def admissible_partitions(k: int, mode: Mode) -> frozenset[Partition]:
    return frozenset(_lattice(k, mode).parts)


class _Lattice(NamedTuple):
    """The admissible partitions of one (k, mode), interned: bit i of a
    sieve mask stands for parts[i]."""

    parts: tuple[Partition, ...]
    index: dict[Partition, int]
    codes: dict[tuple[int, ...], int]  # restricted-growth code -> bit, in bit order
    full: int
    one_block: int  # the one-block partition's bit (its up mask), 0 when inadmissible
    up: tuple[int, ...]  # per partition, the mask of its admissible coarsenings, itself included


def _canonical(labels: Iterable) -> tuple[int, ...]:
    """The restricted-growth code of a labelling: each label replaced by
    the rank of its first occurrence (the canonical position of its block)."""
    first: dict = {}
    return tuple(first.setdefault(x, len(first)) for x in labels)


@lru_cache(maxsize=None)
def _lattice(k: int, mode: Mode) -> _Lattice:
    """The one partition enumerator.  Codes of length k grow from those of
    length k - 1 by appending a used label or the next new one.  Merging
    blocks a < b of a code gives the code of a cover, so up[p] is bit p
    OR'd with the up-sets of p's covers, taken fewest blocks first."""
    if k < 1:
        raise InputError("partition base must be nonempty")
    if k > MAX_SPECTRUM:
        raise InputError(
            f"a spectrum of {k} distinct eigenvalues has Bell({k}) = {bell_number(k)} "
            f"coarse-grainings; at most {MAX_SPECTRUM} eigenvalues are supported"
        )
    grown = [()]
    for _ in range(k):
        grown = [c + (x,) for c in grown for x in range(max(c, default=-1) + 2)]
    # the all-zero code is the one-block partition, a constant function
    blocks = {c: tuple(tuple(i for i, x in enumerate(c) if x == b) for b in range(max(c) + 1))
              for c in grown if any(c) or mode is Mode.WITH_CONSTANTS}
    codes = {c: i for i, c in enumerate(sorted(blocks, key=blocks.get))}
    parts = tuple(Partition(blocks[c]) for c in codes)
    up: dict[tuple[int, ...], int] = {}
    for c in sorted(codes, key=max):
        mask = 1 << codes[c]
        for a, b in combinations(range(max(c) + 1), 2):
            mask |= up.get(tuple(a if x == b else x - (x > b) for x in c), 0)
        up[c] = mask
    index = {p: i for i, p in enumerate(parts)}
    return _Lattice(parts, index, codes, (1 << len(parts)) - 1, up.get((0,) * k, 0), tuple(up[c] for c in codes))


def _bits(mask: int):
    """Positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index(i, noun: str) -> int:
    """An index as an int; a bool or a non-integer raises InputError."""
    try:
        if isinstance(i, bool):  # operator.index reads True as 1
            raise TypeError
        return operator.index(i)
    except TypeError:
        raise InputError(f"{noun} index {i!r} is not an integer") from None


def _mask_of(indices: Iterable[int], k: int, noun: str) -> int:
    """The bitmask of a set of indices in 0..k-1 (bit i = index i); a
    repeated index sets its bit once.  Each index is range-checked before
    it is shifted, so a huge index costs no huge int."""
    mask = 0
    for i in indices:
        j = i if type(i) is int else _index(i, noun)
        if not 0 <= j < k:
            raise InputError(f"{noun} index outside 0..{k - 1}")
        mask |= 1 << j
    return mask


def _unions(parts: Sequence[int]) -> list[int]:
    """Per subset bitmask s of the indices of parts, the OR of parts[h]
    over the bits h of s: u[s] = u[s ^ h] | parts[h] for the highest bit h."""
    unions = [0]
    for part in parts:
        unions += [m | part for m in unions]
    return unions


def _image(p: Partition, subset: int) -> int:
    """The union of p's blocks that meet a subset, both as bitmasks."""
    union = 0
    for b in p.masks:
        if b & subset:
            union |= b
    return union


@dataclass(frozen=True)
class CoarseGraining:
    """A concrete coarse-graining of a base spectrum, the one record a
    value map becomes (`spectral.value_fibers`): the fiber partition plus
    one injective real label per block (the distinct function values).

    Codomain index j is the block holding the j-th smallest label, and
    `to[i]`, the codomain index of base element i, is read from one rank.
    """

    partition: Partition
    labels: tuple[float, ...]
    base: object = None
    to: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.labels) != self.partition.n_blocks:
            raise InputError("need exactly one label per block")
        if any(label != label for label in self.labels):  # NaN has no rank
            raise InputError(f"labels must not be NaN, got {self.labels}")
        rank = {label: j for j, label in enumerate(sorted(self.labels))}
        if len(rank) != len(self.labels):
            raise InputError("labels must be injective on blocks")
        to = {i: rank[label] for block, label in zip(self.partition.blocks, self.labels) for i in block}
        object.__setattr__(self, "to", tuple(to[i] for i in range(len(to))))

    @classmethod
    def _of_checked(cls, partition: Partition, labels: tuple[float, ...], to: tuple[int, ...], base) -> "CoarseGraining":
        """The graining of a checked (partition, labels, to), unchecked:
        fields the constructor has built before, on another base."""
        cg = cls.__new__(cls)
        cg.__dict__.update(partition=partition, labels=labels, to=to, base=base)  # frozen: no setattr
        return cg

    @property
    def codomain_size(self) -> int:
        return self.partition.n_blocks

    def value_at(self, i: int) -> float:
        """Label of the block containing base element i."""
        return self.labels[self.partition.block_of(i)]

    def image_indices(self, subset: Iterable[int]) -> frozenset[int]:
        """Codomain eigenvalue indices hit by a base index subset."""
        return frozenset(self.to[i] for i in _bits(_mask_of(subset, len(self.to), "base")))

    def composite_partition(self, grouping: Partition) -> Partition:
        """Base partition induced by a partition of the codomain indices:
        base indices are joined when their blocks fall in one group."""
        if grouping.k != self.codomain_size:
            raise BaseMismatchError("grouping must partition the codomain spectrum")
        lattice = _lattice(len(self.to), Mode.WITH_CONSTANTS)
        return lattice.parts[lattice.codes[_canonical(grouping.block_of(j) for j in self.to)]]


def _from_values(values: Sequence, base) -> CoarseGraining:
    """The coarse-graining sending base index i to values[i]: the fibers
    of the values (a partition by construction), each labeled by its value."""
    fibers: dict = {}  # keyed in order of first occurrence: canonical block order
    for i, v in enumerate(values):
        fibers.setdefault(v, []).append(i)
    return CoarseGraining(Partition(tuple(map(tuple, fibers.values()))), tuple(fibers), base=base)


def compose(outer: "CoarseGraining", inner: "CoarseGraining") -> "CoarseGraining":
    """Composite coarse-graining: `inner` applied after `outer`.

    outer maps the base onto a codomain of size n; inner must be based on
    that codomain (inner.partition.k == n).  The result is based where
    outer is based and carries inner's labels.
    """
    if inner.partition.k != outer.codomain_size:
        raise BaseMismatchError("inner coarse-graining not based on outer's codomain")
    return _from_values([inner.value_at(j) for j in outer.to], outer.base)


class Sieve:
    """An up-closed set of partitions of a k-element spectrum.

    Stored as `mask`, a bitmask over the interned admissible partitions
    of (k, mode) in sorted order; `partitions` is the frozenset view.
    Membership of a partition implies membership of every admissible
    coarsening.  The constructor checks this for the partitions it is
    given; the masks the kernel builds are up-closed by construction.
    """

    __slots__ = ("k", "mode", "mask", "_lattice")

    def __init__(self, k: int, mode: Mode, partitions: Iterable[Partition]):
        # each constructor checks k before the `_lattice` cache, which reads True as 1
        lattice = _lattice(_index(k, "spectrum size"), mode)
        mask = 0
        for p in partitions:
            i = lattice.index.get(p)
            if i is None:
                raise InputError(f"partition {p} not admissible at k={k} in {mode.name}")
            mask |= 1 << i
        for i in _bits(mask):
            missing = lattice.up[i] & ~mask
            if missing:
                q = lattice.parts[next(_bits(missing))]
                raise InputError(f"not up-closed: {lattice.parts[i]} present but coarsening {q} missing")
        self._set(k, mode, lattice, mask)

    @classmethod
    def _of_mask(cls, k: int, mode: Mode, mask: int) -> "Sieve":
        """The sieve of an up-closed mask, unchecked."""
        sieve = cls.__new__(cls)
        sieve._set(k, mode, _lattice(k, mode), mask)
        return sieve

    def _set(self, k: int, mode: Mode, lattice: _Lattice, mask: int) -> None:
        self.k = k
        self.mode = mode
        self.mask = mask
        self._lattice = lattice

    @property
    def partitions(self) -> frozenset[Partition]:
        return frozenset(self)

    # -- constructors ------------------------------------------------

    @staticmethod
    def totally_true(k: int, mode: Mode) -> "Sieve":
        return Sieve._of_mask(k, mode, _lattice(_index(k, "spectrum size"), mode).full)

    @staticmethod
    def totally_false(k: int, mode: Mode) -> "Sieve":
        return Sieve._of_mask(_index(k, "spectrum size"), mode, 0)

    # -- basic protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sieve)
            and self.k == other.k
            and self.mode == other.mode
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.k, self.mode, self.mask))

    def __contains__(self, p: Partition) -> bool:
        i = self._lattice.index.get(p)
        return i is not None and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        parts = self._lattice.parts
        return (parts[i] for i in _bits(self.mask))

    def __repr__(self):
        inner = "; ".join(str(p) for p in self)
        return f"Sieve(k={self.k}, {self.mode.name}, {{{inner}}})"

    def _check_compatible(self, other: "Sieve") -> None:
        if self.k != other.k or self.mode != other.mode:
            raise BaseMismatchError("sieves over different bases or modes")

    def leq(self, other: "Sieve") -> bool:
        self._check_compatible(other)
        return not self.mask & ~other.mask

    # -- Heyting operations ------------------------------------------

    def meet(self, other: "Sieve") -> "Sieve":
        self._check_compatible(other)
        return Sieve._of_mask(self.k, self.mode, self.mask & other.mask)

    def join(self, other: "Sieve") -> "Sieve":
        self._check_compatible(other)
        return Sieve._of_mask(self.k, self.mode, self.mask | other.mask)

    def implies(self, other: "Sieve") -> "Sieve":
        """Largest sieve whose meet with self lies below other."""
        self._check_compatible(other)
        return self._avoiding(self.mask & ~other.mask)

    def neg(self) -> "Sieve":
        """Pseudo-complement: partitions none of whose admissible
        coarsenings belong to self."""
        return self._avoiding(self.mask)

    def _avoiding(self, bad: int) -> "Sieve":
        """Partitions none of whose admissible coarsenings lie in `bad`."""
        mask = sum(1 << i for i, up in enumerate(self._lattice.up) if not up & bad)
        return Sieve._of_mask(self.k, self.mode, mask)

    # -- presheaf structure ------------------------------------------

    def pullback(self, f: CoarseGraining) -> "Sieve":
        """Sieve on f's codomain: a partition belongs iff its composite
        with f belongs here."""
        if f.partition.k != self.k:
            raise BaseMismatchError("coarse-graining not based at this sieve's base")
        mask = sum(1 << j for j, i in enumerate(_pullback_table(f.to, self.mode)) if self.mask >> i & 1)
        return Sieve._of_mask(f.codomain_size, self.mode, mask)

    def classify(self) -> Classification:
        if not self.mask:
            return Classification.TOTALLY_FALSE
        if self.mask == self._lattice.full:
            return Classification.TOTALLY_TRUE
        if self.mode is Mode.WITH_CONSTANTS and self.mask == self._lattice.one_block:
            return Classification.MINIMALLY_TRUE
        return Classification.INTERMEDIATE


@lru_cache(maxsize=1 << 13)
def _pullback_table(to: tuple[int, ...], mode: Mode) -> tuple[int, ...]:
    """A gather index for pullbacks along a coarse-graining with this
    surjective index map: entry j is the base bit of the composite of
    the codomain's admissible partition j, whose code is that partition's
    code read through `to`, so codomain bit j of a pullback is that base
    bit of the sieve.  When `to` is itself a restricted-growth code (the
    maps of canonical labels), it meets its codomain indices in
    ascending order, so every code read through it is already canonical
    and needs no `_canonical`."""
    base = _lattice(len(to), mode).codes
    relabel = tuple if _canonical(to) == to else _canonical
    return tuple(base[relabel(code[j] for j in to)] for code in _lattice(max(to) + 1, mode).codes)


def up_closure(k: int, mode: Mode, seed: Iterable[Partition]) -> Sieve:
    """Smallest sieve containing the seed partitions."""
    lattice = _lattice(_index(k, "spectrum size"), mode)
    mask = 0
    for p in seed:
        if not isinstance(p, Partition) or p.k != k:
            raise InputError(f"seed partition {p} not over a {k}-element base")
        i = lattice.index.get(p)
        if i is None:
            raise InputError(f"seed partition {p} not admissible in {mode.name}")
        mask |= lattice.up[i]
    return Sieve._of_mask(k, mode, mask)


@lru_cache(maxsize=None)
def _images(k: int, mode: Mode):
    """The image table of (k, mode), a read-only 2^k x |lattice| int16
    array: entry [s, i] is the union of the blocks of admissible
    partition i that meet subset bitmask s.  Row s adds the block of the
    highest bit h of s last, images[s] = images[s ^ h] | (block of h)."""
    import numpy as np

    parts = _lattice(k, mode).parts
    images = np.zeros((1 << k, len(parts)), dtype=np.int16)
    for h in range(k):
        images[1 << h:2 << h] = images[:1 << h] | np.array([_image(p, 1 << h) for p in parts], dtype=np.int16)
    images.setflags(write=False)
    return images


def subset_masses(weights: Sequence[float]):
    """The mass of every subset bitmask of the indices of `weights`, as a
    float array: m[s] = m[s ^ h] + w[h] for the highest bit h of s (terms
    add in ascending index order from 0).  Weights are clamped at 0 (a
    density matrix may have eigenvalues down to -tau_psd): a float sum of
    non-negative terms never shrinks as terms are added, so coarser
    partitions keep the mass."""
    import numpy as np

    masses = [0.0]
    for w in weights:
        w = max(w, 0.0)
        masses += [m + w for m in masses]
    return np.array(masses)


def mass_rows(k: int, mode: Mode, masses, cutoff: float):
    """The sieve kernel: the 2^k x |lattice| bool matrix whose row s is
    the sieve mask, as bits, of the admissible partitions whose blocks
    meeting subset bitmask s carry mass at least `cutoff`.  `masses` is a
    float array of the mass of every subset bitmask (`subset_masses`);
    each is compared with the cutoff once, and the verdicts are gathered
    through the image table."""
    return (masses >= cutoff)[_images(k, mode)]


def _row_masks(bits) -> tuple[int, ...]:
    """The rows of a bool matrix as int masks (column i is bit i), sliced
    from one packed buffer."""
    import numpy as np

    packed = np.packbits(bits, axis=1, bitorder="little")
    n, data = packed.shape[1], packed.tobytes()
    return tuple(int.from_bytes(data[i : i + n], "little") for i in range(0, len(data), n)) if n else (0,) * len(packed)


def _columns(mask: int, n: int):
    """The first n bits of a mask as a bool vector (column i is bit i),
    the inverse of one row of `_row_masks`."""
    import numpy as np

    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


# -- DOT export ------------------------------------------------------

def covering_pairs(k: int, mode: Mode) -> list[tuple[Partition, Partition]]:
    """Hasse edges of the coarsening order, sorted: (finer, coarser)
    with the coarser an admissible coarsening with one block fewer."""
    lattice = _lattice(k, mode)
    return [
        (p, lattice.parts[j])
        for p, up in zip(lattice.parts, lattice.up)
        for j in _bits(up)
        if lattice.parts[j].n_blocks == p.n_blocks - 1
    ]


def lattice_dot(
    k: int,
    mode: Mode,
    sieve: Optional[Sieve] = None,
    values: Optional[Sequence] = None,
    fmt=str,
) -> str:
    """DOT text for the partition lattice, finer partitions at the bottom.

    Nodes are labeled in block notation (by eigenvalue labels when given);
    members of `sieve` are drawn filled.
    """
    if sieve is not None and (sieve.k != k or sieve.mode != mode):
        raise BaseMismatchError("sieve does not match the requested lattice")
    if values is not None and len(values) != k:
        raise InputError(f"need {k} eigenvalue labels, got {len(values)}")

    lines = ["digraph partition_lattice {", "  rankdir=BT;", '  node [shape=box];']
    for p in _lattice(k, mode).parts:
        attrs = f'label="{p if values is None else p.format(values, fmt)}"'
        if sieve is not None and p in sieve:
            attrs += ', style=filled, fillcolor="lightblue"'
        lines.append(f'  "{p}" [{attrs}];')
    for fine, coarse in covering_pairs(k, mode):
        lines.append(f'  "{fine}" -> "{coarse}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
