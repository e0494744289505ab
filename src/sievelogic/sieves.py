"""Partition lattices and the Heyting algebra of sieves.

Propositions about a finite-spectrum observable are coarse-grained by
functions of the observable.  Up to relabeling, such a function is a
partition of the spectrum: two eigenvalues are identified exactly when
they land in the same block.  A sieve collects partitions and is closed
under further coarsening; sieves over one base form a Heyting algebra,
which serves as the truth-value object of the valuation modules.

A sieve is stored as an integer bitmask over the admissible partitions
of its (k, mode), which are interned once in sorted order together with
the up-set mask of each; lattice operations are bit operations.

Two regimes are supported and must always be chosen explicitly:
WITH_CONSTANTS admits the one-block partition (constant functions count
as coarse-grainings), WITHOUT_CONSTANTS excludes it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
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
    plain tuple operations.
    """

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0]))
        p = Partition(canon)
        p._validate()
        return p

    @staticmethod
    def discrete(k: int) -> "Partition":
        return Partition(tuple((i,) for i in range(k)))

    @staticmethod
    def one_block(k: int) -> "Partition":
        if k < 1:
            raise InputError("partition base must be nonempty")
        return Partition((tuple(range(k)),))

    def _validate(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise InputError("empty block in partition")
            if seen & set(b):
                raise InputError("overlapping blocks in partition")
            seen |= set(b)
        if not self.blocks or seen != set(range(len(seen))):
            raise InputError("blocks must cover a range {0..k-1}")

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> int:
        """Index (canonical position) of the block containing element i."""
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
# partitions and 1.6 million (partition, coarsening) pairs; k = 10 would
# build 16.7 million pairs and 115975 up-set masks of 115975 bits, 1.7 GB.
MAX_SPECTRUM = 9


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


@lru_cache(maxsize=None)
def all_partitions(k: int) -> tuple[Partition, ...]:
    """Every set partition of {0..k-1}, sorted canonically (Bell(k) many)."""
    if k < 1:
        raise InputError("partition base must be nonempty")
    if k > MAX_SPECTRUM:
        raise InputError(
            f"a spectrum of {k} distinct eigenvalues has Bell({k}) = {bell_number(k)} "
            f"coarse-grainings; at most {MAX_SPECTRUM} eigenvalues are supported"
        )
    results = []

    def grow(i: int, blocks: list[list[int]]) -> None:
        if i == k:
            results.append(Partition.of(blocks))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return tuple(sorted(results))


@lru_cache(maxsize=None)
def coarsenings_of(p: Partition) -> tuple[Partition, ...]:
    """All partitions coarser than or equal to p (one per partition of
    p's block set)."""
    return tuple(sorted(p.merge_blocks(g) for g in all_partitions(p.n_blocks)))


@lru_cache(maxsize=None)
def admissible_partitions(k: int, mode: Mode) -> frozenset[Partition]:
    parts = all_partitions(k)
    if mode is Mode.WITHOUT_CONSTANTS:
        parts = tuple(p for p in parts if p.n_blocks > 1)
    return frozenset(parts)


class _Lattice(NamedTuple):
    """The admissible partitions of one (k, mode), interned: bit i of a
    sieve mask stands for parts[i]."""

    parts: tuple[Partition, ...]
    index: dict[Partition, int]
    full: int
    one_block: int
    up: tuple[int, ...]  # per partition, the mask of its admissible coarsenings, itself included


@lru_cache(maxsize=None)
def _lattice(k: int, mode: Mode) -> _Lattice:
    parts = tuple(sorted(admissible_partitions(k, mode)))
    index = {p: i for i, p in enumerate(parts)}
    up = tuple(sum(1 << index[q] for q in coarsenings_of(p) if q in index) for p in parts)
    top = index.get(Partition.one_block(k))
    return _Lattice(parts, index, (1 << len(parts)) - 1, 0 if top is None else 1 << top, up)


def _bits(mask: int):
    """Positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices: Iterable[int], k: int, noun: str) -> int:
    """The bitmask of a set of indices in 0..k-1 (bit i = index i); a
    repeated index sets its bit once.  Each index is range-checked before
    it is shifted, so a huge index costs no huge int."""
    mask = 0
    for i in indices:
        try:
            j = operator.index(i)
        except TypeError:
            raise InputError(f"{noun} index {i!r} is not an integer") from None
        if not 0 <= j < k:
            raise InputError(f"{noun} index outside 0..{k - 1}")
        mask |= 1 << j
    return mask


def _composite(to: Sequence[int], grouping: Partition) -> Partition:
    """Base partition joining the base indices i whose codomain indices
    to[i] fall in one block of a partition of the codomain."""
    return Partition.of([[i for i, j in enumerate(to) if j in g] for g in grouping.blocks])


def _image(p: Partition, subset: int) -> int:
    """The union of p's blocks that meet a subset, both as bitmasks.  A
    partition's blocks are checked indices, so they skip `_mask_of`."""
    return sum(b for b in (sum(1 << j for j in block) for block in p.blocks) if b & subset)


@dataclass(frozen=True)
class CoarseGraining:
    """A concrete coarse-graining of a base spectrum: the fiber partition
    plus one injective real label per block (the distinct function values).

    The label order fixes how blocks correspond to eigenvalue indices of
    the coarse observable: index j is the block holding the j-th smallest
    label; `to[i]` is the codomain index of base element i.
    """

    partition: Partition
    labels: tuple[float, ...]
    base: object = None
    to: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.labels) != self.partition.n_blocks:
            raise InputError("need exactly one label per block")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("labels must be injective on blocks")
        ranked = sorted(self.labels)
        object.__setattr__(self, "to", tuple(ranked.index(self.value_at(i)) for i in range(self.partition.k)))

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
        return _composite(self.to, grouping)


def _from_values(values: Sequence, base) -> CoarseGraining:
    """The coarse-graining sending base index i to values[i]: the fibers
    of the values, each labeled by its value."""
    fibers: dict = {}  # keyed in order of first occurrence: canonical block order
    for i, v in enumerate(values):
        fibers.setdefault(v, []).append(i)
    return CoarseGraining(Partition.of(fibers.values()), tuple(fibers), base=base)


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
        lattice = _lattice(k, mode)
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
        return Sieve._of_mask(k, mode, _lattice(k, mode).full)

    @staticmethod
    def totally_false(k: int, mode: Mode) -> "Sieve":
        return Sieve._of_mask(k, mode, 0)

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
        mask = 0
        for i, up in enumerate(self._lattice.up):
            if not up & bad:
                mask |= 1 << i
        return Sieve._of_mask(self.k, self.mode, mask)

    # -- presheaf structure ------------------------------------------

    def pullback(self, f: CoarseGraining) -> "Sieve":
        """Sieve on f's codomain: a partition belongs iff its composite
        with f belongs here."""
        if f.partition.k != self.k:
            raise BaseMismatchError("coarse-graining not based at this sieve's base")
        return Sieve._of_mask(f.codomain_size, self.mode, _pullback_mask(self.mask, f.to, self.mode))

    def classify(self) -> Classification:
        if not self.mask:
            return Classification.TOTALLY_FALSE
        if self.mask == self._lattice.full:
            return Classification.TOTALLY_TRUE
        if self.mode is Mode.WITH_CONSTANTS and self.mask == self._lattice.one_block:
            return Classification.MINIMALLY_TRUE
        return Classification.INTERMEDIATE


@lru_cache(maxsize=None)
def _pullback_table(to: tuple[int, ...], mode: Mode) -> tuple[tuple[int, int], ...]:
    """One (base bit, codomain bit) pair per admissible partition of the
    codomain of a coarse-graining with this index map; the base bit is
    that of the composite partition."""
    base = _lattice(len(to), mode).index
    return tuple(
        (1 << base[_composite(to, p)], 1 << j)
        for j, p in enumerate(_lattice(max(to) + 1, mode).parts)
    )


def _pullback_mask(mask: int, to: tuple[int, ...], mode: Mode) -> int:
    """The pullback of a sieve mask along a coarse-graining with index
    map `to`: the codomain bits whose composite partition is in `mask`."""
    return sum(bit for base_bit, bit in _pullback_table(to, mode) if mask & base_bit)


def up_closure(k: int, mode: Mode, seed: Iterable[Partition]) -> Sieve:
    """Smallest sieve containing the seed partitions."""
    lattice = _lattice(k, mode)
    mask = 0
    for p in seed:
        if p.k != k:
            raise InputError(f"seed partition {p} not over a {k}-element base")
        i = lattice.index.get(p)
        if i is None:
            raise InputError(f"seed partition {p} not admissible in {mode.name}")
        mask |= lattice.up[i]
    return Sieve._of_mask(k, mode, mask)


@lru_cache(maxsize=None)
def _mass_groups(k: int, mode: Mode, subset: int) -> tuple[tuple[int, int], ...]:
    """The admissible partitions grouped by the union of their blocks
    that meet a subset bitmask: one (union, group) mask pair per union."""
    groups: dict[int, int] = {}
    for i, p in enumerate(_lattice(k, mode).parts):
        union = _image(p, subset)
        groups[union] = groups.get(union, 0) | 1 << i
    return tuple(groups.items())


def subset_masses(weights: Sequence[float]) -> list[float]:
    """The weight of every subset bitmask, m[s] = m[s ^ h] + w[h] for the
    highest bit h of s: terms add in ascending index order from 0.
    Weights are clamped at 0 (a density matrix may have eigenvalues down
    to -tau_psd): a float sum of non-negative terms never shrinks as
    terms are added, so coarser partitions keep the mass."""
    masses = [0]
    for w in weights:
        w = max(w, 0.0)
        masses += [m + w for m in masses]
    return masses


def mass_sieve(k: int, mode: Mode, subset: int, masses: Sequence[float], cutoff: float) -> int:
    """Mask of the admissible partitions whose blocks meeting a subset
    bitmask carry total weight at least `cutoff`, read from a table of
    `subset_masses`."""
    mask = 0
    for union, group in _mass_groups(k, mode, subset):
        if masses[union] >= cutoff:
            mask |= group
    return mask


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

    def label(p: Partition) -> str:
        return p.format(values, fmt) if values is not None else str(p)

    lines = ["digraph partition_lattice {", "  rankdir=BT;", '  node [shape=box];']
    for p in _lattice(k, mode).parts:
        attrs = f'label="{label(p)}"'
        if sieve is not None and p in sieve:
            attrs += ', style=filled, fillcolor="lightblue"'
        lines.append(f'  "{p}" [{attrs}];')
    for fine, coarse in covering_pairs(k, mode):
        lines.append(f'  "{fine}" -> "{coarse}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
