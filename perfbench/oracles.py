"""Second-route answers for the benchmark's output checks.

Nothing here imports sievelogic.  Partitions are tuples of sorted blocks
ordered by least element, the same canonical form the package uses, so
results compare as plain sets.  Truth values are recomputed from block
masses of state weights that the generators know exactly, instead of
from the package's projectors.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

TAU_ONE = 1e-9  # the package's default Tolerances.tau_one


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple:
    """Every set partition of range(k), canonical form, as a tuple."""
    out = []

    def grow(i, blocks):
        if i == k:
            out.append(tuple(sorted(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return tuple(out)


def admissible(k: int, with_constants: bool) -> tuple:
    return tuple(p for p in partitions(k) if with_constants or len(p) > 1)


def coarsens(q: tuple, p: tuple) -> bool:
    """Whether every block of p lies inside one block of q."""
    owner = {i: n for n, b in enumerate(q) for i in b}
    return all(len({owner[i] for i in b}) == 1 for b in p)


def subsets(k: int) -> list:
    return [frozenset(c) for n in range(k + 1) for c in itertools.combinations(range(k), n)]


def disjoint_pairs(k: int) -> list:
    """Unordered pairs of disjoint nonempty subsets, in the order the
    `axioms` command tallies them."""
    nonempty = [s for s in subsets(k) if s]
    return [(a, b) for a, b in itertools.combinations(nonempty, 2) if not (a & b)]


# -- spectrum side ------------------------------------------------------

def state_sieve(weights, indices: frozenset, with_constants: bool, cutoff: float) -> frozenset:
    """Partitions whose blocks meeting `indices` carry mass >= cutoff."""
    k = len(weights)
    out = []
    for p in admissible(k, with_constants):
        mass = sum(weights[i] for b in p if indices.intersection(b) for i in b)
        if mass >= cutoff:
            out.append(p)
    return frozenset(out)


def partial_sieve(k: int, assigned: int, indices: frozenset, with_constants: bool) -> frozenset:
    """Partitions whose block holding the assigned eigenvalue meets
    `indices` (a maximal partial valuation anchored at the operator)."""
    return frozenset(
        p for p in admissible(k, with_constants)
        if any(assigned in b and indices.intersection(b) for b in p)
    )


def audit_expectation(sieve_of, k: int) -> tuple[int, int]:
    """Check count of check_axioms plus one check_naturality per
    partition, and the number of disjoint pairs whose union sieve is
    the join, from independently computed sieves."""
    sieves = {d: sieve_of(d) for d in subsets(k)}
    discrete = tuple((i,) for i in range(k))
    totally_true = [d for d in subsets(k) if discrete in sieves[d]]
    checks = 1 + 3 ** k + sum(2 ** (k - len(d)) for d in totally_true) + 1
    checks += len(partitions(k)) * (2 ** k + k)
    equal = sum(sieves[a | b] == (sieves[a] | sieves[b]) for a, b in disjoint_pairs(k))
    return checks, equal


# -- subalgebra side ----------------------------------------------------

def node_elements(w: tuple) -> list:
    return [
        frozenset(i for b in combo for i in b)
        for n in range(len(w) + 1)
        for combo in itertools.combinations(w, n)
    ]


def is_element(w: tuple, alpha: frozenset) -> bool:
    return all(set(b) <= alpha or not alpha.intersection(b) for b in w)


def coarsening_axiom_checks(n: int) -> int:
    """Number of checks check_coarsening_axioms makes on an n-atom
    context with the one-block node admitted."""
    nodes = partitions(n)
    down = {w: [q for q in nodes if coarsens(q, w)] for w in nodes}
    total = 0
    for w1 in nodes:
        elems = node_elements(w1)
        nb = len(w1)
        for w2 in down[w1]:
            total += len(elems) + sum(is_element(w2, a) for a in elems)
            total += 3 ** nb - 2 ** nb
            total += len(down[w2]) * len(elems)
    return total


def restriction_checks(n: int) -> int:
    nodes = partitions(n)
    return sum(
        2 ** len(w1) * sum(coarsens(q, w1) for q in nodes) for w1 in nodes
    )


def local_valuation_checks(w: tuple, weights) -> int:
    nb = len(w)
    true_elems = [
        a for a in node_elements(w) if a and sum(weights[i] for i in a) >= 1.0 - TAU_ONE
    ]
    excl = sum(2 ** (nb - sum(1 for b in w if a.intersection(b))) for a in true_elems)
    return 1 + (3 ** nb - 2 ** nb) + excl + 1


def subalgebra_sieve(w: tuple, alpha: frozenset, weights) -> frozenset:
    """Nodes below w under which alpha's coarse-graining has mass one."""
    out = []
    for q in partitions(len(weights)):
        if not coarsens(q, w):
            continue
        image = [i for b in q if alpha.intersection(b) for i in b]
        if sum(weights[i] for i in image) >= 1.0 - TAU_ONE:
            out.append(q)
    return frozenset(out)


# -- Kochen-Specker families -----------------------------------------------

def projector_classes(contexts, tol: float = 1e-7) -> list:
    """Group equal subset-sum projectors across a family of ray contexts.

    Equality is decided by max-abs distance below `tol` on projectors
    built here from the ray vectors, never by a rounding grid.  Returns
    the classes with at least two occurrences, each a list of
    (context index, frozenset of ray positions)."""
    keys, mats = [], []
    for ci, rays in enumerate(contexts):
        units = [v / np.linalg.norm(v) for v in rays]
        outers = [np.outer(u, u.conj()) for u in units]
        for n in range(1, len(units)):
            for combo in itertools.combinations(range(len(units)), n):
                keys.append((ci, frozenset(combo)))
                mats.append(sum(outers[i] for i in combo))
    flat = np.array(mats).reshape(len(mats), -1)
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(keys)):
        close = np.nonzero(np.abs(flat[i + 1:] - flat[i]).max(axis=1) < tol)[0]
        for j in close + i + 1:
            parent[find(int(j))] = find(i)
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(find(i), []).append(key)
    return [g for g in groups.values() if len({ci for ci, _ in g}) >= 2]


def witness_ok(chosen, sizes, classes) -> bool:
    """A choice of one ray per context is a global 0/1 valuation when
    every shared projector gets one value from all its contexts."""
    if len(chosen) != len(sizes) or any(not 0 <= a < n for a, n in zip(chosen, sizes)):
        return False
    return all(len({chosen[ci] in s for ci, s in cls}) == 1 for cls in classes)


def find_coloring(sizes, classes, keep=None):
    """Independent exhaustive search for a consistent ray choice over
    the contexts in `keep` (all when None).  Contexts are taken most
    constrained first, unlike the package's input order."""
    keep = list(range(len(sizes))) if keep is None else list(keep)
    kept = set(keep)
    occ = {ci: [] for ci in keep}
    for cid, cls in enumerate(classes):
        live = [(ci, s) for ci, s in cls if ci in kept]
        if len({ci for ci, _ in live}) < 2:
            continue
        for ci, s in live:
            occ[ci].append((cid, s))
    order = sorted(keep, key=lambda ci: -len(occ[ci]))
    value: dict = {}
    chosen: dict = {}

    def walk(pos):
        if pos == len(order):
            return True
        ci = order[pos]
        for atom in range(sizes[ci]):
            staged, ok = [], True
            for cid, s in occ[ci]:
                v = atom in s
                old = value.get(cid)
                if old is None:
                    value[cid] = v
                    staged.append(cid)
                elif old != v:
                    ok = False
                    break
            if ok:
                chosen[ci] = atom
                if walk(pos + 1):
                    return True
            for cid in staged:
                del value[cid]
        return False

    return dict(chosen) if walk(0) else None
