"""Shared generators and independent oracles for the test suite.

Oracles recompute expected results from definitions, by exhaustive
enumeration where possible, without reusing the code paths under test.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from sievelogic import (
    Classification,
    ContextFamily,
    DegenerateClusteringError,
    Mode,
    Partition,
    Proposition,
    QuantumState,
    SectionAssignment,
    Sieve,
    SpectralOperator,
    SubalgebraPoset,
    admissible_partitions,
    apply_function,
    decompose,
    from_spectral_data,
)
from sievelogic.ks_search import DualSectionWitness
from sievelogic.spectral import projector_leq


# -- random inputs ----------------------------------------------------

def rand_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_operator(rng, dim: int, k: int) -> SpectralOperator:
    """Random Hermitian operator with exactly k well-separated eigenvalues."""
    values = np.sort(rng.choice(np.arange(3 * k), size=k, replace=False)).astype(float)
    values = values + rng.uniform(-0.1, 0.1, size=k)
    mult = [1] * k
    for _ in range(dim - k):
        mult[int(rng.integers(k))] += 1
    q = rand_unitary(rng, dim)
    m = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for i in range(k):
        for _ in range(mult[i]):
            m += values[i] * np.outer(q[:, pos], q[:, pos].conj())
            pos += 1
    return decompose(m)


def rand_related_operator(rng, u, kmax, base=None):
    """An operator on the columns of u, with its column grouping (one
    eigenspace per group).  Without a base the basis is u and the
    grouping random.  With one, the basis is u (commuting), u with some
    columns other than column 0 rotated among themselves (partly
    commuting), or an unrelated unitary (non-commuting); the
    grouping is mostly derived from `base` by merging its groups at
    random and splitting off one column, so that operators share
    coarse-grainings."""
    dim = u.shape[0]
    relation = "commuting"
    if base is not None:
        relation = rng.choice(["commuting", "partly", "unrelated"], p=[0.5, 0.25, 0.25])
    basis = u
    if relation == "partly" and dim > 2:
        cols = 1 + rng.choice(dim - 1, size=int(rng.integers(2, dim)), replace=False)
        v = np.eye(dim, dtype=complex)
        v[np.ix_(cols, cols)] = rand_unitary(rng, len(cols))
        basis = u @ v
    elif relation != "commuting":
        basis = rand_unitary(rng, dim)
    if base is not None and rng.random() < 0.75:
        group = rng.integers(base.max() + 1, size=base.max() + 1)[base]
        if rng.random() < 0.5:
            group[rng.integers(dim)] = dim
        group = np.unique(group, return_inverse=True)[1].reshape(-1)
    else:
        k = int(rng.integers(min(2, dim), min(dim, kmax) + 1))
        group = np.concatenate([np.arange(k), rng.integers(k, size=dim - k)])
        rng.shuffle(group)
    k = int(group.max()) + 1
    projectors = [basis[:, group == i] @ basis[:, group == i].conj().T for i in range(k)]
    values = np.sort(rng.choice(np.arange(4 * k), size=k, replace=False)) + rng.uniform(0, 0.5)
    return from_spectral_data(values, projectors), group


def rand_vector_state(rng, dim: int) -> QuantumState:
    return QuantumState.vector(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def rand_density_state(rng, dim: int) -> QuantumState:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return QuantumState.density(m / np.trace(m).real)


def rand_projector_matrix(rng, dim: int, rank: int) -> np.ndarray:
    q = rand_unitary(rng, dim)
    return sum(np.outer(q[:, i], q[:, i].conj()) for i in range(rank))


def rand_value_map(rng, k: int) -> list[float]:
    """Random total value map with likely collisions."""
    return [float(rng.integers(0, max(2, k))) for _ in range(k)]


def rand_basis_context(rng, dim: int):
    from sievelogic import BooleanContext

    q = rand_unitary(rng, dim)
    return BooleanContext([np.outer(q[:, i], q[:, i].conj()) for i in range(dim)])


# -- oracles ----------------------------------------------------------

@lru_cache(maxsize=None)
def brute_partitions(k: int) -> tuple[Partition, ...]:
    """Every set partition of {0..k-1}, sorted, as the fibers of every
    labelling in range(k)^k through `Partition.of`, deduplicated.  The
    labellings with label 0 at element 0 already give every partition
    (relabel 0's block to 0), so only those k^(k-1) are walked."""
    return tuple(sorted({
        Partition.of([i for i, x in enumerate(labels) if x == v] for v in set(labels))
        for labels in ((0,) + rest for rest in itertools.product(range(k), repeat=k - 1))
    }))


def brute_admissible(k: int, mode: Mode) -> list[Partition]:
    return [p for p in brute_partitions(k) if mode is Mode.WITH_CONSTANTS or p.n_blocks > 1]


@lru_cache(maxsize=None)
def brute_coarsenings(p: Partition) -> frozenset[Partition]:
    return frozenset(q for q in brute_partitions(p.k) if q.coarsens(p))


def brute_composite(to, q: Partition) -> Partition:
    """The base partition joining base indices i whose codomain indices
    to[i] share a block of q."""
    return Partition.of([i for i, j in enumerate(to) if j in b] for b in q.blocks)


@lru_cache(maxsize=None)
def brute_up_sets(k: int, mode: Mode) -> tuple[frozenset[Partition], ...]:
    """Every up-closed subset of the admissible partition order, by
    filtering the full power set.  Only usable for small k."""
    parts = brute_admissible(k, mode)
    ups = {p: [q for q in brute_coarsenings(p) if q in set(parts)] for p in parts}
    out = []
    for n in range(len(parts) + 1):
        for combo in itertools.combinations(parts, n):
            chosen = frozenset(combo)
            if all(q in chosen for p in chosen for q in ups[p]):
                out.append(chosen)
    return tuple(out)


def brute_up_set(k: int, mode: Mode, seed) -> frozenset[Partition]:
    """Up-closure of a seed set by direct coarsening tests."""
    admissible = admissible_partitions(k, mode)
    return frozenset(q for p in seed for q in brute_coarsenings(p) if q in admissible)


def brute_implies(k: int, mode: Mode, a: frozenset, b: frozenset) -> frozenset[Partition]:
    """Partitions every admissible coarsening of which lies outside a or
    inside b (the Heyting implication a => b; neg a is a => empty)."""
    admissible = admissible_partitions(k, mode)
    return frozenset(
        p for p in admissible
        if all(q not in a or q in b for q in brute_coarsenings(p) if q in admissible)
    )


def brute_classify(k: int, mode: Mode, s: frozenset) -> Classification:
    if not s:
        return Classification.TOTALLY_FALSE
    if s == admissible_partitions(k, mode):
        return Classification.TOTALLY_TRUE
    if mode is Mode.WITH_CONSTANTS and s == {Partition.of([range(k)])}:
        return Classification.MINIMALLY_TRUE
    return Classification.INTERMEDIATE


def brute_pullback(s: frozenset, mode: Mode, base_values) -> frozenset[Partition]:
    """Pullback of s along the map sending base index i to base_values[i]:
    a partition of the codomain (the distinct values, ascending) belongs
    when joining base indices whose values share one of its blocks
    gives a member of s."""
    codomain = sorted(set(base_values))
    image = [codomain.index(v) for v in base_values]
    out = set()
    for p in admissible_partitions(len(codomain), mode):
        classes: dict[int, list[int]] = {}
        for i, j in enumerate(image):
            owner = next(pos for pos, b in enumerate(p.blocks) if j in b)
            classes.setdefault(owner, []).append(i)
        if Partition.of(classes.values()) in s:
            out.add(p)
    return frozenset(out)


def brute_naturality_failures(nu, a: SpectralOperator, values) -> list[int]:
    """The subset bitmasks s of a's spectrum whose naturality square
    fails along the value map `values` (one value per eigenvalue index,
    no two within eps_group unless equal), on frozenset sieves: the
    sieve of "f(a) in f(s)", with f(a) built afresh, against
    `brute_pullback` of the sieve of "a in s"."""
    b = apply_function(a, values)
    codomain = sorted(set(values))
    failed = []
    for s in range(1 << a.k):
        delta = frozenset(i for i in range(a.k) if s >> i & 1)
        image = frozenset(codomain.index(values[i]) for i in delta)
        coarse = nu.evaluate(Proposition(b, image)).partitions
        if coarse != brute_pullback(nu.evaluate(Proposition(a, delta)).partitions, nu.mode, values):
            failed.append(s)
    return failed


def bit_rows(k: int, mode: Mode, masks) -> np.ndarray:
    """Sieve masks over the admissible partitions of (k, mode) as the
    rows of a bool matrix: column i is bit i, the i-th partition in
    sorted order.  How a test valuation hands over its sieves."""
    width = len(admissible_partitions(k, mode))
    return np.array([[m >> i & 1 for i in range(width)] for m in masks], dtype=bool).reshape(len(masks), width)


def brute_mass_sieve(k: int, mode: Mode, weights, delta, cutoff: float) -> frozenset[Partition]:
    """Partitions whose blocks meeting delta carry weight >= cutoff."""
    delta = frozenset(delta)
    return frozenset(
        p for p in admissible_partitions(k, mode)
        if sum(sum(weights[i] for i in b) for b in p.blocks if delta & set(b)) >= cutoff
    )


def brute_induced_sieve(weights, delta, k: int, mode: Mode, cutoff: float) -> frozenset[Partition]:
    """Partitions with a single block that meets delta and alone carries
    weight >= cutoff: the state is an eigenvector of the coarse observable
    with its eigenvalue in the coarsened subset."""
    delta = frozenset(delta)
    return frozenset(
        p for p in admissible_partitions(k, mode)
        if any(delta & set(b) and sum(weights[i] for i in b) >= cutoff for b in p.blocks)
    )


def up_closed_sieve(k: int, mode: Mode, members: frozenset[Partition]) -> Sieve:
    return Sieve(k, mode, members)


def nu_p_definitional(P: np.ndarray, a: SpectralOperator, delta, mode: Mode) -> frozenset[Partition]:
    """Membership by projector domination: a partition is in when the
    coarse-grained spectral projector of delta dominates P."""
    delta = frozenset(delta)
    members = set()
    for part in admissible_partitions(a.k, mode):
        idx = [i for b in part.blocks if delta & set(b) for i in b]
        if projector_leq(P, a.projector(idx), 1e-9):
            members.add(part)
    return frozenset(members)


def infimum_oracle(a: SpectralOperator, f, delta) -> np.ndarray:
    """Smallest element of the coarse observable's algebra dominating the
    plain spectral projector, by scanning all subset sums."""
    from sievelogic import apply_function

    b = apply_function(a, f)
    e_delta = a.projector(delta)
    best = np.eye(a.dim, dtype=complex)
    for n in range(b.k + 1):
        for combo in itertools.combinations(range(b.k), n):
            q = b.projector(combo)
            if projector_leq(e_delta, q, 1e-9):
                best = best @ q
    return best


def least_dominating_oracle(poset: SubalgebraPoset, w2: Partition, alpha: frozenset) -> frozenset:
    """Least element of node w2 containing alpha, by scanning all
    elements of the node."""
    dominating = [beta for beta in poset.elements(w2) if alpha <= beta]
    best = dominating[0]
    for beta in dominating[1:]:
        best = best & beta
    assert best in set(poset.elements(w2))
    return best


@lru_cache(maxsize=None)
def brute_subalgebras(n: int, mode: Mode, w: Partition) -> frozenset[Partition]:
    """Nodes of the n-atom subalgebra poset included in node w: the
    admissible partitions each block of w lies inside a block of."""
    return frozenset(
        q for q in admissible_partitions(n, mode)
        if all(any(set(b) <= set(c) for c in q.blocks) for b in w.blocks)
    )


def brute_node_elements(w: Partition) -> list[frozenset]:
    """Every union of blocks of w, in no particular order."""
    return [
        frozenset(i for b in combo for i in b)
        for r in range(w.n_blocks + 1)
        for combo in itertools.combinations(w.blocks, r)
    ]


def brute_coarsening_checks(n: int, mode: Mode) -> int:
    """The number of checks of the coarsening audit on an n-atom poset,
    counted from its definition: per inclusion w2 within w1 and element
    alpha of w1, one domination check, one retraction check when alpha is
    also an element of w2, and one composition check per w3 within w2;
    per inclusion, one monotonicity check per pair of distinct nested
    elements of w1."""
    total = 0
    for w1 in admissible_partitions(n, mode):
        elements = brute_node_elements(w1)
        nested = sum(1 for a in elements for b in elements if a < b)
        for w2 in brute_subalgebras(n, mode, w1):
            retractable = sum(
                1 for a in elements if all(set(b) <= a or not a & set(b) for b in w2.blocks)
            )
            total += len(elements) + retractable + nested
            total += len(brute_subalgebras(n, mode, w2)) * len(elements)
    return total


def brute_coarsening(w1: Partition, w2: Partition, alpha: frozenset) -> frozenset:
    """The canonical coarse-graining by its definition: the union of the
    blocks of w2 that meet alpha."""
    return frozenset(i for b in w2.blocks if alpha & set(b) for i in b)


def broken_coarsening(n: int, mode: Mode, seed: int, count: int = 4):
    """The canonical map with the answers at a few seeded slots (w1, w2
    within w1, element alpha of w1) replaced by one of: the image less its
    lowest atom (it loses atoms, or is not an element of w2), alpha itself
    (not an element of w2 when alpha is not one), the unit, or the image
    plus one atom of a block of w2 it misses (never an element of w2)."""
    rng = np.random.default_rng(seed)
    slots = [
        (w1, w2, alpha)
        for w1 in sorted(admissible_partitions(n, mode))
        for w2 in sorted(brute_subalgebras(n, mode, w1))
        for alpha in brute_node_elements(w1)
    ]
    wrong = {}
    for j in rng.choice(len(slots), size=min(count, len(slots)), replace=False).tolist():
        w1, w2, alpha = slots[j]
        t = brute_coarsening(w1, w2, alpha)
        options = [t - {min(t, default=0)}, alpha, frozenset(range(n))]
        options += [t | {b[0]} for b in w2.blocks if len(b) > 1 and not t & set(b)][:1]
        wrong[slots[j]] = options[int(rng.integers(len(options)))]
    return lambda w1, w2, alpha: wrong.get((w1, w2, alpha), brute_coarsening(w1, w2, alpha))


def brute_coarsening_report(n: int, mode: Mode, theta) -> str:
    """The text of the coarsening audit of a map on the n-atom poset,
    rebuilt from the axioms' definitions on frozensets.  `theta(w1, w2,
    alpha)` returns a set of atom indices.  Per inclusion w2 within w1 and
    element alpha of w1: theta(alpha) contains alpha (domination), equals
    alpha when alpha is an element of w2 (retraction), and for each w3
    within w2 theta from w1 to w3 agrees with theta from w2 to w3 of
    theta(alpha) (composition); per inclusion, alpha within beta, both
    distinct elements of w1, needs theta(alpha) within theta(beta)."""
    image = lru_cache(maxsize=None)(lambda w1, w2, alpha: frozenset(theta(w1, w2, alpha)))
    checks, violations = 0, []
    for w1 in admissible_partitions(n, mode):
        elements = brute_node_elements(w1)
        for w2 in brute_subalgebras(n, mode, w1):
            of_w2 = set(brute_node_elements(w2))
            for alpha in elements:
                t = image(w1, w2, alpha)
                checks += 1
                if not alpha <= t:
                    violations.append(f"domination fails: theta({sorted(alpha)}) from {w1} to {w2} loses atoms")
                if alpha in of_w2:
                    checks += 1
                    if t != alpha:
                        violations.append(f"retraction fails on {sorted(alpha)} from {w1} to {w2}")
                for beta in elements:
                    if alpha < beta:
                        checks += 1
                        if not t <= image(w1, w2, beta):
                            violations.append(
                                f"monotonicity fails for {sorted(alpha)} within {sorted(beta)} from {w1} to {w2}"
                            )
                for w3 in brute_subalgebras(n, mode, w2):
                    checks += 1
                    if image(w1, w3, alpha) != image(w2, w3, t):
                        violations.append(f"composition fails on {sorted(alpha)} along {w1} -> {w2} -> {w3}")
    status = f"{len(violations)} violation(s)" if violations else "ok"
    return "\n".join([f"coarse-graining axioms: {checks} checks, {status}"] + [f"  violation: {v}" for v in sorted(violations)])


def brute_restriction_checks(n: int, mode: Mode) -> int:
    """The number of checks of the restriction audit on an n-atom poset:
    one per inclusion w2 within w1 and element of w1."""
    return sum(
        len(brute_node_elements(w1)) * len(brute_subalgebras(n, mode, w1))
        for w1 in admissible_partitions(n, mode)
    )


def brute_valuation_sieve(n: int, mode: Mode, w: Partition, alpha, weights, cutoff: float) -> frozenset[Partition]:
    """Subalgebras of w whose blocks meeting alpha carry atom weight at
    least cutoff, summed over their union in index order."""
    alpha = frozenset(alpha)
    out = set()
    for q in brute_subalgebras(n, mode, w):
        union = sorted(i for c in q.blocks if alpha & set(c) for i in c)
        if sum(weights[i] for i in union) >= cutoff:
            out.add(q)
    return frozenset(out)


def brute_axiom_report(side: str, values: dict, whole: frozenset, partial: bool = False) -> str:
    """The text of an axiom report, rebuilt from the definitions on
    frozensets.  `values` maps every element (a frozenset of indices) to
    its truth value (a frozenset of partitions); `whole` is the totally
    true value, and a value is true when it equals a nonempty `whole`.

    side "spectrum" is `check_axioms` over the subsets of a spectrum:
    monotonicity and exclusivity visit every ordered pair of subsets,
    equal ones included, and a false unit is a violation, or a note when
    `partial`.  side "poset" is `check_local_valuation` over the elements
    of one node: pairs of distinct elements, and the unit as a note."""
    spectrum = side == "spectrum"
    is_true = lambda v: bool(whole) and v == whole  # noqa: E731
    checks, violations = 2, []  # the null and the unit condition
    if values[frozenset()]:
        violations.append(
            "null condition: empty subset not totally false" if spectrum else "null condition: zero element not false"
        )
    for x in values:
        for y in values:
            if x == y and not spectrum:
                continue
            if x <= y:
                checks += 1
                if not values[x] <= values[y]:
                    violations.append(f"monotonicity fails for {sorted(x)} within {sorted(y)}")
            if not x & y and is_true(values[x]):
                checks += 1
                if is_true(values[y]):
                    violations.append(f"exclusivity fails for disjoint {sorted(x)} / {sorted(y)}")
    notes = []
    unit_true = is_true(values[max(values, key=len)])
    if not spectrum:
        notes.append(f"unit condition: {'holds' if unit_true else 'violated'}")
    elif partial:
        notes.append(f"unit condition: {'holds' if unit_true else 'violated (legal for partial-valuation families)'}")
    elif not unit_true:
        violations.append("unit condition: full spectrum not totally true")
    title = "valuation axioms" if spectrum else "local valuation"
    status = f"{len(violations)} violation(s)" if violations else "ok"
    lines = [f"{title}: {checks} checks, {status}"]
    lines += [f"  violation: {v}" for v in sorted(violations)]
    lines += [f"  note: {n}" for n in notes]
    return "\n".join(lines)


def witness_ok_independent(fam: ContextFamily, w: DualSectionWitness) -> bool:
    """Cross-context agreement recheck by direct matrix comparison,
    without the class index."""
    items = []
    for ci, ctx in enumerate(fam.contexts):
        for subset, matrix in ctx.elements():
            items.append((ci, subset, matrix))
    for (ci, si, mi), (cj, sj, mj) in itertools.combinations(items, 2):
        if ci == cj:
            continue
        if np.abs(mi - mj).max() < 1e-6 and w.value(ci, si) != w.value(cj, sj):
            return False
    return all(0 <= w.chosen[ci] < ctx.n_atoms for ci, ctx in enumerate(fam.contexts))


def brute_dual_section(fam: ContextFamily, chunk: int = 1 << 16):
    """The first atom choice, in lexicographic order of the full product
    of choices, that gives equal projectors of different contexts equal
    0/1 values; None when no choice does.

    Projectors are compared pairwise by max-abs within tau_proj, with no
    class index and no pruning: every choice is tested against every
    equal pair, a chunk of the product at a time."""
    items = [
        (ci, subset, matrix)
        for ci, ctx in enumerate(fam.contexts)
        for subset, matrix in ctx.elements()
    ]
    sizes = [ctx.n_atoms for ctx in fam.contexts]
    pairs = []
    for (ci, si, mi), (cj, sj, mj) in itertools.combinations(items, 2):
        if ci == cj or np.abs(mi - mj).max() > fam.tol.tau_proj:
            continue
        vi = np.array([a in si for a in range(sizes[ci])])
        vj = np.array([a in sj for a in range(sizes[cj])])
        # both sides the same constant (zero or identity): no constraint
        if (vi.all() and vj.all()) or not (vi.any() or vj.any()):
            continue
        pairs.append((ci, vi, cj, vj))
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        cols = np.unravel_index(np.arange(start, min(total, start + chunk)), sizes)
        ok = np.ones(len(cols[0]), dtype=bool)
        for ci, vi, cj, vj in pairs:
            ok &= vi[cols[ci]] == vj[cols[cj]]
        hit = np.flatnonzero(ok)
        if hit.size:
            return tuple(int(c[hit[0]]) for c in cols)
    return None


def brute_shared_classes(fam: ContextFamily) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The shared classes of a family as sorted lists of (context, atom
    tuple) occurrences, in sorted order.  Every pair of subset sums is
    compared by max-abs within tau_proj and joined by a plain union-find
    (no sort, no overlap pass); a class is shared when it spans two
    contexts."""
    items = [(ci, subset, matrix) for ci, ctx in enumerate(fam.contexts) for subset, matrix in ctx.elements()]
    parent = list(range(len(items)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(items)), 2):
        if np.abs(items[i][2] - items[j][2]).max() <= fam.tol.tau_proj:
            parent[root(j)] = root(i)
    classes: dict[int, list] = {}
    for i, (ci, subset, _) in enumerate(items):
        classes.setdefault(root(i), []).append((ci, tuple(sorted(subset))))
    return sorted(sorted(occ) for occ in classes.values() if len({ci for ci, _ in occ}) > 1)


def brute_atom_masks(sizes, classes):
    """Each atom's (ones, zeros) class masks by plain loops: bit b is
    classes[b + 2] (zero and the identity take none), a list of
    (context, atom mask) nodes; an atom inside a node's mask sets bit b
    in its ones, an atom of that node's context outside it in its zeros."""
    ones, zeros = [[0] * k for k in sizes], [[0] * k for k in sizes]
    for bit, nodes in enumerate(classes[2:]):
        for ci, mask in nodes:
            for atom in range(sizes[ci]):
                if mask >> atom & 1:
                    ones[ci][atom] |= 1 << bit
                else:
                    zeros[ci][atom] |= 1 << bit
    return tuple(tuple(zip(o, z)) for o, z in zip(ones, zeros))


def brute_value_fibers(values, eps: float) -> tuple[Partition, tuple[float, ...], tuple[int, ...]]:
    """The fiber partition, block labels and codomain index map of a value
    list, by union-find over every pair of values within eps (no sort
    decides a fiber).  A component spanning more than eps raises
    DegenerateClusteringError.  A block's label is the mean of its sorted
    values (a singleton's is v + 0.0); codomain indices rank the labels."""
    parent = list(range(len(values)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(values)), 2):
        if abs(values[i] - values[j]) <= eps:
            parent[root(i)] = root(j)
    components: dict[int, list[int]] = {}
    for i in range(len(values)):
        components.setdefault(root(i), []).append(i)
    fibers = Partition.of(components.values())
    labels = []
    for block in fibers.blocks:
        spread = sorted(values[i] for i in block)
        if spread[-1] - spread[0] > eps:
            raise DegenerateClusteringError(f"values {spread} span more than {eps:g}")
        labels.append(spread[0] + 0.0 if len(spread) == 1 else float(np.mean(spread)))
    ranked = sorted(labels)
    return fibers, tuple(labels), tuple(ranked.index(labels[fibers.block_of(i)]) for i in range(len(values)))


def reconstructed_function_of(a: SpectralOperator, m: SpectralOperator, tau_rec: float = 1e-9):
    """The value map g with a = g(m) by blockwise reconstruction: g[j] is
    the mean of a over the eigenspace Q_j of m, tr(Q_j a) / rank Q_j, and
    g is accepted when sum_j g[j] Q_j matches a within tau_rec (max-abs);
    None otherwise."""
    values = {}
    recon = np.zeros((a.dim, a.dim), dtype=complex)
    for j, q in enumerate(m.projectors):
        rank = round(float(np.trace(q).real))
        values[j] = float(np.trace(q @ a.matrix).real) / rank
        recon = recon + values[j] * q
    return values if np.abs(recon - a.matrix).max() <= tau_rec else None


def pairwise_linked(a: SpectralOperator, q: np.ndarray, tau_proj: float) -> list[int]:
    """The eigenvalue indices of a linked to the projector q, one
    product per pair: those with max_abs(P_i q) > tau_proj, else the
    index of the largest overlap."""
    overlaps = [float(np.abs(p @ q).max()) for p in a.projectors]
    return [i for i, x in enumerate(overlaps) if x > tau_proj] or [int(np.argmax(overlaps))]


def pairwise_common_coarsening(a: SpectralOperator, c: SpectralOperator, tol) -> Partition:
    """The common coarsening of a by c from pairwise overlaps: a's and
    c's indices are the nodes of a graph whose edges join each c index to
    its `pairwise_linked` a indices; a component with c indices whose two
    projector sums agree within tau_proj is a block, and the a indices of
    the other components form one more block."""
    edges = {("c", j): {("a", i) for i in pairwise_linked(a, q, tol.tau_proj)} for j, q in enumerate(c.projectors)}
    for cj, linked in list(edges.items()):
        for node in linked:
            edges.setdefault(node, set()).add(cj)
    seen, blocks, rest = set(), [], set()
    for start in [("a", i) for i in range(a.k)]:
        if start in seen:
            continue
        component, todo = set(), [start]
        while todo:
            node = todo.pop()
            if node not in component:
                component.add(node)
                todo.extend(edges.get(node, ()))
        seen |= component
        ia = sorted(i for side, i in component if side == "a")
        jc = sorted(j for side, j in component if side == "c")
        if jc and np.abs(a.projector(ia) - c.projector(jc)).max() <= tol.tau_proj:
            blocks.append(ia)
        else:
            rest |= set(ia)
    return Partition.of(blocks + [rest] if rest else blocks)


def _common_value(b: SpectralOperator, members, tol):
    """The value the first member whose algebra holds b assigns it (b's
    eigenvalue on the anchor's assigned eigenspace), or None."""
    for op, idx in members:
        g = reconstructed_function_of(b, op, tol.tau_rec)
        if g is not None:
            return g[idx]
    return None


def brute_partial_blocks(a: SpectralOperator, members, mode: Mode, tol) -> dict[Partition, frozenset[int]]:
    """Per admissible partition q whose coarse observable (block
    positions as eigenvalues, built afresh) some member's algebra
    holds, the block of q that the member's value selects."""
    out = {}
    for q in admissible_partitions(a.k, mode):
        b = apply_function(a, [q.block_of(i) for i in range(a.k)], tol)
        v = _common_value(b, members, tol)
        if v is not None:
            out[q] = frozenset(q.blocks[round(v)])
    return out


def brute_partial_sieve(a: SpectralOperator, members, delta, mode: Mode, tol) -> frozenset[Partition]:
    """The partial valuation's sieve of "a in delta" by its definition:
    q is in when some member's algebra holds q's coarse observable and
    the block its value selects meets delta."""
    delta = frozenset(delta)
    return frozenset(q for q, block in brute_partial_blocks(a, members, mode, tol).items() if delta & block)


def brute_consistent(members, tol) -> bool:
    """Whether assigned (operator, eigenvalue index) pairs agree on every
    common coarse-graining: for every pair and every partition p of the
    first operator's spectrum whose coarse observable the second
    operator's algebra holds, the block of p holding the first index
    must be the value the second index selects."""
    for (op1, a1), (op2, a2) in itertools.combinations(members, 2):
        for p in admissible_partitions(op1.k, Mode.WITH_CONSTANTS):
            common = apply_function(op1, [p.block_of(i) for i in range(op1.k)], tol)
            g = reconstructed_function_of(common, op2, tol.tau_rec)
            if g is not None and abs(p.block_of(a1) - g[a2]) > tol.eps_group:
                return False
    return True


def section_ok_independent(family, assignment: SectionAssignment) -> bool:
    """Recheck every functional relation from scratch."""
    for i, j in itertools.permutations(range(len(family)), 2):
        g = reconstructed_function_of(family[j], family[i])
        if g is None:
            continue
        want = family[j].eigenvalue_index(g[assignment.choices[i]], 1e-8)
        if assignment.choices[j] != want:
            return False
    return True


def ks_operator_family(fam: ContextFamily):
    """Observables encoding a context family: one per context with
    eigenvalue i on atom i, plus one 0/1 observable per distinct ray,
    rays told apart by max-abs distance above tau_proj."""
    from sievelogic import context_operator

    ops = [context_operator(ctx) for ctx in fam.contexts]
    rays = []
    for ctx in fam.contexts:
        for atom in ctx.atoms:
            if all(np.abs(atom - r).max() > fam.tol.tau_proj for r in rays):
                rays.append(atom)
    eye = np.eye(fam.dim, dtype=complex)
    return ops + [from_spectral_data((0.0, 1.0), (eye - r, r)) for r in rays]
