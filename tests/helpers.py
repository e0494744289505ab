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
    Mode,
    Partition,
    Proposition,
    QuantumState,
    SectionAssignment,
    Sieve,
    SpectralOperator,
    SubalgebraPoset,
    all_partitions,
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
def brute_coarsenings(p: Partition) -> frozenset[Partition]:
    return frozenset(q for q in all_partitions(p.k) if q.coarsens(p))


@lru_cache(maxsize=None)
def brute_up_sets(k: int, mode: Mode) -> tuple[frozenset[Partition], ...]:
    """Every up-closed subset of the admissible partition order, by
    filtering the full power set.  Only usable for small k."""
    parts = sorted(admissible_partitions(k, mode))
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
