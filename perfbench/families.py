"""Kochen-Specker context families built from closed-form definitions.

* Peres-24 (Peres 1991): the 24 rays of dimension 4 whose coordinates,
  up to sign and order, are (1,0,0,0), (1,1,0,0) and (1,1,1,1); they
  form 24 orthogonal bases.
* Peres-33 (Peres 1991): the 33 rays of dimension 3 whose coordinates,
  up to sign and order, are (1,0,0), (1,1,0), (1,1,sqrt2) and
  (0,1,sqrt2).  They span 16 orthogonal triads and 24 further
  orthogonal pairs; each pair is completed to a basis by the cross
  product, giving 40 contexts.
* The 18-ray, 9-basis set of Cabello, Estebaranz and Garcia-Alcaine
  (1996), read from the copy bundled with the package.  Every basis is
  needed, so removing any one leaves a colorable family.

All rays are real here; instances are rotated by a random unitary.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np


def _orthogonal(rays: np.ndarray) -> np.ndarray:
    return np.abs(rays @ rays.T) < 1e-9


def peres24() -> list[np.ndarray]:
    rays = [np.eye(4)[i] for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for s in (1.0, -1.0):
            v = np.zeros(4)
            v[i], v[j] = 1.0, s
            rays.append(v)
    for signs in itertools.product((1.0, -1.0), repeat=3):
        rays.append(np.array([1.0, *signs]))
    rays = np.array(rays)
    orth = _orthogonal(rays)
    bases = [
        combo for combo in itertools.combinations(range(len(rays)), 4)
        if all(orth[a, b] for a, b in itertools.combinations(combo, 2))
    ]
    return [rays[list(b)] for b in bases]


def _peres33_rays() -> np.ndarray:
    r2 = np.sqrt(2.0)
    types = [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, r2), (0.0, 1.0, r2)]
    seen, rays = set(), []
    for t in types:
        for perm in set(itertools.permutations(t)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                v = np.array(perm) * np.array(signs)
                v = v if v[np.nonzero(v)[0][0]] > 0 else -v
                key = tuple(np.round(v, 9))
                if key not in seen:
                    seen.add(key)
                    rays.append(v)
    return np.array(rays)


def peres33() -> tuple[list[np.ndarray], int, int, int]:
    """The 40 contexts, plus the ray, triad and completed-pair counts."""
    rays = _peres33_rays()
    orth = _orthogonal(rays)
    triads = [
        t for t in itertools.combinations(range(len(rays)), 3)
        if orth[t[0], t[1]] and orth[t[0], t[2]] and orth[t[1], t[2]]
    ]
    in_triad = {frozenset(p) for t in triads for p in itertools.combinations(t, 2)}
    pairs = [
        p for p in itertools.combinations(range(len(rays)), 2)
        if orth[p] and frozenset(p) not in in_triad
    ]
    contexts = [rays[list(t)] for t in triads]
    contexts += [np.array([rays[a], rays[b], np.cross(rays[a], rays[b])]) for a, b in pairs]
    return contexts, len(rays), len(triads), len(pairs)


def ks18(root: Path) -> list[np.ndarray]:
    data = json.loads((root / "src" / "sievelogic" / "data" / "ks18_dim4.json").read_text())
    vectors = {name: np.array(v, dtype=float) for name, v in data["vectors"].items()}
    return [np.array([vectors[r] for r in c["rays"]]) for c in data["contexts"]]


def self_check(p24, p33, counts33, k18) -> list[str]:
    """Structural facts every generated family must have; returns the
    failures."""
    problems = []

    def bases_ok(contexts):
        return all(
            np.allclose(c @ c.T, np.diag(np.diag(c @ c.T)), atol=1e-9)
            and np.linalg.matrix_rank(c) == c.shape[1]
            for c in contexts
        )

    def distinct_rays(contexts):
        units = {}
        for c in contexts:
            for v in c:
                u = v / np.linalg.norm(v)
                u = u if u[np.nonzero(np.abs(u) > 1e-9)[0][0]] > 0 else -u
                units[tuple(np.round(u, 9))] = True
        return len(units)

    if len(p24) != 24 or distinct_rays(p24) != 24 or not bases_ok(p24):
        problems.append("Peres-24 is not 24 rays in 24 orthogonal bases")
    n_rays, n_triads, n_pairs = counts33
    if (n_rays, n_triads, n_pairs, len(p33)) != (33, 16, 24, 40) or not bases_ok(p33):
        problems.append(
            f"Peres-33 has {n_rays} rays, {n_triads} triads, {n_pairs} pairs, {len(p33)} contexts"
        )
    uses = {}
    for c in k18:
        for v in c:
            key = tuple(np.round(v / np.linalg.norm(v), 9))
            uses[key] = uses.get(key, 0) + 1
    if len(k18) != 9 or len(uses) != 18 or set(uses.values()) != {2} or not bases_ok(k18):
        problems.append("the 18-ray set is not 18 rays in 9 bases, each ray in two")
    return problems


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def instance(contexts, rng: np.random.Generator, order=None) -> list[np.ndarray]:
    """The family rotated by a random unitary, contexts shuffled unless
    an order is given."""
    u = haar_unitary(contexts[0].shape[1], rng)
    if order is None:
        order = rng.permutation(len(contexts))
    return [contexts[i] @ u.T for i in order]
