"""The four workloads.

Each workload makes its inputs from a seeded generator in `setup`,
names its job classes, and lists one round of its schedule.  `run`
performs one job through the package's public API (or CLI) and returns
what the job produced; `check` verifies that output by a second route
that does not reuse the code under test (see oracles.py).  Inputs are
pools cycled through by the timed phase, so every job of a class after
the warm-up sees a fresh problem until the pool wraps.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import families
import oracles

POOL = 16


def _support_vector(rng, bases, support):
    """A unit vector whose weight on eigenspace i is at least about 0.04
    for i in `support` and zero elsewhere."""
    w = rng.uniform(0.2, 1.0, len(support))
    w /= w.sum()
    v = np.zeros(bases[0].shape[0], dtype=complex)
    for wi, i in zip(w, support):
        b = bases[i]
        c = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
        v += np.sqrt(wi) * (b @ (c / np.linalg.norm(c)))
    return v


def _random_spectrum(rng, k, dim):
    """Orthonormal bases of k eigenspaces (each at least one-dimensional)
    of a random dim-dimensional rotation."""
    mult = np.ones(k, dtype=int)
    for _ in range(dim - k):
        mult[rng.integers(k)] += 1
    u = families.haar_unitary(dim, rng)
    cuts = np.cumsum(mult)[:-1]
    return [u[:, c] for c in np.split(np.arange(dim), cuts)]


def _weights(bases, rho):
    return tuple(float(np.trace(b.conj().T @ rho @ b).real) for b in bases)


# -- audit ----------------------------------------------------------------

@dataclass
class AuditProblem:
    kind: str
    with_constants: bool
    matrix: np.ndarray
    payload: np.ndarray
    weights: tuple
    r: float
    assigned: int
    operator: object = None


def audit_problem(rng, kind, with_constants, k, j):
    """A problem in stratum j: dimension (k to k+2) and the number of
    supported eigenspaces (1 to k-1) cycle with j, so every seed gets the
    same mix of sizes and only the random content differs."""
    bases = _random_spectrum(rng, k, k + j % 3)
    eigenvalues = np.sort(rng.choice(np.arange(-9, 10), size=k, replace=False)).astype(float)
    m = sum(e * (b @ b.conj().T) for e, b in zip(eigenvalues, bases))
    m = (m + m.conj().T) / 2.0
    support = sorted(rng.choice(k, size=1 + j % (k - 1), replace=False))
    vectors = [_support_vector(rng, bases, support) for _ in range(1 if kind == "vector" else 2)]
    rho = sum(np.outer(v, v.conj()) for v in vectors) / len(vectors)
    payload = vectors[0] if kind == "vector" else rho
    # Above 1/2, so two disjoint subsets cannot both pass and exclusivity holds.
    r = float(rng.uniform(0.55, 0.95)) if kind == "threshold" else 1.0
    return AuditProblem(
        kind, with_constants, m, payload, _weights(bases, rho), r, int(rng.integers(k))
    )


def audit_job(sl, pr):
    """What `sievelogic axioms` does for one operator: the axiom audit,
    naturality along every partition, and the disjunction tally."""
    mode = sl.Mode.WITH_CONSTANTS if pr.with_constants else sl.Mode.WITHOUT_CONSTANTS
    op = pr.operator
    if pr.kind == "vector":
        nu = sl.GeneralizedValuation.from_state(sl.QuantumState.vector(pr.payload), mode)
    elif pr.kind == "density":
        nu = sl.GeneralizedValuation.from_state(sl.QuantumState.density(pr.payload), mode)
    elif pr.kind == "threshold":
        nu = sl.GeneralizedValuation.threshold(sl.QuantumState.density(pr.payload), pr.r, mode)
    else:
        nu = sl.GeneralizedValuation.from_partial(sl.PartialValuation.maximal(op, pr.assigned), mode)
    reports = [sl.check_axioms(nu, op)]
    for p in sl.all_partitions(op.k):
        reports.append(sl.check_naturality(nu, op, [float(p.block_of(i)) for i in range(op.k)]))
    equal = sum(
        sl.check_disjunction_strength(nu, op, d1, d2) is sl.DisjunctionStrength.EQUALITY
        for d1, d2 in oracles.disjoint_pairs(op.k)
    )
    return nu, reports, equal


def audit_check(sl, pr, out) -> bool:
    nu, reports, equal = out
    k = pr.operator.k
    if pr.kind == "partial":
        def sieve_of(d):
            return oracles.partial_sieve(k, pr.assigned, d, pr.with_constants)
    else:
        cutoff = pr.r - oracles.TAU_ONE

        def sieve_of(d):
            return oracles.state_sieve(pr.weights, d, pr.with_constants, cutoff)
    checks, expected_equal = oracles.audit_expectation(sieve_of, k)
    if not all(r.ok for r in reports) or sum(r.checks for r in reports) != checks:
        return False
    if equal != expected_equal:
        return False
    return all(
        frozenset(p.blocks for p in nu.evaluate(sl.Proposition(pr.operator, d))) == sieve_of(d)
        for d in oracles.subsets(k)
    )


class Audit:
    """k=5 operators in dimensions 5-7; one job audits one valuation."""

    name = "audit"
    kinds = ("vector", "density", "threshold", "partial")
    classes = [f"{kind}-{mode}" for kind in kinds for mode in ("o", "ostar")]
    # Partial valuations, the slowest jobs, run twice per round, so that
    # at 15 s the tail percentile falls among them rather than at the
    # edge between them and the state valuations.
    schedule = classes + ["partial-o", "partial-ostar"]
    k = 5

    def setup(self, sl, rng, root):
        self.sl = sl
        self.pool = {}
        for cls in self.classes:
            kind, mode = cls.split("-")
            # Offsetting the stratum by the class index gives every round
            # (one job per class) a balanced mix of sizes.
            offset = self.classes.index(cls)
            problems = [
                audit_problem(rng, kind, mode == "o", self.k, j + offset) for j in range(POOL)
            ]
            for pr in problems:
                pr.operator = sl.decompose(pr.matrix)
            self.pool[cls] = problems

    def run(self, cls, i):
        return audit_job(self.sl, self.pool[cls][i % POOL])

    def check(self, cls, i, out):
        return audit_check(self.sl, self.pool[cls][i % POOL], out)


# -- posets ---------------------------------------------------------------

@dataclass
class PosetProblem:
    atoms: list
    rho: np.ndarray
    weights: tuple


def poset_problem(rng, n, j):
    """A problem in stratum j: dimension (n to n+2) and the number of
    supported atoms (1 to n-1) run through all combinations as j runs
    through 3(n-1) consecutive values."""
    bases = _random_spectrum(rng, n, n + j % 3)
    support = sorted(rng.choice(n, size=1 + (j // 3) % (n - 1), replace=False))
    vectors = [_support_vector(rng, bases, support) for _ in range(2)]
    rho = sum(np.outer(v, v.conj()) for v in vectors) / 2.0
    atoms = [b @ b.conj().T for b in bases]
    return PosetProblem(atoms, rho, _weights(bases, rho))


def poset_job(sl, pr):
    """Audit of the subalgebra poset of one context: the coarsening
    axioms, restriction compatibility, and the local valuation axioms at
    every node with the state's truth values."""
    ctx = sl.BooleanContext(pr.atoms)
    rho = sl.QuantumState.density(pr.rho)
    poset = sl.SubalgebraPoset(ctx, sl.Mode.WITH_CONSTANTS)
    reports = [sl.check_coarsening_axioms(poset), sl.check_restriction_compatibility(rho, poset)]
    phis = {}
    for w in poset.nodes:
        phi = {alpha: sl.valuation_sieve(rho, poset, w, alpha) for alpha in poset.elements(w)}
        reports.append(sl.check_local_valuation(poset, w, phi))
        phis[w] = phi
    return reports, phis


class Posets:
    """4-atom contexts in dimensions 4-6 with partly supported states."""

    name = "posets"
    classes = ["poset4"]
    n = 4
    schedule = classes * 3 * (n - 1)

    def setup(self, sl, rng, root):
        self.sl = sl
        self.pool = [poset_problem(rng, self.n, j) for j in range(len(self.schedule) * 8)]
        self.expected = (oracles.coarsening_axiom_checks(self.n), oracles.restriction_checks(self.n))

    def run(self, cls, i):
        return poset_job(self.sl, self.pool[i % len(self.pool)])

    def check(self, cls, i, out):
        pr = self.pool[i % len(self.pool)]
        reports, phis = out
        if not all(r.ok for r in reports):
            return False
        if (reports[0].checks, reports[1].checks) != self.expected:
            return False
        for w, report in zip(phis, reports[2:]):
            if report.checks != oracles.local_valuation_checks(w.blocks, pr.weights):
                return False
            for alpha, sieve in phis[w].items():
                members = frozenset(q.blocks for q in sieve)
                if members != oracles.subalgebra_sieve(w.blocks, alpha, pr.weights):
                    return False
        return True


# -- ks -------------------------------------------------------------------

# Refuting Peres-33 costs 0.3 s to 4.7 s depending on the context order,
# too wide a spread to average out within one run, so its order is one
# fixed shuffle.  Of the shuffles drawn from seeds 0-14, this one costs
# about 0.3 s, so that two run per round and more than ten fit in a 15 s
# run: the tail percentile then falls among these identical jobs.
# Peres-24 with minimization costs 0.13 s to 0.28 s by order, so each
# round runs the same four fixed shuffles of it.  Rotations still come
# from the run's seed.
PERES33_ORDER_SEED = 11
PERES24_ORDER_SEED = 24


class Ks:
    """Verdicts on rotated, shuffled Kochen-Specker families."""

    name = "ks"
    classes = ["peres33", "peres24", "ks18", "colorable"]
    schedule = (["peres33", "ks18", "colorable", "peres24", "ks18", "colorable", "peres24"]
                + ["ks18", "colorable"]) * 2

    def setup(self, sl, rng, root):
        self.sl = sl
        p24 = families.peres24()
        p33, *counts33 = families.peres33()
        k18 = families.ks18(root)
        self.problems = families.self_check(p24, p33, counts33, k18)
        order33 = np.random.default_rng(PERES33_ORDER_SEED).permutation(len(p33))
        orders24 = [
            np.random.default_rng([PERES24_ORDER_SEED, j]).permutation(len(p24))
            for j in range(self.schedule.count("peres24"))
        ]
        self.pool = {
            "peres33": [families.instance(p33, rng, order33) for _ in range(POOL)],
            "peres24": [
                families.instance(p24, rng, orders24[j % len(orders24)]) for j in range(POOL)
            ],
            # Every 18-ray and colorable job of a 15 s run gets its own
            # shuffle, so the class median averages over many orders.
            "ks18": [families.instance(k18, rng) for _ in range(4 * POOL)],
            "colorable": [],
        }
        for _ in range(4 * POOL):
            drop = int(rng.integers(len(k18)))
            self.pool["colorable"].append(
                families.instance([c for j, c in enumerate(k18) if j != drop], rng)
            )
        self._classes = {}

    def _instance(self, cls, i):
        pool = self.pool[cls]
        return pool[i % len(pool)]

    def run(self, cls, i):
        sl = self.sl
        contexts = [sl.context_from_vectors(list(rays)) for rays in self._instance(cls, i)]
        fam = sl.ContextFamily(contexts)
        witness = sl.search_dual_section(fam)
        minimal = None
        if witness is None and cls in ("peres24", "ks18"):
            minimal = sl.minimal_uncolorable_subfamily(fam)
        return contexts, witness, minimal

    def _projector_classes(self, cls, i):
        key = (cls, i % len(self.pool[cls]))
        if key not in self._classes:
            self._classes[key] = oracles.projector_classes(self._instance(cls, i))
        return self._classes[key]

    def check(self, cls, i, out):
        contexts, witness, minimal = out
        sizes = [len(rays) for rays in self._instance(cls, i)]
        if cls == "colorable":
            return witness is not None and oracles.witness_ok(
                witness.chosen, sizes, self._projector_classes(cls, i)
            )
        if witness is not None:
            return False
        if cls == "peres33":
            return minimal is None
        position = {id(c): j for j, c in enumerate(contexts)}
        kept = [position.get(id(c)) for c in minimal.contexts]
        if None in kept or len(set(kept)) != len(kept):
            return False
        if cls == "ks18":
            return sorted(kept) == list(range(len(contexts)))
        classes = self._projector_classes(cls, i)
        if oracles.find_coloring(sizes, classes, kept) is not None:
            return False
        return all(
            oracles.find_coloring(sizes, classes, [j for j in kept if j != drop]) is not None
            for drop in kept
        )


# -- cli ------------------------------------------------------------------

# Outputs quoted in README.md for the bundled examples.
README_OUTPUTS = {
    ("eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}"):
        (0, "{-1,0,1}\n{-1,1}|{0}\nclassification: Intermediate\n"),
    ("ks", "ks18_dim4"): (3, "uncolorable\n"),
    ("heyting", "neg", "3", "0,2|1", "--mode", "ostar", "--close"):
        (0, "0|1,2\n0,1|2\nclassification: Intermediate\n"),
}


def _num(z):
    return [float(z.real), float(z.imag)]


def system_file(rng, k=4):
    """A system with two k=4 operators in dimension 5 or 6, a vector
    state and a density state, both supported on some of A's
    eigenspaces."""
    dim = int(rng.integers(5, 7))
    ops, values = {}, {}
    for name in ("A", "B"):
        bases = _random_spectrum(rng, k, dim)
        eig = np.sort(rng.choice(np.arange(-3, 4), size=k, replace=False)).astype(float)
        m = sum(e * (b @ b.conj().T) for e, b in zip(eig, bases))
        m = (m + m.conj().T) / 2.0
        ops[name] = {"matrix": [[_num(z) for z in row] for row in m]}
        values[name] = [int(e) for e in eig]
        if name == "A":
            support = sorted(rng.choice(k, size=int(rng.integers(1, k)), replace=False))
            psi = _support_vector(rng, bases, support)
            vs = [_support_vector(rng, bases, support) for _ in range(2)]
            rho = sum(np.outer(v, v.conj()) for v in vs) / 2.0
    data = {
        "format": "sievelogic.system/1",
        "dimension": dim,
        "mode": "o",
        "operators": ops,
        "states": {
            "psi": {"vector": [_num(z) for z in psi]},
            "rho": {"density": [[_num(z) for z in row] for row in rho]},
        },
    }
    return json.dumps(data, indent=1) + "\n", values


def _sieve_text(rng, k):
    perm = rng.permutation(k)
    cuts = sorted(rng.choice(np.arange(1, k), size=int(rng.integers(1, k)), replace=False))
    blocks = np.split(perm, cuts)
    return "|".join(",".join(str(int(i)) for i in sorted(b)) for b in blocks)


class Cli:
    """One `python -m sievelogic.cli` command per job, in a fresh
    interpreter, rotating through the five commands."""

    name = "cli"
    classes = ["eval", "axioms", "ks", "dot", "heyting"]
    schedule = classes * 2
    in_process = False
    tracer = None

    def setup(self, sl, rng, root):
        self.work = root / ".perfbench-work"
        self.work.mkdir(exist_ok=True)
        text, values = system_file(rng)
        gen = self.work / "system.json"
        gen.write_text(text)
        a, b = values["A"], values["B"]

        def pick(values, n):
            return "{" + ",".join(str(x) for x in sorted(rng.choice(values, size=n, replace=False))) + "}"

        r = f"{rng.uniform(0.3, 0.9):.2f}"
        self.commands = {
            "eval": [
                ("eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}"),
                ("eval", str(gen), "-v", f"threshold:rho:{r}", "-p", f"B in {pick(b, 2)}", "--json"),
            ],
            "axioms": [
                ("axioms", str(gen), "-v", "state:psi"),
                ("axioms", str(gen), "-v", f"partial:A={a[int(rng.integers(len(a)))]}", "--mode", "ostar"),
            ],
            "ks": [("ks", "ks18_dim4"), ("ks", "ks18_dim4", "--minimize", "--json")],
            "dot": [
                ("dot", "spin_one", "Sx", "-v", "state:psi", "-p", "Sx in {1}"),
                ("dot", str(gen), "A", "-v", "state:rho", "-p", f"A in {pick(a, 1)}"),
            ],
            "heyting": [
                ("heyting", "neg", "3", "0,2|1", "--mode", "ostar", "--close"),
                ("heyting", "implies", "4", _sieve_text(rng, 4), _sieve_text(rng, 4),
                 "--mode", "o", "--close", "--json"),
            ],
        }
        self.cli = sl.cli
        self.expected = {}
        self.problems = []
        for argvs in self.commands.values():
            for argv in argvs:
                self.expected[argv] = self.render(argv)
                quoted = README_OUTPUTS.get(argv)
                if quoted is not None and self.expected[argv] != (quoted[0], quoted[1].encode()):
                    self.problems.append(f"in-process {' '.join(argv)} differs from README.md")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def render(self, argv):
        """Exit code and stdout bytes of one command run in-process."""
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                self.cli.main.main(args=list(argv), prog_name="sievelogic", standalone_mode=False)
            except SystemExit as e:
                code = e.code
        return code, buf.getvalue().encode()

    def run(self, cls, i):
        argvs = self.commands[cls]
        argv = argvs[i % len(argvs)]
        if self.in_process:
            if self.tracer is None:
                return self.render(argv)
            with self.tracer.span(f"cli.{cls}"):
                return self.render(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "sievelogic.cli", *argv],
            cwd=self.work, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, cls, i, out):
        argvs = self.commands[cls]
        argv = argvs[i % len(argvs)]
        quoted = README_OUTPUTS.get(argv)
        if quoted is not None and out != (quoted[0], quoted[1].encode()):
            return False
        return out == self.expected[argv]


WORKLOADS = {"audit": Audit, "posets": Posets, "ks": Ks, "cli": Cli}


# -- size sweep -----------------------------------------------------------

def sweep(sl, rng, clock):
    """Single runs at growing sizes, timed without tracing.  The audit
    rows are check_axioms plus check_naturality over every partition for
    a vector state; coarsenings rows enumerate coarsenings_of over every
    partition from an empty cache."""
    out = {}
    for k in (4, 5, 6):
        pr = audit_problem(rng, "vector", True, k, 1)
        pr.operator = sl.decompose(pr.matrix)
        nu = sl.GeneralizedValuation.from_state(
            sl.QuantumState.vector(pr.payload), sl.Mode.WITH_CONSTANTS
        )
        op = pr.operator

        def audit():
            sl.check_axioms(nu, op)
            for p in sl.all_partitions(op.k):
                sl.check_naturality(nu, op, [float(p.block_of(i)) for i in range(op.k)])

        out[f"sweep.audit_s.k{k}"] = clock(audit)
    for k in (6, 7):
        parts = sl.all_partitions(k)
        sl.coarsenings_of.cache_clear()
        out[f"sweep.coarsenings_all_s.k{k}"] = clock(lambda: [sl.coarsenings_of(p) for p in parts])
    pr = poset_problem(rng, 5, 1)
    out["sweep.poset_audit_s.n5"] = clock(lambda: poset_job(sl, pr))
    return out
