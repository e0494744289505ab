"""Benchmark entry point.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's src/ directory; the run fails without it.  With --trace 0 the
last stdout line is a JSON object carrying the gated end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run.  The
lines before it are a readable summary.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One thread computes, as the workloads promise: a BLAS thread pool would
# compete with the measured thread for the host's two cores.  Children
# (cli jobs, import probes) inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Times are reported at a nominal host speed: each measured interval is
# scaled by REF_NOMINAL_S over the reference time measured next to it.
# Host speed here swings by +-25% within seconds, which the reference
# loop follows closely; see README.md.  A reference sample is the fastest
# of REF_REPEATS short loops, so a preemption inside one loop does not
# count as a slow host.
REF_NOMINAL_S = 0.001
REF_REPEATS = 3
REF_MAX_AGE_S = 0.05
SETUP_REPEATS = 3
WALL_CAP = 6
IMPORT_PROBES = 7


def reference_loop():
    """Fixed pure-Python work that shares no code with the package:
    tuple, set, dict and sort churn, like the package's own inner loops."""
    items = [tuple((i * 7 + j) % 13 for j in range(4)) for i in range(500)]
    seen = frozenset(items)
    counts = {}
    for it in items:
        counts[it] = counts.get(it, 0) + (it in seen)
    sorted(items)
    return [frozenset(x) for x in items]


def reference_time():
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Times intervals and scales them by the reference time measured
    just before and just after; a reference younger than REF_MAX_AGE_S
    is reused, so short jobs share one."""

    def __init__(self):
        self.ref_samples: list[float] = []
        self._last = None

    def probe(self) -> float:
        ref = reference_time()
        self.ref_samples.append(ref)
        self._last = (perf_counter(), ref)
        return ref

    def recent(self) -> float:
        if self._last is None or perf_counter() - self._last[0] > REF_MAX_AGE_S:
            return self.probe()
        return self._last[1]

    def measure(self, fn):
        """(result, raw seconds, normalized seconds) of one call."""
        before = self.recent()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        after = self.recent()
        return result, raw, raw * REF_NOMINAL_S / ((before + after) / 2.0)



def elapsed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def import_package(with_cli: bool):
    """Import the package afresh, so each set-up pays for the package's
    module code and its lazily filled tables."""
    for name in [n for n in sys.modules if n == "sievelogic" or n.startswith("sievelogic.")]:
        del sys.modules[name]
    sl = importlib.import_module("sievelogic")
    if with_cli:
        importlib.import_module("sievelogic.cli")
    origin = Path(sl.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: imported sievelogic from {origin}, not from this checkout")
    return sl


def set_up(workload, seed, clock):
    """One full set-up; returns normalized seconds."""
    total = 0.0
    sl, _, norm = clock.measure(lambda: import_package(isinstance(workload, workloads.Cli)))
    total += norm
    rng = np.random.default_rng([seed, list(workloads.WORKLOADS).index(workload.name)])
    _, _, norm = clock.measure(lambda: workload.setup(sl, rng, ROOT))
    total += norm
    for cls in workload.classes:
        _, _, norm = clock.measure(lambda: workload.run(cls, 0))
        total += norm
    return sl, total


def timed_phase(workload, seconds, clock, tracer=None):
    """Whole rounds of the schedule until the normalized job time reaches
    `seconds`, or the wall time WALL_CAP times that.  Returns (class, raw
    s, normalized s, ok) per job."""
    records = []
    served = {cls: 0 for cls in workload.classes}
    busy = 0.0
    began = perf_counter()
    while busy < seconds and perf_counter() - began < WALL_CAP * seconds:
        for cls in workload.schedule:
            i = served[cls]
            served[cls] += 1
            if tracer is not None:
                tracer.begin_job()
                tracer.active = True
            start = perf_counter()
            try:
                out, raw, norm = clock.measure(lambda: workload.run(cls, i))
            except Exception:
                traceback.print_exc()
                out = None
                raw = norm = perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.active = False
            ok = out is not None and checked(workload, cls, i, out)
            if not ok:
                print(f"failed: {workload.name} job {cls} #{i}", file=sys.stderr)
            records.append((cls, raw, norm, ok))
            busy += norm
    return records


def checked(workload, cls, i, out) -> bool:
    try:
        return bool(workload.check(cls, i, out))
    except Exception:
        traceback.print_exc()
        return False


def summarize(records, schedule):
    """Gated statistics of a timed phase.  Throughput is one round of the
    schedule over its typical duration, the sum of each class's median
    normalized job time: a job hit by a burst of host load moves a mean
    but not a median.  Failed jobs scale it down by their share."""
    times = sorted((norm, cls) for cls, _, norm, _ in records)
    n = len(times)
    ok = sum(1 for r in records if r[3])
    per_class = {}
    for cls, _, norm, _ in records:
        per_class.setdefault(cls, []).append(norm)
    round_s = sum(statistics.median(per_class[cls]) for cls in schedule)
    tail_rank = max(n - 11, 0)
    return {
        "n": n,
        "ok": ok,
        "jobs_per_s": len(schedule) / round_s * ok / n,
        "p50_ms": statistics.median(t for t, _ in times) * 1000.0,
        "p50_class": times[(n - 1) // 2][1],
        "tail_ms": times[tail_rank][0] * 1000.0,
        "tail_pct": 100.0 * (n - 10) / n if n > 10 else 100.0,
        "tail_class": times[tail_rank][1],
        "raw_jobs_per_s": ok / sum(r[1] for r in records),
        "per_class": per_class,
    }


# Standard-library modules that neither the package nor numpy or click
# import.  Importing them is loader work like the package's own import,
# so their import time is the reference for import_s: half just before
# the package import, half just after.
IMPORT_REF_BEFORE = ("csv", "xml.sax", "html.parser", "configparser", "difflib")
IMPORT_REF_AFTER = ("ftplib", "ssl", "curses", "cmd", "shlex")
IMPORT_REF_NOMINAL_S = 0.025


def import_seconds():
    """Median normalized time of `import sievelogic.cli` over fresh
    interpreters, timed inside each child."""
    code = "\n".join([
        "from time import perf_counter",
        "t = perf_counter()",
        f"import {', '.join(IMPORT_REF_BEFORE)}",
        "ref = perf_counter() - t",
        "t = perf_counter()",
        "import sievelogic.cli",
        "took = perf_counter() - t",
        "t = perf_counter()",
        f"import {', '.join(IMPORT_REF_AFTER)}",
        "ref += perf_counter() - t",
        "print(repr(took), repr(ref))",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, ref = (float(x) for x in out.stdout.split())
        samples.append(took * IMPORT_REF_NOMINAL_S / ref)
    return statistics.median(samples)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, workload, clock):
    setups = []
    for _ in range(SETUP_REPEATS):
        _, seconds = set_up(workload, args.seed, clock)
        setups.append(seconds)
    records = timed_phase(workload, args.seconds, clock)
    s = summarize(records, workload.schedule)
    import_s = import_seconds()
    metrics = {
        "jobs_per_s": (s["jobs_per_s"], "1/s"),
        "job_p50_ms": (s["p50_ms"], "ms"),
        "job_tail_ms": (s["tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "import_s": (import_s, "s"),
    }
    print(f"workload {args.workload} seed {args.seed}: {s['n']} jobs, {s['n'] - s['ok']} failed, "
          f"failed_ratio {(s['n'] - s['ok']) / s['n']:.4f}")
    print(f"  job_p50_ms at class {s['p50_class']}; job_tail_ms is p{s['tail_pct']:.1f} "
          f"of n={s['n']} at class {s['tail_class']}")
    print(f"  raw (unnormalized) jobs_per_s {s['raw_jobs_per_s']:.4f}; "
          f"host reference median {statistics.median(clock.ref_samples) * 1000:.3f} ms "
          f"(nominal {REF_NOMINAL_S * 1000:.1f} ms)")
    print(f"  setup_s samples {', '.join(f'{x:.3f}' for x in setups)}")
    for cls, times in s["per_class"].items():
        print(f"  class {cls}: n={len(times)} median {statistics.median(times) * 1000:.1f} ms "
              f"range {min(times) * 1000:.1f}-{max(times) * 1000:.1f} ms")
    return records, metrics


def src_lines():
    out = {}
    for path in sorted((ROOT / "src" / "sievelogic").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = (len(path.read_text().splitlines()), "lines")
    out["src_lines"] = (sum(v for v, _ in out.values()), "lines")
    return out


# Spans reported with .calls and .self_s for each layer.
LAYER_SPANS = {
    "sieves": ["pullback", "sieve_init", "heyting"],
    "spectral": ["decompose", "apply_function", "is_function_of"],
    "valuations": ["evaluate", "check_axioms", "check_naturality"],
    "contexts": [
        "check_coarsening_axioms", "check_restriction_compatibility",
        "valuation_sieve", "boolean_context",
    ],
    "ks_search": ["context_family", "search_dual_section", "minimal_uncolorable_subfamily"],
    "cli": ["load_system", "load_context_family"],
}


def traced(args, workload, clock):
    import tracing

    sl, _ = set_up(workload, args.seed, clock)
    metrics = {}
    sweep_rng = np.random.default_rng([args.seed, 99])
    for name, seconds in workloads.sweep(sl, sweep_rng, elapsed).items():
        metrics[name] = (seconds, "s")
    tracer = tracing.Tracer()
    if isinstance(workload, workloads.Cli):
        workload.in_process = True
        workload.tracer = tracer
    plain = timed_phase(workload, args.seconds, clock)
    tracer.install()
    cache_before = sl.coarsenings_of.cache_info()
    try:
        records = timed_phase(workload, args.seconds, clock, tracer)
    finally:
        tracer.uninstall()
    cache_after = sl.coarsenings_of.cache_info()
    jobs = len(records)

    def per_job(x):
        return x / jobs

    for layer, spans in LAYER_SPANS.items():
        for span in spans:
            name = f"{layer}.{span}"
            metrics[f"{name}.calls"] = (per_job(tracer.calls(name)), "count")
            metrics[f"{name}.self_s"] = (per_job(tracer.self_s(name)), "s")
        metrics[f"{layer}.self_s"] = (per_job(tracer.layer_self_s(layer)), "s")
    metrics["sieves.partition_of.calls"] = (per_job(tracer.calls("sieves.partition_of")), "count")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    metrics["sieves.coarsenings_of.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["spectral.prob.calls"] = (per_job(tracer.calls("spectral.prob")), "count")
    evals = tracer.calls("valuations.evaluate")
    eval_hits = tracer.counters.get("valuations.evaluate.hits", 0)
    metrics["valuations.evaluate.hit_ratio"] = (eval_hits / evals if evals else 0.0, "ratio")
    for layer in ("valuations", "contexts"):
        metrics[f"{layer}.checks"] = (per_job(tracer.counters.get(f"{layer}.checks", 0)), "count")
    for cmd in workloads.Cli.classes:
        calls = tracer.calls(f"cli.{cmd}")
        total = tracer.totals.get(f"cli.{cmd}", 0.0)
        metrics[f"cli.{cmd}.wall_ms"] = (total / calls * 1000.0 if calls else 0.0, "ms")
    metrics.update(src_lines())
    metrics["host.ref_ms"] = (statistics.median(clock.ref_samples) * 1000.0, "ms")
    untraced_rate = summarize(plain, workload.schedule)["jobs_per_s"]
    traced_rate = summarize(records, workload.schedule)["jobs_per_s"]
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    layers = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] * 1000:.1f}" for layer in LAYER_SPANS)
    print(f"workload {args.workload} seed {args.seed} traced: {jobs} jobs; self ms per job: {layers}")
    return plain + records, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["audit", "posets", "ks", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sievelogic" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep this process, its reference loop and its children on one CPU,
    # so the reference measures the CPU the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]()
    clock = HostClock()
    if args.trace:
        records, metrics = traced(args, workload, clock)
    else:
        records, metrics = end_to_end(args, workload, clock)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = sum(1 for r in records if not r[3])
    problems = getattr(workload, "problems", [])
    for p in problems:
        print(f"self-check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
