"""pcortho benchmark.

    python3 bench/run.py --workload {cli-large,cli-small,panel-shared-w} \
        --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop for S seconds of op time on inputs made
from the seed, checks every output against the benchmark's own reference
(bench/checker.py), and prints one line per metric followed, on the last
line, by a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around every public pcortho function
(bench/tracer.py) and a separate tracemalloc pass. The program is imported
from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NPROC = len(os.sched_getaffinity(0))
# One client in one thread. At n = 100 a second OpenBLAS thread measured no
# faster, and it spin-waits on another CPU, adding that CPU's noise to the run.
BLAS_THREADS = 1
SETUPS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli-large", "cli-small", "panel-shared-w"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code: versions, BLAS, threads, cores."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_seconds(module: str) -> float:
    """Seconds to `import <module>` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(repr(time.perf_counter() - t))"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with at
    least 10 samples beyond it, by nearest rank; the maximum if there are fewer
    than 11 samples."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def percentile(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(latencies)
    return xs[max(math.ceil(pct / 100.0 * len(xs)) - 1, 0)]


def end_to_end(loop, setups: list[float], workload_module: str) -> dict:
    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_ms, pct, beyond = tail(lat_ms)
    ok = loop.ops - loop.failed
    metrics = {
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "latency_p90_ms": f"nearest rank, of {loop.ops} ops",
        "setup_s": f"median of {len(setups)} fresh-interpreter imports of {workload_module}, spread over the run",
        "peak_rss_mb": "high-water RSS of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    # Printed, not gated in BENCHMARK.json. On a shared host whose CPU speed
    # switches between two levels for spells of seconds, the median and the
    # throughput move with the share of a run spent at the slow level, and the
    # tail with the rare spells slower still.
    print(f"latency_p50_ms {statistics.median(lat_ms):.6g} ms")
    print(f"latency_tail_ms {tail_ms:.6g} ms  (p{pct:.1f} of {loop.ops} ops, {beyond} beyond it)")
    print(f"throughput_ops_s {ok / loop.timed_s:.6g} 1/s")
    print(f"failed_share {loop.failed / max(loop.ops, 1):.6g}  ({loop.failed} of {loop.ops} ops)")
    return metrics


def per_layer(loop_plain, loop_traced, spans, alloc) -> dict:
    s = spans.summary()
    ops = loop_traced.ops

    def stat(name, key):
        return s.get(name, {}).get(key, 0)

    def calls(name):
        return stat(name, "calls") / ops

    def self_ms(name, whole=False):
        """Self time of `name`; with `whole`, of every span under that prefix too."""
        own = sum(v["self_s"] for n, v in s.items() if n == name or (whole and n.startswith(name + ".")))
        return own * 1e3 / ops

    def peak_mb(name):
        return alloc.peak_bytes.get(name, 0) / 2**20

    weights_built = stat("model.WeightMatrix", "calls")
    plain = statistics.median(loop_plain.latencies)
    metrics = {
        "bases.ln_w_basis.calls_per_op": (calls("bases.ln_w_basis"), "count"),
        "bases.ln_w_basis.self_ms_per_op": (self_ms("bases.ln_w_basis"), "ms"),
        "bases.basis_builds_per_weight": (
            stat("bases.ln_w_basis", "calls") / weights_built if weights_built else 0.0,
            "ratio"),
        "inner.gram_schmidt.self_ms_per_op": (self_ms("inner.gram_schmidt"), "ms"),
        "inner.ip_calls_per_op": (sum(v["outer_calls"] for v in s.values()) / ops, "count"),
        "projection.decompose.calls_per_op": (calls("projection.decompose"), "count"),
        "projection.project_ln_w.self_ms_per_op": (self_ms("projection.project_ln_w"), "ms"),
        "projection.ranking.self_ms_per_op": (self_ms("projection.ranking"), "ms"),
        "projection.inconsistency_ratio.self_ms_per_op": (self_ms("projection.inconsistency_ratio"), "ms"),
        "projection.corollary_checks.self_ms_per_op": (self_ms("projection.corollary_checks"), "ms"),
        "projection.project_ln_w.peak_alloc_mb": (peak_mb("projection.project_ln_w"), "MB"),
        "model.consistency_defect.peak_alloc_mb": (peak_mb("model.consistency_defect"), "MB"),
        "model.additive_defect.peak_alloc_mb": (peak_mb("model.additive_defect"), "MB"),
        "model.consistency_defect.self_ms_per_op": (self_ms("model.consistency_defect"), "ms"),
        "model.additive_defect.self_ms_per_op": (self_ms("model.additive_defect"), "ms"),
        "model.SkewMatrix.dense.calls_per_op": (calls("model.SkewMatrix.dense"), "count"),
        "model.SkewMatrix.dense.self_ms_per_op": (self_ms("model.SkewMatrix.dense"), "ms"),
        "cli.self_ms_per_op": (self_ms("cli", whole=True), "ms"),
        "cli.output_kb_per_op": (loop_traced.bytes_out / 1024 / ops, "KiB"),
        **{f"cli.{c}.busy_ms_per_op": (stat(f"cmd.{c}", "total_s") * 1e3 / ops, "ms")
           for c in ("check", "project", "rank", "factor")},
        "io.load_matrix.self_ms_per_op": (self_ms("io.load_matrix"), "ms"),
        "io.input_kb_per_op": (loop_traced.bytes_in / 1024 / ops, "KiB"),
        "model.PCMatrix.self_ms_per_op": (self_ms("model.PCMatrix", whole=True), "ms"),
        "model.WeightMatrix.self_ms_per_op": (self_ms("model.WeightMatrix", whole=True), "ms"),
        "model.symmetrize.self_ms_per_op": (self_ms("model.symmetrize"), "ms"),
        "model.mu.self_ms_per_op": (self_ms("model.mu"), "ms"),
        "inner.check_positive_definite.self_ms_per_op": (self_ms("inner.check_positive_definite"), "ms"),
        "trace.overhead_share": ((statistics.median(loop_traced.latencies) - plain) / plain, "share"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# {ops} traced ops, {loop_plain.ops} untraced; {len(spans.start)} spans; "
          "nothing in pcortho queues or retries, so no wait or retry metrics")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcortho" / "__init__.py").is_file():
        print(f"error: no pcortho sources at {SRC}", file=sys.stderr)
        return 2
    # numpy reads these when it loads its BLAS, so set them before the import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracer as tr
    import workloads as wl

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# " + " ".join(f"{k} {v}" for k, v in env.items()))
    rng = np.random.default_rng(args.seed)
    module = wl.WORKLOADS[args.workload][2]
    with wl.workdir(str(BENCH)) as work:
        # One untimed batch first, on inputs and (for the panel) a weight of its
        # own, so that lazy imports and first-call costs stay out of the timing.
        warm = wl.Loop(args.workload, rng, work)
        warm.batch(rng)
        if args.trace == 0:
            # Set-up is sampled at even steps of op time, so that it sees the same
            # spells of machine load as the ops; the first import only writes
            # bytecode caches.
            loop, setups = wl.Loop(args.workload, rng, work), []
            setup_seconds(module)
            while loop.timed_s < args.seconds:
                loop.batch(rng)
                if len(setups) < SETUPS and loop.timed_s >= len(setups) * args.seconds / SETUPS:
                    setups.append(setup_seconds(module))
            while len(setups) < SETUPS:
                setups.append(setup_seconds(module))
            loops = [warm, loop]
            metrics = end_to_end(loop, setups, module)
        else:
            # Untraced and traced batches alternate, so drift hits both alike.
            plain, traced = wl.Loop(args.workload, rng, work), wl.Loop(args.workload, rng, work)
            spans = tr.SpanTracer()
            while plain.timed_s + traced.timed_s < args.seconds:
                plain.batch(rng)
                traced.batch(rng, spans)
            # One batch under tracemalloc, apart from the timing trace: it slows every allocation.
            alloc_loop, alloc = wl.Loop(args.workload, rng, work), tr.AllocTracer()
            tracemalloc.start()
            try:
                alloc_loop.batch(rng, alloc)
            finally:
                tracemalloc.stop()
            loops = [warm, plain, traced, alloc_loop]
            metrics = per_layer(plain, traced, spans, alloc)
            OUT.mkdir(exist_ok=True)
            spans.save(OUT / f"spans-{args.workload}.npz")
            (OUT / f"layers-{args.workload}.json").write_text(json.dumps(
                {"env": env, "seed": args.seed, "ops": traced.ops, "spans": spans.summary(),
                 "peak_alloc_bytes": alloc.peak_bytes}, indent=1, sort_keys=True))
    attempted = sum(lp.ops for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for problem in sorted({p for lp in loops for p in lp.problems})[:20]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
