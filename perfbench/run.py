#!/usr/bin/env python3
"""End-to-end benchmark of the dataset-search service.

Run from the repository root::

    python3 perfbench/run.py --workload cold-2d --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans around the program's public entry points and prints
the per-layer metrics instead; ``--workload all`` runs every workload in
turn, each in its own process.  Each metric is printed on its own line
with its unit and sample count, then a metadata line, and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

Every answer is checked by the workload's oracle outside the timed
region; any failed, refused, degraded or mismatched request makes the
run incorrect and the exit code 1.  See README.md for the workloads and
the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
SCREEN_LEAVES = 32


def load_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def inject_eval_delay(delay_ms: float) -> None:
    """Benchmark-side fault: sleep before every sharded leaf evaluation."""
    from repro.service.sharding import ShardedBatchExecutor

    original = ShardedBatchExecutor.eval_leaves

    def eval_leaves(self, *args, **kwargs):
        time.sleep(delay_ms / 1e3)
        return original(self, *args, **kwargs)

    ShardedBatchExecutor.eval_leaves = eval_leaves


def untraced(workload, seconds: float) -> tuple[dict, dict, list, int]:
    """Set up several times, then measure reads and ingest untraced."""
    from quantile import quantile
    from workloads import Phase

    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            workload.close()
            gc.collect()  # free the closed set-up before the next one
    workload.warmup()
    phase = Phase()
    reads = workload.read(seconds, None)
    phase.extend(reads)
    errors = phase.errors + workload.verify_reads()
    ingest = workload.ingest(seconds / 2, None)
    phase.extend(ingest)
    errors += ingest.errors

    lat_ms = [t * 1e3 for t in phase.latencies]
    fig = reads.read_figures()
    ing = phase.ingest_figures()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "qps": (fig["qps"], "1/s", phase.queries),
        "latency_p50_ms": (fig["p50"] * 1e3, "ms", len(lat_ms)),
        "latency_p90_ms": (fig["p90"] * 1e3, "ms", len(lat_ms)),
        "ingest_p50_ms": (ing["p50"] * 1e3, "ms", len(phase.ingest)),
        "ingest_p90_ms": (ing["p90"] * 1e3, "ms", len(phase.ingest)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # Printed, not compared: p99 rests on fewer than ten samples beyond
    # it on every workload but warm-1d.
    extra = {
        "setup_samples_s": setups,
        "latency_p99_ms": quantile(lat_ms, 0.99),
        "latency_max_ms": max(lat_ms),
        "rebuilds": phase.rebuilds,
    }
    return metrics, extra, errors, phase.attempted


def traced(workload, seconds: float) -> tuple[dict, dict, list, int]:
    """One traced set-up; half the reads untraced, half traced."""
    from instrument import Instrumentation
    from layers import LAYER_METRICS, read_metrics, screen_metrics, setup_metrics
    from spans import SpanRecorder
    from workloads import Phase

    rec = SpanRecorder()
    instr = Instrumentation(rec)
    rec.enabled = True
    workload.setup(instr)
    rec.enabled = False
    values = setup_metrics(rec, workload.services())
    instr.uninstall()
    rec.clear()

    workload.warmup()
    phase = Phase()
    plain = workload.read(seconds / 2, None)
    phase.extend(plain)
    workload.install(instr)
    workload.instr = instr
    rec.enabled = True
    spanned = workload.read(seconds / 2, rec)
    rec.enabled = False
    phase.extend(spanned)
    # Read before ingest: a rebalance rebuild there flushes the cache.
    resident_mb = sum(s.cache.resident_bytes for s in workload.services()) / 1e6
    errors = phase.errors + workload.verify_reads()
    rec.enabled = True
    ingest = workload.ingest(seconds / 2, rec)
    rec.enabled = False
    phase.extend(ingest)
    errors += ingest.errors

    values.update(read_metrics(rec))
    services = workload.services()
    values["executor.delta_size"] = services[-1].executor.delta_size
    values["executor.rebuilds"] = spanned.rebuilds + ingest.rebuilds
    values["cache.resident_mb"] = resident_mb
    coordinator = getattr(workload, "coordinator", None)
    values["federation.retries"] = (
        sum(n["retries"] for n in coordinator.stats()["federation"]["nodes"])
        if coordinator is not None else 0
    )
    values.update(screen_metrics(services[0], workload.sample_leaves(SCREEN_LEAVES)))
    traced_qps = spanned.read_figures()["qps"]
    values["trace.overhead_ratio"] = (
        plain.read_figures()["qps"] / traced_qps if traced_qps else 0.0
    )
    instr.uninstall()
    samples = {
        "requests_traced": len(spanned.latencies),
        "spans": len(rec.spans),
    }
    metrics = {
        name: (float(values[name]), unit, samples["requests_traced"])
        for name, unit in LAYER_METRICS.items()
    }
    return metrics, samples, errors, phase.attempted


def run_all(names: list, args: argparse.Namespace) -> int:
    """``--workload all``: every workload in its own process, in turn, so
    each starts from a fresh heap (``peak_rss_mb`` stays per workload)."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        status |= subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--inject-eval-delay-ms", str(args.inject_eval_delay_ms),
        ]).returncode
    return status


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-eval-delay-ms", type=float, default=0.0,
        help="sleep this long before every ShardedBatchExecutor.eval_leaves "
             "call (the layer-map self-check)",
    )
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, str(HERE))
    import numpy as np

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    if args.inject_eval_delay_ms > 0:
        inject_eval_delay(args.inject_eval_delay_ms)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        run = traced if args.trace else untraced
        metrics, extra, errors, attempted = run(workload, args.seconds)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(),
            **workload.metadata(),
            **extra,
        }
    finally:
        workload.close()

    failed = min(len(errors), attempted)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} n={n}")
    print(f"{'failed_frac':28s} {failed / max(attempted, 1):14.6g} ratio  n={attempted}")
    for why in errors[:10]:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
