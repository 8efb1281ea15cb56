"""Per-layer metrics from the traced run's spans.

Every metric names the layer it measures (see README.md for the map from
layers to the end-to-end metrics they should move).  A metric of a layer
that a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Iterable

from repro.service.degrade import SynopsisScreen
from spans import Span, SpanRecorder

#: name -> unit, in report order.
LAYER_METRICS = {
    "planner.plan_us": "us",
    "planner.plan_cache_hit_rate": "ratio",
    "planner.dedup_ratio": "ratio",
    "planner.assemble_us": "us",
    "cache.lookup_us": "us",
    "service.self_us": "us",
    "executor.eval_ms": "ms",
    "executor.leaves_per_call": "count",
    "engine.leaf_batch_ms": "ms",
    "engine.shard_skew": "ratio",
    "index.ptile_query_ms": "ms",
    "index.pref_query_ms": "ms",
    "index.reported_per_leaf": "count",
    "executor.warm_s": "s",
    "engine.pref_build_s": "s",
    "index.mapped_points": "count",
    "executor.add_ms": "ms",
    "executor.remove_ms": "ms",
    "executor.delta_eval_ms": "ms",
    "executor.delta_size": "count",
    "executor.rebuilds": "count",
    "cache.hit_rate": "ratio",
    "cache.upgrade_rate": "ratio",
    "cache.resident_mb": "MB",
    "wire.decode_us": "us",
    "wire.encode_us": "us",
    "federation.request_ms": "ms",
    "federation.self_ms": "ms",
    "federation.node_ms": "ms",
    "federation.node_skew_ms": "ms",
    "federation.retries": "count",
    "screen.leaf_ms": "ms",
    "screen.maybe_frac": "ratio",
    "screen.cant_frac": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_request_sum(spans: list[Span]) -> list[float]:
    """Total duration of ``spans`` within each request that has any."""
    totals: dict = defaultdict(float)
    for s in spans:
        totals[s.request] += s.duration
    return list(totals.values())


def setup_metrics(rec: SpanRecorder, services: list) -> dict:
    """Metrics of the traced set-up: warm build, Pref builds, index size."""
    mapped = 0
    for svc in services:
        for engine in svc.executor.engines:
            mapped += engine.ptile_index.n_mapped_points
    return {
        "executor.warm_s": sum(s.duration for s in rec.named("executor.warm")),
        "engine.pref_build_s": sum(
            s.duration for s in rec.named("engine.pref_index") if s.meta["built"]
        ),
        "index.mapped_points": mapped,
    }


def read_metrics(rec: SpanRecorder) -> dict:
    """Metrics of the traced traffic (reads and mutations)."""
    named = rec.named
    out: dict = {}

    plans = named("planner.plan_batch")
    out["planner.plan_us"] = _median(s.duration * 1e6 for s in plans)
    hits = sum(s.meta["plan_hits"] for s in plans)
    out["planner.plan_cache_hit_rate"] = _ratio(
        hits, hits + sum(s.meta["plan_misses"] for s in plans)
    )
    out["planner.dedup_ratio"] = _ratio(
        sum(s.meta["unique"] for s in plans), sum(s.meta["raw"] for s in plans)
    )
    out["planner.assemble_us"] = _median(
        t * 1e6 for t in _per_request_sum(named("planner.assemble"))
    )
    lookups = named("cache.get_entry")
    out["cache.lookup_us"] = _median(t * 1e6 for t in _per_request_sum(lookups))
    outcomes = [s.meta["outcome"] for s in lookups]
    out["cache.hit_rate"] = _ratio(outcomes.count("hit"), len(outcomes))
    out["cache.upgrade_rate"] = _ratio(outcomes.count("upgrade"), len(outcomes))

    # The facade's own time: the request (or, federated, each node's
    # search_batch) minus the layer calls beneath it.
    facade = named("node.search_batch") or [
        s for s in named("request") if any(c.name.startswith("planner.") for c in s.children)
    ]
    out["service.self_us"] = _median(s.self_time() * 1e6 for s in facade)

    evals = named("executor.eval_leaves")
    out["executor.eval_ms"] = _median(s.duration * 1e3 for s in evals)
    out["executor.leaves_per_call"] = _ratio(
        sum(s.meta["leaves"] for s in evals), len(evals)
    )
    batches = named("engine.leaf_batch")
    out["engine.leaf_batch_ms"] = _median(s.duration * 1e3 for s in batches)
    skews = []
    for s in evals:
        shard = [c.duration for c in s.children if c.name == "engine.leaf_batch"]
        if len(shard) >= 2 and min(shard) > 0:
            skews.append(max(shard) / min(shard))
    out["engine.shard_skew"] = _median(skews)
    ptile = named("index.ptile_query")
    pref = named("index.pref_query")
    out["index.ptile_query_ms"] = _median(s.duration * 1e3 for s in ptile)
    out["index.pref_query_ms"] = _median(s.duration * 1e3 for s in pref)
    out["index.reported_per_leaf"] = _ratio(
        sum(s.meta["reported"] for s in ptile + pref),
        sum(s.meta["leaves"] for s in ptile + pref),
    )

    out["executor.add_ms"] = _median(
        s.duration * 1e3 for s in named("executor.add_synopses")
    )
    out["executor.remove_ms"] = _median(
        s.duration * 1e3 for s in named("executor.remove_indexes")
    )
    out["executor.delta_eval_ms"] = _median(
        s.duration * 1e3 for s in named("executor.eval_delta_leaves")
    )

    out["wire.decode_us"] = _median(
        t * 1e6 for t in _per_request_sum(named("wire.decode"))
    )
    out["wire.encode_us"] = _median(
        t * 1e6 for t in _per_request_sum(named("wire.encode"))
    )
    fed = named("federation.search_batch")
    out["federation.request_ms"] = _median(s.duration * 1e3 for s in fed)
    out["federation.self_ms"] = _median(s.self_time() * 1e3 for s in fed)
    nodes = named("node.search_batch")
    out["federation.node_ms"] = _median(s.duration * 1e3 for s in nodes)
    node_skew = []
    for s in fed:
        legs = [c.duration for c in s.children if c.name == "node.search_batch"]
        if len(legs) >= 2:
            node_skew.append((max(legs) - min(legs)) * 1e3)
    out["federation.node_skew_ms"] = _median(node_skew)
    return out


def screen_metrics(service: Any, leaves: list) -> dict:
    """Time the synopsis screen on a workload's own leaves."""
    if not leaves:
        return {"screen.leaf_ms": 0.0, "screen.maybe_frac": 0.0, "screen.cant_frac": 0.0}
    screen = SynopsisScreen(service.executor)
    t0 = time.perf_counter()
    bounds = screen.screen_leaves(dict(leaves))
    elapsed = time.perf_counter() - t0
    n_live = service.executor.n_live
    maybe = cant = 0.0
    for must, possible in bounds.values():
        maybe += (possible.count() - must.count()) / n_live
        cant += (n_live - possible.count()) / n_live
    return {
        "screen.leaf_ms": elapsed * 1e3 / len(bounds),
        "screen.maybe_frac": maybe / len(bounds),
        "screen.cant_frac": cant / len(bounds),
    }
