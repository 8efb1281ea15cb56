"""Wrap the program's public entry points on live objects with spans.

Only the traced run installs these wrappers.  Each wrapper records one
span per call (see :mod:`spans`) plus, where a per-layer metric needs it,
a count taken from the call's arguments or result.  Nothing in the
program is changed: instance attributes shadow methods, module globals
are swapped for the names the serving code looks up at call time, and
:meth:`Instrumentation.uninstall` restores all of them.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Sequence

import repro.service.federation as federation_mod
import repro.service.server as server_mod
import repro.service.service as service_mod
from repro.core.bitset import DatasetBitmap
from spans import Span, SpanRecorder

#: Span kinds whose calls fan out to pool threads or HTTP handler threads.
EXECUTOR_SPANS = ("executor.eval_leaves", "executor.eval_delta_leaves", "executor.warm")
REQUEST_SPANS = ("request",)
WIRE_CALLERS = ("federation.search_batch", "request")
NODE_CALLERS = ("federation.search_batch",)

OnResult = Callable[[Span, tuple, dict, Any], None]


def _count_leaves(span: Span, args: tuple, kwargs: dict, _out: Any) -> None:
    span.meta["leaves"] = len(args[0] if args else kwargs["leaves"])


def _count_reported(span: Span, _a: tuple, _k: dict, result: Any) -> None:
    span.meta["leaves"] = 1
    span.meta["reported"] = len(result.indexes)


def _count_reported_many(span: Span, _a: tuple, _k: dict, results: Any) -> None:
    span.meta["leaves"] = len(results)
    span.meta["reported"] = sum(len(r.indexes) for r in results)


def _plan_before(span: Span, _a: tuple, kwargs: dict) -> None:
    cache = kwargs["cache"]
    span.meta["counts0"] = (cache.hits, cache.misses)


def _plan_after(span: Span, _a: tuple, kwargs: dict, batch: Any) -> None:
    cache = kwargs["cache"]
    hits0, misses0 = span.meta.pop("counts0")
    span.meta["plan_hits"] = cache.hits - hits0
    span.meta["plan_misses"] = cache.misses - misses0
    span.meta["raw"] = sum(p.n_leaves_raw for p in batch.plans)
    span.meta["unique"] = len(batch.unique_leaves)


class Instrumentation:
    """Owns the recorder and every wrapper installed on live objects."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._undo: list[Callable[[], None]] = []

    def wrap_attr(
        self,
        obj: Any,
        attr: str,
        name: str,
        callers: Sequence[str] = (),
        on_result: Optional[OnResult] = None,
        on_call: Optional[Callable[[Span, tuple, dict], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` (instance, class or module attribute) once."""
        if getattr(vars(obj).get(attr), "perfbench_wrapped", False):
            return
        fn = getattr(obj, attr)
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = rec.open(name, callers)
            if span is not None and on_call is not None:
                on_call(span, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if span is not None and on_result is not None:
                on_result(span, args, kwargs, out)
            return out

        wrapper.perfbench_wrapped = True  # type: ignore[attr-defined]
        own = vars(obj).get(attr, wrapper)
        setattr(obj, attr, wrapper)

        def undo() -> None:
            if own is wrapper:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)

        self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the program's layers ------------------------------------------
    def install_wire(self) -> None:
        """Request decode (nodes and coordinator), bitset decode in the
        merge, and bitset encode in every server's response."""
        self.wrap_attr(server_mod, "expression_from_json", "wire.decode", WIRE_CALLERS)
        self.wrap_attr(federation_mod, "expression_from_json", "wire.decode", WIRE_CALLERS)
        self.wrap_attr(federation_mod, "bitmap_from_wire", "wire.decode", WIRE_CALLERS)
        self.wrap_attr(DatasetBitmap, "to_wire", "wire.encode", WIRE_CALLERS)

    def install_service(self, service: Any) -> None:
        """Planner, leaf cache and the current executor tree of a facade."""

        # The facade looks both planner functions up in its module at call
        # time, so swapping the module globals intercepts every call; the
        # plan cache it passes in is read around the call.
        self.wrap_attr(
            service_mod, "plan_batch", "planner.plan_batch", REQUEST_SPANS,
            on_result=_plan_after, on_call=_plan_before,
        )
        self.wrap_attr(
            service_mod, "evaluate_with_leaf_results", "planner.assemble", REQUEST_SPANS
        )

        def classify(span: Span, _a: tuple, _k: dict, entry: Any) -> None:
            if entry is None:
                span.meta["outcome"] = "miss"
            elif entry.watermark >= service.executor.n_datasets:
                span.meta["outcome"] = "hit"
            else:
                span.meta["outcome"] = "upgrade"

        self.wrap_attr(service.cache, "get_entry", "cache.get_entry", on_result=classify)
        self.install_executor(service.executor)

    def install_executor(self, executor: Any) -> None:
        """The sharded executor and every engine it currently owns.

        Idempotent: call it again after a rebuild (a new executor) or the
        first ingest (a new delta engine)."""
        self.wrap_attr(executor, "eval_leaves", "executor.eval_leaves",
                       on_result=_count_leaves)
        self.wrap_attr(executor, "eval_delta_leaves", "executor.eval_delta_leaves",
                       on_result=_count_leaves)
        self.wrap_attr(executor, "add_synopses", "executor.add_synopses")
        self.wrap_attr(executor, "remove_indexes", "executor.remove_indexes")
        self.wrap_attr(executor, "warm", "executor.warm")
        for engine in [*executor.engines, executor.delta_engine]:
            if engine is not None:
                self.install_engine(engine)

    def install_engine(self, engine: Any) -> None:
        self.wrap_attr(engine, "eval_leaf_batch_bits", "engine.leaf_batch",
                       EXECUTOR_SPANS)

        def after_build(_s: Span, _a: tuple, _k: dict, _out: Any) -> None:
            self.install_ptile(engine.ptile_index)

        # build() is the Ptile construction hook that warm() and every
        # shard evaluation route through (on pool threads).
        self.wrap_attr(engine, "build", "engine.build", EXECUTOR_SPANS,
                       on_result=after_build)

        seen_ranks: set = set()

        def pref_before(span: Span, args: tuple, _k: dict) -> None:
            # The first call per rank builds that rank's PrefIndex.
            span.meta["built"] = args[0] not in seen_ranks
            seen_ranks.add(args[0])

        def pref_after(_s: Span, _a: tuple, _k: dict, index: Any) -> None:
            self.wrap_attr(index, "query", "index.pref_query",
                           on_result=_count_reported)

        self.wrap_attr(engine, "pref_index", "engine.pref_index", EXECUTOR_SPANS,
                       on_result=pref_after, on_call=pref_before)

    def install_ptile(self, index: Any) -> None:
        self.wrap_attr(index, "query_many", "index.ptile_query",
                       on_result=_count_reported_many)

    def install_federation(self, coordinator: Any, node_services: Sequence[Any]) -> None:
        self.install_wire()
        self.wrap_attr(coordinator, "search_batch", "federation.search_batch",
                       REQUEST_SPANS)
        for svc in node_services:
            self.wrap_attr(svc, "search_batch", "node.search_batch", NODE_CALLERS)
            self.install_service(svc)
