"""Span recording for the traced benchmark run.

The benchmark wraps public entry points on the live objects it drives
(see :mod:`instrument`); every wrapped call becomes a
:class:`Span` with a name, start, end, parent and request id.  Spans live
in memory until the run ends.

Parents come from a per-thread stack.  A call on a thread whose stack is
empty (an executor or coordinator pool thread, or an HTTP handler thread)
names the span kinds that may call it, and takes as parent the most
recently opened span of those kinds that is still open.  With one client
in one process there is at most one request in flight, so that span is
the caller.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    request: int = 0
    meta: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = self.start
        for lo, hi in sorted((c.start, c.end) for c in self.children):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class SpanRecorder:
    """Collects spans; ``enabled`` gates recording without unwrapping."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[Span] = []
        self._requests = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve_parent(self, callers: Sequence[str]) -> Optional[Span]:
        stack = self._stack()
        if stack:
            return stack[-1]
        with self._lock:
            for span in reversed(self._open):
                if span.name in callers:
                    return span
        return None

    def open(self, name: str, callers: Sequence[str] = ()) -> Optional[Span]:
        if not self.enabled:
            return None
        parent = self._resolve_parent(callers)
        span = Span(name, time.perf_counter(), parent=parent)
        span.request = parent.request if parent is not None else next(self._requests)
        self._stack().append(span)
        with self._lock:
            self._open.append(span)
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._open.remove(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        with self._lock:
            self.spans = []
