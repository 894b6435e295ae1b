"""Spans recorded around the repro layers, from outside the program.

A :class:`Tracer` replaces a layer's public function with a wrapper that
records one span per call: name, start, end, parent and thread.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.  A function imported by name
into other modules (``from ..bench.jobs import run_checks``) is replaced in
every loaded ``repro`` module that holds it, so each caller looks up the
wrapper; a method is replaced on the class that defines it.

Parents come from a per-thread stack.  A span that opens on a thread with an
empty stack is adopted by :attr:`Tracer.remote_parent` when one is set: the
benchmark's HTTP client sets it for the duration of a request, so the server
thread's work becomes a child of the client call that waits for it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collect spans from wrapped callables; restore the originals on close."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.remote_parent: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span called ``name``."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------ wrapping
    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``after(result, args, kwargs)`` runs on each return and
        may update :attr:`counters`.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        if isinstance(owner, type):
            self._replace(owner, attr, original, wrapper)
            return
        # A module-level function: patch every loaded repro module that
        # imported it by name, so each caller resolves to the wrapper.
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every original callable back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else self.tracer.remote_parent
        with self.tracer._lock:
            self.span_id = self.tracer._next_id
            self.tracer._next_id += 1
        stack.append(self.span_id)
        self.start = self.tracer.clock()
        return self.span_id

    def __exit__(self, *exc_info) -> bool:
        end = self.tracer.clock()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(
                Span(self.span_id, self.name, self.start, end, self.parent, threading.get_ident())
            )
        return False


# --------------------------------------------------------------------------- arithmetic
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id → its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def layer_table(spans: list[Span], window: tuple[float, float]) -> tuple[dict, float]:
    """Per-name ``{"calls", "self_s"}`` and the window time no root span covers.

    Only spans that descend from a root inside ``window`` count, so the
    self times plus the returned unattributed time sum to the window length.
    """
    by_id = {span.span_id: span for span in spans}
    lo, hi = window

    def root_of(span: Span) -> Span:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span

    kept = [span for span in spans if lo <= root_of(span).start < hi]
    selfs = self_times(kept)
    table: dict[str, dict] = {}
    for span in kept:
        entry = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[span.span_id]
    roots = [
        (max(span.start, lo), min(span.end, hi))
        for span in kept
        if span.parent is None or span.parent not in by_id
    ]
    return table, (hi - lo) - _covered(roots)
