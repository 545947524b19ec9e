"""In-memory span recorder used by the traced benchmark run.

A span is one timed call into a layer: its name, start and end on the
``perf_counter`` clock, the span that caused it, and the thread it ran on.
Parents are tracked on a per-thread stack.  Work handed to another thread
keeps its parent through :meth:`Recorder.bind`, which the instrumentation
applies to thread-pool submissions and to threads started inside a span.

Spans stay in memory until the run ends; :func:`self_times`,
:func:`layer_busy` and :func:`coverage` turn them into per-layer
numbers afterwards, so the hot path only appends one object per call.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Recorder",
    "union_length",
    "self_times",
    "layer_busy",
    "coverage",
]


class Span:
    """One recorded interval.  ``attrs`` holds counts measured at the boundary."""

    __slots__ = ("id", "name", "tag", "start", "end", "parent", "thread", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        parent: "int | None" = None,
        thread: int = 0,
        tag: "str | None" = None,
        attrs: "dict[str, float] | None" = None,
    ) -> None:
        self.id = span_id
        self.name = name
        self.tag = tag
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> "dict[str, Any]":
        return {
            "id": self.id,
            "name": self.name,
            "tag": self.tag,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans from any number of threads.

    ``list.append`` and ``next`` on an ``itertools.count`` are atomic under
    the interpreter lock, so recording takes no lock of its own.
    """

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "int | None":
        """The id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self) -> "tuple[int, int | None, float]":
        """Start a span on this thread: ``(span_id, parent_id, start)``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(
        self,
        token: "tuple[int, int | None, float]",
        name: str,
        tag: "str | None" = None,
        attrs: "dict[str, float] | None" = None,
        end: "float | None" = None,
    ) -> Span:
        """Finish the span ``token`` opened on this thread and keep it."""
        if end is None:
            end = time.perf_counter()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # an inner span leaked (generator abandoned)
            del stack[stack.index(span_id):]
        span = Span(span_id, name, start, end, parent, threading.get_ident(), tag, attrs)
        self.spans.append(span)
        return span

    def write(self, path: "str | os.PathLike[str]") -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")

    def bind(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to run under the caller's current span, on any thread."""
        parent = self.current()
        if parent is None:
            return fn

        def bound(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return bound


def union_length(intervals: "Iterable[tuple[float, float]]") -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap each other; only the union of
    their intervals, clipped to the parent, is subtracted.
    """
    children: "dict[int | None, list[Span]]" = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out: "dict[int, float]" = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        out[span.id] = span.duration - covered
    return out


def layer_busy(spans: "list[Span]", layer: str) -> float:
    """Busy seconds of ``layer``: the summed durations of its outermost spans.

    A span nested inside another span of the same layer (an encode inside an
    encode) is not counted twice.  Spans of one layer on concurrent threads
    each count, so busy time can exceed wall time.
    """
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != layer:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while parent is not None:
            if parent.name == layer:
                nested = True
                break
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if not nested:
            total += span.duration
    return total


def coverage(spans: "list[Span]", root: Span, names: "Iterable[str]") -> float:
    """Share of ``root``'s wall time covered by the spans named ``names``.

    ``spans`` are the spans of one call (``root`` and everything below it).
    """
    if root.duration <= 0:
        return 0.0
    wanted = set(names)
    covered = union_length(
        (max(span.start, root.start), min(span.end, root.end))
        for span in spans
        if span.name in wanted and span is not root
    )
    return covered / root.duration
