"""Span recording from outside the program: wrap public entry points.

A traced benchmark run installs one wrapper per target in
:data:`layers.TARGETS`. Each call becomes a span record
``[name, start, end, parent, request_id, counts]`` kept in memory, in a
per-thread list so concurrent shard threads never share a list. Self
time is a span's duration minus the time its direct children cover.
Wrappers are installed for one run only and removed in ``finally``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from layers import TARGETS, Target

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store with one list and one open-span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[List[list]] = []

    def _register(self) -> list:
        """First span on this thread: create its list and stack."""
        local = self._local
        local.spans, local.stack, local.request = [], [], None
        with self._lock:
            self.threads.append(local.spans)
        return local.stack

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag spans opened on this thread with ``request_id``."""
        local = self._local
        if not hasattr(local, "stack"):
            self._register()
        outer, local.request = local.request, request_id
        try:
            yield
        finally:
            local.request = outer

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        before, after, request_of = target.before, target.after, target.request_of
        local = self._local
        register = self._register

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = register()
            spans = local.spans
            outer = request = local.request
            if request_of is not None:
                request = local.request = request_of(args, kwargs) or outer
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, request, None]
            stack.append(len(spans))
            spans.append(record)
            pre = before(args, kwargs) if before is not None else None
            result = None
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = _clock()
                stack.pop()
                local.request = outer
                if after is not None:
                    record[5] = after(pre, args, kwargs, result)

        wrapper.__perfbench_original__ = fn
        return wrapper


def resolve(target: Target) -> Tuple[Any, str]:
    """The object holding the wrapped attribute, and the attribute name."""
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper for the duration of the block, then restore
    the original attributes exactly (even when the block raises)."""
    saved = []
    try:
        for target in TARGETS:
            owner, attr = resolve(target)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(target, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Targets whose attribute is still a benchmark wrapper."""
    left = []
    for target in TARGETS:
        owner, attr = resolve(target)
        if hasattr(owner.__dict__[attr], "__perfbench_original__"):
            left.append(target.name)
    return left


def aggregate(recorder: SpanRecorder) -> Dict[str, Dict[str, Any]]:
    """Per-target totals: calls, total and self seconds, summed counts,
    and the spans themselves (for per-target derived metrics)."""
    totals: Dict[str, Dict[str, Any]] = {}
    for spans in recorder.threads:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for span, covered in zip(spans, child_time):
            entry = totals.setdefault(
                span[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}, "spans": []}
            )
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered
            entry["spans"].append(span)
            if span[5]:
                counts = entry["counts"]
                for key, value in span[5].items():
                    counts[key] = counts.get(key, 0) + value
    return totals


def self_time_sum(recorder: SpanRecorder) -> float:
    """Sum of self seconds over every span: equals the root spans' wall."""
    return sum(entry["self_s"] for entry in aggregate(recorder).values())
