"""Span tracing from outside the program: public functions are replaced at
module (or class) attribute level by wrappers that record one span per call,
and put back afterwards.

A span is (id, name, parent id, start, end, run id, thread id). The parent
comes from a per-thread stack, so spans of client threads that run at the
same time never adopt each other. Spans are kept in memory; `write_spans`
stores them when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time

NO_PARENT = 0


class Patches:
    """Attribute replacements that can be undone and checked.

    `replace` swaps every attribute that holds `original`: the defining
    module's, and every `from x import name` copy in the given package's
    modules, because a caller resolves the name in its own namespace.
    """

    def __init__(self):
        self._done: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrapper, package: str | None = None) -> int:
        original = owner.__dict__[attr]
        owners = [owner]
        if package is not None and not isinstance(owner, type):
            owners += [m for name, m in sorted(sys.modules.items())
                       if m is not None and m is not owner
                       and (name == package or name.startswith(package + "."))
                       and m.__dict__.get(attr) is original]
        for o in owners:
            self._done.append((o, attr, original))
            setattr(o, attr, wrapper)
        return len(owners)

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not
        end up holding their original object (empty when all are back)."""
        for owner, attr, original in reversed(self._done):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._done
                 if o.__dict__.get(a) is not orig]
        self._done.clear()
        return wrong


class Tracer:
    """Records spans of wrapped calls, and counts calls of counted ones per
    marked span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._counts: list[dict] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _thread_counts(self) -> dict:
        counts = getattr(self._tls, "counts", None)
        if counts is None:
            counts = self._tls.counts = {}
            with self._counts_lock:
                self._counts.append(counts)
        return counts

    def wrap(self, fn, name: str):
        """A wrapper that records a span named `name` around each call and
        otherwise behaves exactly like `fn`."""
        clock, spans, ids = self.clock, self.spans, self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end, self.run_id,
                              threading.get_ident()))
        return wrapper

    def _marks(self) -> list[str]:
        marks = getattr(self._tls, "marks", None)
        if marks is None:
            marks = self._tls.marks = []
        return marks

    def marking(self, fn, name: str):
        """Like `wrap`; calls of `counting` wrappers made while it runs are
        counted under `name`."""
        inner = self.wrap(fn, name)
        marks_of = self._marks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks = marks_of()
            marks.append(name)
            try:
                return inner(*args, **kwargs)
            finally:
                marks.pop()
        return wrapper

    def counting(self, fn):
        """A wrapper that records no span; it counts its calls under the
        innermost `marking` call open on the calling thread, if any."""
        marks_of, counts_of = self._marks, self._thread_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks = marks_of()
            if marks:
                counts = counts_of()
                counts[marks[-1]] = counts.get(marks[-1], 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._counts_lock:
            for counts in self._counts:
                for key, n in counts.items():
                    total[key] = total.get(key, 0) + n
        return total


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, parent, start, end, *_ in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - union_length(children.get(sid, ()), start, end)
            for sid, _, _, start, end, *_ in spans}


def write_spans(path, spans) -> None:
    """One comma-separated line per span, in start order, gzip-compressed
    (a traced run holds hundreds of thousands of spans)."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("id,name,parent,start,end,run,thread\n")
        for sid, name, parent, start, end, run, thread in sorted(spans, key=lambda s: s[3]):
            fh.write(f"{sid},{name},{parent},{start!r},{end!r},{run},{thread}\n")
