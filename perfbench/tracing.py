"""Spans and counters recorded from outside the program.

The tracer replaces module attributes of the ``dockerspec`` package with
wrappers and puts the originals back on ``restore``; no file of the program
changes. A function is replaced in every ``dockerspec`` module that holds it
as a global, so calls made through another module's import (for example
``corpus_pipeline.parse_shell``) are seen too.

A span records its id, name, thread, start, end and parent. A function can
be recorded under another name when it is called inside a given parent span
(``name_under``), so that one function reached by two paths is reported per
path. Spans stay in
memory until the benchmark reads them. Functions called about 10^5 times or
more per cycle are counted only, without spans, to keep the overhead small.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers, collect spans and counts, report self times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # (id, name) of the parent for spans opened by pool threads that have
        # no span of their own
        self.fallback_parent: tuple[int, str] | None = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def spanned(self, name: str, fn, before=None, after=None, name_under=None):
        """Wrap ``fn`` in a span. ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` run outside the span's interval.
        ``name_under`` maps a parent span name to the name this span takes
        when it opens directly inside such a parent."""
        tracer = self
        renames = name_under or {}

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.fallback_parent
            span_name = renames.get(parent[1], name) if parent else name
            span_id = next(tracer._ids)
            stack.append((span_id, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, span_name, threading.get_ident(),
                                         start, end, parent[0] if parent else None))
                tracer.add(span_name + ".calls")
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` to count its calls only."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.add(name + ".calls")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------

    def patch(self, module, attribute: str, make_wrapper) -> None:
        """Replace ``module.attribute`` and every other ``dockerspec`` module
        global bound to the same function with ``make_wrapper(original)``."""
        original = getattr(module, attribute)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dockerspec" or name.startswith("dockerspec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its child spans on the same thread. Children on other
        threads ran in parallel and are not subtracted."""
        child_time: Counter = Counter()
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                child_time[parent.id] += span.duration
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.duration - child_time[span.id]
        return dict(totals)

    def busy_times(self) -> dict[str, float]:
        """Total inclusive duration per span name."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def threads_under(self, name: str) -> int:
        """Distinct threads that ran spans whose parent is a ``name`` span."""
        roots = {span.id for span in self.spans if span.name == name}
        return len({span.thread for span in self.spans if span.parent in roots})
