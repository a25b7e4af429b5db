"""Span recording for the traced benchmark runs.

A :class:`Tracer` keeps one span stack per thread, because ingest workers,
the flusher, HTTP handler threads and the load generator all record spans at
the same time.  When a span ends, its duration is added to its name's total
and to the parent's child time on the same thread; a span's *self* time is
its duration minus the time its children cover.  Totals are kept per phase
(``setup``, ``window``, ...) so that only work done inside the measured
window is reported, while set-up costs such as a cold load stay visible.

Spans are recorded around calls into the program from the benchmark's own
files: :func:`Tracer.instrument` wraps a function, and :class:`Patcher`
swaps wrapped functions into classes and modules and puts the originals
back afterwards.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["Patcher", "Totals", "Tracer"]


@dataclass
class Totals:
    """Aggregate of every span of one name in one phase."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.work += other.work


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Per-thread span stacks with self-time arithmetic.

    ``clock`` is injectable so that the arithmetic can be tested with exact
    synthetic times.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            local.stack = stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    def current(self) -> str | None:
        """Name of the innermost open span on this thread, if any."""
        stack, _ = self._state()
        return stack[-1].name if stack else None

    def enter(self, name: str) -> _Frame:
        """Open a span on the calling thread."""
        stack, _ = self._state()
        frame = _Frame(name, self.clock())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, work: float = 0.0) -> float:
        """Close ``frame`` (the innermost span of this thread); returns its duration."""
        end = self.clock()
        stack, table = self._state()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        key = (self.phase, frame.name)
        totals = table.get(key)
        if totals is None:
            totals = table[key] = Totals()
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - frame.child_s
        totals.work += work
        return duration

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0):
        """Context manager recording one span."""
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame, work)

    def instrument(self, fn, name, *, work=None, skip_under=(), on_exit=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a callable of the call's arguments returning
        one.  ``work(args, kwargs, result)`` gives the span's work count (items,
        keys, leaves...).  A call made while the innermost open span has the
        same name, or a name in ``skip_under``, is not recorded separately:
        it is part of that span's work.  ``on_exit(args, duration)`` sees
        every recorded call (used to pair handler spans with requests).
        """
        tracer = self
        skip = frozenset(skip_under)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent = tracer.current()
            if parent is not None and (parent == span_name or parent in skip):
                return fn(*args, **kwargs)
            frame = tracer.enter(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                amount = work(args, kwargs, result) if work is not None else 0.0
                duration = tracer.exit(frame, amount)
                if on_exit is not None:
                    on_exit(args, duration)

        return wrapper

    def totals(self, phase: str) -> dict[str, Totals]:
        """Totals per span name for one phase, merged across threads."""
        merged: dict[str, Totals] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for (span_phase, name), totals in list(table.items()):
                if span_phase == phase:
                    merged.setdefault(name, Totals()).add(totals)
        return merged


class Patcher:
    """Swap instrumented functions into the program and restore them later."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, make) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def function(self, module_name: str, attr: str, make) -> None:
        """Replace a module-level function everywhere it was imported by name.

        ``from module import f`` binds ``f`` in the importing module, so every
        loaded ``repro`` module holding the same object is patched too.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
