"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's modules from the
benchmark's own code: :func:`install` swaps each listed public function for a
wrapper at every ``mixsearch`` module attribute that names it, so a name
imported with ``from .dataset import make_windows`` is traced as well.
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one :class:`Span` per wrapped call.

    A span's parent is the innermost open span of the same thread.  A thread
    with no open span (a worker started by an *adopting* span, such as the
    search's thread pool) takes the innermost open adopting span as parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopters: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, attrs=None, adopt_threads: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``attrs(args, kwargs, result)`` returns counts to store on the span
        of a call that returned; it runs after the span's end is taken.  A
        call that raises still records its span, without counts.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                if stack:
                    parent = stack[-1]
                else:
                    parent = self._adopters[-1] if self._adopters else None
                if adopt_threads:
                    self._adopters.append(span_id)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(Span(span_id, name, start, time.perf_counter(),
                                 parent, threading.get_ident(), {}), adopt_threads)
                raise
            span = Span(span_id, name, start, time.perf_counter(), parent,
                        threading.get_ident(), {})
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            self._close(span, adopt_threads)
            return result

        return traced

    def _close(self, span: Span, adopted: bool) -> None:
        self._stack().pop()
        with self._lock:
            if adopted:
                self._adopters.remove(span.span_id)
            self.spans.append(span)


def install(wrappers: dict[str, Callable]) -> None:
    """Replace ``"module.function"`` at every module attribute naming it.

    ``wrappers`` maps a name such as ``"dataset.make_windows"`` to a factory
    that takes the original function and returns its replacement.  The
    function is looked up on ``mixsearch.<module>``; every loaded
    ``mixsearch`` module whose namespace binds that same object gets the
    replacement.
    """
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("mixsearch") and mod is not None]
    for name, factory in wrappers.items():
        module_name, func_name = name.rsplit(".", 1)
        original = getattr(sys.modules[f"mixsearch.{module_name}"], func_name)
        replacement = factory(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def covered_time(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children running concurrently on several threads are counted once for
    the time they overlap, so a parent is never charged negative self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered_time(children.get(s.span_id, []))
            for s in spans}
