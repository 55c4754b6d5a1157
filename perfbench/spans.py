"""In-memory host-time spans for the traced benchmark run.

A :class:`Tracer` keeps a stack of open spans. Closing a span adds its
duration minus the time its direct children covered to the layer's self
time, so self times are exact however many spans a layer opens. Only the
first ``max_events`` spans of each name are kept as Chrome trace events;
the totals always cover every span.

:class:`Instrumentation` wraps a layer's public functions where the program
binds them: every ``repro.*`` module attribute that is the original
function object is replaced, and methods are replaced on the class that
defines them. :meth:`Instrumentation.restore` undoes every patch.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

ROOT = "other"


class Tracer:
    """Span stack with online self-time accounting."""

    def __init__(self, run_id: str, max_events: int = 5000) -> None:
        self.run_id = run_id
        self.max_events = max_events
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.events: List[tuple] = []
        self.dropped = 0
        self._kept: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_id = 0
        self.wall_s = 0.0

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, span_id, parent = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if self._kept[name] < self.max_events:
            self._kept[name] += 1
            self.events.append((name, start, end, span_id, parent))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def root(self) -> Iterator["Tracer"]:
        """The span covering the whole traced run; its self time is the
        ``other`` remainder."""
        frame = self.enter(ROOT)
        try:
            yield self
        finally:
            self.exit(frame)
            self.wall_s = self.total_s[ROOT]

    # -- output ------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome Trace Event JSON (complete events, microseconds)."""
        origin = min((e[1] for e in self.events), default=0.0)
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": span_id, "parent": parent,
                     "run_id": self.run_id},
        } for name, start, end, span_id, parent in self.events]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run_id": self.run_id,
                              "dropped_spans": self.dropped,
                              "counts": dict(sorted(self.counts.items()))}}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# -- wrappers -----------------------------------------------------------


def span_function(tracer: Tracer, layer: str, fn: Callable,
                  on_result: Optional[Callable] = None) -> Callable:
    """``fn`` inside a ``layer`` span; ``on_result(result, args)`` runs
    after the span closes, so counting costs no layer time."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_result is not None:
            on_result(result, args)
        return result
    return wrapper


def span_generator(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    """A generator function whose every resume runs inside a span.

    Simulator processes interleave, so a generator's host time is the sum
    of its resumes, not the distance from creation to exhaustion.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[layer + ".created"] += 1
        return _traced_steps(tracer, layer, fn(*args, **kwargs))
    return wrapper


def _traced_steps(tracer: Tracer, layer: str, gen):
    value, error = None, None
    while True:
        frame = tracer.enter(layer)
        try:
            event = gen.throw(error) if error is not None else gen.send(value)
        except StopIteration as stop:
            tracer.exit(frame)
            return stop.value
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame)
        try:
            value, error = (yield event), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped body
            value, error = None, exc


class Instrumentation:
    """Records every patch so it can be undone."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: List[tuple] = []

    def function(self, layer: str, fn: Callable,
                 on_result: Optional[Callable] = None) -> None:
        """Replace ``fn`` at every ``repro`` module that binds it."""
        wrapper = span_function(self.tracer, layer, fn, on_result)
        sites = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))
                    sites += 1
        if not sites:
            raise RuntimeError(f"{fn.__qualname__} is bound nowhere")

    def method(self, layer: str, cls: type, name: str,
               generator: bool = False, consume: bool = False) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        if isinstance(original, (classmethod, staticmethod)):
            bound = getattr(cls, name)
            replacement = staticmethod(
                span_function(self.tracer, layer, bound))
        elif generator:
            replacement = span_generator(self.tracer, layer, original)
        elif consume:
            # lazy iterators do their work while being consumed
            replacement = span_function(
                self.tracer, layer,
                functools.wraps(original)(
                    lambda *a, **k: list(original(*a, **k))))
        else:
            replacement = span_function(self.tracer, layer, original)
        self.replace(cls, name, replacement)

    def replace(self, owner, name: str, replacement) -> None:
        """Set ``owner.name``, remembering the value it replaces."""
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
