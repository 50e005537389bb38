"""Outside-in span tracer: records layer spans without touching ``src/``.

A :class:`Patch` names a public attribute of the program (a module
function or a class method) and the span a call to it records.
:meth:`Tracer.installed` swaps each attribute for a thin wrapper that
opens a span, calls the original and closes the span, and puts every
original back when the block exits, also when it raises. Spans carry a
name, start, end, parent span and trace id, and stay in memory until
:meth:`Tracer.dump` writes them out.

Parents are tracked per thread: a span opened while another span is
open on the same thread is its child. A span opened with nothing open
on its thread joins the thread's current trace, unless its patch opens
traces (``opens_trace``) or the thread has none yet; then it starts a
new one. The benchmark gets one trace per fit, stream snapshot, job or
request this way.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Patch", "Span", "Tracer", "wrapped_targets"]

_MISSING = object()
_MARK = "__perfbench_traced__"


@dataclass
class Span:
    """One timed call at a layer boundary."""

    sid: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap and the span its calls record.

    ``on_exit(tracer, span, args, kwargs, result)`` runs after the span
    has closed, so the counters it records cost the span nothing.
    ``opens_trace`` names the trace a root call starts.
    """

    owner: object
    attr: str
    span: str
    on_exit: Callable | None = None
    opens_trace: str | None = None

    @property
    def target(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


def _raw(owner: object, attr: str) -> object:
    """The attribute as stored (a ``classmethod`` stays a ``classmethod``)."""
    return inspect.getattr_static(owner, attr)


def _is_wrapped(raw: object) -> bool:
    func = getattr(raw, "__func__", raw)
    return bool(getattr(func, _MARK, False))


def wrapped_targets(patches: list[Patch]) -> list[str]:
    """Targets among ``patches`` that hold a tracer wrapper right now."""
    return [p.target for p in patches if _is_wrapped(_raw(p.owner, p.attr))]


class Tracer:
    """Collects spans and counters from patched layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._trace_seq: dict[str, Iterator[int]] = defaultdict(itertools.count)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_trace(self, prefix: str) -> str:
        """Start a new trace on this thread; later root spans join it."""
        with self._lock:
            trace = f"{prefix}-{next(self._trace_seq[prefix])}"
        self._local.trace = trace
        return trace

    def _open(self, name: str, opens_trace: str | None) -> Span:
        stack = self._stack()
        if stack:
            parent: Span | None = stack[-1]
            trace = parent.trace
        else:
            parent = None
            trace = getattr(self._local, "trace", None)
            if opens_trace is not None or trace is None:
                trace = self.begin_trace(opens_trace or name)
        span = Span(
            sid=next(self._ids),
            name=name,
            trace=trace,
            parent=parent.sid if parent is not None else None,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching -------------------------------------------------------
    def _wrap(self, fn: Callable, patch: Patch) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(patch.span, patch.opens_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if patch.on_exit is not None:
                patch.on_exit(tracer, span, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextmanager
    def installed(self, patches: list[Patch]) -> Iterator[Tracer]:
        """Wrap every patch target for the duration of the block."""
        saved: list[tuple[object, str, object]] = []
        try:
            for patch in patches:
                raw = _raw(patch.owner, patch.attr)
                if _is_wrapped(raw):
                    raise RuntimeError(f"{patch.target} is already traced")
                if isinstance(raw, classmethod):
                    new: object = classmethod(self._wrap(raw.__func__, patch))
                else:
                    new = self._wrap(raw, patch)
                saved.append(
                    (patch.owner, patch.attr,
                     vars(patch.owner).get(patch.attr, _MISSING))
                )
                setattr(patch.owner, patch.attr, new)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)  # it was inherited from a base class
                else:
                    setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                out[span.parent].append(span)
        return out

    def self_seconds(self) -> dict[int, float]:
        """Per span id: its duration minus the part its children cover."""
        kids = self.children()
        out = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(kids.get(span.sid, ()), key=lambda s: s.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.sid] = span.seconds - covered
        return out

    def outermost(self, name: str) -> tuple[float, int]:
        """(total seconds, calls) of ``name`` spans not nested in another.

        A wrapper chain (``ResilientBackend`` around the vectorized
        backend) records the same name twice; only the outer call counts.
        """
        by_id = {s.sid: s for s in self.spans}
        total, calls = 0.0, 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent)
            if parent is None:
                total += span.seconds
                calls += 1
        return total, calls

    def self_by_name(self) -> dict[str, float]:
        selfs = self.self_seconds()
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += selfs[span.sid]
        return dict(out)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write spans, counters and self time per span name as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [asdict(s) for s in self.spans],
            "counters": dict(self.counters),
            "self_seconds": self.self_by_name(),
            **(extra or {}),
        }
        path.write_text(json.dumps(payload) + "\n")
