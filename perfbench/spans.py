"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program.  Instead, :class:`Recorder`
replaces public entry points of the ``repro`` modules with wrappers, at
the attribute their callers resolve (a module global for functions
imported by name, the class for methods), and restores the originals
afterwards.  Each call becomes one span: name, start, end, its own id,
the id of the span that was open on the same thread when it started,
and the job it ran for.  Spans stay in memory as tuples and are only
aggregated once the traced pass is over.

A span's *self time* is its duration minus the part of it covered by
its child spans, so summing self times over a set of layers never
counts an interval twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

_clock = time.perf_counter


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int
    job: str
    phase: str
    #: Work units the call reported (starts fitted, blocks made, ...),
    #: or None when the wrapper counts calls only.
    count: int | None


@dataclass
class LayerTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    count: int = 0


class Recorder:
    """Collects spans from wrapped entry points; thread-safe under the GIL.

    ``list.append`` and ``next`` on an :func:`itertools.count` are
    single bytecode-level operations, so concurrent daemon and client
    threads can record without a lock; the per-thread span stack and the
    current job live in a :class:`threading.local`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "pass"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> str:
        return getattr(self._local, "job", "-")

    @job.setter
    def job(self, value: str) -> None:
        self._local.job = value

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        job_of: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so every call records a span ``name``.

        ``count(result)`` extracts the work units of a call;
        ``job_of(args, kwargs)`` names the job the call runs for and
        makes it the thread's current job until the call returns.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent_id = stack[-1] if stack else 0
            previous_job = recorder.job
            job = job_of(args, kwargs) if job_of is not None else previous_job
            recorder.job = job
            stack.append(span_id)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                recorder.job = previous_job
                recorder.spans.append(
                    Span(
                        name, start, end, span_id, parent_id, job,
                        recorder.phase,
                        None if count is None or result is None
                        else int(count(result)),
                    )
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name: str, job: str | None = None) -> "_SpanContext":
        """Context manager recording a span around the benchmark's own code."""
        return _SpanContext(self, name, job)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        count: Callable | None = None,
        job_of: Callable | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a recording wrapper."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, count, job_of))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, job: str | None) -> None:
        self._recorder = recorder
        self._name = name
        self._job = job

    def __enter__(self) -> None:
        recorder = self._recorder
        stack = recorder._stack()
        self._span_id = next(recorder._ids)
        self._parent_id = stack[-1] if stack else 0
        self._previous_job = recorder.job
        if self._job is not None:
            recorder.job = self._job
        stack.append(self._span_id)
        self._start = _clock()

    def __exit__(self, *exc) -> None:
        end = _clock()
        recorder = self._recorder
        recorder._stack().pop()
        job = recorder.job
        recorder.job = self._previous_job
        recorder.spans.append(
            Span(
                self._name, self._start, end, self._span_id,
                self._parent_id, job, recorder.phase, None,
            )
        )


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call (a no-op callee)."""

    def noop():
        return None

    recorder = Recorder()
    wrapped = recorder.wrap("noop", noop)
    start = _clock()
    for _ in range(calls):
        noop()
    direct = _clock() - start
    start = _clock()
    for _ in range(calls):
        wrapped()
    return max(_clock() - start - direct, 0.0) / calls


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus its children's union."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, seconds, self seconds and counted units per span name."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.seconds += span.end - span.start
        entry.self_seconds += own[span.span_id]
        if span.count is not None:
            entry.count += span.count
    return dict(totals)

