"""One record per run fact: trace events and the counters they derive.

:func:`emit` is the single write path for every counter in
:data:`EVENT_COUNTERS`: it writes the trace event (when the ambient
tracer is enabled) and adds ``amount`` to each counter the event
derives in the ambient metrics registry.  Because both views come from
the same call, a run's trace and its counters agree by construction —
``summarize_trace(...).events[name]`` counts the same occurrences the
derived counters sum.

Counters no event derives (cache misses, store probes, kernel and
selection totals) are still plain ``get_metrics().inc`` calls; the rule
is only that a derived counter is never incremented by hand.
"""

from __future__ import annotations

from repro.observability.metrics import get_metrics
from repro.observability.trace import get_tracer

#: Event name -> the counters it derives, as ``str.format`` templates
#: filled from the event's attributes.  The one place the event and
#: counter vocabularies meet.
EVENT_COUNTERS: dict[str, tuple[str, ...]] = {
    "synthesis.failure": ("synthesis.failures", "synthesis.failures.{kind}"),
    "executor.fallback": ("synthesis.fallbacks",),
    "retry.attempt": ("retry.attempts",),
    "cache.hit": ("cache.hit",),
    "cache.corrupt_entry": ("cache.corrupt_entries",),
    "checkpoint.hit": ("checkpoint.hit",),
    "checkpoint.store": ("checkpoint.stores",),
    "checkpoint.quarantine": ("checkpoint.quarantined",),
    "dedup.hit": ("dedup.hits",),
    "dedup.adopt": ("dedup.hits",),
    "dedup.join": ("dedup.inflight_joins",),
    "dedup.stranded": ("registry.stranded_joiners",),
    "leap.layer": ("leap.layers",),
    "leap.budget_exhausted": ("leap.budget_exhausted",),
    "fault.injected": ("faults.injected",),
    "breaker.transition": ("breaker.to_{new}",),
    "store.evict": ("store.evictions.{namespace}", "cache.evictions"),
    "store.orphans_swept": ("store.orphans_swept.{namespace}",),
    "certify.report": ("certify.{verdict}",),
}


def emit(event: str, amount: int = 1, **attrs) -> None:
    """Record one occurrence of ``event`` weighing ``amount``.

    The trace event carries ``attrs`` (plus ``amount`` when it is not
    1, so a trace alone can re-derive every counter); each counter
    template of the event is formatted from ``attrs`` and grows by
    ``amount``.
    """
    tracer = get_tracer()
    if tracer.is_enabled:
        if amount != 1:
            tracer.event(event, amount=amount, **attrs)
        else:
            tracer.event(event, **attrs)
    metrics = get_metrics()
    if metrics.is_enabled:
        for template in EVENT_COUNTERS.get(event, ()):
            metrics.inc(template.format(**attrs), amount)
