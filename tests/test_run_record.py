"""One record per run: counters derive from events, results view them.

Every counter in :data:`repro.observability.EVENT_COUNTERS` grows only
through :func:`repro.observability.emit`, so a traced run's events and
its counters must agree exactly; ``QuestResult``'s counter fields are
views over the run's own registry snapshot, which must count that run
and nothing else.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace

import pytest

import repro.parallel.executor as executor_module
from repro.algorithms import tfim
from repro.batch.driver import BatchResources
from repro.core import QuestConfig, run_quest
from repro.observability import (
    EVENT_COUNTERS,
    ListSink,
    MetricsRegistry,
    Tracer,
    summarize_records,
    use_metrics,
)
from repro.parallel.cache import PoolCache
from repro.parallel.executor import _synthesize_solutions_task
from repro.resilience import FaultInjector, FaultSpec
from repro.store import ENTRY_SUFFIX

CONFIG = dict(
    seed=5,
    max_samples=3,
    max_block_qubits=2,
    threshold_per_block=0.3,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    block_time_budget=None,
    sphere_variants_per_count=1,
)

#: QuestResult counter view -> the counter it reads.
VIEWS = {
    "cache_hits": "cache.hit",
    "cache_misses": "cache.miss",
    "retries": "retry.attempts",
    "dedup_joins": "dedup.hits",
    "checkpoint_hits": "checkpoint.hit",
    "cache_corrupt_entries": "cache.corrupt_entries",
    "checkpoint_corrupt_entries": "checkpoint.quarantined",
}


def _template_pattern(template: str) -> re.Pattern:
    """Regex matching every counter name ``template`` can format to."""
    return re.compile(
        "^" + re.sub(r"\\\{\w+\\\}", r"[^.]+", re.escape(template)) + "$"
    )


_DERIVED = [
    _template_pattern(t) for templates in EVENT_COUNTERS.values()
    for t in templates
]


def _derived_from_trace(records) -> dict[str, int]:
    """Counters the table derives from ``records``' events, summed."""
    expected: dict[str, int] = {}
    for record in records:
        if record["type"] != "event" or record["name"] not in EVENT_COUNTERS:
            continue
        attrs = record.get("attrs", {})
        for template in EVENT_COUNTERS[record["name"]]:
            name = template.format(**attrs)
            expected[name] = expected.get(name, 0) + attrs.get("amount", 1)
    return expected


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_counters_are_derived_from_events(workers):
    sink = ListSink()
    injector = FaultInjector(specs=(FaultSpec("raise", None, 0),))
    result = run_quest(
        tfim(4, steps=1),
        QuestConfig(**CONFIG, workers=workers, retry_attempts=2),
        fault_injector=injector,
        tracer=Tracer(sink),
    )
    counters = result.metrics["counters"]
    # The faults fired (worker-side when workers=2) and were retried.
    assert counters["faults.injected"] >= 1
    assert counters["retry.attempts"] >= 1
    derived = {
        name: value
        for name, value in counters.items()
        if any(pattern.match(name) for pattern in _DERIVED)
    }
    assert derived == _derived_from_trace(sink.records)
    assert (
        summarize_records(sink.records).events["synthesis.failure"]
        == counters["synthesis.failures"]
    )
    for view, counter in VIEWS.items():
        assert getattr(result, view) == counters.get(counter, 0), view
    assert len(result.synthesis_fallbacks) == counters.get(
        "synthesis.fallbacks", 0
    )


def test_result_metrics_count_only_their_own_run():
    """Under an ambient registry, each result still counts one run.

    The ambient registry receives the sum of both runs; each result's
    snapshot — and every counter view over it — holds its own run only.
    """
    ambient = MetricsRegistry()
    with use_metrics(ambient):
        first = run_quest(tfim(3, steps=1), QuestConfig(**CONFIG))
        second = run_quest(tfim(3, steps=1), QuestConfig(**CONFIG))
    assert first.metrics["counters"] == second.metrics["counters"]
    own = second.metrics["counters"]
    assert own["cache.miss"] >= 1
    assert second.cache_misses == own["cache.miss"]
    summed = {
        name: first.metrics["counters"].get(name, 0) + own.get(name, 0)
        for name in set(first.metrics["counters"]) | set(own)
    }
    assert ambient.snapshot()["counters"] == summed
    for result in (first, second):
        for view, counter in VIEWS.items():
            assert getattr(result, view) == result.metrics["counters"].get(
                counter, 0
            ), view


def test_corrupt_entries_attribute_to_the_run_that_read_them(
    tmp_path, monkeypatch
):
    """Two runs share one PoolCache; only the reader counts the rot.

    Run B is held inside its synthesis job (so it spans the whole
    episode) while run A reads one corrupt disk entry.  Each thread
    installs its own registry: A's result and registry count the entry,
    B's count nothing, and the shared instance counter sees it once.
    """
    circuit = tfim(4, steps=1)
    config = QuestConfig(**CONFIG, store_dir=str(tmp_path))
    run_quest(circuit, config)
    sorted(tmp_path.rglob(f"*{ENTRY_SUFFIX}"))[0].write_bytes(b"rotted")

    started = threading.Event()
    gate = threading.Event()

    def gated(block, config, seed):
        if threading.current_thread().name == "run-b":
            started.set()
            assert gate.wait(timeout=60)
        return _synthesize_solutions_task(block, config, seed)

    monkeypatch.setattr(executor_module, "_synthesize_solutions_task", gated)
    shared = BatchResources(cache=PoolCache(tmp_path))
    outcomes: dict = {}

    def run(name, run_config):
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = run_quest(circuit, run_config, shared=shared)
        outcomes[name] = (result, registry.snapshot()["counters"])

    # B's other seed gives entry keys the store has never seen, so B
    # only ever misses; its gated job keeps it in flight meanwhile.
    run_b = threading.Thread(
        target=run, args=("b", replace(config, seed=6)), name="run-b"
    )
    run_b.start()
    try:
        assert started.wait(timeout=60)
        run_a = threading.Thread(target=run, args=("a", config), name="run-a")
        run_a.start()
        run_a.join(timeout=120)
    finally:
        gate.set()
        run_b.join(timeout=120)
    (result_a, counts_a), (result_b, counts_b) = outcomes["a"], outcomes["b"]
    assert result_a.cache_corrupt_entries == 1
    assert counts_a["cache.corrupt_entries"] == 1
    assert result_b.cache_corrupt_entries == 0
    assert "cache.corrupt_entries" not in counts_b
    assert result_b.cache_misses >= 1
    assert shared.cache.corrupt_entries == 1
