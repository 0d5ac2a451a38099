"""Multi-circuit compilation driver: one warm substrate, many quests.

:func:`run_quest_batch` compiles a whole circuit family (a TFIM sweep,
a benchmark suite) through :func:`repro.core.quest.run_quest` while
sharing the expensive runtime state across every circuit:

* **one persistent worker pool** — worker processes fork and warm up
  once for the whole batch instead of once per synthesis round
  (:class:`~repro.parallel.pool_manager.PersistentWorkerPool`);
* **one content-addressed cache** — blocks identical across circuits
  resolve from memory/disk instead of re-synthesizing
  (:class:`~repro.parallel.cache.PoolCache`, now thread-safe);
* **one in-flight registry** — blocks identical across *concurrently
  compiling* circuits dedup even before either lands in the cache
  (:class:`~repro.batch.workqueue.InflightRegistry`).

Circuits run on a bounded thread window (``window``), so synthesis of
circuit *i+1* overlaps the parent-side selection/annealing of circuit
*i* while memory stays bounded.  Each circuit still runs the full,
unchanged pipeline: per-circuit selections are **bit-identical** to
running that circuit alone, because every shared result is keyed by the
content-addressed entry key that pins the synthesis seed.

With ``checkpoint_dir``, each circuit journals into its own
subdirectory (``circuit-0000``, ``circuit-0001``, ...); a killed batch
rerun against the same directory resumes every unfinished circuit from
its journaled blocks, bit-identically.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.batch.workqueue import InflightRegistry
from repro.core.quest import QuestConfig, QuestResult, run_quest
from repro.observability import (
    MetricsRegistry,
    counter_view,
    get_metrics,
    get_tracer,
)
from repro.parallel.cache import PoolCache
from repro.parallel.pool_manager import PersistentWorkerPool


@dataclass
class BatchResources:
    """Batch-scoped runtime state threaded through ``run_quest(shared=)``.

    Duck-typed by :func:`repro.core.quest._run_pipeline`: any object
    with these three attributes works, ``None`` fields simply disable
    that kind of sharing.
    """

    cache: PoolCache | None = None
    worker_pool: PersistentWorkerPool | None = None
    inflight: InflightRegistry | None = None


@dataclass
class BatchResult:
    """Everything a batch compilation produced.

    ``results`` preserves input order regardless of completion order.
    The dedup/pool counters aggregate over every circuit and are
    what the throughput benchmark asserts on; the per-run ones are
    views over the merged ``metrics`` snapshot.
    """

    results: list[QuestResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Subset of ``dedup_joins`` that joined another circuit's
    #: *in-flight* job through the registry.
    inflight_joins: int = 0
    #: Persistent-pool accounting (0 when ``workers == 1``).
    pools_created: int = 0
    pool_recycles: int = 0
    pool_reuses: int = 0
    #: Merged metrics snapshot across every circuit of the batch.
    metrics: dict = field(default_factory=dict)

    dedup_joins = counter_view(
        "dedup.hits",
        "Blocks served by attaching to an existing job instead of "
        "synthesizing (within-circuit repeats + cross-circuit joins).",
    )
    cache_misses = counter_view(
        "cache.miss", "Synthesis jobs actually dispatched, batch-wide."
    )
    cache_hits = counter_view(
        "cache.hit", "Blocks served from the shared cache (memory or disk)."
    )

    def summary(self) -> str:
        """One-line human-readable batch summary."""
        synthesized = self.cache_misses
        text = (
            f"{len(self.results)} circuits in {self.wall_seconds:.2f}s: "
            f"{synthesized} blocks synthesized, "
            f"{self.cache_hits} cache hits, "
            f"{self.dedup_joins} dedup joins "
            f"({self.inflight_joins} in-flight)"
        )
        if self.pools_created:
            text += (
                f"; worker pool created {self.pools_created}x, "
                f"reused {self.pool_reuses} rounds"
            )
        return text


def _circuit_checkpoint_dir(
    checkpoint_dir: str | None, index: int
) -> str | None:
    if checkpoint_dir is None:
        return None
    return str(Path(checkpoint_dir) / f"circuit-{index:04d}")


def run_quest_batch(
    circuits,
    config: QuestConfig | None = None,
    *,
    window: int = 2,
    checkpoint_dir: str | None = None,
    resume: bool = True,
    fault_injector=None,
) -> BatchResult:
    """Compile every circuit in ``circuits`` through one shared substrate.

    Parameters
    ----------
    circuits:
        The circuits to compile; results come back in the same order.
    config:
        One :class:`QuestConfig` applied to every circuit (the batch
        shares cache keys only where configs match, so a single config
        is the honest interface).
    window:
        Bounded in-flight window: how many circuits compile
        concurrently.  ``1`` degrades to sequential-with-shared-state;
        larger windows overlap circuit *i*'s selection with circuit
        *i+1*'s synthesis.
    checkpoint_dir:
        Optional batch journal root; each circuit journals into its own
        ``circuit-NNNN`` subdirectory and a rerun resumes from it.
    resume:
        Refuse existing journals when False (passed through per
        circuit).
    fault_injector:
        Shared fault injector (tests/CI), passed through per circuit.

    A circuit that *fails* (raises) aborts the batch after in-flight
    circuits finish; completed results are not returned partially —
    rerun with ``checkpoint_dir`` to resume from the journaled blocks.
    """
    config = config or QuestConfig()
    circuits = list(circuits)
    if not circuits:
        raise ValueError("run_quest_batch needs at least one circuit")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    cache = None
    if config.cache:
        cache = PoolCache(
            config.store_dir,
            fault_injector=fault_injector,
            max_entries=config.cache_max_entries,
            namespace=config.namespace,
        )
    worker_pool = (
        PersistentWorkerPool(config.workers) if config.workers > 1 else None
    )
    resources = BatchResources(
        cache=cache,
        worker_pool=worker_pool,
        inflight=InflightRegistry(),
    )

    tracer = get_tracer()
    results: list[QuestResult | None] = [None] * len(circuits)
    start = time.perf_counter()
    with tracer.span(
        "quest.batch", circuits=len(circuits), window=window
    ):
        try:
            with ThreadPoolExecutor(
                max_workers=min(window, len(circuits)),
                thread_name_prefix="quest-batch",
            ) as threads:
                futures = [
                    threads.submit(
                        run_quest,
                        circuit,
                        config,
                        checkpoint_dir=_circuit_checkpoint_dir(
                            checkpoint_dir, index
                        ),
                        resume=resume,
                        fault_injector=fault_injector,
                        shared=resources,
                    )
                    for index, circuit in enumerate(circuits)
                ]
                for index, future in enumerate(futures):
                    results[index] = future.result()
        finally:
            if worker_pool is not None:
                worker_pool.shutdown()
    wall = time.perf_counter() - start

    batch = BatchResult(
        results=results,
        wall_seconds=wall,
        inflight_joins=resources.inflight.joins,
    )
    if worker_pool is not None:
        batch.pools_created = worker_pool.pools_created
        batch.pool_recycles = worker_pool.recycles
        batch.pool_reuses = worker_pool.reuses
    merged = MetricsRegistry()
    for result in results:
        merged.merge(result.metrics)
    counters = merged.snapshot()["counters"]
    # The batch-level aggregates land in the merged snapshot, so a
    # ``--metrics-json`` dump is self-contained, and in the caller's
    # ambient registry alike.
    aggregates = {
        "counters": {
            "batch.circuits": len(circuits),
            "batch.dedup_joins": counters.get("dedup.hits", 0),
            "batch.inflight_joins": batch.inflight_joins,
        },
        "gauges": {"batch.pool_reuses": batch.pool_reuses},
    }
    merged.merge(aggregates)
    get_metrics().merge(aggregates)
    batch.metrics = merged.snapshot()
    # Exported even when no joiner stranded: a nonzero value means one
    # timed out on an owner that never published, failed, or released.
    batch.metrics["counters"].setdefault("registry.stranded_joiners", 0)
    return batch
