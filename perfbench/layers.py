"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Every wrapper sits at the attribute the caller resolves: a function
imported by name into another module is patched in that module, a
method on its class.  The span names are ``<layer>.<what>``, where the
layer is the ``repro`` package the entry point belongs to.
"""

from __future__ import annotations

from collections import Counter

from spans import Recorder, Span, totals_by_name

#: Every per-layer metric the traced run reports, with its unit.  The
#: ``_s`` metrics are busy seconds summed over the pass (threads of the
#: served workload overlap, so they can exceed its wall time); the
#: ``_self_s`` ones exclude the time of wrapped callees.
PER_LAYER = (
    ("synthesis.kernel_evals", "count"),
    ("synthesis.kernel_s", "s"),
    ("synthesis.kernel_us_per_eval", "us"),
    ("synthesis.instantiate_self_s", "s"),
    ("synthesis.instantiate_starts", "count"),
    ("synthesis.leap_self_s", "s"),
    ("synthesis.sphere_s", "s"),
    ("parallel.executor_self_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "fraction"),
    ("dedup.joins", "count"),
    ("inflight.joins", "count"),
    ("store.load_s", "s"),
    ("store.publish_s", "s"),
    ("store.publishes", "count"),
    ("store.disk_hits", "count"),
    ("journal.write_s", "s"),
    ("journal.writes", "count"),
    ("journal.load_s", "s"),
    ("service.admit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.ledger_s", "s"),
    ("service.overhead_s", "s"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("service.stranded_joiners", "count"),
    ("partition.scan_s", "s"),
    ("partition.blocks", "count"),
    ("partition.stitch_s", "s"),
    ("core.selection_s", "s"),
    ("core.selection_evals", "count"),
    ("transpile.lower_s", "s"),
    ("transpile.manila_s", "s"),
    ("verify.certify_s", "s"),
    ("verify.independent_unitary_s", "s"),
    ("noise.ensemble_s", "s"),
    ("noise.density_s", "s"),
    ("noise.ptm_s", "s"),
    ("sim.ideal_s", "s"),
    ("latency.tail_percentile", "pct"),
    ("latency.samples", "count"),
    ("trace.spans", "count"),
    ("trace.span_cost_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)

#: Counts that must repeat exactly across passes and runs of one seed.
EXACT_COUNTS = (
    "synthesis.kernel_evals",
    "synthesis.instantiate_starts",
    "cache.hits",
    "cache.misses",
    "journal.writes",
    "store.publishes",
)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import importlib
    from pathlib import Path

    # Import modules by name: several packages re-export a function
    # under its module's name (``repro.transpile.transpile``,
    # ``repro.synthesis.instantiate``), hiding the module as an attribute.
    def module(name: str):
        return importlib.import_module(f"repro.{name}")

    ansatz = module("synthesis.ansatz")
    instantiate = module("synthesis.instantiate")
    leap = module("synthesis.leap")
    executor = module("parallel.executor")
    pool = module("core.pool")
    quest = module("core.quest")
    artifact = module("store.artifact")
    journal = module("resilience.journal")
    client = module("service.client")
    server = module("service.server")
    ledger = module("service.ledger")
    transpile = module("transpile")
    certifier = module("verify.certifier")
    independent = module("verify.independent")
    noise = module("noise")
    statevector = module("sim.statevector")

    patch = recorder.patch
    patch(ansatz.Ansatz, "trace_and_gradient", "synthesis.kernel")
    # LEAP calls instantiate_multi directly and through instantiate().
    patch(leap, "instantiate_multi", "synthesis.instantiate", count=len)
    patch(instantiate, "instantiate_multi", "synthesis.instantiate", count=len)
    patch(executor, "synthesize", "synthesis.leap")
    patch(pool, "sphere_variants", "synthesis.sphere")
    patch(executor.BlockSynthesisExecutor, "run", "parallel.executor")
    patch(artifact.ArtifactStore, "load", "store.load")
    patch(artifact.ArtifactStore, "publish", "store.publish", count=int)
    patch(journal.RunJournal, "store_pool", "journal.write")
    patch(journal.RunJournal, "load_pool", "journal.load")
    patch(client.ServiceClient, "submit", "service.submit")
    patch(
        server, "run_quest", "service.run",
        job_of=lambda args, kwargs: Path(kwargs["checkpoint_dir"]).name,
    )
    patch(ledger.JobLedger, "store", "service.ledger")
    patch(quest, "scan_partition", "partition.scan", count=len)
    patch(quest, "stitch_blocks", "partition.stitch")
    patch(
        quest, "select_approximations", "core.selection",
        count=lambda selection: selection.objective_evaluations,
    )
    patch(quest, "lower_to_basis", "transpile.lower")
    patch(transpile, "transpile", "transpile.manila")
    patch(certifier, "certify_result", "verify.certify")
    patch(independent, "independent_unitary", "verify.independent_unitary")
    patch(quest.QuestResult, "noisy_ensemble", "noise.ensemble")
    patch(noise, "run_density", "noise.density")
    patch(noise, "run_ptm_ensemble", "noise.ptm")
    patch(statevector, "ideal_distribution", "sim.ideal")


def self_share(spans: list[Span], prefixes: tuple[str, ...], wall: float) -> float:
    """Share of ``wall`` covered by the self time of the named layers."""
    totals = totals_by_name(spans)
    covered = sum(
        entry.self_seconds
        for name, entry in totals.items()
        if name.startswith(prefixes)
    )
    return covered / wall if wall > 0 else 0.0


def kernel_evals_by_job(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(s.job for s in spans if s.name == "synthesis.kernel"))


def derive(
    pass_spans: list[Span],
    check_spans: list[Span],
    counts: dict,
    service_split: dict,
) -> dict[str, float]:
    """Per-layer metric values from one traced pass (trace.* excluded).

    ``counts`` are the pass's outside-in counts (cache, store, service
    status); ``service_split`` the per-job queue/run/overhead seconds.
    ``noise.ptm_s`` comes from the output checks, where the PTM
    ensemble is the reference the density ensemble is compared with.
    """
    totals = totals_by_name(pass_spans)
    check_totals = totals_by_name(check_spans)

    def seconds(name: str, source=totals) -> float:
        entry = source.get(name)
        return entry.seconds if entry else 0.0

    def self_seconds(name: str) -> float:
        entry = totals.get(name)
        return entry.self_seconds if entry else 0.0

    def calls(name: str) -> int:
        entry = totals.get(name)
        return entry.calls if entry else 0

    def units(name: str) -> int:
        entry = totals.get(name)
        return entry.count if entry else 0

    kernel_evals = calls("synthesis.kernel")
    hits = counts.get("cache.hits", 0)
    misses = counts.get("cache.misses", 0)
    values = {
        "synthesis.kernel_evals": kernel_evals,
        "synthesis.kernel_s": seconds("synthesis.kernel"),
        "synthesis.kernel_us_per_eval": (
            1e6 * seconds("synthesis.kernel") / kernel_evals
            if kernel_evals else 0.0
        ),
        "synthesis.instantiate_self_s": self_seconds("synthesis.instantiate"),
        "synthesis.instantiate_starts": units("synthesis.instantiate"),
        "synthesis.leap_self_s": self_seconds("synthesis.leap"),
        "synthesis.sphere_s": seconds("synthesis.sphere"),
        "parallel.executor_self_s": self_seconds("parallel.executor"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.lookups": hits + misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dedup.joins": counts.get("dedup.joins", 0),
        "inflight.joins": counts.get("inflight.joins", 0),
        "store.load_s": seconds("store.load"),
        "store.publish_s": seconds("store.publish"),
        "store.publishes": units("store.publish"),
        "store.disk_hits": counts.get("store.disk_hits", 0),
        "journal.write_s": seconds("journal.write"),
        "journal.writes": calls("journal.write"),
        "journal.load_s": seconds("journal.load"),
        "service.admit_s": seconds("service.submit"),
        "service.queue_wait_s": service_split.get("service.queue_wait_s", 0.0),
        "service.run_s": service_split.get("service.run_s", 0.0),
        "service.ledger_s": seconds("service.ledger"),
        "service.overhead_s": service_split.get("service.overhead_s", 0.0),
        "service.rejected": counts.get("service.rejected", 0),
        "service.degraded": counts.get("service.degraded", 0),
        "service.stranded_joiners": counts.get("service.stranded_joiners", 0),
        "partition.scan_s": seconds("partition.scan"),
        "partition.blocks": units("partition.scan"),
        "partition.stitch_s": seconds("partition.stitch"),
        "core.selection_s": seconds("core.selection"),
        "core.selection_evals": units("core.selection"),
        "transpile.lower_s": seconds("transpile.lower"),
        "transpile.manila_s": seconds("transpile.manila"),
        "verify.certify_s": seconds("verify.certify"),
        "verify.independent_unitary_s": seconds("verify.independent_unitary"),
        "noise.ensemble_s": seconds("noise.ensemble"),
        "noise.density_s": seconds("noise.density"),
        "noise.ptm_s": seconds("noise.ptm", check_totals),
        "sim.ideal_s": seconds("sim.ideal"),
    }
    return values
