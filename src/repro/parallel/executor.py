"""Parallel fan-out of per-block LEAP synthesis.

:class:`BlockSynthesisExecutor` takes the partition's blocks plus one
pre-drawn seed per block and returns one :class:`BlockPool` per block.
Four properties make it a drop-in replacement for the old sequential
loop in :func:`repro.core.quest.run_quest`:

**Determinism.**  Seeds are drawn by the caller *before* dispatch, in
block order, so neither worker count nor completion order can change
which seed a block synthesizes under.  Blocks whose content key (see
:mod:`repro.parallel.cache`) collides are canonicalized to the seed of
the *first* occurrence; since LEAP is deterministic given (target,
config, seed), repeated blocks dedup to one synthesis job with
byte-identical results, cache or no cache — and, through a shared
:class:`~repro.batch.workqueue.InflightRegistry`, across concurrently
compiling circuits of a batch.

**Caching.**  With a :class:`~repro.parallel.cache.PoolCache`, each
unique entry key synthesizes at most once per run; repeats and disk hits
skip straight to pool assembly.  Only the LEAP solution list is cached —
pool assembly (original-block candidate, distance re-measurement, sphere
variants) is cheap and block-specific, so it always runs in the parent.

**Resilience.**  With a :class:`~repro.resilience.retry.RetryPolicy`, a
block whose synthesis raises, hangs past the hard timeout, or returns
candidates that fail validation is *retried* — first with the same seed
(so transient faults recover bit-identically), then with
deterministically escalated seeds — before any downgrade.  Candidate
sets from workers, the cache, or a checkpoint are health-checked via
:mod:`repro.resilience.validation` and quarantined on failure; every
failure lands in a structured :class:`~repro.resilience.retry.FailureRecord`
log.  With a
:class:`~repro.resilience.journal.RunJournal`, each landed job's
solution list is journaled durably under its entry key, and journaled
keys skip synthesis on resume; blocks the cache served are not
journaled, since resume finds them there again (or re-synthesizes them
under their pinned seeds, bit-identically).

**Graceful degradation.**  Only when every attempt is exhausted does a
block downgrade to the exact-block singleton pool — the distance-zero
fallback QUEST always keeps — with a :class:`RuntimeWarning`, so one bad
block costs approximation quality, never the run.

Inline (``workers == 1``) and pooled execution share one attempt round.
Every attempt runs the same body (:func:`_attempt`: fault hooks and the
``synthesis.block`` span around the task) — in the parent under a
*cooperative* deadline (:mod:`repro.resilience.deadline`) that the
synthesis loops check between optimizer runs, or in a worker behind the
future's hard result timeout, with its trace records and metrics
marshalled home.  Every outcome then goes through one landing step that
validates the candidates, classifies a failure, and records a success.
A block's synthesis time is LEAP's own elapsed clock, the same clock
that enforces its time budget.

Worker processes live in a :class:`~repro.parallel.pool_manager.
PersistentWorkerPool` that is reused across retry rounds (and, when the
batch driver supplies one, across circuits); a round that observes a
hung or killed worker marks the pool for recycling rather than paying
construction every round.  A pooled attempt's solutions come home
through the pool's result pipe; the parent builds every candidate
unitary itself when it assembles the pool.
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from functools import partial

from repro.core.pool import (
    BlockPool,
    augment_with_sphere_variants,
    build_pool,
    exact_pool,
)
from repro.exceptions import BlockTimeoutError, ValidationError
from repro.observability import (
    ListSink,
    MetricsRegistry,
    Tracer,
    emit,
    get_metrics,
    get_tracer,
    use_metrics,
    use_tracer,
)
from repro.parallel.cache import PoolCache, content_key, entry_key
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.partition.blocks import CircuitBlock
from repro.resilience.deadline import block_deadline
from repro.resilience.retry import (
    FAILURE_CHECKPOINT,
    FAILURE_EXCEPTION,
    FAILURE_FALLBACK,
    FAILURE_TIMEOUT,
    FAILURE_VALIDATION,
    FailureRecord,
    RetryLog,
    RetryPolicy,
    fallback_blocks,
)
from repro.resilience.validation import validate_solutions
from repro.synthesis.leap import LeapConfig, SynthesisSolution, synthesize


def leap_config_for_block(
    original_cnots: int, config, seed: int | None
) -> LeapConfig:
    """The per-block LEAP configuration ``run_quest`` has always used.

    ``config`` is duck-typed (any object with the QuestConfig synthesis
    knobs) so this module never imports :mod:`repro.core.quest`.
    """
    return LeapConfig(
        max_layers=min(config.max_layers_per_block, max(original_cnots - 1, 1)),
        solutions_per_layer=config.solutions_per_layer,
        instantiation_starts=config.instantiation_starts,
        max_optimizer_iterations=config.max_optimizer_iterations,
        seed=seed,
        time_budget=config.block_time_budget,
        # Threshold stopping: secondary optimizer starts halt at the
        # per-block threshold, producing dissimilar on-sphere solutions.
        target_distance=config.threshold_per_block,
    )


def _synthesize_solutions_task(
    block: CircuitBlock, config, seed: int
) -> tuple[list[SynthesisSolution], float]:
    """The unit of work of one attempt: LEAP on one block's unitary.

    Returns the solution list plus LEAP's own elapsed seconds — the
    clock that enforces the block's time budget (queueing and pickling
    excluded).
    """
    leap_config = leap_config_for_block(
        block.circuit.cnot_count(), config, seed
    )
    report = synthesize(block.unitary(), leap_config)
    return report.solutions, report.elapsed_seconds


def _attempt(task, injector, index, attempt, block, config, seed):
    """One synthesis attempt: ``task`` inside the block's span, with the
    scheduled faults fired around it.  Returns ``(solutions, elapsed)``.

    Runs wherever the attempt runs — inline in the parent or in a worker
    (through :func:`_observed_task`) — and records into whichever
    tracer and registry are ambient there.
    """
    with get_tracer().span(
        "synthesis.block", block=index, attempt=attempt, seed=seed
    ):
        if injector is not None:
            injector.on_synthesis_start(index, attempt)
        solutions, elapsed = task(block, config, seed)
        if injector is not None:
            solutions = injector.corrupt_solutions(index, attempt, solutions)
    return solutions, elapsed


def _observed_task(*args):
    """Worker-side wrapper: runs :func:`_attempt` and marshals
    observability back to the parent.

    A worker process cannot write the parent's trace sink, so it records
    into a local buffer under its own tracer/metrics pair and ships the
    records home with the candidate payload; the parent replays them into
    the real sink (stamped ``origin="worker"``) and folds the metrics
    snapshot into the run registry.  A task that raises ships them on
    the exception (``exc.observed``), so a failed attempt's events reach
    the parent too.  Every pool submission ships this wrapper:
    ``run_quest`` always records into a registry, so there is no
    unobserved run to optimize for.
    """
    sink = ListSink()
    metrics = MetricsRegistry()
    try:
        with use_tracer(Tracer(sink, origin="worker")), use_metrics(metrics):
            solutions, elapsed = _attempt(*args)
    except Exception as exc:
        exc.observed = (sink.records, metrics.snapshot())
        raise
    return solutions, elapsed, (sink.records, metrics.snapshot())


def _inline_attempt(args, timeout):
    """Run one attempt in the parent under the cooperative deadline.

    Returns ``(solutions, elapsed)`` like a pooled fetch.
    """
    with block_deadline(timeout):
        return _attempt(*args)


def _replay_observed(observed) -> None:
    """Fold a worker's marshalled ``(records, snapshot)`` into the run."""
    records, snapshot = observed
    get_tracer().replay(records)
    get_metrics().merge(snapshot)


def assemble_pool(
    block: CircuitBlock,
    solutions: list[SynthesisSolution],
    config,
    seed: int,
) -> BlockPool:
    """Build the block's candidate pool from raw LEAP solutions.

    Runs in the parent process: the pool embeds the (position-specific)
    block, so only the solutions themselves are shareable across blocks.
    """
    # No single block may eat more than its per-block share of the total
    # threshold — the per-block analogue of Algorithm 1's rejection line.
    pool = build_pool(
        block,
        solutions,
        max_candidates=config.max_candidates_per_block,
        distance_cap=config.threshold_per_block,
    )
    if config.sphere_variants_per_count > 0:
        augment_with_sphere_variants(
            pool,
            threshold=config.threshold_per_block,
            per_count=config.sphere_variants_per_count,
            rng=seed,
        )
    get_metrics().observe("synthesis.pool_size", pool.size)
    return pool


def synthesize_block_pool(block: CircuitBlock, config, seed: int) -> BlockPool:
    """Synthesize one block end-to-end, inline (no pool, no cache)."""
    if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
        # Nothing to approximate: the pool is just the block itself.
        return exact_pool(block)
    solutions, _ = _synthesize_solutions_task(block, config, seed)
    return assemble_pool(block, solutions, config, seed)


@dataclass
class BlockSynthesisStats:
    """What the executor did that no counter records.

    Counts (cache hits and misses, retries, dedup joins, checkpoint
    hits, corrupt entries) are events emitted into the ambient metrics
    registry (:func:`repro.observability.emit`); ``run_quest`` reads
    them back as views over its per-run snapshot.
    """

    #: Per-block synthesis seconds on LEAP's own clock; 0.0 for trivial
    #: blocks and cache/repeat/checkpoint hits.
    block_seconds: list[float] = field(default_factory=list)
    #: Structured log of every failed attempt (see FailureRecord).
    failure_log: list[FailureRecord] = field(default_factory=list)

    @property
    def fallback_blocks(self) -> list[int]:
        """Indices of blocks downgraded to their exact-block fallback pool."""
        return fallback_blocks(self.failure_log)


@dataclass(frozen=True)
class _BlockPlan:
    """Routing decision for one block."""

    trivial: bool
    key: str | None = None  # entry key (None for trivial blocks)
    seed: int = 0  # canonical synthesis seed


@dataclass
class _RunState:
    """Everything one :meth:`BlockSynthesisExecutor.run` call mutates."""

    blocks: list[CircuitBlock]
    config: object
    policy: RetryPolicy
    task: object
    stats: BlockSynthesisStats
    log: RetryLog = field(default_factory=RetryLog)
    plans: list[_BlockPlan] = field(default_factory=list)
    #: Entry key -> (first block index, block, canonical seed).
    jobs: dict[str, tuple[int, CircuitBlock, int]] = field(default_factory=dict)
    resolved: dict[str, list[SynthesisSolution]] = field(default_factory=dict)
    #: Entry key -> attempt that resolved it (journal restores absent).
    resolved_attempt: dict[str, int] = field(default_factory=dict)
    #: Entry key -> the last failed attempt's exception.
    failures: dict[str, BaseException] = field(default_factory=dict)
    #: One opaque token per run: the in-flight registry keys claims by
    #: it, so a crashed run releases wholesale.
    claim_token: object = field(default_factory=object)

    def note_failure(
        self, index: int, attempt: int, kind: str, message: str
    ) -> None:
        """Record a failure in the structured log and mirror it as telemetry."""
        self.log.record(index, attempt, kind, message)
        emit("synthesis.failure", block=index, attempt=attempt, kind=kind)


class BlockSynthesisExecutor:
    """Fans per-block synthesis out over a process pool, with caching.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs every block inline in
        the parent — same results, single process, easiest to debug.
    cache:
        Optional :class:`PoolCache`.  When given, blocks sharing an entry
        key synthesize once per run and may persist across runs.
    hard_timeout:
        Hard per-block wall-clock cap in seconds.  Enforced via the
        future's result timeout when ``workers > 1`` and via the
        cooperative deadline (:mod:`repro.resilience.deadline`) on the
        inline path.  A block that exceeds it is retried (under the
        retry policy) and ultimately falls back to its exact pool.
    synthesize_fn:
        Override of the worker task, for testing/instrumentation.  Must
        be a module-level callable with the signature of
        :func:`_synthesize_solutions_task`.
    retry_policy:
        Optional :class:`RetryPolicy`.  ``None`` (the default) means one
        attempt per block — the executor's historical behaviour.
    journal:
        Optional :class:`~repro.resilience.journal.RunJournal`.  Entry
        keys already journaled (and healthy) are restored without
        synthesis; each landed job's solution list is journaled under
        its key as it lands.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        scheduled faults fire around each synthesis attempt (tests/CI).
    validate:
        Health-check candidate sets from workers, the cache, and the
        journal (on by default; see :mod:`repro.resilience.validation`).
    independent_validation:
        Harden those health checks into independent certification:
        every candidate's unitary is rebuilt through the certifier's
        own contraction path and must agree with the recorded
        artifacts.  Slower, so off by default; ignored when
        ``validate`` is off.
    worker_pool:
        Optional externally owned :class:`PersistentWorkerPool` (the
        batch driver shares one across every circuit of a sweep).
        ``None`` constructs a run-scoped pool on demand and shuts it
        down when the run finishes.
    inflight:
        Optional shared :class:`~repro.batch.workqueue.InflightRegistry`
        for cross-executor dedup: blocks whose entry key another
        executor already has in flight join that job instead of racing
        it to a cache miss.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: PoolCache | None = None,
        hard_timeout: float | None = None,
        synthesize_fn=None,
        retry_policy: RetryPolicy | None = None,
        journal=None,
        fault_injector=None,
        validate: bool = True,
        independent_validation: bool = False,
        worker_pool: PersistentWorkerPool | None = None,
        inflight=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache
        self.hard_timeout = hard_timeout
        self._synthesize_fn = synthesize_fn
        self.retry_policy = retry_policy
        self.journal = journal
        self.fault_injector = fault_injector
        self.validate = validate
        self.independent_validation = independent_validation
        #: Externally owned pool (the batch driver shares one across
        #: circuits); None constructs a run-scoped pool on demand.
        self.worker_pool = worker_pool
        #: Shared :class:`~repro.batch.workqueue.InflightRegistry`, or
        #: None for solo runs (no cross-executor dedup).
        self.inflight = inflight

    def run(
        self,
        blocks: list[CircuitBlock],
        config,
        seeds: list[int],
    ) -> tuple[list[BlockPool], BlockSynthesisStats]:
        """Synthesize every block; returns (pools, stats) in block order."""
        if len(seeds) != len(blocks):
            raise ValueError(
                f"got {len(seeds)} seeds for {len(blocks)} blocks"
            )
        run = _RunState(
            blocks=blocks,
            config=config,
            policy=self.retry_policy or RetryPolicy(max_attempts=1),
            task=(
                self._synthesize_fn
                if self._synthesize_fn is not None
                else _synthesize_solutions_task
            ),
            stats=BlockSynthesisStats(block_seconds=[0.0] * len(blocks)),
        )
        self._plan(run, seeds)
        self._synthesize(run)
        pools = self._assemble(run)
        run.stats.failure_log = run.log.records
        return pools, run.stats

    # ------------------------------------------------------------------
    # Phase 1: plan
    # ------------------------------------------------------------------
    def _plan(self, run: _RunState, seeds: list[int]) -> None:
        """Canonicalize seeds per content key, then serve each block from
        the first source holding its entry key — this run, the run
        journal, the cache — or queue a synthesis job."""
        canonical_seed: dict[str, int] = {}
        for index, (block, seed) in enumerate(zip(run.blocks, seeds)):
            if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
                run.plans.append(_BlockPlan(trivial=True))
                continue
            fingerprint = leap_config_for_block(
                block.circuit.cnot_count(), run.config, seed=None
            ).fingerprint()
            content = content_key(block.unitary(), fingerprint)
            seed = canonical_seed.setdefault(content, seed)
            key = entry_key(content, seed)
            run.plans.append(_BlockPlan(trivial=False, key=key, seed=seed))
            if key in run.resolved or key in run.jobs:
                # Within-run repeat: the canonical seed makes its result
                # identical to the first occurrence's, so it joins that
                # (counted as a cache hit, or a dedup join cache-off).
                emit(
                    "cache.hit" if self.cache is not None else "dedup.hit",
                    block=index,
                    source="run",
                )
                continue
            if self.journal is not None and self._admit(
                run, "journal", index, key, self.journal.load_pool(key)
            ):
                continue
            if self.cache is not None and self._admit(
                run, "disk", index, key, self.cache.get(key)
            ):
                continue
            run.jobs[key] = (index, block, seed)
            get_metrics().inc("cache.miss")

    def _admit(self, run: _RunState, source, index, key, solutions) -> bool:
        """Serve block ``index`` from a ``"journal"`` or ``"disk"`` entry.

        Both cross a trust boundary: the entry must exist and pass
        validation, and a failing one is logged (a journal entry is
        also quarantined) so the block falls through to the next
        source.  Returns whether the block was served.
        """
        if solutions is None:
            return False
        if self.validate:
            try:
                validate_solutions(
                    run.blocks[index].unitary(),
                    solutions,
                    independent=self.independent_validation,
                )
            except ValidationError as exc:
                if source == "journal":
                    run.note_failure(index, 0, FAILURE_CHECKPOINT, str(exc))
                    self.journal.discard(key)
                else:
                    run.note_failure(
                        index, 0, FAILURE_VALIDATION,
                        f"cache entry quarantined: {exc}",
                    )
                return False
        run.resolved[key] = solutions
        if source == "journal":
            emit("checkpoint.hit", block=index)
        else:
            emit("cache.hit", block=index, source="disk")
        return True

    # ------------------------------------------------------------------
    # Phase 2: execute the synthesis jobs, retrying under the policy
    # ------------------------------------------------------------------
    def _synthesize(self, run: _RunState) -> None:
        policy = run.policy
        pending = dict(run.jobs)
        own_pool: PersistentWorkerPool | None = None
        pool_manager = self.worker_pool
        if self.workers > 1 and pool_manager is None and pending:
            # Run-scoped pool: constructed once, reused across retry
            # rounds, recycled only when a round marks it unhealthy
            # (hung or killed worker — see PersistentWorkerPool).
            own_pool = pool_manager = PersistentWorkerPool(self.workers)
        try:
            for attempt in range(policy.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    for block_index, _, _ in pending.values():
                        emit("retry.attempt", block=block_index, attempt=attempt)

                # Split this round into jobs we own (we dispatch them)
                # and jobs another executor has in flight (we join and
                # adopt their published result).
                owned = dict(pending)
                joined: dict[str, tuple] = {}
                if self.inflight is not None:
                    for key in list(owned):
                        entry = self.inflight.claim(key, run.claim_token)
                        if entry is not None:
                            joined[key] = (entry, owned.pop(key))
                succeeded = self._run_round(
                    run, owned, attempt, pool_manager, claimed=True
                )
                if joined:
                    adopted, leftover = self._adopt_joined(run, joined)
                    # A join that came back empty (owner failed, or its
                    # result was not publishable) falls back to this
                    # executor's own attempt in the *same* round, so
                    # retry/seed semantics match a solo run exactly.
                    succeeded += adopted + self._run_round(
                        run, leftover, attempt, pool_manager, claimed=False
                    )
                for key in succeeded:
                    del pending[key]
        finally:
            if self.inflight is not None:
                self.inflight.release(run.claim_token)
            if own_pool is not None:
                own_pool.shutdown()
        if self.cache is not None:
            for key, (_, _, seed) in run.jobs.items():
                # Only results a job landed here, from a baseline attempt
                # (attempt 0's seed), are interchangeable with an
                # unfaulted run's, so only those persist under the
                # content-addressed key — never a journal restore.
                if key in run.resolved_attempt and policy.is_baseline_attempt(
                    seed, run.resolved_attempt[key]
                ):
                    self.cache.put(key, run.resolved[key])

    def _run_round(
        self,
        run: _RunState,
        jobs: dict[str, tuple[int, CircuitBlock, int]],
        attempt: int,
        pool_manager: PersistentWorkerPool | None,
        claimed: bool,
    ) -> list[str]:
        """Dispatch one attempt round, then land each job in dispatch
        order; returns the keys that succeeded.

        Inline, each job's attempt runs when it is landed, so blocks
        land one at a time; pooled, the whole round is submitted first.
        ``claimed`` says whether this executor owns the jobs' in-flight
        claims (and so publishes their results to joiners).
        """
        if not jobs:
            return []
        round_args = {
            key: (
                run.task, self.fault_injector, index, attempt, block,
                run.config, run.policy.attempt_seed(seed, attempt),
            )
            for key, (index, block, seed) in jobs.items()
        }
        if self.workers == 1:
            fetches = {
                key: partial(_inline_attempt, args, self.hard_timeout)
                for key, args in round_args.items()
            }
        else:
            fetches = self._submit_round(
                pool_manager, round_args, self.hard_timeout
            )
        return [
            key
            for key, fetch in fetches.items()
            if self._land(run, key, attempt, fetch, claimed)
        ]

    def _submit_round(self, pool_manager, round_args, timeout) -> dict:
        """Submit one round to the persistent pool; one fetch per job.

        The pool outlives the round.  A fetch that observes a hard
        timeout (the hung worker still occupies its process) or a broken
        pool (killed worker) marks it unhealthy so the *next* submission
        gets a fresh pool; healthy pools — including ones whose workers
        merely raised — are reused across rounds and, in batch mode,
        across circuits.
        """
        pool_manager.begin_round()
        return {
            key: partial(
                self._fetch,
                pool_manager,
                pool_manager.submit(_observed_task, *args),
                timeout,
            )
            for key, args in round_args.items()
        }

    def _fetch(self, pool_manager, future, timeout):
        """Await one pooled attempt: ``(solutions, elapsed)``.

        A future timeout surfaces as :class:`BlockTimeoutError`, the
        same failure the inline deadline raises.
        """
        try:
            solutions, elapsed, observed = future.result(timeout=timeout)
        except FutureTimeoutError as exc:
            future.cancel()
            # The hung worker still occupies its process; flag the pool
            # so the next submission recycles it.
            pool_manager.mark_unhealthy()
            raise BlockTimeoutError(f"hard timeout after {timeout}s") from exc
        except BrokenExecutor:  # worker process died
            pool_manager.mark_unhealthy()
            raise
        # Replay before validation: worker-side events must land in the
        # trace even when the returned candidates are quarantined.
        _replay_observed(observed)
        return solutions, elapsed

    def _land(self, run: _RunState, key, attempt, fetch, claimed) -> bool:
        """Land one attempt: run ``fetch``, validate what it returns, and
        record the outcome.  Returns whether the job succeeded."""
        index, block, seed = run.jobs[key]
        try:
            solutions, elapsed = fetch()
            if self.validate:
                validate_solutions(
                    block.unitary(),
                    solutions,
                    independent=self.independent_validation,
                )
        except Exception as exc:
            if isinstance(exc, BlockTimeoutError):
                kind, message = FAILURE_TIMEOUT, str(exc)
            elif isinstance(exc, ValidationError):
                kind, message = FAILURE_VALIDATION, str(exc)
            else:
                kind = FAILURE_EXCEPTION
                message = f"{type(exc).__name__}: {exc}"
            if hasattr(exc, "observed"):
                # A worker exception carries its attempt's trace records.
                _replay_observed(exc.observed)
            run.note_failure(index, attempt, kind, message)
            run.failures[key] = exc
            return False
        run.resolved[key] = solutions
        run.stats.block_seconds[index] = elapsed
        run.resolved_attempt[key] = attempt
        if self.inflight is not None and claimed:
            # Same rule as the disk cache: only baseline results are
            # interchangeable with a solo run's, so only those are
            # shared with joiners.
            if run.policy.is_baseline_attempt(seed, attempt):
                self.inflight.publish(key, run.claim_token, solutions)
            else:
                self.inflight.fail(key, run.claim_token)
        if self.journal is not None:
            # Journaled as each job lands (not at round end), so a crash
            # mid-round loses at most the jobs still in flight.
            self.journal.store_pool(index, key, solutions)
        return True

    def _adopt_joined(
        self, run: _RunState, joined: dict[str, tuple]
    ) -> tuple[list[str], dict[str, tuple[int, CircuitBlock, int]]]:
        """Adopt results published by other executors' in-flight jobs.

        Returns ``(adopted_keys, leftover_jobs)``.  Leftover jobs are
        joins whose owner failed (or published nothing usable); the
        caller re-dispatches them as this executor's own attempt in the
        same round.
        """
        if self.hard_timeout is None:
            timeout = None
        else:
            # Generous: the owner may burn through its whole retry
            # budget before the claim resolves either way.  The owner's
            # `finally` release guarantees the event fires eventually.
            timeout = self.hard_timeout * max(run.policy.max_attempts, 1) + 60.0
        adopted: list[str] = []
        leftover: dict[str, tuple[int, CircuitBlock, int]] = {}
        for key, (entry, job) in joined.items():
            if self.inflight.wait_for(entry, timeout):
                run.resolved[key] = entry.solutions
                # Published results are baseline by construction, so
                # they stay cache-writable under the plain entry key.
                run.resolved_attempt[key] = 0
                emit("dedup.adopt", block=job[0])
                adopted.append(key)
                if self.journal is not None:
                    self.journal.store_pool(job[0], key, entry.solutions)
            else:
                leftover[key] = job
        return adopted, leftover

    # ------------------------------------------------------------------
    # Phase 3: assemble
    # ------------------------------------------------------------------
    def _assemble(self, run: _RunState) -> list[BlockPool]:
        """Assemble every pool once (parent process, block order)."""
        max_attempts = run.policy.max_attempts
        pools: list[BlockPool] = []
        for index, (block, plan) in enumerate(zip(run.blocks, run.plans)):
            if plan.trivial:
                pools.append(exact_pool(block))
                continue
            solutions = run.resolved.get(plan.key)
            if solutions is None:
                cause = run.failures.get(plan.key)
                reason = (
                    f"{type(cause).__name__ if cause else 'worker failure'}: "
                    f"{cause}"
                )
                warnings.warn(
                    f"block {index}: synthesis unavailable ({reason}); "
                    "falling back to the exact block",
                    RuntimeWarning,
                    stacklevel=3,
                )
                # The degradation itself is a structured outcome, not
                # just a warning: downstream consumers (CLI, artifacts,
                # trace) must be able to see *which* blocks shipped the
                # exact fallback and why.
                run.log.record(
                    index,
                    max_attempts,
                    FAILURE_FALLBACK,
                    f"degraded to exact block after {max_attempts} "
                    f"attempt(s): {reason}",
                )
                emit("executor.fallback", block=index, attempts=max_attempts)
                pools.append(exact_pool(block))
                continue
            pools.append(assemble_pool(block, solutions, run.config, plan.seed))
        return pools
