"""Retry policy with deterministic per-attempt seed escalation.

A block whose synthesis fails — worker crash, hard timeout, or a
candidate set that fails validation — is retried up to
``max_attempts`` times before the executor downgrades it to the exact
singleton pool.  Two properties keep retries compatible with the
pipeline's determinism contract:

* **Same-seed first.**  Attempts ``0..SAME_SEED_RETRIES`` reuse the
  block's original seed, so a *transient* fault (a crashed worker, an
  injected exception, a corrupted result) recovers with a result that is
  bit-identical to an unfaulted run.
* **Deterministic escalation.**  Later attempts derive fresh seeds via
  ``np.random.SeedSequence(block_seed).spawn(...)`` — a pure function of
  the block seed and the attempt number, so a retried run is itself
  reproducible even when it escalates.

Every attempt runs under the same time budget and is re-dispatched as
soon as the previous round lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Failure taxonomy recorded in :class:`FailureRecord.kind`.
FAILURE_EXCEPTION = "exception"
FAILURE_TIMEOUT = "timeout"
FAILURE_VALIDATION = "validation"
FAILURE_CHECKPOINT = "checkpoint"
#: Terminal degradation: every attempt failed and the block was replaced
#: by its exact singleton pool.  Unlike the other kinds this is not an
#: attempt-level failure but the run-level outcome of exhausting them.
FAILURE_FALLBACK = "fallback"
FAILURE_KINDS = (
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    FAILURE_VALIDATION,
    FAILURE_CHECKPOINT,
    FAILURE_FALLBACK,
)

#: Number of *retries* (attempts beyond the first) that reuse the
#: block's original seed before escalation kicks in.
SAME_SEED_RETRIES = 1


@dataclass(frozen=True)
class FailureRecord:
    """One structured entry of a run's failure log."""

    block_index: int
    attempt: int
    kind: str
    message: str

    def as_dict(self) -> dict:
        """JSON-serializable form (for artifacts and the CLI)."""
        return {
            "block_index": self.block_index,
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
        }


def fallback_blocks(records: list[FailureRecord]) -> list[int]:
    """Indices of the blocks a failure log shows degraded to the fallback."""
    return [r.block_index for r in records if r.kind == FAILURE_FALLBACK]


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) failed block synthesis is retried.

    ``max_attempts=1`` disables retries entirely (one attempt, then the
    exact-pool fallback) — the executor's historical behaviour.
    """

    max_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def attempt_seed(self, block_seed: int, attempt: int) -> int:
        """Deterministic seed for ``attempt`` (0-based) of a block."""
        if attempt <= SAME_SEED_RETRIES:
            return int(block_seed)
        escalation = attempt - SAME_SEED_RETRIES
        spawned = np.random.SeedSequence(int(block_seed)).spawn(escalation)
        return int(spawned[-1].generate_state(1)[0] % (2**31 - 1))

    def is_baseline_attempt(self, block_seed: int, attempt: int) -> bool:
        """Whether ``attempt`` runs under attempt 0's seed.

        Results from baseline attempts are interchangeable with an
        unfaulted run's, so they are safe to persist in the
        content-addressed cache under attempt 0's entry key.
        """
        return self.attempt_seed(block_seed, attempt) == int(block_seed)


@dataclass
class RetryLog:
    """Mutable accumulator the executor threads through a run."""

    records: list[FailureRecord] = field(default_factory=list)

    def record(self, block_index: int, attempt: int, kind: str, message: str) -> None:
        self.records.append(
            FailureRecord(
                block_index=int(block_index),
                attempt=int(attempt),
                kind=kind,
                message=str(message),
            )
        )
