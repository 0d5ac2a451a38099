"""Circuit breaker guarding the shared worker pool.

A worker pool that keeps getting recycled (hung or killed workers force
``PersistentWorkerPool`` to tear down and respawn its processes) is a
sign that full-quality synthesis is currently not viable — maybe the
machine is out of memory, maybe a native library is wedged.  Letting
every queued job walk into the same failure burns each client's
deadline on work that will not finish.

The breaker watches *job-level* outcomes: after each job the daemon
reports whether the job tripped pool recycles (or failed outright).
``failure_threshold`` consecutive bad jobs open the breaker; while it is
OPEN the daemon routes jobs to the degraded path — inline exact block
synthesis, no worker pool, no approximation search — which always
terminates and is flagged ``degraded`` in the result rather than
silently passed off as full QUEST output.  After ``cooldown_seconds``
the breaker goes HALF_OPEN and lets exactly one probe job try the full
path; success closes the breaker, failure reopens it for another
cooldown.

States follow the classic pattern:

    CLOSED --(threshold consecutive failures)--> OPEN
    OPEN --(cooldown elapsed)--> HALF_OPEN   (one probe allowed)
    HALF_OPEN --success--> CLOSED
    HALF_OPEN --failure--> OPEN

The clock is injectable (monotonic by default) so tests can step time.
"""

from __future__ import annotations

import threading
import time

from repro.observability import emit, get_logger

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with cooldown probing."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        *,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be > 0, got {cooldown_seconds}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        #: Lifetime transition counters (status endpoint).
        self.times_opened = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._maybe_half_open()

    def _maybe_half_open(self) -> str:
        # Caller holds the lock.  OPEN lazily decays to HALF_OPEN once
        # the cooldown elapses — no background timer thread needed.
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            self._state = HALF_OPEN
            self._probe_out = False
        return self._state

    def allow_full_path(self) -> bool:
        """Whether the next job may use the full (worker-pool) path.

        CLOSED: yes.  OPEN: no.  HALF_OPEN: yes for exactly one caller
        (the probe); concurrent callers are held to the degraded path
        until the probe reports back.
        """
        with self._lock:
            state = self._maybe_half_open()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_out:
                self._probe_out = True
                return True
            return False

    def record_success(self) -> None:
        """A full-path job completed without tripping the pool."""
        with self._lock:
            previous = self._state
            self._consecutive_failures = 0
            self._probe_out = False
            self._state = CLOSED
        if previous != CLOSED:
            self._note_transition(previous, CLOSED)

    def record_failure(self) -> None:
        """A full-path job tripped pool recycles or failed to finish."""
        with self._lock:
            previous = self._maybe_half_open()
            self._consecutive_failures += 1
            self._probe_out = False
            if previous == HALF_OPEN or (
                previous == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
            new = self._state
        if new == OPEN and previous != OPEN:
            self._note_transition(previous, OPEN)

    def _note_transition(self, previous: str, new: str) -> None:
        get_logger("service.breaker").warning(
            f"circuit breaker {previous} -> {new}"
        )
        emit("breaker.transition", previous=previous, new=new)

    def snapshot(self) -> dict:
        """Status-endpoint view of the breaker."""
        with self._lock:
            state = self._maybe_half_open()
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "times_opened": self.times_opened,
            }
