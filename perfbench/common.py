"""Shared pieces of the benchmark: configs, statistics, output records.

Configs are copied here rather than imported from ``benchmarks/`` so
that the benchmark's inputs only change when this directory changes.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field

#: ``BENCH_CONFIG`` of ``benchmarks/conftest.py``: the Table-1 figure
#: benches' QUEST configuration (3-qubit blocks).  The block budget is
#: far above any block's synthesis time, so it never binds; a block that
#: hits it is counted as a failure, not as a faster run.
SUITE_CONFIG = dict(
    seed=2022,
    max_samples=8,
    max_block_qubits=3,
    threshold_per_block=0.2,
    max_layers_per_block=5,
    solutions_per_layer=3,
    instantiation_starts=2,
    max_optimizer_iterations=150,
    block_time_budget=20.0,
    workers=1,
)

#: ``SERVICE_CONFIG`` of ``benchmarks/test_service_throughput.py``
#: (2-qubit blocks, small searches): the served-job synthesis config.
SERVICE_CONFIG = dict(
    seed=2022,
    max_samples=3,
    max_block_qubits=2,
    threshold_per_block=0.25,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    sphere_variants_per_count=2,
    block_time_budget=None,
    workers=1,
)

#: Two-qubit error rate of the paper-style Pauli noise model (Sec. 5).
NOISE_LEVEL = 0.01

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the reportable tail.

    The tail is the highest percentile in :data:`TAIL_PERCENTILES` with
    at least :data:`TAIL_MIN_BEYOND` samples strictly above it.  With
    fewer than 20 samples no percentile qualifies, and the median is
    reported under its own label (percentile 50): the maximum of a
    handful of samples carries the host's noise, not a tail.
    """
    for q in TAIL_PERCENTILES:
        value = percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return value, q, beyond
    value = median(values)
    return value, 50.0, sum(1 for v in values if v > value)


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    """What one timed pass of a workload measured and produced.

    ``ops`` maps each operation (circuit compile, served job, ensemble
    evaluation) to its seconds; ``latencies``, when set, are the samples
    the latency metrics use instead (pooled over passes); ``counts`` the
    pass's work counts that must repeat exactly; ``digest`` a
    deterministic summary of the outputs, compared across passes and
    between traced and untraced passes.
    """

    wall_seconds: float
    ops: dict[str, float]
    cnot_reduction: float
    digest: str
    counts: dict = field(default_factory=dict)
    #: Workload-specific records the output checks and the trace read.
    detail: dict = field(default_factory=dict)
    latencies: list[float] | None = None
