"""Inline and pooled synthesis run one attempt path.

The same fault schedule at ``workers=1`` (attempts in the parent under
the cooperative deadline) and ``workers=2`` (attempts in worker
processes) must land identically: the same failure log, the same
event-derived counters, the same pools, and the same per-block
``synthesis.block`` span statuses in the trace.
"""

from __future__ import annotations

import pytest

from repro.algorithms import tfim
from repro.circuits import circuit_to_qasm
from repro.core import QuestConfig, run_quest
from repro.observability import ListSink, Tracer
from repro.resilience import FaultInjector, FaultSpec

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
    retry_attempts=2,
)

#: Counters the landing step derives from each attempt's outcome.
LANDING_COUNTERS = ("synthesis.failures", "retry.attempts", "synthesis.fallbacks")

SCHEDULES = {
    # One worker exception on block 0's first attempt; the retry lands.
    "raise@0:0": (FaultSpec("raise", 0, 0),),
    # A NaN-corrupted candidate that only validation catches.
    "nan@0:0": (FaultSpec("nan", 0, 0),),
    # Every attempt raises: every synthesized block falls back.
    "raise@*:0,raise@*:1": (
        FaultSpec("raise", None, 0),
        FaultSpec("raise", None, 1),
    ),
}


def _observe(specs, workers):
    sink = ListSink()
    result = run_quest(
        tfim(4, steps=1),
        QuestConfig(**CONFIG, workers=workers),
        fault_injector=FaultInjector(specs=specs),
        tracer=Tracer(sink),
    )
    counters = result.metrics["counters"]
    statuses: dict[int, list[tuple[int, str]]] = {}
    for record in sink.records:
        if record["type"] == "span" and record["name"] == "synthesis.block":
            attrs = record["attrs"]
            statuses.setdefault(attrs["block"], []).append(
                (attrs["attempt"], record["status"])
            )
    return {
        "failures": [
            (r.block_index, r.attempt, r.kind) for r in result.failure_log
        ],
        "counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(LANDING_COUNTERS)
        },
        "pools": [
            [
                (circuit_to_qasm(c.circuit), c.distance, c.cnot_count)
                for c in pool.candidates
            ]
            for pool in result.pools
        ],
        "spans": {block: sorted(seq) for block, seq in statuses.items()},
    }


@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_inline_and_pooled_attempts_land_identically(schedule):
    specs = SCHEDULES[schedule]
    inline = _observe(specs, workers=1)
    pooled = _observe(specs, workers=2)
    # Each schedule fires and is recorded before comparing the modes.
    assert inline["failures"], schedule
    assert inline["counters"]["synthesis.failures"] >= 1
    assert inline["failures"] == pooled["failures"]
    assert inline["counters"] == pooled["counters"]
    assert inline["pools"] == pooled["pools"]
    assert inline["spans"] == pooled["spans"]
