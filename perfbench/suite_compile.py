"""Workload ``suite_compile``: one cold pass over the Table-1 suite.

The nine bench-suite circuits are compiled one at a time at
``BENCH_CONFIG`` with ``workers=1`` and a fresh in-memory cache per
circuit.  Their 3-qubit blocks are all unique, so synthesis (LEAP and
the instantiation kernel) does nearly all the work and the cache,
store and service layers almost none: a synthesis change shows here,
and an orchestration change is predicted not to move it.

Its latency metrics are over blocks, not circuits: the synthesis
seconds of every non-trivial block (``timings.block_synthesis_seconds``),
pooled over the run's passes.  Nine circuits leave no percentile with
ten samples beyond it, while 22 blocks a pass do.

The circuits are those of ``benchmarks/conftest.py:bench_suite``: its
random instances (HLF, QAOA, VQE) come from the fixed rng seed 2022, so
the suite and its work are the same for every run.  The benchmark seed
sets the order the circuits compile in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time

import numpy as np

from common import NOISE_LEVEL, SUITE_CONFIG, Checks, PassResult, geometric_mean

_clock = time.perf_counter


#: Seed of the suite's random instances in ``bench_suite``.
SUITE_RNG_SEED = 2022


def build_suite(seed: int) -> dict:
    """The nine bench-suite circuits, in an order drawn from ``seed``."""
    from repro.algorithms import (
        adder,
        heisenberg,
        multiplier,
        qft,
        random_hlf,
        random_qaoa,
        tfim,
        vqe_ansatz,
        xy_model,
    )

    rng = np.random.default_rng(SUITE_RNG_SEED)
    suite = {
        "adder_4": adder(1),
        "heisenberg_4": heisenberg(4, steps=2),
        "hlf_4": random_hlf(4, rng=rng),
        "qft_4": qft(4),
        "qaoa_4": random_qaoa(4, rounds=1, rng=rng),
        "multiplier_6": multiplier(1),
        "tfim_4": tfim(4, steps=2),
        "vqe_4": vqe_ansatz(4, layers=2, rng=rng),
        "xy_4": xy_model(4, steps=2),
    }
    names = list(suite)
    order = np.random.default_rng(seed).permutation(len(names))
    return {names[int(i)]: suite[names[int(i)]] for i in order}


def _counter(result, name: str) -> int:
    return int(result.metrics.get("counters", {}).get(name, 0))


class SuiteCompile:
    #: Nominal seconds of one pass; ``--seconds`` sets the pass count.
    pass_seconds = 12.0
    #: Every pass compiles the same circuits, one at a time.
    same_ops_each_pass = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from repro import QuestConfig, run_quest
        from repro.algorithms import tfim

        self.circuits = build_suite(self.seed)
        self.config = QuestConfig(**SUITE_CONFIG)
        # Warm-up outside the suite: first-call costs of numpy/scipy.
        run_quest(tfim(2, steps=1), self.config)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def timed_pass(self, recorder=None) -> PassResult:
        import repro.core.quest as quest
        from repro.circuits import circuit_to_qasm

        results = {}
        seconds = {}
        start = _clock()
        for name, circuit in self.circuits.items():
            scope = (
                recorder.span("bench.circuit", job=name)
                if recorder is not None
                else contextlib.nullcontext()
            )
            begin = _clock()
            with scope:
                results[name] = quest.run_quest(circuit, self.config)
            seconds[name] = _clock() - begin
        wall = _clock() - start

        digest = hashlib.sha256()
        for name, result in results.items():
            digest.update(json.dumps([
                name,
                [[int(i) for i in choice] for choice in result.selection.choices],
                [circuit_to_qasm(c) for c in result.circuits],
            ]).encode())
        counts = {
            "cache.hits": sum(r.cache_hits for r in results.values()),
            "cache.misses": sum(r.cache_misses for r in results.values()),
            "dedup.joins": sum(r.dedup_joins for r in results.values()),
            "partition.blocks": sum(len(r.blocks) for r in results.values()),
            "synthesis.instantiate_starts": sum(
                _counter(r, "instantiate.starts") for r in results.values()
            ),
        }
        return PassResult(
            wall_seconds=wall,
            ops=seconds,
            cnot_reduction=float(
                np.mean([r.cnot_reduction for r in results.values()])
            ),
            digest=digest.hexdigest(),
            counts=counts,
            detail={"results": results, "seconds": seconds},
            latencies=[
                seconds
                for result in results.values()
                for seconds in result.timings.block_synthesis_seconds
                if seconds > 0
            ],
        )

    def check(self, outcome: PassResult, checks: Checks) -> float:
        """Certify every approximation; return the mean ensemble TVD."""
        import repro.verify.certifier as certifier
        from repro.metrics import tvd
        from repro.noise import NoiseModel
        from repro.sim.statevector import ideal_distribution

        noise = NoiseModel.from_noise_level(NOISE_LEVEL)
        tvds = []
        for name, result in outcome.detail["results"].items():
            checks.expect(
                not result.synthesis_fallbacks
                and not result.failure_log
                and _counter(result, "leap.budget_exhausted") == 0,
                f"{name}: synthesis fell back, failed or hit its budget",
            )
            reports = certifier.certify_result(
                result,
                block_qubits=self.config.max_block_qubits,
                seed=self.config.seed,
            )
            for index, report in enumerate(reports):
                checks.expect(report.ok, f"{name}: approx {index} VIOLATED")
            tvds.append(
                tvd(ideal_distribution(result.baseline),
                    result.noisy_ensemble(noise))
            )
        return float(np.mean(tvds))

    def rows(
        self, outcome: PassResult, seconds: dict, kernel_evals: dict | None
    ) -> list[str]:
        """One line per circuit: seconds, blocks, CNOTs, kernel evals."""
        lines = [
            f"{'circuit':<14}{'seconds':>9}{'blocks':>8}{'cnots':>7}"
            f"{'->':>4}{'mean':>7}{'kernel_evals':>14}"
        ]
        results = outcome.detail["results"]
        for name, result in results.items():
            evals = "-" if kernel_evals is None else str(kernel_evals.get(name, 0))
            lines.append(
                f"{name:<14}{seconds[name]:>9.3f}{len(result.blocks):>8}"
                f"{result.original_cnot_count:>7}{'':>4}"
                f"{float(np.mean(result.cnot_counts)):>7.2f}{evals:>14}"
            )
        lines.append(
            "geomean circuit seconds "
            f"{geometric_mean(list(seconds.values())):.4f}"
        )
        return lines
