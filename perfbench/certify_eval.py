"""Workload ``certify_eval``: the paper's Sec. 5 evaluation loop.

The inputs are QUEST ensembles of 5-7-qubit spin-chain circuits,
compiled during set-up.  The timed pass, per ensemble: certifies every
approximation against its claims (``certify_result``, exact regime),
evaluates the ensemble under 1% Pauli noise with the default ``auto``
engine (density matrices at these widths) against the ideal output,
and, for 5-qubit circuits, runs each approximation through the Manila
``transpile`` + ``run_density`` path.  The verify and noise layers do
all the work here and none in the other two workloads.

The seed draws each circuit's ``dt`` from a narrow band at which QUEST
finds full 8-member ensembles, so every seed evaluates the same amount
of work on different circuits.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import time

import numpy as np

from common import NOISE_LEVEL, SERVICE_CONFIG, Checks, PassResult

_clock = time.perf_counter

#: (family, spins, Trotter steps) of every input circuit.
SHAPES = (
    ("heisenberg", 5, 2),
    ("xy_model", 6, 2),
    ("xy_model", 7, 1),
)
DT_BAND = (0.035, 0.045)
#: Input compile config: the service's 2-qubit-block synthesis with a
#: tighter per-block threshold and full 8-member ensembles.
INPUT_CONFIG = dict(SERVICE_CONFIG, max_samples=8, threshold_per_block=0.1)
MANILA_QUBITS = 5
#: Largest PTM-vs-density disagreement the output check accepts.
ENGINE_AGREEMENT = 1e-10


class CertifyEval:
    #: Nominal seconds of one pass; ``--seconds`` sets the pass count.
    pass_seconds = 10.0
    #: Every pass evaluates the same ensembles, one at a time.
    same_ops_each_pass = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from repro import QuestConfig, algorithms, run_quest
        from repro.noise import NoiseModel, fake_manila
        from repro.verify.certifier import certify_result

        rng = np.random.default_rng(self.seed)
        config = QuestConfig(**INPUT_CONFIG)
        self.inputs = {}
        for family, spins, steps in SHAPES:
            dt = float(rng.uniform(*DT_BAND))
            circuit = getattr(algorithms, family)(spins, steps=steps, dt=dt)
            self.inputs[f"{family}_{spins}"] = run_quest(circuit, config)
        self.block_qubits = config.max_block_qubits
        self.noise = NoiseModel.from_noise_level(NOISE_LEVEL)
        self.manila = fake_manila()
        # Warm-up: first-call costs of the verify and noise paths.
        warm = run_quest(algorithms.tfim(3, steps=1), config)
        certify_result(warm, block_qubits=self.block_qubits)
        warm.noisy_ensemble(self.noise)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _manila(self, circuit):
        """Noisy logical output of one circuit on the fake Manila device."""
        import repro.noise as noise
        from repro.sim.readout import logical_distribution

        # ``repro.transpile`` as an attribute is the function the package
        # re-exports; the module itself is where callers resolve it.
        transpile = importlib.import_module("repro.transpile")

        prepared = circuit.copy()
        prepared.measure_all()
        compiled = transpile.transpile(
            prepared, backend=self.manila, optimization_level=2, rng=0
        )
        physical = noise.run_density(compiled.circuit, self.manila.noise)
        return logical_distribution(compiled.circuit, physical)[: 2**circuit.num_qubits]

    def timed_pass(self, recorder=None) -> PassResult:
        import repro.sim.statevector as statevector
        import repro.verify.certifier as certifier
        from repro.metrics import average_distributions, tvd

        outputs = {}
        seconds = {}
        start = _clock()
        for name, result in self.inputs.items():
            scope = (
                recorder.span("bench.ensemble", job=name)
                if recorder is not None
                else contextlib.nullcontext()
            )
            begin = _clock()
            with scope:
                reports = certifier.certify_result(
                    result,
                    block_qubits=self.block_qubits,
                    seed=INPUT_CONFIG["seed"],
                )
                ideal = statevector.ideal_distribution(result.baseline)
                noisy = result.noisy_ensemble(self.noise)
                manila = None
                if result.baseline.num_qubits == MANILA_QUBITS:
                    manila = average_distributions(
                        [self._manila(c) for c in result.circuits]
                    )
            seconds[name] = _clock() - begin
            outputs[name] = {
                "reports": reports,
                "noisy": noisy,
                "tvd": tvd(ideal, noisy),
                "manila": manila,
            }
        wall = _clock() - start

        digest = hashlib.sha256()
        for name, out in outputs.items():
            digest.update(json.dumps([
                name,
                [report.ok for report in out["reports"]],
                out["noisy"].round(12).tolist(),
                None if out["manila"] is None else out["manila"].round(12).tolist(),
            ]).encode())
        return PassResult(
            wall_seconds=wall,
            ops=seconds,
            cnot_reduction=float(
                np.mean([r.cnot_reduction for r in self.inputs.values()])
            ),
            digest=digest.hexdigest(),
            counts={
                "verify.certified": sum(
                    len(out["reports"]) for out in outputs.values()
                ),
            },
            detail={"outputs": outputs},
        )

    def check(self, outcome: PassResult, checks: Checks) -> float:
        """Check verdicts and engines; return the mean ensemble TVD."""
        tvds = []
        for name, out in outcome.detail["outputs"].items():
            result = self.inputs[name]
            checks.expect(
                not result.synthesis_fallbacks
                and not result.failure_log
                and len(result.circuits) == INPUT_CONFIG["max_samples"],
                f"{name}: input compile fell back, failed or lost members",
            )
            for index, report in enumerate(out["reports"]):
                checks.expect(report.ok, f"{name}: approx {index} VIOLATED")
            ptm = result.noisy_ensemble(self.noise, engine="ptm")
            gap = float(np.max(np.abs(ptm - out["noisy"])))
            checks.expect(
                gap <= ENGINE_AGREEMENT,
                f"{name}: PTM and density ensembles differ by {gap:.3e}",
            )
            for label in ("noisy", "manila"):
                dist = out[label]
                if dist is not None:
                    checks.expect(
                        bool(np.all(np.isfinite(dist)))
                        and abs(float(dist.sum()) - 1.0) < 1e-9,
                        f"{name}: {label} output is not a distribution",
                    )
            tvds.append(out["tvd"])
        return float(np.mean(tvds))
