"""Unit tests for the independent certification layer (`repro.verify`)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit
from repro.core.pool import Candidate, exact_pool
from repro.exceptions import CertificationError, ValidationError
from repro.metrics.tolerances import INDEPENDENT_AGREEMENT_TOL
from repro.partition.blocks import CircuitBlock, stitch_blocks
from repro.partition.scan import scan_partition
from repro.resilience.validation import validate_candidate_unitary, validate_pool
from repro.sim import circuit_unitary
from repro.transpile.basis import lower_to_basis
from repro.verify import (
    BlockClaim,
    certify_equivalence,
    certify_result,
    circuit_hs_distance,
    claims_from_manifest,
    claims_to_manifest,
    independent_hs_distance,
    independent_unitary,
    stimulus_evidence,
)


# ----------------------------------------------------------------------
# Independent primitives
# ----------------------------------------------------------------------
def test_independent_unitary_matches_simulator_path(ghz3_circuit):
    rebuilt = independent_unitary(ghz3_circuit)
    assert np.allclose(rebuilt, circuit_unitary(ghz3_circuit), atol=1e-12)


def test_independent_unitary_ignores_measurements(bell_circuit):
    measured = bell_circuit.copy()
    measured.measure_all()
    assert np.allclose(
        independent_unitary(measured), independent_unitary(bell_circuit)
    )


def test_independent_hs_distance_rejects_shape_mismatch():
    with pytest.raises(CertificationError):
        independent_hs_distance(np.eye(2), np.eye(4))


def test_circuit_hs_distance_rejects_width_mismatch():
    with pytest.raises(CertificationError):
        circuit_hs_distance(Circuit(2), Circuit(3))


# ----------------------------------------------------------------------
# Work counts of the batched path (regression guards, no timing)
# ----------------------------------------------------------------------
def _exact_result(circuit: Circuit, members: int) -> SimpleNamespace:
    """A run-shaped result whose every member is the exact stitched circuit."""
    baseline = lower_to_basis(circuit)
    pools = [exact_pool(block) for block in scan_partition(baseline, 2)]
    stitched = stitch_blocks([pool.block for pool in pools], baseline.num_qubits)
    return SimpleNamespace(
        baseline=baseline,
        pools=pools,
        selection=SimpleNamespace(choices=[np.zeros(len(pools), int)] * members),
        circuits=[stitched] * members,
    )


def test_certify_result_derives_the_original_side_once(monkeypatch):
    import repro.verify.independent as independent

    result = _exact_result(random_circuit(4, 3, rng=2), members=8)
    rebuilt = []
    original = independent.independent_unitary

    def counting(circuit):
        rebuilt.append(circuit)
        return original(circuit)

    monkeypatch.setattr(independent, "independent_unitary", counting)
    reports = certify_result(result, block_qubits=2)

    assert len(reports) == 8 and all(report.ok for report in reports)
    blocks = [pool.block.circuit for pool in result.pools]
    # Baseline and each original block once, then per member: each
    # approximate block and the whole approximate circuit.
    assert len(rebuilt) == 1 + len(blocks) + 8 * (len(blocks) + 1)
    assert rebuilt[0].operations == result.baseline.operations
    assert [c.operations for c in rebuilt[1 : 1 + len(blocks)]] == [
        block.operations for block in blocks
    ]


def test_independent_unitary_applies_each_operation_once(monkeypatch):
    import repro.verify.independent as independent

    circuit = random_circuit(5, 3, rng=4)
    gates = len(circuit.operations)
    circuit.barrier()
    circuit.measure_all()
    calls = []
    original = independent.apply_gate_to_states

    def counting(states, *args):
        calls.append(states.shape)
        return original(states, *args)

    monkeypatch.setattr(independent, "apply_gate_to_states", counting)
    independent_unitary(circuit)
    assert calls == [(32, 32)] * gates


# ----------------------------------------------------------------------
# Claims and manifests
# ----------------------------------------------------------------------
def _sample_claims():
    return [
        BlockClaim(index=0, qubits=(0, 1), op_count=3, epsilon=0.05),
        BlockClaim(index=1, qubits=(1, 2), op_count=2, epsilon=0.0),
    ]


def test_manifest_round_trip():
    claims = _sample_claims()
    manifest = claims_to_manifest(claims, block_qubits=2)
    block_qubits, recovered = claims_from_manifest(manifest)
    assert block_qubits == 2
    assert recovered == claims


def test_manifest_rejects_bad_version():
    manifest = claims_to_manifest(_sample_claims(), block_qubits=2)
    manifest["version"] = 99
    with pytest.raises(CertificationError):
        claims_from_manifest(manifest)


def test_manifest_rejects_tampered_total():
    manifest = claims_to_manifest(_sample_claims(), block_qubits=2)
    manifest["total_epsilon"] = 0.001  # understated sum
    with pytest.raises(CertificationError):
        claims_from_manifest(manifest)


def test_manifest_rejects_missing_fields():
    with pytest.raises(CertificationError):
        claims_from_manifest({"version": 1, "block_qubits": 2})
    with pytest.raises(CertificationError):
        claims_from_manifest([1, 2, 3])


def test_block_claim_validates_itself():
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(1, 0), op_count=1, epsilon=0.0)
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(0,), op_count=-1, epsilon=0.0)
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(0,), op_count=1, epsilon=float("nan"))


# ----------------------------------------------------------------------
# certify_equivalence
# ----------------------------------------------------------------------
def test_identical_circuits_certify_at_zero_budget(ghz3_circuit):
    report = certify_equivalence(ghz3_circuit, ghz3_circuit, budget=0.0)
    assert report.ok
    assert report.regime == "exact"
    # sqrt(1 - |overlap|^2) amplifies float noise to ~1e-8 at zero
    assert report.measured_distance == pytest.approx(0.0, abs=1e-7)
    assert report.first_failed_block is None


def test_distinct_circuits_violate_a_tight_budget(ghz3_circuit):
    other = random_circuit(3, 3, rng=5)
    report = certify_equivalence(ghz3_circuit, other, budget=1e-3)
    assert not report.ok
    assert report.failures


def test_width_mismatch_is_structural(bell_circuit, ghz3_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(bell_circuit, ghz3_circuit, budget=1.0)


def test_missing_budget_and_claims_is_structural(bell_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(bell_circuit, bell_circuit)


def test_claims_without_block_qubits_is_structural(bell_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(
            bell_circuit, bell_circuit, _sample_claims()
        )


def test_claims_that_mismatch_the_partition_are_structural(ghz3_circuit):
    claims = [BlockClaim(index=0, qubits=(0, 1, 2), op_count=3, epsilon=0.5)]
    # GHZ-3 partitions into two 2-qubit blocks at width 2, not one
    # 3-qubit block.
    with pytest.raises(CertificationError):
        certify_equivalence(
            ghz3_circuit, ghz3_circuit, claims, block_qubits=2
        )


def test_stimulus_regime_certifies_honest_pair(ghz3_circuit):
    report = certify_equivalence(
        ghz3_circuit,
        ghz3_circuit,
        budget=0.0,
        max_exact_qubits=1,
        rng=0,
    )
    assert report.ok
    assert report.regime == "stimulus"
    assert report.measured_distance is None
    assert report.stimulus is not None
    assert report.stimulus.distance_bound == pytest.approx(0.0, abs=1e-9)


def test_stimulus_regime_refutes_a_false_claim(ghz3_circuit):
    other = random_circuit(3, 4, rng=11)
    exact = circuit_hs_distance(ghz3_circuit, other)
    assert exact > 0.1  # the pair is far apart
    report = certify_equivalence(
        ghz3_circuit,
        other,
        budget=1e-4,
        max_exact_qubits=1,
        rng=0,
    )
    assert not report.ok


def test_stimulus_bound_is_deterministic(ghz3_circuit):
    other = random_circuit(3, 4, rng=11)
    first = stimulus_evidence(ghz3_circuit, other, rng=42)
    second = stimulus_evidence(ghz3_circuit, other, rng=42)
    assert first == second


def test_report_to_dict_is_json_ready(ghz3_circuit):
    import json

    report = certify_equivalence(
        ghz3_circuit, ghz3_circuit, budget=0.0, max_exact_qubits=1, rng=0
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["regime"] == "stimulus"
    assert payload["stimulus"]["haar_count"] > 0


# ----------------------------------------------------------------------
# Independent candidate validation (the resilience seam)
# ----------------------------------------------------------------------
def _tampered_pool():
    """A pool whose candidate unitary was replaced by a *different*
    unitary, close enough to pass every plain health check."""
    block_circuit = Circuit(2)
    block_circuit.h(0)
    block_circuit.cx(0, 1)
    block_circuit.rz(0.4, 1)
    block = CircuitBlock(index=0, qubits=(0, 1), circuit=block_circuit)
    pool = exact_pool(block)
    honest = pool.candidates[0]
    # A tiny extra rotation: the matrix stays exactly unitary and its
    # distance to the target moves by far less than the health-check
    # tolerance, but it is no longer the unitary of the circuit.
    drift = np.diag(np.exp(1j * np.array([0.0, 5e-8, 5e-8, 1e-7])))
    pool.candidates[0] = Candidate(
        circuit=honest.circuit,
        unitary=drift @ honest.unitary,
        distance=honest.distance,
        cnot_count=honest.cnot_count,
    )
    return pool


def test_plain_validation_misses_a_tampered_unitary():
    validate_pool(_tampered_pool())  # passes: still unitary, distance ok


def test_independent_validation_catches_a_tampered_unitary():
    with pytest.raises(ValidationError, match="independently rebuilt"):
        validate_pool(_tampered_pool(), independent=True)


def test_independent_validation_accepts_honest_pools():
    block_circuit = Circuit(2)
    block_circuit.h(0)
    block_circuit.cx(0, 1)
    block = CircuitBlock(index=0, qubits=(0, 1), circuit=block_circuit)
    validate_pool(exact_pool(block), independent=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_independent_validation_rejects_a_non_finite_rebuild():
    # A NaN disagreement compares False against the tolerance, so an
    # overflowing angle used to pass against a finite recorded unitary.
    pool = exact_pool(CircuitBlock(index=0, qubits=(0,), circuit=Circuit(1)))
    honest = pool.candidates[0]
    # The IR refuses a non-finite angle at construction; a corrupt
    # unpickled artifact skips that check, so forge the gate that way.
    overflowing = Circuit(1)
    overflowing.rz(0.0, 0)
    object.__setattr__(overflowing.operations[0].gate, "params", (float("1e309"),))
    with pytest.raises(ValidationError, match="non-finite"):
        validate_candidate_unitary(
            honest.unitary,
            pool.original_unitary,
            honest.distance,
            label="overflow",
            circuit=overflowing,
            independent=True,
        )


def test_tampering_is_above_the_agreement_tolerance():
    pool = _tampered_pool()
    rebuilt = independent_unitary(pool.candidates[0].circuit)
    drift = float(np.max(np.abs(rebuilt - pool.candidates[0].unitary)))
    assert drift > INDEPENDENT_AGREEMENT_TOL
