"""Property-based tests for the certification layer.

Three invariants hold for *any* circuit pair, so we let hypothesis pick
the circuits: the independent exact path agrees with the production
metric to near machine precision, the stimulus lower bound never claims
more distance than actually exists, and the stimulus evidence is a pure
function of its seed.  The row-batched propagation is also checked
against one-state-at-a-time statevector references.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.verify.independent as independent
from repro.circuits import Circuit, random_circuit
from repro.linalg.unitary import hs_distance
from repro.sim.statevector import run_statevector
from repro.verify import (
    certify_equivalence,
    circuit_hs_distance,
    independent_unitary,
    stimulus_evidence,
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 5),
)
def test_independent_distance_matches_production_metric(seed, n, depth):
    """Exact HS agreement to 1e-10 between the two contraction paths."""
    a = random_circuit(n, depth, rng=seed)
    b = random_circuit(n, depth, rng=seed + 1)
    via_production = hs_distance(a.unitary(), b.unitary())
    via_certifier = circuit_hs_distance(a, b)
    assert abs(via_certifier - via_production) < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_stimulus_bound_never_exceeds_exact_distance(seed, n, depth):
    """Probing can only *under*-estimate distance, never overshoot it."""
    a = random_circuit(n, depth, rng=seed)
    b = random_circuit(n, depth, rng=seed + 7)
    exact = circuit_hs_distance(a, b)
    evidence = stimulus_evidence(
        a, b, haar_stimuli=8, basis_stimuli=4, rng=seed
    )
    assert evidence.distance_bound <= exact + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
)
def test_stimulus_evidence_is_deterministic_in_the_seed(seed, n):
    a = random_circuit(n, 3, rng=seed)
    b = random_circuit(n, 3, rng=seed + 13)
    first = stimulus_evidence(a, b, haar_stimuli=6, basis_stimuli=3, rng=seed)
    second = stimulus_evidence(a, b, haar_stimuli=6, basis_stimuli=3, rng=seed)
    assert first == second


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_a_circuit_always_certifies_against_itself(seed, n, depth):
    circuit = random_circuit(n, depth, rng=seed)
    report = certify_equivalence(circuit, circuit, budget=0.0)
    assert report.ok


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_independent_unitary_is_unitary(seed, n, depth):
    circuit = random_circuit(n, depth, rng=seed)
    matrix = independent_unitary(circuit)
    dim = 2**n
    assert np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=1e-10)


# ----------------------------------------------------------------------
# Batched propagation vs one-state-at-a-time references
# ----------------------------------------------------------------------
def _per_column_unitary(circuit: Circuit) -> np.ndarray:
    """Oracle: column ``k`` is one statevector run from basis state ``|k>``."""
    basis = np.eye(2**circuit.num_qubits, dtype=complex)
    return np.stack([run_statevector(circuit, state) for state in basis], axis=1)


def _per_state_overlaps(original, approximate, states):
    """Oracle for :func:`state_overlaps`: one pair of runs per stimulus."""
    return np.array(
        [
            abs(np.vdot(run_statevector(original, s), run_statevector(approximate, s)))
            for s in states
        ]
    )


def _with_pseudo_ops(circuit: Circuit, seed: int) -> Circuit:
    """Copy ``circuit`` with barriers and measurements interleaved."""
    rng = np.random.default_rng(seed)
    mixed = Circuit(circuit.num_qubits)
    for op in circuit.operations:
        mixed.append(op)
        roll = rng.random()
        if roll < 0.15:
            mixed.barrier()
        elif roll < 0.3:
            mixed.measure(int(rng.integers(circuit.num_qubits)))
    return mixed


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    depth=st.integers(1, 4),
)
def test_batched_unitary_matches_per_column_reference(seed, n, depth):
    circuit = _with_pseudo_ops(random_circuit(n, depth, rng=seed), seed)
    reference = _per_column_unitary(circuit)
    assert np.max(np.abs(independent_unitary(circuit) - reference)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    depth=st.integers(1, 4),
)
def test_batched_stimulus_evidence_matches_per_state_reference(seed, n, depth):
    a = _with_pseudo_ops(random_circuit(n, depth, rng=seed), seed)
    b = random_circuit(n, depth, rng=seed + 3)
    # Near distance 0 the sqrt in the estimates amplifies rounding, so
    # keep to pairs that are measurably apart.
    assume(circuit_hs_distance(a, b) > 1e-2)
    batched = stimulus_evidence(a, b, haar_stimuli=6, basis_stimuli=3, rng=seed)
    with mock.patch.object(independent, "state_overlaps", _per_state_overlaps):
        reference = stimulus_evidence(
            a, b, haar_stimuli=6, basis_stimuli=3, rng=seed
        )
    for field in ("distance_bound", "distance_estimate", "worst_deviation"):
        assert abs(getattr(batched, field) - getattr(reference, field)) <= 1e-12
