"""Independently re-derived equivalence primitives.

Everything here exists to *disagree* with the synthesis path when the
synthesis path is wrong, so the numerics are deliberately disjoint from
it:

* :func:`independent_unitary` rebuilds a circuit's unitary by pushing
  every basis state through the circuit as rows of one batch
  (:func:`repro.linalg.embed.apply_gate_to_states`, one call per
  operation), never touching the matrix accumulator in
  :mod:`repro.sim.unitary` that synthesis and validation use.
* :func:`independent_hs_distance` takes the Hilbert-Schmidt overlap as
  the trace of the explicit matrix product ``U^dag V`` instead of
  :func:`repro.linalg.unitary.hs_inner`'s elementwise contraction.
  Both are global-phase-canonical (only ``|Tr|`` enters), so the two
  paths must agree to float precision on correct inputs — and only
  there.

For circuits too wide to diff exactly, :func:`stimulus_evidence`
propagates Haar-random and computational-basis stimuli through both
circuits and derives two sound checks from the state overlaps:

* a **lower confidence bound** on the true HS distance, from the
  Haar identity ``E_psi |<psi|W|psi>|^2 = (|Tr W|^2 + N) / (N (N+1))``
  plus a Hoeffding deviation term — it exceeds a claimed budget only
  when the claim is violated (with probability ``1 - delta`` over the
  stimulus draw), and by construction it is never tighter than the
  exact distance;
* a **per-stimulus deviation cap**: if ``d(U, V) <= eps`` then every
  state satisfies ``1 - |<U psi, V psi>| <= N (1 - sqrt(1 - eps^2))``
  (via the Frobenius bound on the phase-aligned operator difference),
  so any single stimulus breaking the cap refutes the claim outright.

Every value that feeds a verdict is checked for NaN and infinity before
use (:func:`require_finite`): the distance formulas clamp
``1 - overlap^2`` at zero to absorb rounding, and that clamp would turn
a NaN into a distance of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import CertificationError
from repro.linalg.embed import apply_gate_to_states
from repro.metrics.tolerances import STIMULUS_CONFIDENCE_DELTA

#: Widths up to this get the exact unitary diff; wider circuits fall to
#: the random-stimulus regime.  The dense reconstruction is O(4^n) per
#: circuit, so the default stays well below the simulator's hard cap.
DEFAULT_MAX_EXACT_QUBITS = 10

#: Haar-random stimuli per stimulus-mode certification.
DEFAULT_HAAR_STIMULI = 24

#: Computational-basis stimuli per stimulus-mode certification (always
#: includes ``|0...0>``, the state every experiment starts from).
DEFAULT_BASIS_STIMULI = 8


def require_finite(values, operand: str) -> None:
    """Raise :class:`CertificationError` if ``values`` holds a NaN or inf."""
    if not np.all(np.isfinite(values)):
        raise CertificationError(
            f"NaN or infinity in {operand}; refusing to certify"
        )


def _propagate(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    """Evolve every row of a ``(B, 2^n)`` batch through ``circuit``'s gates."""
    num_qubits = circuit.num_qubits
    for op in circuit.operations:
        if op.name in ("measure", "barrier"):
            continue
        states = apply_gate_to_states(
            states, op.gate.matrix(), op.qubits, num_qubits
        )
    return states


def independent_unitary(circuit: Circuit) -> np.ndarray:
    """Rebuild a circuit's unitary by propagating every basis state at once.

    Row ``k`` of the identity is ``|k>``; once propagated it is column
    ``k`` of the unitary.  This is the certifier's own contraction path:
    it shares no code with :func:`repro.sim.unitary.circuit_unitary`
    beyond the single-gate application kernel, so an accumulation bug in
    either path surfaces as a disagreement instead of certifying itself.
    """
    return _propagate(circuit, np.eye(2**circuit.num_qubits, dtype=complex)).T


def independent_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized HS overlap ``|Tr(U^dag V)| / N`` via full matrix product.

    Raises :class:`CertificationError` if either operator or the overlap
    itself is not finite.
    """
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise CertificationError(
            f"cannot compare operators of shapes {u.shape} and {v.shape}"
        )
    require_finite(u, "operator U")
    require_finite(v, "operator V")
    product = u.conj().T @ v
    overlap = float(abs(np.trace(product))) / u.shape[0]
    require_finite(overlap, "HS overlap |Tr(U^dag V)| / N")
    return overlap


def independent_hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-canonical HS distance, certifier's own derivation."""
    overlap = independent_overlap(u, v)
    # The overlap is finite here; the clamp only absorbs rounding past 1.
    return math.sqrt(max(0.0, 1.0 - overlap * overlap))


def circuit_hs_distance(original: Circuit, approximate: Circuit) -> float:
    """Exact HS distance between two circuits, fully independent path."""
    if original.num_qubits != approximate.num_qubits:
        raise CertificationError(
            f"circuit widths differ: {original.num_qubits} vs "
            f"{approximate.num_qubits} qubits"
        )
    return independent_hs_distance(
        independent_unitary(original), independent_unitary(approximate)
    )


# ----------------------------------------------------------------------
# Stimulus regime
# ----------------------------------------------------------------------
def haar_states(
    num_qubits: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, 2^n)`` Haar-random pure states (normalized Ginibre rows)."""
    if count < 1:
        raise CertificationError("need at least one Haar stimulus")
    dim = 2**num_qubits
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def basis_states(
    num_qubits: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, 2^n)`` distinct computational-basis stimuli.

    Always includes ``|0...0>``; the rest are drawn without replacement.
    ``count`` is clipped to the dimension.
    """
    if count < 1:
        raise CertificationError("need at least one basis stimulus")
    dim = 2**num_qubits
    count = min(count, dim)
    indices = [0]
    if count > 1:
        others = rng.choice(dim - 1, size=count - 1, replace=False) + 1
        indices.extend(int(i) for i in others)
    states = np.zeros((count, dim), dtype=complex)
    states[np.arange(count), indices] = 1.0
    return states


def state_overlaps(
    original: Circuit, approximate: Circuit, states: np.ndarray
) -> np.ndarray:
    """``|<U psi_j, V psi_j>|`` for every stimulus row ``psi_j``."""
    evolved_original = _propagate(original, states)
    evolved_approx = _propagate(approximate, states)
    return np.abs(np.einsum("ij,ij->i", evolved_original.conj(), evolved_approx))


def per_state_deviation_cap(dim: int, epsilon: float) -> float:
    """Max honest per-stimulus infidelity ``1 - |<U psi, V psi>|``.

    If ``d(U, V) <= eps`` then with ``W = U^dag V`` and ``phi`` the phase
    of ``Tr W``::

        || (U - e^{i phi} V) psi ||  <=  || U - e^{i phi} V ||_F
                                      =  sqrt(2 N (1 - |Tr W| / N))
                                     <=  sqrt(2 N (1 - sqrt(1 - eps^2)))

    and ``1 - |<U psi, V psi>| = || (U - e^{i phi'} V) psi ||^2 / 2`` at
    the per-state optimal phase, which is no larger.  The cap is loose
    (the ``N`` factor is real), but it is *sound*: no honest circuit
    pair can break it, so a single stimulus that does refutes the claim.
    """
    require_finite(epsilon, "claimed epsilon")
    epsilon = min(max(float(epsilon), 0.0), 1.0)
    return dim * (1.0 - math.sqrt(max(0.0, 1.0 - epsilon * epsilon)))


@dataclass(frozen=True)
class StimulusEvidence:
    """What the stimulus probes established about ``d(U, V)``."""

    #: Number of Haar-random stimuli behind the confidence bound.
    haar_count: int
    #: Number of computational-basis stimuli probed.
    basis_count: int
    #: Lower confidence bound on the true HS distance: holds with
    #: probability at least ``1 - delta`` over the Haar draw, and is
    #: never tighter than the exact distance at that confidence.
    distance_bound: float
    #: Unbiased point estimate of the HS distance (reported, not gated).
    distance_estimate: float
    #: Largest per-stimulus infidelity ``1 - |<U psi, V psi>|`` seen,
    #: across Haar and basis stimuli.
    worst_deviation: float
    #: Failure-probability budget of the confidence bound.
    delta: float


def stimulus_evidence(
    original: Circuit,
    approximate: Circuit,
    *,
    haar_stimuli: int = DEFAULT_HAAR_STIMULI,
    basis_stimuli: int = DEFAULT_BASIS_STIMULI,
    rng: np.random.Generator | int | None = None,
    delta: float = STIMULUS_CONFIDENCE_DELTA,
) -> StimulusEvidence:
    """Probe two circuits with random stimuli and bound their distance.

    The Haar stimuli feed the confidence-bounded distance estimate; the
    basis stimuli (and the Haar ones) also feed ``worst_deviation`` for
    the per-state cap check.  Deterministic for a fixed ``rng`` seed.
    """
    if original.num_qubits != approximate.num_qubits:
        raise CertificationError(
            f"circuit widths differ: {original.num_qubits} vs "
            f"{approximate.num_qubits} qubits"
        )
    rng = np.random.default_rng(rng)
    num_qubits = original.num_qubits
    dim = 2**num_qubits

    haar = haar_states(num_qubits, haar_stimuli, rng)
    basis = basis_states(num_qubits, basis_stimuli, rng)
    overlaps = state_overlaps(
        original, approximate, np.concatenate([haar, basis])
    )
    require_finite(overlaps, "stimulus overlaps")
    haar_overlaps, basis_overlaps = np.split(overlaps, [len(haar)])

    # Haar identity: E |<psi|W|psi>|^2 = (|Tr W|^2 + N) / (N (N + 1)),
    # so the sample mean m gives |Tr W|^2 / N^2 ~= ((N+1) m - 1) / N.
    mean_sq = float(np.mean(haar_overlaps**2))
    deviation = math.sqrt(math.log(1.0 / delta) / (2.0 * len(haar_overlaps)))
    overlap_sq_estimate = min(max(((dim + 1) * mean_sq - 1.0) / dim, 0.0), 1.0)
    overlap_sq_upper = min(
        max(((dim + 1) * (mean_sq + deviation) - 1.0) / dim, 0.0), 1.0
    )
    distance_estimate = math.sqrt(max(0.0, 1.0 - overlap_sq_estimate))
    distance_bound = math.sqrt(max(0.0, 1.0 - overlap_sq_upper))

    worst = float(
        max(1.0 - haar_overlaps.min(), 1.0 - basis_overlaps.min())
    )
    return StimulusEvidence(
        haar_count=len(haar_overlaps),
        basis_count=len(basis_overlaps),
        distance_bound=distance_bound,
        distance_estimate=distance_estimate,
        worst_deviation=worst,
        delta=delta,
    )
