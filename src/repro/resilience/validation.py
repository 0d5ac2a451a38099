"""Health checks for synthesis candidates.

Every candidate set that enters a pool crosses a trust boundary: it came
back from a worker process, the content-addressed disk cache, or a run
checkpoint.  A crashed worker, a bit-flipped cache file that slipped
past its checksum, or a non-converging optimizer can all hand the
pipeline data that *parses* fine but is numerically garbage — and a
garbage candidate silently poisons every downstream selection.

``validate_solutions`` / ``validate_pool`` therefore check, for each
candidate:

* **finiteness** — no NaN/Inf in the recorded distance or the circuit's
  unitary;
* **unitarity** — ``U^dag U = I`` to ``unitarity_tol`` (a circuit built
  from rotation gates is unitary by construction, so any violation means
  corrupted parameters or a corrupted matrix);
* **distance consistency** — the HS distance recomputed from the
  circuit agrees with the recorded one to ``distance_tol``.

With ``independent=True`` the checks harden into *certification*: each
candidate's unitary is additionally rebuilt through the certifier's own
contraction path (:mod:`repro.verify.independent`, which
shares no accumulation code with the recorded artifacts) and must agree
elementwise with the stored matrix, and the HS distance re-derived along
that independent path must agree with the recorded one.  The plain
checks accept any matrix that is *a* unitary at the recorded distance;
the independent ones accept only the unitary the candidate's circuit
actually implements.

Failures raise :class:`~repro.exceptions.ValidationError`; the executor
quarantines the offending set (records a failure, retries or falls
back) instead of admitting it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.linalg.unitary import hs_distance
from repro.metrics.tolerances import (
    DISTANCE_CONSISTENCY_TOL,
    INDEPENDENT_AGREEMENT_TOL,
    POOL_UNITARY_MATCH_TOL,
    PTM_CP_TOL,
    PTM_TRACE_PRESERVATION_TOL,
    UNITARITY_TOL,
)
from repro.verify.independent import (
    independent_hs_distance,
    independent_unitary,
)

#: Historical aliases; the canonical values live in
#: :mod:`repro.metrics.tolerances` so every layer shares one definition.
DEFAULT_UNITARITY_TOL = UNITARITY_TOL
DEFAULT_DISTANCE_TOL = DISTANCE_CONSISTENCY_TOL


def _unitarity_defect(unitary: np.ndarray) -> float:
    """Max elementwise |U^dag U - I| (inf for non-finite input)."""
    if not np.all(np.isfinite(unitary)):
        return float("inf")
    dim = unitary.shape[0]
    gram = unitary.conj().T @ unitary
    return float(np.max(np.abs(gram - np.eye(dim))))


def validate_candidate_unitary(
    unitary: np.ndarray,
    target: np.ndarray,
    recorded_distance: float,
    *,
    label: str,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
    circuit=None,
    independent: bool = False,
) -> None:
    """Validate one candidate unitary against its target block unitary.

    With ``independent=True`` (and the candidate's ``circuit``), the
    unitary is also rebuilt through the certifier's independent
    contraction path and both the matrix and its distance must agree
    with the recorded artifacts — the check that catches a matrix which
    is still perfectly unitary but no longer the circuit's.
    """
    if not np.isfinite(recorded_distance):
        raise ValidationError(f"{label}: recorded distance is not finite")
    if not np.all(np.isfinite(unitary)):
        raise ValidationError(f"{label}: unitary contains non-finite entries")
    defect = _unitarity_defect(unitary)
    if defect > unitarity_tol:
        raise ValidationError(
            f"{label}: unitarity defect {defect:.3e} exceeds "
            f"tolerance {unitarity_tol:.1e}"
        )
    try:
        recomputed = hs_distance(unitary, target)
    except ReproError as exc:
        raise ValidationError(f"{label}: recomputed HS distance: {exc}") from exc
    if abs(recomputed - recorded_distance) > distance_tol:
        raise ValidationError(
            f"{label}: recomputed HS distance {recomputed:.6e} disagrees "
            f"with recorded {recorded_distance:.6e} "
            f"(tolerance {distance_tol:.1e})"
        )
    if independent and circuit is not None:
        rebuilt = independent_unitary(circuit)
        # A NaN disagreement compares False against any tolerance.
        if not np.all(np.isfinite(rebuilt)):
            raise ValidationError(
                f"{label}: independently rebuilt unitary contains "
                f"non-finite entries"
            )
        disagreement = float(np.max(np.abs(rebuilt - unitary)))
        if disagreement > INDEPENDENT_AGREEMENT_TOL:
            raise ValidationError(
                f"{label}: recorded unitary disagrees with the "
                f"independently rebuilt one by {disagreement:.3e} "
                f"(tolerance {INDEPENDENT_AGREEMENT_TOL:.1e})"
            )
        rederived = independent_hs_distance(rebuilt, target)
        if abs(rederived - recorded_distance) > distance_tol:
            raise ValidationError(
                f"{label}: independently re-derived HS distance "
                f"{rederived:.6e} disagrees with recorded "
                f"{recorded_distance:.6e} (tolerance {distance_tol:.1e})"
            )


def validate_ptm(
    ptm: np.ndarray,
    arity: int,
    *,
    label: str = "PTM",
    trace_tol: float = PTM_TRACE_PRESERVATION_TOL,
    cp_tol: float = PTM_CP_TOL,
) -> None:
    """Health-check a compiled Pauli-transfer matrix.

    A PTM crosses the same kind of trust boundary as a synthesis
    candidate: it is cached content, and every downstream distribution
    is a linear function of it.  The checks are the two physicality
    invariants any Pauli-channel-after-unitary PTM must satisfy:

    * **trace preservation** — the first row is ``e_0`` (``Tr(rho)`` is
      conserved);
    * **complete positivity** — the Choi matrix is Hermitian and
      positive semidefinite to eigensolver rounding.

    Failures raise :class:`~repro.exceptions.ValidationError`, keeping a
    corrupted cache entry or a doctored channel out of the evolution
    loop the same way candidate quarantine keeps bad pools out of
    selection.
    """
    # Imported lazily: repro.noise.ptm calls back into this module on
    # compile-cache misses, so a module-level import would be circular.
    from repro.noise.ptm import choi_matrix, trace_preservation_defect

    dim = 4**arity
    if ptm.shape != (dim, dim):
        raise ValidationError(
            f"{label}: shape {ptm.shape} is not ({dim}, {dim})"
        )
    if not np.all(np.isfinite(ptm)):
        raise ValidationError(f"{label}: contains non-finite entries")
    defect = trace_preservation_defect(ptm)
    if defect > trace_tol:
        raise ValidationError(
            f"{label}: trace-preservation defect {defect:.3e} exceeds "
            f"tolerance {trace_tol:.1e}"
        )
    choi = choi_matrix(ptm, arity)
    hermiticity = float(np.max(np.abs(choi - choi.conj().T)))
    if hermiticity > cp_tol:
        raise ValidationError(
            f"{label}: Choi matrix Hermiticity defect {hermiticity:.3e} "
            f"exceeds tolerance {cp_tol:.1e}"
        )
    min_eigenvalue = float(
        np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).min()
    )
    if min_eigenvalue < -cp_tol:
        raise ValidationError(
            f"{label}: Choi matrix eigenvalue {min_eigenvalue:.3e} breaks "
            f"complete positivity (tolerance {cp_tol:.1e})"
        )


def validate_solutions(
    target: np.ndarray,
    solutions,
    *,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
    independent: bool = False,
) -> None:
    """Validate a worker's / the cache's raw LEAP solution list.

    Raises :class:`ValidationError` naming the first offending solution;
    an empty list is valid (the pool degenerates to the exact block).
    """
    if not isinstance(solutions, list):
        raise ValidationError(
            f"solution payload is {type(solutions).__name__}, expected list"
        )
    for position, solution in enumerate(solutions):
        label = f"solution {position} (cnots={solution.cnot_count})"
        validate_candidate_unitary(
            solution.circuit.unitary(),
            target,
            solution.distance,
            label=label,
            unitarity_tol=unitarity_tol,
            distance_tol=distance_tol,
            circuit=solution.circuit,
            independent=independent,
        )


def validate_pool(
    pool,
    *,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
    independent: bool = False,
) -> None:
    """Validate an assembled :class:`BlockPool` (e.g. from a checkpoint).

    Checks the stored original unitary against the block circuit it
    claims to represent, then every candidate against it.
    """
    if not pool.candidates:
        raise ValidationError("pool has no candidates (not even the exact block)")
    target = pool.original_unitary
    if not np.all(np.isfinite(target)):
        raise ValidationError("pool original unitary contains non-finite entries")
    if _unitarity_defect(target) > unitarity_tol:
        raise ValidationError("pool original unitary is not unitary")
    if not np.allclose(target, pool.block.unitary(), atol=POOL_UNITARY_MATCH_TOL):
        raise ValidationError(
            "pool original unitary disagrees with its block circuit"
        )
    for position, candidate in enumerate(pool.candidates):
        label = f"candidate {position} (cnots={candidate.cnot_count})"
        validate_candidate_unitary(
            candidate.unitary,
            target,
            candidate.distance,
            label=label,
            unitarity_tol=unitarity_tol,
            distance_tol=distance_tol,
            circuit=candidate.circuit,
            independent=independent,
        )
