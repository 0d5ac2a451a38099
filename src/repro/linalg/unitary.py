"""Unitary matrix utilities and the Hilbert-Schmidt process distance.

The Hilbert-Schmidt (HS) distance is QUEST's process-distance metric
(paper Sec. 2)::

    d(U, V) = sqrt(1 - |Tr(U^dag V)|^2 / N^2)

It is invariant to global phase, ranges over [0, 1], and 0 means the two
unitaries implement the same physical transformation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ReproError


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Check ``U^dag U == I`` within tolerance."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def hs_inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr(U^dag V)``."""
    if u.shape != v.shape:
        raise ReproError(f"shape mismatch {u.shape} vs {v.shape}")
    # Tr(U^dag V) = sum(conj(U) * V), avoiding the full matrix product.
    return complex(np.sum(u.conj() * v))


def hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant HS process distance in ``[0, 1]`` (paper Sec. 2)."""
    dim = u.shape[0]
    overlap = abs(hs_inner(u, v)) / dim
    # The clamp absorbs rounding past 1; it must never turn NaN into 0.
    if not math.isfinite(overlap):
        raise ReproError(f"HS overlap is not finite ({overlap})")
    return math.sqrt(max(0.0, 1.0 - overlap * overlap))


def hs_cost(u: np.ndarray, v: np.ndarray) -> float:
    """Synthesis cost function ``1 - |Tr(U^dag V)| / N``, in ``[0, 1]``.

    Monotone with :func:`hs_distance` and better conditioned near zero,
    which is why LEAP-style optimizers minimize it instead of the distance.
    """
    dim = u.shape[0]
    return 1.0 - abs(hs_inner(u, v)) / dim


def equal_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, atol: float = 1e-8
) -> bool:
    """Whether two unitaries differ only by a global phase."""
    if u.shape != v.shape:
        return False
    overlap = hs_inner(u, v)
    if abs(overlap) < atol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(u * phase, v, atol=atol))


def closest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Project a matrix onto the unitary group (polar decomposition)."""
    left, _, right = np.linalg.svd(matrix)
    return left @ right


def global_phase_between(u: np.ndarray, v: np.ndarray) -> complex:
    """Return phase ``p`` minimizing ``||p*U - V||_F`` (unit modulus)."""
    overlap = hs_inner(u, v)
    if abs(overlap) == 0.0:
        return 1.0 + 0.0j
    return overlap / abs(overlap)


def fidelity_from_distance(distance: float) -> float:
    """Convert an HS distance to the corresponding process overlap."""
    if not math.isfinite(distance):
        raise ReproError(f"HS distance is not finite ({distance})")
    return math.sqrt(max(0.0, 1.0 - distance * distance))
