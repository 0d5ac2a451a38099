"""Tests for unitary utilities and the HS process distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_unitary
from repro.exceptions import ReproError
from repro.linalg import (
    closest_unitary,
    equal_up_to_global_phase,
    fidelity_from_distance,
    global_phase_between,
    hs_cost,
    hs_distance,
    hs_inner,
    is_unitary,
)


def test_hs_distance_zero_for_identical(rng):
    u = random_unitary(8, rng)
    assert hs_distance(u, u) < 1e-7


def test_hs_distance_phase_invariant(rng):
    u = random_unitary(4, rng)
    phase = np.exp(1j * 0.83)
    assert hs_distance(u, phase * u) < 1e-7


def test_hs_distance_range(rng):
    for _ in range(20):
        a, b = random_unitary(4, rng), random_unitary(4, rng)
        d = hs_distance(a, b)
        assert 0.0 <= d <= 1.0


def test_hs_distance_maximal_for_orthogonal():
    # Tr(Z^dag X) = 0, so X and Z are maximally distant.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert hs_distance(x, z) == pytest.approx(1.0)


def test_hs_cost_monotone_with_distance(rng):
    pairs = [
        (random_unitary(4, rng), random_unitary(4, rng)) for _ in range(10)
    ]
    costs = [hs_cost(a, b) for a, b in pairs]
    distances = [hs_distance(a, b) for a, b in pairs]
    order_by_cost = np.argsort(costs)
    order_by_distance = np.argsort(distances)
    assert list(order_by_cost) == list(order_by_distance)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ReproError):
        hs_inner(np.eye(2), np.eye(4))


def test_is_unitary(rng):
    assert is_unitary(random_unitary(8, rng))
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.eye(3)[:2])


def test_equal_up_to_global_phase(rng):
    u = random_unitary(4, rng)
    assert equal_up_to_global_phase(u, np.exp(1j * 1.234) * u)
    assert not equal_up_to_global_phase(u, random_unitary(4, rng))


def test_closest_unitary_projects(rng):
    u = random_unitary(4, rng)
    noisy = u + 0.01 * rng.normal(size=(4, 4))
    projected = closest_unitary(noisy)
    assert is_unitary(projected)
    assert np.linalg.norm(projected - u) < 0.1


def test_closest_unitary_fixed_point(rng):
    u = random_unitary(4, rng)
    assert np.allclose(closest_unitary(u), u, atol=1e-10)


def test_global_phase_between(rng):
    u = random_unitary(4, rng)
    phase = np.exp(1j * 0.5)
    recovered = global_phase_between(u, phase * u)
    assert np.isclose(recovered, phase)


def test_fidelity_from_distance():
    assert fidelity_from_distance(0.0) == pytest.approx(1.0)
    assert fidelity_from_distance(1.0) == pytest.approx(0.0)
    assert fidelity_from_distance(0.6) == pytest.approx(0.8)


def test_hs_distance_rejects_non_finite_input():
    # The [0, 1] clamp used to turn a NaN overlap into distance 0.0.
    poisoned = np.eye(2, dtype=complex)
    poisoned[0, 0] = np.nan
    with pytest.raises(ReproError, match="not finite"):
        hs_distance(poisoned, np.eye(2))


def test_fidelity_from_distance_rejects_non_finite_input():
    with pytest.raises(ReproError, match="not finite"):
        fidelity_from_distance(float("nan"))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hs_distance_symmetry(seed):
    gen = np.random.default_rng(seed)
    a, b = random_unitary(4, gen), random_unitary(4, gen)
    assert hs_distance(a, b) == pytest.approx(hs_distance(b, a), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hs_distance_unitary_invariance(seed):
    # d(WA, WB) == d(A, B): the metric is left-invariant.
    gen = np.random.default_rng(seed)
    a, b, w = (random_unitary(4, gen) for _ in range(3))
    assert hs_distance(w @ a, w @ b) == pytest.approx(
        hs_distance(a, b), abs=1e-9
    )
