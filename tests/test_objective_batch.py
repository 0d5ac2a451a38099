"""Property tests: batched selection objective vs. the frozen seed scalar.

The vectorized selection layer (padded gather tables, einsum similarity
construction, ``evaluate_batch``) must reproduce the pre-vectorization
implementation *exactly*.  This module freezes that seed implementation —
per-block Python loops, ``hs_distance`` pair loops, per-prior similarity
loops, left-to-right Python sums — and asserts elementwise equality on
randomized pools.

Exactness note: the generators draw distances as multiples of 1/64 and
thresholds as multiples of 1/128, and keep ``num_blocks`` and the
selected-set size below 8.  Sums of such values are exact in float64 and
numpy's reduction is bitwise identical to a left-to-right Python sum for
fewer than 8 addends, so every comparison below is ``==``, not
``approx`` — reduction-order is genuinely preserved at these sizes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, random_unitary
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.core.similarity import are_similar
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock


# ----------------------------------------------------------------------
# Frozen seed implementation (pre-vectorization)
# ----------------------------------------------------------------------

def seed_tables(
    candidate_unitaries: list[list[np.ndarray]],
    original_unitaries: list[np.ndarray],
) -> list[np.ndarray]:
    """The seed's O(count^2) scalar similarity-table construction."""
    tables = []
    for candidates, original in zip(candidate_unitaries, original_unitaries):
        count = len(candidates)
        to_original = np.array(
            [hs_distance(c, original) for c in candidates]
        )
        table = np.zeros((count, count), dtype=bool)
        for i in range(count):
            table[i, i] = True
            for j in range(i + 1, count):
                mutual = hs_distance(candidates[i], candidates[j])
                similar = are_similar(mutual, to_original[i], to_original[j])
                table[i, j] = table[j, i] = similar
        tables.append(table)
    return tables


def seed_objective_value(
    objective: SelectionObjective,
    tables: list[np.ndarray],
    choice: np.ndarray,
) -> float:
    """The seed's scalar objective: Python loops and left-to-right sums."""
    num_blocks = objective.num_blocks
    distances = [pool.distances() for pool in objective.pools]
    cnots = [pool.cnot_counts() for pool in objective.pools]
    bound = float(
        sum(distances[b][choice[b]] for b in range(num_blocks))
    )
    if bound > objective.threshold:
        return 1.0
    c_norm = (
        int(sum(cnots[b][choice[b]] for b in range(num_blocks)))
        / objective.original_cnot_count
    )
    if not objective.selected:
        return c_norm
    total = sum(
        sum(
            1
            for b in range(num_blocks)
            if tables[b][int(choice[b]), int(prior[b])]
        )
        / num_blocks
        for prior in objective.selected
    )
    m = total / len(objective.selected)
    return objective.weight * m + (1.0 - objective.weight) * c_norm


# ----------------------------------------------------------------------
# Randomized instances
# ----------------------------------------------------------------------

def _build_pools(
    rng: np.random.Generator, pool_sizes: list[int]
) -> list[BlockPool]:
    """Pools with random 1-qubit candidate unitaries and grid distances."""
    pools = []
    for index, size in enumerate(pool_sizes):
        dummy = Circuit(1)
        block = CircuitBlock(index=index, qubits=(index,), circuit=dummy)
        original = random_unitary(2, rng)
        pool = BlockPool(block=block, original_unitary=original)
        pool.candidates.append(
            Candidate(circuit=dummy, unitary=original, distance=0.0,
                      cnot_count=int(rng.integers(1, 9)))
        )
        for _ in range(size - 1):
            pool.candidates.append(
                Candidate(
                    circuit=dummy,
                    unitary=random_unitary(2, rng),
                    distance=int(rng.integers(0, 129)) / 64.0,
                    cnot_count=int(rng.integers(0, 9)),
                )
            )
        pools.append(pool)
    return pools


@st.composite
def selection_instances(draw):
    num_blocks = draw(st.integers(min_value=1, max_value=7))
    pool_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=5),
                 min_size=num_blocks, max_size=num_blocks)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    threshold = draw(st.integers(min_value=0, max_value=512)) / 128.0
    weight = draw(st.integers(min_value=0, max_value=16)) / 16.0
    original_cnots = draw(st.integers(min_value=1, max_value=40))
    num_selected = draw(st.integers(min_value=0, max_value=7))
    batch = draw(st.integers(min_value=1, max_value=24))
    return (pool_sizes, seed, threshold, weight, original_cnots,
            num_selected, batch)


def _random_choices(
    rng: np.random.Generator, pool_sizes: list[int], rows: int
) -> np.ndarray:
    return np.column_stack(
        [rng.integers(0, size, rows) for size in pool_sizes]
    )


@settings(max_examples=80, deadline=None)
@given(selection_instances())
def test_evaluate_batch_matches_frozen_seed_objective(instance):
    (pool_sizes, seed, threshold, weight, original_cnots,
     num_selected, batch) = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold,
        original_cnot_count=original_cnots, weight=weight,
    )
    frozen = seed_tables(
        [[c.unitary for c in pool.candidates] for pool in pools],
        [pool.original_unitary for pool in pools],
    )
    # The einsum Gram-matrix tables equal the scalar pair-loop tables.
    for block in range(len(pools)):
        assert np.array_equal(objective.tables._tables[block], frozen[block])

    for prior in _random_choices(rng, pool_sizes, num_selected):
        objective.selected.append(prior.astype(int))
    choices = _random_choices(rng, pool_sizes, batch)

    batched = objective.evaluate_batch(choices)
    assert batched.shape == (batch,)
    for row, choice in enumerate(choices):
        reference = seed_objective_value(objective, frozen, choice)
        # Exact equality: see the module docstring for why no tolerance
        # is needed at these sizes.
        assert batched[row] == reference
        # The scalar path is routed through the same gathers; it must
        # agree bitwise with both the batch row and the seed value.
        assert objective(choice.astype(float)) == reference


@settings(max_examples=30, deadline=None)
@given(selection_instances())
def test_single_point_accessors_match_seed_loops(instance):
    pool_sizes, seed, threshold, weight, original_cnots, _, _ = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold,
        original_cnot_count=original_cnots, weight=weight,
    )
    distances = [pool.distances() for pool in pools]
    cnots = [pool.cnot_counts() for pool in pools]
    for choice in _random_choices(rng, pool_sizes, 8):
        n = len(pools)
        assert objective.choice_cnot_count(choice) == int(
            sum(cnots[b][choice[b]] for b in range(n))
        )
        assert objective.choice_bound(choice) == float(
            sum(distances[b][choice[b]] for b in range(n))
        )


def test_evaluation_counters_track_both_entry_points():
    rng = np.random.default_rng(3)
    pools = _build_pools(rng, [3, 3])
    objective = SelectionObjective(
        pools=pools, threshold=4.0, original_cnot_count=8
    )
    objective(np.array([0.0, 0.0]))
    objective(np.array([1.0, 2.0]))
    assert objective.scalar_evaluations == 2
    assert objective.batched_evaluations == 0
    objective.evaluate_batch(np.array([[0, 0], [1, 1], [2, 2]]))
    assert objective.batched_evaluations == 3
    assert objective.scalar_evaluations == 2


# ----------------------------------------------------------------------
# The per-round score tables vs. the direct scalar formula
# ----------------------------------------------------------------------

def direct_objective_value(
    objective: SelectionObjective, tables: list[np.ndarray], x: np.ndarray
) -> float:
    """The scalar objective computed directly, block by block.

    Decodes ``x`` with floor and clip, gathers each block's distance and
    CNOT count into a vector and reduces it with numpy, counts each
    prior's similar blocks as an integer, then ``/ num_blocks``, the
    float sum over priors and ``/ S`` — the order the table-driven
    scorer must reproduce bit for bit, at any block count.
    """
    sizes = np.array([pool.size for pool in objective.pools])
    choice = np.clip(np.floor(np.asarray(x)).astype(int), 0, sizes - 1)
    blocks = range(objective.num_blocks)
    distances = np.array(
        [objective.pools[b].distances()[choice[b]] for b in blocks]
    )
    if float(distances.sum()) > objective.threshold:
        return 1.0
    cnots = np.array(
        [objective.pools[b].cnot_counts()[choice[b]] for b in blocks]
    )
    c_norm = int(cnots.sum()) / objective.original_cnot_count
    if not objective.selected:
        return c_norm
    hits = np.array(
        [
            [tables[b][choice[b], int(prior[b])] for b in blocks]
            for prior in objective.selected
        ]
    )
    fractions = hits.sum(axis=1) / objective.num_blocks
    m = float(fractions.sum()) / len(objective.selected)
    return objective.weight * m + (1.0 - objective.weight) * c_norm


def _continuous_pools(rng, pool_sizes):
    """Pools with arbitrary (not grid) float distances."""
    pools = _build_pools(rng, pool_sizes)
    for pool in pools:
        pool.candidates[1:] = [
            replace(candidate, distance=float(rng.random() * 0.6))
            for candidate in pool.candidates[1:]
        ]
    return pools


@st.composite
def scorer_instances(draw):
    num_blocks = draw(st.integers(min_value=1, max_value=12))
    pool_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=9),
                 min_size=num_blocks, max_size=num_blocks)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    threshold = draw(st.floats(min_value=0.0, max_value=3.0))
    weight = draw(st.floats(min_value=0.0, max_value=1.0))
    original_cnots = draw(st.integers(min_value=1, max_value=97))
    num_selected = draw(st.integers(min_value=0, max_value=6))
    tie = draw(st.booleans())
    return (pool_sizes, seed, threshold, weight, original_cnots,
            num_selected, tie)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scorer_instances())
def test_table_scorer_is_bit_identical_to_the_direct_formula(instance):
    (pool_sizes, seed, threshold, weight, original_cnots,
     num_selected, tie) = instance
    rng = np.random.default_rng(seed)
    pools = _continuous_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold,
        original_cnot_count=original_cnots, weight=weight,
    )
    tables = objective.tables._tables
    for prior in _random_choices(rng, pool_sizes, num_selected):
        objective.selected.append(prior.astype(int))
    sizes = np.array(pool_sizes, dtype=float)
    points = [rng.random(len(sizes)) * (sizes - 1e-9) for _ in range(16)]
    # Beyond the annealer's box: decode clips these to the pool edges.
    points += [np.full(len(sizes), -3.0), np.full(len(sizes), 99.0),
               np.where(np.arange(len(sizes)) % 2, -0.5, sizes + 0.25)]
    choices = np.array([objective.decode(x) for x in points])
    if tie:
        # A threshold equal to a point's bound: a distance sum reduced in
        # any other order can land an ulp away and flip feasibility.
        blocks = range(len(pools))
        objective.threshold = float(np.array(
            [pools[b].distances()[choices[0][b]] for b in blocks]
        ).sum())
    batched = objective.evaluate_batch(choices)
    for row, x in enumerate(points):
        value = objective(x)
        expected = direct_objective_value(objective, tables, x)
        assert float(value).hex() == float(expected).hex()
        assert float(value).hex() == float(batched[row]).hex()


def test_scores_follow_every_change_of_the_selected_set():
    rng = np.random.default_rng(11)
    pools = _continuous_pools(rng, [4, 3, 5, 2, 4, 3, 5, 4, 3])
    objective = SelectionObjective(
        pools=pools, threshold=10.0, original_cnot_count=30, weight=0.5
    )
    tables = objective.tables._tables
    sizes = [pool.size for pool in pools]
    points = [rng.random(len(sizes)) * (np.array(sizes) - 1e-9)
              for _ in range(24)]

    def assert_current():
        batched = objective.evaluate_batch(
            np.array([objective.decode(x) for x in points])
        )
        for row, x in enumerate(points):
            expected = direct_objective_value(objective, tables, x)
            assert objective(x) == expected
            assert batched[row] == expected

    assert_current()
    first, second, third = _random_choices(rng, sizes, 3)
    objective.selected.append(first)
    assert_current()
    objective.selected.append(second)
    assert_current()
    # A different list of the same length, replacing the old wholesale.
    objective.selected = [third, first]
    assert_current()
    # The same list object, one entry overwritten in place.
    objective.selected[0] = second
    assert_current()
    # The same array object, its choices overwritten in place.
    objective.selected[1] = first.copy()
    assert_current()
    before = [objective(x) for x in points]
    objective.selected[1][:] = third
    assert_current()
    assert [objective(x) for x in points] != before
    objective.selected.clear()
    assert_current()
    objective.selected.append(third)
    assert_current()
