"""Selection-engine benchmark: batched scorer vs. the seed scalar loop.

Builds a 14-block TFIM-8 partition with a two-candidate pool per block
(the exact original plus a one-CNOT truncation), then:

* freezes the pre-vectorization selection engine — scalar objective with
  per-block Python sums, ``hs_distance`` pair-loop similarity tables,
  and the odometer exhaustive search — and runs it to completion;
* runs the vectorized engine (`evaluate_batch` + chunked enumeration)
  on the same pools and asserts the selected choice vectors are
  identical;
* times both scorers over the full 2^14-point search space and asserts
  the batched path delivers >= 10x objective-evaluation throughput;
* forces the annealed path (``exhaustive_cutoff=0``) on the same pools
  and drives scipy's ``dual_annealing`` with the frozen scalar objective
  (through a floor-and-clip decode) and with the table-driven objective
  under the same per-round seeds, asserting identical choices and
  objective values and recording both selection times.

Results are recorded to ``BENCH_selection.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from conftest import print_table
from scipy.optimize import dual_annealing

from repro.algorithms import tfim
from repro.circuits import Circuit
from repro.core.annealing import select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.core.similarity import are_similar
from repro.linalg import hs_distance
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_selection.json"

MAX_SAMPLES = 4
THRESHOLD_PER_BLOCK = 0.2
#: ``select_approximations``' default annealer iteration count.
ANNEAL_MAXITER = 250


# ----------------------------------------------------------------------
# Frozen seed selection engine (pre-vectorization implementation)
# ----------------------------------------------------------------------

def _seed_tables(pools):
    tables = []
    for pool in pools:
        candidates = [c.unitary for c in pool.candidates]
        original = pool.original_unitary
        count = len(candidates)
        to_original = np.array([hs_distance(c, original) for c in candidates])
        table = np.zeros((count, count), dtype=bool)
        for i in range(count):
            table[i, i] = True
            for j in range(i + 1, count):
                mutual = hs_distance(candidates[i], candidates[j])
                table[i, j] = table[j, i] = are_similar(
                    mutual, to_original[i], to_original[j]
                )
        tables.append(table)
    return tables


class _SeedObjective:
    """The seed's scalar objective: per-block loops, left-to-right sums."""

    def __init__(self, pools, threshold, original_cnot_count, weight=0.5):
        self.pools = pools
        self.threshold = threshold
        self.original_cnot_count = original_cnot_count
        self.weight = weight
        self.selected = []
        self.tables = _seed_tables(pools)
        self._cnots = [pool.cnot_counts() for pool in pools]
        self._distances = [pool.distances() for pool in pools]
        self.num_blocks = len(pools)
        self.evaluations = 0

    def choice_bound(self, choice):
        return float(
            sum(self._distances[b][choice[b]] for b in range(self.num_blocks))
        )

    def choice_cnot_count(self, choice):
        return int(
            sum(self._cnots[b][choice[b]] for b in range(self.num_blocks))
        )

    def _similarity_fraction(self, choice, prior):
        hits = sum(
            1
            for b in range(self.num_blocks)
            if self.tables[b][int(choice[b]), int(prior[b])]
        )
        return hits / self.num_blocks

    def __call__(self, choice):
        self.evaluations += 1
        choice = np.asarray(choice, dtype=int)
        if self.choice_bound(choice) > self.threshold:
            return 1.0
        c_norm = self.choice_cnot_count(choice) / self.original_cnot_count
        if not self.selected:
            return c_norm
        total = sum(
            self._similarity_fraction(choice, prior)
            for prior in self.selected
        )
        m = total / len(self.selected)
        return self.weight * m + (1.0 - self.weight) * c_norm


def _seed_exhaustive_minimum(objective, sizes):
    """The seed's odometer loop (block 0 increments fastest)."""
    best_value = float("inf")
    best_choice = None
    indices = np.zeros(len(sizes), dtype=int)
    while True:
        value = objective(indices)
        if value < best_value:
            best_value = value
            best_choice = indices.copy()
        position = 0
        while position < len(sizes):
            indices[position] += 1
            if indices[position] < sizes[position]:
                break
            indices[position] = 0
            position += 1
        if position == len(sizes):
            break
    return best_choice


def _seed_select(objective, sizes, max_samples):
    """The seed's sequential selection loop on the exhaustive path."""
    choices = []
    objective.selected.clear()
    for _ in range(max_samples):
        choice = _seed_exhaustive_minimum(objective, sizes)
        if objective.choice_bound(choice) > objective.threshold:
            if choices:
                break
            choice = np.zeros(len(sizes), dtype=int)
        if any(np.array_equal(choice, prior) for prior in choices):
            break
        choices.append(choice)
        objective.selected.append(choice)
    return choices


def _seed_anneal_select(objective, sizes, max_samples, maxiter, seed):
    """The selection loop on the annealed path, scored by the frozen
    scalar objective: same bounds, start point and per-round seeds as
    ``select_approximations``."""
    sizes = np.array(sizes)

    def decode(x):
        return np.clip(np.floor(x).astype(int), 0, sizes - 1)

    choices, values = [], []
    objective.selected.clear()
    run_seeds = np.random.SeedSequence(seed).spawn(max_samples)
    for run_seed in run_seeds:
        annealed = dual_annealing(
            lambda x: objective(decode(x)),
            bounds=[(0.0, size - 1e-9) for size in sizes],
            maxiter=maxiter,
            seed=np.random.default_rng(run_seed),
            no_local_search=True,
            x0=np.full(len(sizes), 0.5),
        )
        choice = decode(annealed.x)
        if objective.choice_bound(choice) > objective.threshold:
            if choices:
                break
            choice = np.zeros(len(sizes), dtype=int)
        value = objective(choice)
        if any(np.array_equal(choice, prior) for prior in choices):
            break
        choices.append(choice)
        values.append(value)
        objective.selected.append(choice)
    return choices, values


# ----------------------------------------------------------------------
# Pool construction (no LEAP: truncated blocks as cheap approximations)
# ----------------------------------------------------------------------

def _truncated_variant(circuit: Circuit) -> Circuit:
    """Prefix of ``circuit`` keeping all but its last CNOT."""
    kept = []
    cnots_seen = 0
    total = circuit.cnot_count()
    for op in circuit.operations:
        if op.name == "cx":
            cnots_seen += 1
            if cnots_seen == total:
                break
        kept.append(op)
    return Circuit(circuit.num_qubits, kept)


def _build_pools(blocks) -> list[BlockPool]:
    pools = []
    for block in blocks:
        original_unitary = block.unitary()
        pool = BlockPool(block=block, original_unitary=original_unitary)
        pool.candidates.append(
            Candidate(
                circuit=block.circuit,
                unitary=original_unitary,
                distance=0.0,
                cnot_count=block.circuit.cnot_count(),
            )
        )
        variant = _truncated_variant(block.circuit)
        unitary = variant.unitary()
        pool.candidates.append(
            Candidate(
                circuit=variant,
                unitary=unitary,
                distance=hs_distance(unitary, original_unitary),
                cnot_count=variant.cnot_count(),
            )
        )
        pools.append(pool)
    return pools


def test_selection_scaling_smoke():
    baseline = lower_to_basis(tfim(8, steps=2).without_measurements())
    blocks = scan_partition(baseline, 2)
    pools = _build_pools(blocks)
    num_blocks = len(pools)
    assert num_blocks >= 12
    sizes = [pool.size for pool in pools]
    space = int(np.prod(sizes))
    threshold = THRESHOLD_PER_BLOCK * num_blocks
    original_cnots = baseline.cnot_count()

    # --- Selected choices: frozen seed engine vs vectorized engine -----
    seed_objective = _SeedObjective(pools, threshold, original_cnots)
    start = time.perf_counter()
    seed_choices = _seed_select(seed_objective, sizes, MAX_SAMPLES)
    seed_select_seconds = time.perf_counter() - start

    objective = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )
    start = time.perf_counter()
    result = select_approximations(objective, max_samples=MAX_SAMPLES, seed=0)
    new_select_seconds = time.perf_counter() - start

    choices_identical = len(seed_choices) == len(result.choices) and all(
        np.array_equal(a, b) for a, b in zip(seed_choices, result.choices)
    )
    assert choices_identical

    # --- Objective-evaluation throughput: seed scalar loop vs batched --
    # Score the full search space with one prior selected, so the
    # similarity term is exercised alongside the bound and CNOT gathers.
    strides = np.concatenate(([1], np.cumprod(sizes[:-1])))
    ks = np.arange(space)
    all_choices = (ks[:, None] // strides[None, :]) % np.array(sizes)[None, :]

    prior = result.choices[0]
    seed_objective.selected = [prior]
    objective.selected = [prior]

    # Warm both paths (allocator/cache effects), then time: the scalar
    # loop once over the full space, the batched scorer best-of-3.
    for choice in all_choices[:64]:
        seed_objective(choice)
    objective.evaluate_batch(all_choices[:64])

    start = time.perf_counter()
    scalar_values = np.array(
        [seed_objective(choice) for choice in all_choices]
    )
    scalar_seconds = time.perf_counter() - start

    batched_seconds = np.inf
    for _ in range(3):
        start = time.perf_counter()
        batched_values = objective.evaluate_batch(all_choices)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    throughput_speedup = scalar_seconds / batched_seconds

    assert np.array_equal(scalar_values, batched_values)

    rows = [
        ["seed scalar loop", f"{space}", f"{scalar_seconds:.3f}",
         f"{space / scalar_seconds:,.0f}", ""],
        ["evaluate_batch", f"{space}", f"{batched_seconds:.3f}",
         f"{space / batched_seconds:,.0f}", f"{throughput_speedup:.1f}x"],
        ["seed exhaustive selection", "", f"{seed_select_seconds:.3f}", "", ""],
        ["vectorized selection", "", f"{new_select_seconds:.3f}", "",
         f"{seed_select_seconds / new_select_seconds:.1f}x"],
    ]
    print_table(
        f"Selection engine (TFIM-8, {num_blocks} blocks, {space} points)",
        ["path", "points", "seconds", "evals/s", "speedup"],
        rows,
    )

    assert throughput_speedup >= 10.0

    # --- Annealed path: frozen scalar objective vs table scorer --------
    frozen = _SeedObjective(pools, threshold, original_cnots)
    start = time.perf_counter()
    frozen_choices, frozen_values = _seed_anneal_select(
        frozen, sizes, MAX_SAMPLES, ANNEAL_MAXITER, seed=0
    )
    frozen_anneal_seconds = time.perf_counter() - start
    objective.selected.clear()
    start = time.perf_counter()
    annealed = select_approximations(
        objective, max_samples=MAX_SAMPLES, maxiter=ANNEAL_MAXITER, seed=0,
        exhaustive_cutoff=0,
    )
    table_anneal_seconds = time.perf_counter() - start
    annealed_identical = (
        len(frozen_choices) == annealed.num_selected
        and all(
            np.array_equal(a, b)
            for a, b in zip(frozen_choices, annealed.choices)
        )
        and frozen_values == annealed.objective_values
    )
    assert annealed_identical
    print_table(
        f"Annealed selection (maxiter={ANNEAL_MAXITER}, "
        f"{annealed.num_selected} selected, "
        f"{annealed.scalar_evaluations} scalar evaluations)",
        ["objective", "seconds", "speedup"],
        [
            ["frozen scalar", f"{frozen_anneal_seconds:.3f}", ""],
            ["score tables", f"{table_anneal_seconds:.3f}",
             f"{frozen_anneal_seconds / table_anneal_seconds:.2f}x"],
        ],
    )

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(8, steps=2), max_block_qubits=2",
                "num_blocks": num_blocks,
                "search_space": space,
                "threshold": threshold,
                "scalar_eval_seconds": scalar_seconds,
                "batched_eval_seconds": batched_seconds,
                "scalar_evals_per_second": space / scalar_seconds,
                "batched_evals_per_second": space / batched_seconds,
                "throughput_speedup": throughput_speedup,
                "seed_selection_seconds": seed_select_seconds,
                "vectorized_selection_seconds": new_select_seconds,
                "selection_speedup": seed_select_seconds / new_select_seconds,
                "selected_choices_identical": bool(choices_identical),
                "selected_cnot_counts": [
                    int(count) for count in result.cnot_counts
                ],
                "objective_evaluations": {
                    "scalar": result.scalar_evaluations,
                    "batched": result.batched_evaluations,
                },
                "annealed_maxiter": ANNEAL_MAXITER,
                "annealed_frozen_selection_seconds": frozen_anneal_seconds,
                "annealed_table_selection_seconds": table_anneal_seconds,
                "annealed_selection_speedup": (
                    frozen_anneal_seconds / table_anneal_seconds
                ),
                "annealed_choices_identical": bool(annealed_identical),
                "annealed_selected_cnot_counts": [
                    int(count) for count in annealed.cnot_counts
                ],
                "annealed_scalar_evaluations": annealed.scalar_evaluations,
            },
            indent=2,
        )
        + "\n"
    )
