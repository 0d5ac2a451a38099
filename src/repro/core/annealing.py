"""The dual-annealing selection engine (paper Sec. 3.6 "Putting it together").

Selection is sequential: the first dual-annealing run (empty selected
set) returns the feasible approximation with the lowest CNOT count; each
subsequent run scores dissimilarity against everything selected so far.
The loop stops at ``max_samples`` (M = 16 in the paper) or as soon as the
engine returns an already-selected circuit.

Small search spaces skip the annealer entirely: they are enumerated
exactly, in chunks, through the objective's batched scorer — which is why
the exhaustive cutoff can sit at 65536 points instead of the few hundred
a per-point Python loop could afford.  Larger spaces anneal one point per
objective call, each a clip and three gathers over the round's score
tables, so most of an annealed round is scipy's own visiting step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import dual_annealing

from repro.core.objective import SelectionObjective
from repro.exceptions import SelectionError
from repro.observability import get_metrics, get_tracer

#: Search spaces up to this many points are enumerated exactly.
DEFAULT_EXHAUSTIVE_CUTOFF = 65536

#: Choice vectors scored per ``evaluate_batch`` call during enumeration
#: (bounds peak memory at chunk x num_blocks indices).
_ENUMERATION_CHUNK = 8192


@dataclass
class SelectionResult:
    """Chosen approximations, as integer candidate indices per block."""

    choices: list[np.ndarray] = field(default_factory=list)
    cnot_counts: list[int] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)
    objective_values: list[float] = field(default_factory=list)
    annealer_runs: int = 0
    #: Objective evaluations performed during this selection, split by
    #: entry point (one-at-a-time annealer calls vs. batched points).
    scalar_evaluations: int = 0
    batched_evaluations: int = 0

    @property
    def num_selected(self) -> int:
        """Number of selected full-circuit approximations."""
        return len(self.choices)

    @property
    def objective_evaluations(self) -> int:
        """Total points scored (scalar + batched)."""
        return self.scalar_evaluations + self.batched_evaluations


def _enumerate_chunk(
    start: int, stop: int, sizes: np.ndarray, strides: np.ndarray
) -> np.ndarray:
    """Rows ``start..stop`` of the cartesian product over pool sizes.

    Row ``k`` decodes the mixed-radix integer ``k`` with block 0 as the
    least-significant digit — the same ordering as the historical
    odometer loop, so first-minimum tie-breaking is unchanged.
    """
    ks = np.arange(start, stop, dtype=np.int64)
    return (ks[:, None] // strides[None, :]) % sizes[None, :]


def _exhaustive_minimum(
    objective: SelectionObjective, chunk: int = _ENUMERATION_CHUNK
) -> np.ndarray:
    """Brute-force the best choice (used for small search spaces).

    Enumerates the whole cartesian product in chunks through
    ``evaluate_batch``; ties resolve to the first minimum in enumeration
    order, exactly like the scalar odometer this replaces.
    """
    sizes = np.array([pool.size for pool in objective.pools], dtype=np.int64)
    strides = np.concatenate(([1], np.cumprod(sizes[:-1])))
    total = int(np.prod(sizes))
    best_value = np.inf
    best_choice: np.ndarray | None = None
    for start in range(0, total, chunk):
        choices = _enumerate_chunk(
            start, min(start + chunk, total), sizes, strides
        )
        values = objective.evaluate_batch(choices)
        position = int(np.argmin(values))
        if values[position] < best_value:
            best_value = float(values[position])
            best_choice = choices[position].astype(int)
    assert best_choice is not None
    return best_choice


def select_approximations(
    objective: SelectionObjective,
    max_samples: int = 16,
    maxiter: int = 250,
    seed: int | np.random.SeedSequence | None = None,
    exhaustive_cutoff: int = DEFAULT_EXHAUSTIVE_CUTOFF,
) -> SelectionResult:
    """Run the sequential dual-annealing selection loop.

    Search spaces no larger than ``exhaustive_cutoff`` are enumerated
    exactly instead of annealed (the annealer is a global-optimization
    heuristic; batched exact enumeration is both faster and
    deterministic there).  ``maxiter < 1`` is refused: scipy's annealer
    never stops with an empty inner loop.
    """
    if max_samples < 1:
        raise SelectionError("max_samples must be positive")
    if maxiter < 1:
        raise SelectionError("maxiter must be positive")
    # Per-run annealer seeds are SeedSequence children rather than raw
    # ``rng.integers(2**31 - 1)`` draws: bounded integer draws collide
    # (birthday bound) and re-enter the PRNG through the weak
    # single-integer seeding path, while spawned children are guaranteed
    # statistically independent streams.
    seed_seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    run_seeds = seed_seq.spawn(max_samples)
    tracer = get_tracer()
    result = SelectionResult()
    objective.selected.clear()
    objective.scalar_evaluations = 0
    objective.batched_evaluations = 0
    use_exhaustive = (
        math.prod(pool.size for pool in objective.pools) <= exhaustive_cutoff
    )
    bounds = objective.bounds()
    for sample_index in range(max_samples):
        if use_exhaustive:
            choice = _exhaustive_minimum(objective)
        else:
            annealed = dual_annealing(
                objective,
                bounds=bounds,
                maxiter=maxiter,
                seed=np.random.default_rng(run_seeds[sample_index]),
                no_local_search=True,
                # Start from the always-feasible all-original choice.
                x0=np.full(objective.num_blocks, 0.5),
            )
            choice = objective.decode(annealed.x)
        result.annealer_runs += 1
        if tracer.is_enabled:
            tracer.event(
                "selection.round",
                round=sample_index,
                exhaustive=use_exhaustive,
                bound=float(objective.choice_bound(choice)),
            )
        if objective.choice_bound(choice) > objective.threshold:
            if result.choices:
                break
            # The annealer failed to land on a feasible point; the
            # all-original choice (candidate 0 per block, distance 0) is
            # feasible for any non-negative threshold — QUEST degrades to
            # the Baseline rather than failing.
            choice = np.zeros(objective.num_blocks, dtype=int)
            if objective.choice_bound(choice) > objective.threshold:
                raise SelectionError(
                    "no feasible approximation under the process-distance "
                    "threshold; raise the threshold or synthesize tighter "
                    "blocks"
                )
        value = objective(choice.astype(float))
        if any(np.array_equal(choice, prior) for prior in result.choices):
            break  # The paper's stopping rule: a repeat ends selection.
        result.choices.append(choice)
        result.cnot_counts.append(objective.choice_cnot_count(choice))
        result.bounds.append(objective.choice_bound(choice))
        result.objective_values.append(value)
        objective.selected.append(choice)
    result.scalar_evaluations = objective.scalar_evaluations
    result.batched_evaluations = objective.batched_evaluations
    metrics = get_metrics()
    metrics.inc("selection.rounds", result.annealer_runs)
    metrics.inc("selection.batch_evals", result.batched_evaluations)
    metrics.inc("selection.scalar_evals", result.scalar_evaluations)
    metrics.gauge("selection.num_selected", result.num_selected)
    return result
