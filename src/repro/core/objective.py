"""Algorithm 1: the dual-annealing objective function.

Scores a full-circuit approximation (one candidate chosen per block):

* reject (score 1.0) if the summed block distances breach the process-
  distance threshold — the Sec. 3.8 upper bound standing in for the
  infeasible full-circuit distance;
* with no prior selections, score by normalized CNOT count alone;
* otherwise mix the fraction of already-selected samples this choice is
  similar to with the normalized CNOT count, weighted ``weight`` /
  ``1 - weight`` (0.5 each in the paper).

Scores are read from flat tables whose row ``b * width + i`` is
candidate ``i`` of block ``b``: distance and CNOT rows built once, and
an integer similarity-count table against the selected set (one column
per prior), rebuilt whenever the selected set's values change.  A point
is then a clip and three gathers, for annealer calls and
``evaluate_batch`` rows alike, reduced in the direct formula's order
(distance sum over blocks, exact integer hits per prior, ``/ num_blocks``,
the length-``S`` float sum, ``/ S``), so every value is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pool import BlockPool
from repro.core.similarity import BlockSimilarityTables
from repro.exceptions import SelectionError


@dataclass
class SelectionObjective:
    """Callable objective over integer choice vectors."""

    pools: list[BlockPool]
    threshold: float
    original_cnot_count: int
    weight: float = 0.5
    selected: list[np.ndarray] = field(default_factory=list)
    tables: BlockSimilarityTables = None  # type: ignore[assignment]
    #: Points scored one at a time through ``__call__`` (the annealer's
    #: path) vs. points scored through ``evaluate_batch``.
    scalar_evaluations: int = 0
    batched_evaluations: int = 0

    def __post_init__(self) -> None:
        if not self.pools:
            raise SelectionError("no block pools")
        if not 0.0 <= self.weight <= 1.0:
            raise SelectionError(f"weight {self.weight} outside [0, 1]")
        if self.original_cnot_count <= 0:
            raise SelectionError("original circuit has no CNOTs to reduce")
        if self.tables is None:
            self.tables = BlockSimilarityTables(
                [pool.unitary_stack() for pool in self.pools],
                [pool.original_unitary for pool in self.pools],
            )
        self._sizes = np.array([pool.size for pool in self.pools])
        self._max_index = self._sizes - 1
        # Flat per-block tables, padded to the widest pool: candidate i of
        # block b is row _row_base[b] + i.  Distance padding is +inf (a
        # padded row, were one ever gathered, scores infeasible); CNOT
        # padding is 0 and unreachable because choices are clipped.
        self._width = int(self._sizes.max())
        self._row_base = np.arange(len(self.pools)) * self._width
        self._cnot_rows = np.zeros(len(self.pools) * self._width, np.int64)
        self._distance_rows = np.full(self._cnot_rows.size, np.inf)
        for base, pool in zip(self._row_base, self.pools):
            self._cnot_rows[base : base + pool.size] = pool.cnot_counts()
            self._distance_rows[base : base + pool.size] = pool.distances()
        self._prior_key, self._prior_rows = None, None

    @property
    def num_blocks(self) -> int:
        """Number of blocks (dimension of the search space)."""
        return len(self.pools)

    def bounds(self) -> list[tuple[float, float]]:
        """Continuous box bounds encoding the integer choice per block."""
        return [(0.0, size - 1e-9) for size in self._sizes]

    def decode(self, x: np.ndarray) -> np.ndarray:
        """Floor a continuous annealer point to an integer choice vector."""
        choice = np.floor(x).astype(np.intp)
        return np.minimum(np.maximum(choice, 0), self._max_index)

    def choice_cnot_count(self, choice: np.ndarray) -> int:
        """Total CNOTs of the stitched approximation."""
        rows = self._row_base + self.tables.validate_choices(choice)
        return int(self._cnot_rows[rows].sum())

    def choice_bound(self, choice: np.ndarray) -> float:
        """Sec. 3.8 upper bound: sum of chosen block distances."""
        rows = self._row_base + self.tables.validate_choices(choice)
        return float(self._distance_rows[rows].sum())

    def _similarity_fractions(self, rows: np.ndarray) -> np.ndarray:
        """``(..., S)`` fractions of ``(..., num_blocks)`` flat rows.

        Keyed on the selected set's values, so appending to, replacing
        or clearing ``selected`` never reads a stale table.
        """
        key = tuple(map(np.ndarray.tobytes, map(np.asarray, self.selected)))
        if key != self._prior_key:
            self._prior_rows = self.tables.prior_table(
                np.array(self.selected), self._width
            )
            self._prior_key = key
        return self._prior_rows[rows].sum(axis=-2) / self.num_blocks

    def __call__(self, x: np.ndarray) -> float:
        self.scalar_evaluations += 1
        rows = self._row_base + self.decode(x)
        if self._distance_rows[rows].sum() > self.threshold:
            return 1.0
        c_norm = int(self._cnot_rows[rows].sum()) / self.original_cnot_count
        if not self.selected:
            return c_norm
        m = float(self._similarity_fractions(rows).sum()) / len(self.selected)
        return self.weight * m + (1.0 - self.weight) * c_norm

    def evaluate_batch(self, choices: np.ndarray) -> np.ndarray:
        """Score a ``(B, num_blocks)`` matrix of integer choice vectors.

        Returns the length-``B`` vector of objective values; every row
        matches ``__call__`` on that row exactly (same tables, same
        per-row reductions).
        """
        choices = self.tables.validate_choices(np.atleast_2d(choices))
        self.batched_evaluations += choices.shape[0]
        rows = self._row_base + choices
        bounds = self._distance_rows[rows].sum(axis=1)
        values = self._cnot_rows[rows].sum(axis=1) / self.original_cnot_count
        if self.selected:
            m = self._similarity_fractions(rows).sum(axis=1) / len(self.selected)
            values = self.weight * m + (1.0 - self.weight) * values
        values[bounds > self.threshold] = 1.0
        return values
