"""QUEST's dissimilarity criterion (paper Sec. 3.6).

Two approximations ``S1, S2`` of an original ``O`` are *similar* when
their mutual HS distance is at most the larger of their distances to the
original::

    <S1, S2>_HS <= max(<S1, O>_HS, <S2, O>_HS)

geometrically: both sit in the same region of the approximation ball, so
averaging their outputs cannot cancel their errors.  For partitioned
circuits the full-unitary test is infeasible, so similarity of two full
approximations is the *fraction of blocks* whose chosen candidates are
similar.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SelectionError
from repro.linalg.unitary import hs_distance


def are_similar(
    mutual_distance: float, distance_a: float, distance_b: float
) -> bool:
    """The paper's similarity predicate on precomputed distances."""
    return mutual_distance <= max(distance_a, distance_b)


def unitaries_similar(
    a: np.ndarray, b: np.ndarray, original: np.ndarray
) -> bool:
    """Similarity predicate evaluated directly on unitaries."""
    return are_similar(
        hs_distance(a, b), hs_distance(a, original), hs_distance(b, original)
    )


#: Pairs whose |mutual - max(d_i, d_j)| falls below this are re-resolved
#: with the historical scalar arithmetic (see ``_block_table``).
_BOUNDARY_MARGIN = 1e-7


def _block_table(candidates: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Boolean similarity table of one block's candidate stack.

    The O(count^2) pairwise HS distances are one stacked Gram-matrix
    computation: the original joins the ``(count, dim, dim)`` candidate
    stack as the last row, a single ``einsum`` yields every pairwise
    ``|Tr(Ci^dag Cj)|``, and the distance matrix follows elementwise.

    The ``<=`` predicate is then decided by margins far above float
    noise for every generic pair, but pairs that sit *on* the boundary
    (a candidate equal to the original, near-duplicates) would resolve
    on reduction-order/FMA noise, which differs between this einsum and
    the historical per-pair ``hs_distance`` loop.  Those near-boundary
    pairs are re-resolved with the exact historical scalar arithmetic
    (same calls, same argument order), so the table is bitwise identical
    to the pre-vectorization construction.
    """
    count, dim = candidates.shape[0], candidates.shape[1]
    stack = np.concatenate([candidates, original[None, :, :]], axis=0)
    overlaps = (
        np.abs(np.einsum("aij,bij->ab", stack.conj(), stack)) / dim
    )
    distances = np.sqrt(np.maximum(0.0, 1.0 - overlaps * overlaps))
    to_original = distances[:count, count]
    mutual = distances[:count, :count]
    larger = np.maximum(to_original[:, None], to_original[None, :])
    table = mutual <= larger
    near = np.abs(mutual - larger) <= _BOUNDARY_MARGIN
    np.fill_diagonal(near, False)
    for i, j in zip(*np.nonzero(np.triu(near, k=1))):
        similar = are_similar(
            hs_distance(candidates[i], candidates[j]),
            hs_distance(candidates[i], original),
            hs_distance(candidates[j], original),
        )
        table[i, j] = table[j, i] = similar
    np.fill_diagonal(table, True)
    return table


class BlockSimilarityTables:
    """Precomputed per-block similarity lookups for the annealing objective.

    For every block, stores a boolean matrix ``similar[i, j]`` over its
    candidate approximations.  The objective scores against a whole
    selected set through :meth:`prior_table`, built once per selected
    set, so the annealer's thousands of calls per round never touch the
    per-block matrices.
    """

    def __init__(
        self,
        candidate_unitaries: list[list[np.ndarray]] | list[np.ndarray],
        original_unitaries: list[np.ndarray],
    ) -> None:
        if len(candidate_unitaries) != len(original_unitaries):
            raise SelectionError("one original unitary needed per block")
        self.num_blocks = len(original_unitaries)
        self._tables: list[np.ndarray] = []
        for candidates, original in zip(candidate_unitaries, original_unitaries):
            if len(candidates) == 0:
                raise SelectionError("block with no candidate approximations")
            stack = np.asarray(candidates, dtype=complex)
            self._tables.append(_block_table(stack, np.asarray(original)))
        self._counts = np.array(
            [table.shape[0] for table in self._tables], dtype=np.intp
        )

    def candidates_similar(self, block: int, i: int, j: int) -> bool:
        """Whether candidates ``i`` and ``j`` of ``block`` are similar."""
        return bool(self._tables[block][i, j])

    def validate_choices(self, choices: np.ndarray) -> np.ndarray:
        """``choices`` as an index array; raises unless every index is valid."""
        choices = np.asarray(choices, dtype=np.intp)
        if choices.shape[-1] != self.num_blocks:
            raise SelectionError("choice vector length != number of blocks")
        if np.any(choices < 0) or np.any(choices >= self._counts):
            raise SelectionError("choice index outside its block's pool")
        return choices

    def similarity_fraction(
        self, choice_a: np.ndarray, choice_b: np.ndarray
    ) -> float:
        """Fraction of blocks whose chosen candidates are similar."""
        choice_a = self.validate_choices(choice_a)
        choice_b = self.validate_choices(choice_b)
        hits = sum(
            int(table[i, j])
            for table, i, j in zip(self._tables, choice_a, choice_b)
        )
        return hits / self.num_blocks

    def prior_table(self, priors: np.ndarray, width: int) -> np.ndarray:
        """Int8 table: row ``b * width + i``, column ``s`` is 1 when
        candidate ``i`` of block ``b`` is similar to the block-``b``
        candidate of prior ``s`` (row ``s`` of ``(S, num_blocks)``
        ``priors``); rows past a pool's size are 0.
        """
        priors = self.validate_choices(np.atleast_2d(priors))
        table = np.zeros((self.num_blocks, width, len(priors)), dtype=np.int8)
        for block, similar in enumerate(self._tables):
            table[block, : len(similar)] = similar[:, priors[:, block]]
        return table.reshape(self.num_blocks * width, len(priors))
