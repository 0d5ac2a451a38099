"""A synthesized circuit for a target unitary, and its persisted form.

:class:`SynthesisSolution` lists are what the pool cache and the run
journal both persist; :func:`encode_solutions`/:func:`decode_solutions`
are the payload codec they share inside a :mod:`repro.store.record`
record.  The module imports only the circuit model, so the persistence
layers can use it without importing the synthesis engine.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.circuits.circuit import Circuit


@dataclass(frozen=True)
class SynthesisSolution:
    """One synthesized circuit for a target unitary.

    Attributes
    ----------
    circuit:
        The concrete circuit (over block-local qubit indices).
    distance:
        HS process distance to the target.
    cnot_count:
        CNOTs in the circuit (equals the template's layer count).
    """

    circuit: Circuit
    distance: float
    cnot_count: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynthesisSolution(cnots={self.cnot_count}, "
            f"distance={self.distance:.3e})"
        )


def encode_solutions(solutions: list[SynthesisSolution]) -> bytes:
    """Record payload of a solution list."""
    return pickle.dumps(list(solutions), protocol=pickle.HIGHEST_PROTOCOL)


def decode_solutions(payload: bytes) -> list[SynthesisSolution]:
    """Inverse of :func:`encode_solutions`; raises ValueError on a
    payload that is not a solution list."""
    solutions = pickle.loads(payload)
    if not isinstance(solutions, list) or not all(
        isinstance(s, SynthesisSolution) for s in solutions
    ):
        raise ValueError("payload is not a SynthesisSolution list")
    return solutions
