"""Tests for OpenQASM 2.0 serialization, including property-based roundtrips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    circuit_from_qasm,
    circuit_to_qasm,
    random_circuit,
)
from repro.exceptions import QasmError


def test_roundtrip_simple(bell_circuit):
    bell_circuit.measure_all()
    text = circuit_to_qasm(bell_circuit)
    assert "OPENQASM 2.0" in text
    assert "creg" in text
    parsed = circuit_from_qasm(text)
    assert parsed == bell_circuit


def test_roundtrip_parametric_gates():
    circuit = Circuit(3)
    circuit.rx(0.25, 0)
    circuit.u3(0.1, -0.2, 0.3, 1)
    circuit.rzz(1.5, 0, 2)
    circuit.cp(-0.7, 2, 1)
    parsed = circuit_from_qasm(circuit_to_qasm(circuit))
    assert parsed == circuit


def test_numpy_scalar_params_roundtrip():
    """Regression: numpy scalar params must not emit ``np.float64(...)``.

    Under numpy >= 2, ``repr(np.float64(0.5))`` is ``"np.float64(0.5)"``,
    which the writer used to embed verbatim — producing OpenQASM no
    parser (including ours) accepts.  Parameters flowing out of the
    synthesis pipeline are numpy scalars, so this is the common case,
    not a corner.
    """
    theta = np.float64(0.27) * np.pi
    circuit = Circuit(2)
    circuit.rx(theta, 0)
    circuit.rz(np.float32(0.5), 1)
    circuit.cp(np.float64(-1.25), 0, 1)
    text = circuit_to_qasm(circuit)
    assert "np.float" not in text
    parsed = circuit_from_qasm(text)
    # float64 params survive shortest-round-trip repr exactly.
    assert parsed.operations[0].params[0] == float(theta)
    assert parsed.operations[2].params[0] == -1.25
    assert np.allclose(parsed.unitary(), circuit.unitary())


def test_barrier_roundtrip():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.barrier()
    circuit.cx(0, 1)
    parsed = circuit_from_qasm(circuit_to_qasm(circuit))
    assert [op.name for op in parsed] == ["h", "barrier", "cx"]


def test_parse_pi_expressions():
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[1];
    rz(pi/2) q[0];
    rx(-pi/4) q[0];
    ry(2*pi) q[0];
    u1(pi) q[0];
    """
    circuit = circuit_from_qasm(text)
    assert circuit.operations[0].params[0] == pytest.approx(math.pi / 2)
    assert circuit.operations[1].params[0] == pytest.approx(-math.pi / 4)
    assert circuit.operations[2].params[0] == pytest.approx(2 * math.pi)
    # u1 parses as the phase gate.
    assert circuit.operations[3].name == "p"


def test_parse_comments_ignored():
    text = (
        "OPENQASM 2.0; // header\nqreg q[1]; // one qubit\nh q[0]; // mix\n"
    )
    circuit = circuit_from_qasm(text)
    assert circuit.operations[0].name == "h"


def test_parse_rejects_missing_qreg():
    with pytest.raises(QasmError):
        circuit_from_qasm("OPENQASM 2.0; h q[0];")


def test_parse_rejects_unknown_gate():
    with pytest.raises(QasmError):
        circuit_from_qasm("qreg q[1]; zorp q[0];")


def test_parse_rejects_bad_expression():
    with pytest.raises(QasmError):
        circuit_from_qasm("qreg q[1]; rx(import_os) q[0];")
    with pytest.raises(QasmError):
        circuit_from_qasm("qreg q[1]; rx(__import__('os')) q[0];")


def test_parse_rejects_non_finite_parameter():
    # 1e309 overflows to inf; the reader must not store it.
    with pytest.raises(QasmError, match=r"rz\(1e309\) q\[0\]"):
        circuit_from_qasm("qreg q[1]; rz(1e309) q[0];")


def test_parse_rejects_bad_measure():
    with pytest.raises(QasmError):
        circuit_from_qasm("qreg q[1]; measure q[0];")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), depth=st.integers(1, 6))
def test_roundtrip_random_circuits(seed, n, depth):
    circuit = random_circuit(n, depth, rng=seed)
    parsed = circuit_from_qasm(circuit_to_qasm(circuit))
    assert parsed == circuit


def test_roundtrip_preserves_semantics(rng):
    circuit = random_circuit(3, 6, rng=rng)
    parsed = circuit_from_qasm(circuit_to_qasm(circuit))
    assert np.allclose(parsed.unitary(), circuit.unitary())
