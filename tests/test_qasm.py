"""Tests for OpenQASM 2.0 serialization, including property-based roundtrips."""

from __future__ import annotations

import math
import re

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
from repro.exceptions import QasmError, ReproError


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


def test_parse_rejects_unevaluable_parameter_expression():
    # Float ``**`` raises OverflowError instead of returning inf, a huge
    # integer literal cannot convert to float at all, and a long unary
    # chain exhausts the recursion limit.
    for expression in ("2.0**2000", "10**400", "1" + "0" * 400, "-" * 5000 + "1"):
        with pytest.raises(QasmError):
            circuit_from_qasm(f"qreg q[1]; rz({expression}) q[0];")


_ATOMS = st.one_of(
    st.just("pi"),
    st.integers(0, 2000).map(str),
    st.sampled_from(["0.5", "2.0", "1e-300", "1e300", "1e308", "0.0"]),
)


@st.composite
def _parameter_expressions(draw):
    """Flat ``[-]atom (op [-]atom)*`` expressions; the statement grammar
    admits no parentheses, so this is every shape a parameter can take."""
    terms = draw(st.lists(st.tuples(st.booleans(), _ATOMS), min_size=1, max_size=5))
    ops = draw(
        st.lists(
            st.sampled_from(["+", "-", "*", "/", "**"]),
            min_size=len(terms) - 1,
            max_size=len(terms) - 1,
        )
    )
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for op, (negate, atom) in zip(ops, terms[1:]):
        text += f" {op} " + ("-" if negate else "") + atom
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expressions=st.lists(_parameter_expressions(), min_size=1, max_size=3))
def test_parameter_expressions_fail_closed(expressions):
    """Any parameter expression parses to finite angles or raises a
    library error; nothing else escapes the reader."""
    gate = {1: "rz", 2: "u2", 3: "u3"}[len(expressions)]
    text = f"qreg q[1]; {gate}({', '.join(expressions)}) q[0];"
    try:
        circuit = circuit_from_qasm(text)
    except ReproError:
        return
    for op in circuit.operations:
        assert all(math.isfinite(p) for p in op.gate.params), text


def test_parse_rejects_bad_measure():
    with pytest.raises(QasmError):
        circuit_from_qasm("qreg q[1]; measure q[0];")


def test_parse_rejects_a_second_qreg():
    # It used to replace the circuit, dropping every earlier gate.
    with pytest.raises(QasmError, match=r"qreg r\[3\]"):
        circuit_from_qasm("qreg q[2]; h q[0]; qreg r[3]; h q[2];")


@pytest.mark.parametrize(
    "text, statement",
    [
        ("qreg q[2]; creg c[2]; measure q[0] -> c[9];", "c[9]"),
        ("qreg q[2]; creg c[2]; measure q[1] -> c[2];", "c[2]"),
        ("qreg q[2]; measure q[0] -> c[0];", "c[0]"),
    ],
)
def test_parse_rejects_a_measure_outside_the_creg(text, statement):
    with pytest.raises(QasmError, match=re.escape(statement)):
        circuit_from_qasm(text)


def test_parse_rejects_bad_or_repeated_creg():
    with pytest.raises(QasmError, match="creg"):
        circuit_from_qasm("qreg q[1]; creg c;")
    with pytest.raises(QasmError, match="second creg"):
        circuit_from_qasm("qreg q[1]; creg c[1]; creg c[2];")


def test_creg_covers_every_measured_bit():
    circuit = Circuit(2)
    circuit.measure(0, 3)
    text = circuit_to_qasm(circuit)
    assert "creg c[4];" in text
    assert circuit_from_qasm(text) == circuit


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


@pytest.mark.parametrize(
    "text, statement",
    [
        # Operands must name the declared qreg, whatever it is called.
        ("qreg r[2]; h q[1];", "h q[1]"),
        ("qreg r[2]; cx r[0],q[1];", "cx r[0],q[1]"),
        ("qreg q[2]; creg c[2]; measure r[0] -> c[0];", "measure r[0] -> c[0]"),
        ("qreg q[2]; barrier r[0];", "barrier r[0]"),
        # Every operand must be in range, barrier operands included.
        ("qreg q[2]; h q[2];", "h q[2]"),
        ("qreg q[2]; creg c[2]; measure q[5] -> c[0];", "measure q[5] -> c[0]"),
        ("qreg q[2]; barrier q[7];", "barrier q[7]"),
        ("qreg q[2]; barrier q[0],q[9];", "barrier q[0],q[9]"),
        ("qreg q[2]; barrier;", "barrier"),
    ],
)
def test_parse_rejects_operands_outside_the_qreg(text, statement):
    with pytest.raises(QasmError, match=re.escape(repr(statement))):
        circuit_from_qasm(text)


def test_any_register_name_parses_and_partial_barriers_widen():
    parsed = circuit_from_qasm(
        "qreg r[3]; creg c[3]; h r[0]; cx r[0],r[2]; barrier r[1];"
        " barrier r; measure r[2] -> c[1];"
    )
    assert [(op.name, op.qubits) for op in parsed] == [
        ("h", (0,)),
        ("cx", (0, 2)),
        # The IR has only full barriers: a partial one spans every qubit.
        ("barrier", ()),
        ("barrier", ()),
        ("measure", (2,)),
    ]
    assert parsed.num_qubits == 3
