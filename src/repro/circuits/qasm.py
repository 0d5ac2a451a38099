"""OpenQASM 2.0 serialization.

The QUEST artifact exchanges every circuit (inputs, partitioned blocks,
synthesized approximations) as OpenQASM 2.0 files, so the library provides
a writer and a parser for the subset of OpenQASM 2.0 generated by this
library and by common circuit generators: a single quantum register, a
single classical register, the ``qelib1`` gate set used here, and simple
parameter expressions (``pi``-arithmetic).
"""

from __future__ import annotations

import ast
import math
import re

from repro.circuits.circuit import Circuit, Operation
from repro.circuits.gates import GATE_NUM_PARAMS, Gate
from repro.exceptions import GateError, QasmError

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

#: Gate spellings that differ between this library and qelib1.
_EMIT_NAME = {"p": "u1"}
_PARSE_NAME = {"u1": "p", "u": "u3", "cnot": "cx", "cphase": "cp", "crz": None}


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize ``circuit`` to an OpenQASM 2.0 program string."""
    lines = [_HEADER + f"qreg q[{circuit.num_qubits}];"]
    if circuit.has_measurements():
        lines.append(f"creg c[{circuit.num_qubits}];")
    for op in circuit.operations:
        if op.name == "barrier":
            qubits = ",".join(f"q[{q}]" for q in range(circuit.num_qubits))
            lines.append(f"barrier {qubits};")
            continue
        if op.name == "measure":
            lines.append(f"measure q[{op.qubits[0]}] -> c[{op.cbit}];")
            continue
        name = _EMIT_NAME.get(op.name, op.name)
        if op.params:
            # Coerce through float before repr: numpy scalars would
            # otherwise render as ``np.float64(0.5)`` under numpy >= 2,
            # producing unparseable OpenQASM.  float repr is shortest-
            # round-trip, so no precision is lost.
            args = ",".join(repr(float(p)) for p in op.params)
            head = f"{name}({args})"
        else:
            head = name
        qubits = ",".join(f"q[{q}]" for q in op.qubits)
        lines.append(f"{head} {qubits};")
    return "\n".join(lines) + "\n"


class _ExprEvaluator(ast.NodeVisitor):
    """Safe evaluator for qasm parameter expressions (pi arithmetic)."""

    _BINOPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.Pow: lambda a, b: a**b,
    }

    def evaluate(self, text: str) -> float:
        try:
            tree = ast.parse(text, mode="eval")
            return self._eval(tree.body)
        except (SyntaxError, ValueError, KeyError, ZeroDivisionError) as exc:
            raise QasmError(f"bad parameter expression {text!r}") from exc

    def _eval(self, node: ast.AST) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in self._BINOPS:
            return self._BINOPS[type(node.op)](
                self._eval(node.left), self._eval(node.right)
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._eval(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return self._eval(node.operand)
        raise ValueError(f"unsupported expression node {node!r}")


_STATEMENT_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\((?P<params>[^)]*)\))?"
    r"\s+(?P<args>[^;]+)$"
)
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")
_CBIT_RE = re.compile(r"^c\[(\d+)\]$")


def circuit_from_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program (the subset this library emits).

    Raises :class:`QasmError` on malformed input or unsupported constructs.
    """
    evaluator = _ExprEvaluator()
    # Strip comments, then split on semicolons.
    text = re.sub(r"//[^\n]*", "", text)
    statements = [s.strip() for s in text.split(";") if s.strip()]
    circuit: Circuit | None = None
    num_qubits = 0
    for stmt in statements:
        if stmt.startswith("OPENQASM") or stmt.startswith("include"):
            continue
        if stmt.startswith("qreg"):
            match = re.match(r"qreg\s+\w+\[(\d+)\]", stmt)
            if not match:
                raise QasmError(f"bad qreg statement {stmt!r}")
            num_qubits = int(match.group(1))
            circuit = Circuit(num_qubits)
            continue
        if stmt.startswith("creg"):
            continue
        if circuit is None:
            raise QasmError("gate statement before qreg declaration")
        if stmt.startswith("barrier"):
            circuit.barrier()
            continue
        if stmt.startswith("measure"):
            match = re.match(r"measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]", stmt)
            if not match:
                raise QasmError(f"bad measure statement {stmt!r}")
            circuit.measure(int(match.group(1)), int(match.group(2)))
            continue
        match = _STATEMENT_RE.match(stmt)
        if not match:
            raise QasmError(f"cannot parse statement {stmt!r}")
        name = match.group("name").lower()
        name = _PARSE_NAME.get(name, name)
        if name is None or name not in GATE_NUM_PARAMS:
            raise QasmError(f"unsupported gate {match.group('name')!r}")
        params: tuple[float, ...] = ()
        if match.group("params"):
            params = tuple(
                evaluator.evaluate(p.strip())
                for p in match.group("params").split(",")
            )
        qubits = []
        for arg in match.group("args").split(","):
            qubit_match = _QUBIT_RE.match(arg.strip())
            if not qubit_match:
                raise QasmError(f"bad qubit reference {arg.strip()!r} in {stmt!r}")
            qubits.append(int(qubit_match.group(1)))
        try:
            gate = Gate(name, params)
        except GateError as exc:
            raise QasmError(f"bad gate in {stmt!r}: {exc}") from exc
        circuit.append(Operation(gate, tuple(qubits)))
    if circuit is None:
        raise QasmError("no qreg declaration found")
    return circuit
