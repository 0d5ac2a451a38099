"""Guard the one-persistence-primitive rule.

Every durable write goes through :mod:`repro.store.record`: the atomic
publish primitives (``os.replace``, ``os.fsync``, ``tempfile.mkstemp``)
may only be called under ``repro/store/``, and the modules that persist
artifacts must not compute payload checksums of their own — the record
codec is the single place a checksum is made or verified.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``module.attribute`` calls reserved for the store package.
PUBLISH_PRIMITIVES = {("os", "replace"), ("os", "fsync"), ("tempfile", "mkstemp")}

#: Modules that persist artifacts through the record codec.
PERSISTING_MODULES = [
    "parallel/cache.py",
    "resilience/journal.py",
    "service/ledger.py",
    "store/artifact.py",
]

#: Functions of those modules that hash identities (cache keys, the run
#: fingerprint) rather than stored payloads.
KEY_DERIVATIONS = {"content_key", "entry_key", "quest_fingerprint"}


def _names(path: Path) -> list[tokenize.TokenInfo]:
    """Name, operator and end-of-statement tokens (no strings/comments)."""
    stream = io.StringIO(path.read_text())
    kinds = (tokenize.NAME, tokenize.OP, tokenize.NEWLINE)
    return [t for t in tokenize.generate_tokens(stream.readline) if t.type in kinds]


def _dotted_uses(path: Path) -> list[tuple[str, str, int]]:
    """Every ``a.b`` pair in ``path``; ``from a import b`` counts as one."""
    tokens = _names(path)
    found = []
    for first, dot, second in zip(tokens, tokens[1:], tokens[2:]):
        if dot.string == "." and first.type == second.type == tokenize.NAME:
            found.append((first.string, second.string, first.start[0]))
    module = None  # set from ``from <module> import`` to the statement's end
    for previous, token in zip(tokens, tokens[1:]):
        if token.type == tokenize.NEWLINE:
            module = None
        elif previous.string == "from":
            module = token.string
        elif module is not None and token.type == tokenize.NAME:
            found.append((module, token.string, token.start[0]))
    return found


def test_publish_primitives_live_only_in_the_store():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "store":
            continue
        for module, attribute, line in _dotted_uses(path):
            if (module, attribute) in PUBLISH_PRIMITIVES:
                strays.append(f"{relative}:{line}: {module}.{attribute}")
    assert not strays, (
        "atomic-publish primitives outside repro/store/; use "
        "repro.store.record.publish_atomic instead:\n" + "\n".join(strays)
    )


def test_the_store_does_use_them():
    """The guard above is not vacuous: the record codec is where they live."""
    uses = {(m, a) for m, a, _ in _dotted_uses(SRC / "store" / "record.py")}
    assert PUBLISH_PRIMITIVES <= uses


def _hashing_functions(path: Path) -> set[str]:
    """Names of the functions in ``path`` that call into ``hashlib``."""
    names = set()
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "hashlib"
            ):
                names.add(function.name)
    return names


def test_persisting_modules_compute_no_checksums():
    strays = [
        f"{module}: {name}"
        for module in PERSISTING_MODULES
        for name in sorted(_hashing_functions(SRC / module) - KEY_DERIVATIONS)
    ]
    assert not strays, (
        "payload checksums belong to repro.store.record:\n" + "\n".join(strays)
    )
