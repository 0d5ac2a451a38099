"""The one persistence primitive: record codec, atomic publish, quarantine.

Pool-cache entries, run-journal entries and ledger records are all one
*record*: a canonical JSON header line (sorted keys, no whitespace)
carrying ``checksum``, ``key``, ``kind``, ``length`` and ``version``,
then the raw payload.  The checksum is a SHA-256 over the other header
fields plus the payload, so nothing reaches a payload parser unverified.
A record is *stale* only when its checksum verifies but its version
differs; every other failure is *corrupt* — so any single flipped bit
decodes as corrupt, never as stale and never as a payload.
:func:`publish_atomic` is the only way a file reaches its final name.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from repro.exceptions import ReproError, StoreError

#: Bump when the record layout changes; older records decode as stale.
RECORD_VERSION = 1

#: Suffix of in-flight (not yet renamed) publish temp files.
TMP_SUFFIX = ".tmp"

#: Suffix a quarantined file is renamed to.
CORRUPT_SUFFIX = ".corrupt"

#: Everything a payload parser may raise on checksum-valid but
#: unreadable bytes (an unpicklable or wrong-typed payload, a record the
#: domain model rejects).  Deliberately not a bare Exception, so
#: programming errors (and MemoryError etc.) still surface.
_PARSE_ERRORS = (
    pickle.UnpicklingError, EOFError, ValueError, TypeError, KeyError,
    AttributeError, ImportError, IndexError, ReproError,
)


class RecordError(StoreError):
    """A record failed to decode.

    ``stale`` is True only when the record is intact but was written
    under another format version; every other failure is corruption.
    """

    def __init__(self, message: str, *, stale: bool = False) -> None:
        super().__init__(message)
        self.stale = stale


def _canonical(fields: dict) -> bytes:
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


def _checksum(fields: dict, payload: bytes) -> str:
    digest = hashlib.sha256(_canonical(fields))
    digest.update(b"\n")
    digest.update(payload)
    return digest.hexdigest()


def encode_record(kind: str, key: str, payload: bytes) -> bytes:
    """Frame ``payload`` as a checksummed record of ``kind``/``key``."""
    fields = {
        "kind": kind, "key": key, "length": len(payload), "version": RECORD_VERSION,
    }
    header = dict(fields, checksum=_checksum(fields, payload))
    return _canonical(header) + b"\n" + payload


def decode_record(blob: bytes, *, kind: str, key: str, parse):
    """Verify ``blob`` as a ``kind``/``key`` record; return ``parse(payload)``.

    A parser failure counts as corruption.  Raises :class:`RecordError`.
    """
    line, newline, payload = blob.partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise RecordError(f"unreadable record header: {exc}") from exc
    if not newline or not isinstance(header, dict) or _canonical(header) != line:
        raise RecordError("malformed record header")
    checksum = header.pop("checksum", None)
    if set(header) != {"kind", "key", "length", "version"}:
        raise RecordError(f"record header fields {sorted(header)}")
    if checksum != _checksum(header, payload):
        raise RecordError("record checksum mismatch")
    if header["version"] != RECORD_VERSION:
        raise RecordError(
            f"record version {header['version']!r} != {RECORD_VERSION}",
            stale=True,
        )
    if header["kind"] != kind or header["key"] != key:
        raise RecordError(
            f"record is {header['kind']!r}/{header['key']!r}, "
            f"expected {kind!r}/{key!r}"
        )
    try:
        return parse(payload)
    except _PARSE_ERRORS as exc:
        raise RecordError(f"unreadable {kind} payload: {exc}") from exc


def publish_atomic(
    path: str | os.PathLike, blob: bytes, *, durable: bool
) -> None:
    """Atomically replace ``path`` with ``blob``.

    Raises :class:`OSError` on failure and never leaves its temp file
    behind.  ``durable`` fsyncs the file before the rename and the
    directory after it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:16]}-", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        # Platforms that cannot open or fsync a directory keep the
        # file-level guarantee only.
        with contextlib.suppress(OSError):
            directory_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(directory_fd)
            finally:
                os.close(directory_fd)


def quarantine(path: str | os.PathLike) -> None:
    """Set ``path`` aside as ``<name>.corrupt`` (delete it if that fails)."""
    path = Path(path)
    try:
        os.replace(path, path.with_name(path.name + CORRUPT_SUFFIX))
    except OSError:
        path.unlink(missing_ok=True)
