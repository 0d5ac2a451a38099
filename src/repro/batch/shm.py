"""Shared-memory candidate transport between workers and the driver.

A synthesis worker's payload is dominated by arrays: the candidate
unitaries a block's pool assembly needs are ``O(pool_size * dim^2)``
complex entries, and the default process-pool transport pickles all of
them into the result pipe — serialized in the worker, copied through the
OS pipe, parsed in the parent, for every task.

:func:`encode_payload` instead splits the payload with pickle protocol
5's out-of-band buffer machinery: every array is exported *zero-copy*
(``PickleBuffer`` views, no byte-stream serialization) and written into
one ``multiprocessing.shared_memory`` segment; what crosses the pipe is
a tiny :class:`ShmEnvelope` *handle* — segment name, buffer table,
SHA-256 checksum, and the array-free metadata pickle.
:func:`decode_payload` maps the segment in the parent, verifies the
checksum, materializes the buffers with a single bulk copy (so the
segment can be unlinked immediately and arrays stay writable), and
reconstructs the payload.

Degradation is explicit and safe:

* payloads whose array content is below ``min_bytes`` skip shared
  memory entirely (the segment setup would cost more than it saves);
* if shared memory is unavailable (platform, permissions, exhausted
  ``/dev/shm``) the envelope carries an ordinary pickle instead
  (``via="pickle"``);
* a checksum or mapping failure raises :class:`ShmTransportError` in
  the parent, which the executor treats like any worker failure —
  retried under the retry policy, never silently trusted.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.observability import get_metrics

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

#: Array payloads smaller than this go inline: a shared-memory segment
#: costs a file descriptor, an mmap, and a resource-tracker round trip,
#: which only pays off once the pickle bytes it replaces are substantial.
DEFAULT_MIN_BYTES = 64 * 1024

#: Bump when the envelope layout changes.
ENVELOPE_VERSION = 1


class ShmTransportError(ReproError):
    """A shared-memory envelope failed to decode (checksum, mapping)."""


@dataclass
class ShmEnvelope:
    """What actually crosses the worker -> driver pipe.

    ``via`` is ``"shm"`` when the arrays live in a shared-memory
    segment, ``"pickle"`` when they are inline (fallback or
    below-threshold payloads).
    """

    version: int
    via: str
    #: Array-free pickle of the payload (out-of-band buffers removed).
    meta: bytes
    #: Shared-memory segment name (``via="shm"`` only).
    segment: str | None = None
    #: ``(offset, length)`` of each out-of-band buffer in the segment.
    buffers: list[tuple[int, int]] = field(default_factory=list)
    #: Total out-of-band bytes moved through shared memory.
    total_bytes: int = 0
    #: SHA-256 of the segment's used range.
    checksum: str | None = None
    #: Inline pickled payload (``via="pickle"`` only).
    payload: bytes | None = None


def shm_available() -> bool:
    """Whether this platform offers POSIX shared memory."""
    return _shared_memory is not None


def _inline_envelope(obj) -> ShmEnvelope:
    return ShmEnvelope(
        version=ENVELOPE_VERSION,
        via="pickle",
        meta=b"",
        payload=pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
    )


def encode_payload(obj, min_bytes: int = DEFAULT_MIN_BYTES) -> ShmEnvelope:
    """Encode ``obj`` for the result pipe (worker side).

    Arrays are extracted zero-copy via protocol-5 ``buffer_callback``
    and written to one shared-memory segment; everything else stays in
    the (small) ``meta`` pickle.  Falls back to an inline pickle when
    shared memory is unavailable, the segment cannot be created, or the
    array content is below ``min_bytes``.
    """
    out_of_band: list[pickle.PickleBuffer] = []
    try:
        meta = pickle.dumps(obj, protocol=5, buffer_callback=out_of_band.append)
    except (pickle.PicklingError, TypeError, ValueError):
        return _inline_envelope(obj)
    views = [buffer.raw() for buffer in out_of_band]
    total = sum(view.nbytes for view in views)
    if _shared_memory is None or total < min_bytes:
        for buffer in out_of_band:
            buffer.release()
        return _inline_envelope(obj)
    try:
        segment = _shared_memory.SharedMemory(create=True, size=max(total, 1))
    except OSError:
        for buffer in out_of_band:
            buffer.release()
        return _inline_envelope(obj)
    table: list[tuple[int, int]] = []
    offset = 0
    digest = hashlib.sha256()
    try:
        for view in views:
            flat = view.cast("B")
            length = flat.nbytes
            segment.buf[offset : offset + length] = flat
            digest.update(segment.buf[offset : offset + length])
            table.append((offset, length))
            offset += length
        envelope = ShmEnvelope(
            version=ENVELOPE_VERSION,
            via="shm",
            meta=meta,
            segment=segment.name,
            buffers=table,
            total_bytes=total,
            checksum=digest.hexdigest(),
        )
    except (OSError, ValueError):
        # Segment write failed mid-way: clean up and degrade.
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - double-fault path
            pass
        for buffer in out_of_band:
            buffer.release()
        return _inline_envelope(obj)
    finally:
        for view in views:
            view.release()
        for buffer in out_of_band:
            buffer.release()
    # Ownership transfers to the parent: it attaches (registering the
    # name with its resource tracker) and unlinks after decoding.  The
    # worker must therefore *un*register its create-time registration,
    # or a spawn-start worker's tracker would unlink the segment when
    # the worker exits — possibly before the parent has read it.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker is an implementation detail
        pass
    segment.close()
    return envelope


def decode_payload(envelope: ShmEnvelope):
    """Decode an envelope in the driver (parent side).

    Returns the reconstructed payload.  ``via="shm"`` envelopes are
    checksum-verified, materialized with one bulk copy into a writable
    buffer, and their segment unlinked before this function returns —
    decode can never leak a segment on the success path.
    """
    if not isinstance(envelope, ShmEnvelope):
        # A transport-disabled worker (or an old cached result) handed
        # back the bare payload; pass it through untouched.
        return envelope
    if envelope.version != ENVELOPE_VERSION:
        raise ShmTransportError(
            f"shm envelope version {envelope.version} unsupported "
            f"(expected {ENVELOPE_VERSION})"
        )
    if envelope.via == "pickle":
        if envelope.payload is None:
            raise ShmTransportError("inline envelope carries no payload")
        return pickle.loads(envelope.payload)
    if envelope.via != "shm":
        raise ShmTransportError(f"unknown transport {envelope.via!r}")
    if _shared_memory is None:  # pragma: no cover - worker had shm, we don't
        raise ShmTransportError("shared memory unavailable in the driver")
    try:
        segment = _shared_memory.SharedMemory(name=envelope.segment)
    except (OSError, ValueError) as exc:
        raise ShmTransportError(
            f"cannot map shm segment {envelope.segment!r}: {exc}"
        ) from exc
    try:
        used = sum(length for _, length in envelope.buffers)
        digest = hashlib.sha256(segment.buf[:used]).hexdigest()
        if digest != envelope.checksum:
            raise ShmTransportError(
                f"shm segment {envelope.segment!r} failed its checksum"
            )
        # One bulk copy into parent-owned, *writable* memory: the
        # segment can be unlinked immediately and no reconstructed
        # array can outlive (or pin) the mapping.
        data = bytearray(segment.buf[:used])
    finally:
        segment.close()
        try:
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass
    window = memoryview(data)
    buffers = [
        window[offset : offset + length]
        for offset, length in envelope.buffers
    ]
    try:
        payload = pickle.loads(envelope.meta, buffers=buffers)
    except (pickle.UnpicklingError, EOFError, ValueError, TypeError) as exc:
        raise ShmTransportError(
            f"shm payload failed to reconstruct: {exc}"
        ) from exc
    metrics = get_metrics()
    metrics.inc("shm.payloads")
    metrics.inc("shm.bytes_saved", envelope.total_bytes)
    return payload


def shm_synthesis_task(fn, min_bytes: int, *args) -> ShmEnvelope:
    """Worker-side wrapper: run ``fn`` and envelope its result.

    ``fn`` is the executor's worker task (any callable whose first
    result element is the solution list).  The
    wrapper additionally *instantiates each solution's unitary in the
    worker* — the matrices pool assembly would otherwise rebuild in the
    driver — and ships ``(result, unitaries)`` through the envelope, so
    the big arrays ride shared memory and the driver-side rebuild is
    skipped.  (``circuit.unitary()`` is a deterministic pure function of
    the circuit, so worker- and driver-computed matrices are
    byte-identical; candidate validation still recomputes its own.)
    """
    import numpy as np

    result = fn(*args)
    solutions = result[0]
    unitaries = [
        np.ascontiguousarray(solution.circuit.unitary())
        for solution in solutions
    ]
    return encode_payload((result, unitaries), min_bytes=min_bytes)


def discard_envelope(envelope) -> None:
    """Unlink an envelope's segment without decoding it.

    Used when the driver drops a result (cancelled round, duplicate)
    so abandoned segments cannot accumulate in ``/dev/shm``.
    """
    if (
        not isinstance(envelope, ShmEnvelope)
        or envelope.via != "shm"
        or _shared_memory is None
    ):
        return
    try:
        segment = _shared_memory.SharedMemory(name=envelope.segment)
    except (OSError, ValueError):
        return
    segment.close()
    try:
        segment.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover
        pass
