"""Crash-safe job ledger: the daemon's durable source of truth.

Every admitted job gets one file, ``job-<id>.json``: a
:mod:`repro.store.record` record of kind ``job`` keyed by the job id,
whose payload is the JSON :class:`~repro.service.protocol.JobRecord`.
Records are published with the same durable
:func:`~repro.store.record.publish_atomic` as the run journal (temp
file, ``fsync``, rename, directory ``fsync``), so a SIGKILL at any
instant leaves either the previous record or the new one, never a torn
file under the final name; an entry that *does* fail to decode (bit
rot, a partial copy, an older format) is quarantined — counted,
renamed aside, ignored — never trusted.

The ledger is what makes the daemon warm-restartable:

* every state transition (pending -> running -> done/failed) rewrites
  the record, so the on-disk state trails the in-memory state by at
  most one transition;
* each job owns a checkpoint directory (``job-<id>.ckpt/``) that
  :func:`repro.core.quest.run_quest` journals block pools into, so a
  job killed mid-run resumes from its completed blocks, bit-identically.
  A terminal job never resumes, so its directory is removed once its
  terminal record is stored (and on warm restart, for a crash between
  the two);
* :meth:`JobLedger.load` returns every readable record — the restarted
  daemon re-admits ``pending``/``running`` jobs and keeps terminal ones
  answerable to late ``wait`` calls.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.exceptions import ServiceError
from repro.observability import get_logger, get_metrics
from repro.service.protocol import JobRecord
from repro.store.record import (
    RecordError,
    decode_record,
    encode_record,
    publish_atomic,
    quarantine,
)

_ENTRY_PREFIX = "job-"
_ENTRY_SUFFIX = ".json"
_CHECKPOINT_SUFFIX = ".ckpt"


def _job_id_component(job_id: str) -> str:
    """Validate a job id for use as a filename component."""
    if (
        not job_id
        or len(job_id) > 128
        or any(c in job_id for c in "/\\\0")
        or job_id in (".", "..")
    ):
        raise ServiceError(f"invalid job id {job_id!r}")
    return job_id


class JobLedger:
    """Atomically journaled :class:`JobRecord` entries under one dir."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        #: Entries that existed but failed integrity checks.
        self.corrupt_entries = 0

    @property
    def directory(self) -> Path:
        return self._dir

    def _entry_path(self, job_id: str) -> Path:
        return self._dir / f"{_ENTRY_PREFIX}{_job_id_component(job_id)}{_ENTRY_SUFFIX}"

    def checkpoint_dir(self, job_id: str) -> Path:
        """The job's private run-journal directory (created lazily)."""
        return self._dir / f"{_ENTRY_PREFIX}{_job_id_component(job_id)}{_CHECKPOINT_SUFFIX}"

    def discard_checkpoint(self, job_id: str) -> None:
        """Remove the job's checkpoint directory, if it has one."""
        shutil.rmtree(self.checkpoint_dir(job_id), ignore_errors=True)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def store(self, record: JobRecord) -> None:
        """Durably publish ``record`` as its job's current state."""
        payload = json.dumps(
            record.to_dict(), separators=(",", ":"), sort_keys=True
        ).encode()
        publish_atomic(
            self._entry_path(record.job_id),
            encode_record("job", record.job_id, payload),
            durable=True,
        )
        get_metrics().inc("ledger.stores")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _load_entry(self, path: Path) -> JobRecord | None:
        job_id = path.name[len(_ENTRY_PREFIX) : -len(_ENTRY_SUFFIX)]

        def parse(payload: bytes) -> JobRecord:
            record = JobRecord.from_dict(json.loads(payload))
            if record.job_id != job_id:
                raise ServiceError(
                    f"ledger entry {path.name} holds job {record.job_id!r}"
                )
            return record

        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return decode_record(raw, kind="job", key=job_id, parse=parse)
        except RecordError as exc:
            # Count + set aside a corrupt entry so restart can proceed.
            self.corrupt_entries += 1
            get_logger("service.ledger").warning(
                f"quarantining corrupt ledger entry {path.name}: {exc}"
            )
            get_metrics().inc("ledger.quarantined")
            quarantine(path)
            return None

    def load(self, job_id: str) -> JobRecord | None:
        """Load one job's record; None = missing or quarantined."""
        return self._load_entry(self._entry_path(job_id))

    def load_all(self) -> list[JobRecord]:
        """Every readable record, ordered by submission time.

        Submission order matters on warm restart: re-admitting in the
        original order keeps the scheduler's fairness accounting close
        to what an uninterrupted daemon would have done.
        """
        records = []
        for path in sorted(self._dir.glob(f"{_ENTRY_PREFIX}*{_ENTRY_SUFFIX}")):
            record = self._load_entry(path)
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: (record.submitted_at, record.job_id))
        return records
