"""The persistence primitive: record codec, atomic publish, quarantine."""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.journal import RunJournal
from repro.service.ledger import JobLedger
from repro.service.protocol import JobRecord
from repro.store import ArtifactStore, record
from repro.store.record import (
    CORRUPT_SUFFIX,
    RECORD_VERSION,
    TMP_SUFFIX,
    RecordError,
    decode_record,
    encode_record,
    publish_atomic,
    quarantine,
)


def _decode_error(blob: bytes, kind: str = "pool", key: str = "k") -> RecordError:
    with pytest.raises(RecordError) as info:
        decode_record(blob, kind=kind, key=key, parse=bytes)
    return info.value


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", [b"", b"\n\n", b"x" * 1000, bytes(range(256))])
def test_round_trip(payload):
    blob = encode_record("pool", "k", payload)
    assert decode_record(blob, kind="pool", key="k", parse=bytes) == payload


def test_parse_runs_on_the_verified_payload():
    blob = encode_record("job", "j1", pickle.dumps({"a": 1}))
    assert decode_record(blob, kind="job", key="j1", parse=pickle.loads) == {"a": 1}


def test_parser_failure_is_corrupt():
    blob = encode_record("job", "j1", b"not a pickle")
    with pytest.raises(RecordError) as info:
        decode_record(blob, kind="job", key="j1", parse=pickle.loads)
    assert not info.value.stale


def test_every_truncation_is_corrupt():
    blob = encode_record("pool", "k", b"payload bytes")
    for end in range(len(blob)):
        assert not _decode_error(blob[:end]).stale


def test_trailing_bytes_are_corrupt():
    blob = encode_record("pool", "k", b"payload")
    assert not _decode_error(blob + b"!").stale


def test_kind_and_key_mismatch_are_corrupt():
    blob = encode_record("pool", "k", b"payload")
    assert not _decode_error(blob, kind="journal").stale
    assert not _decode_error(blob, key="other").stale


def test_other_version_with_valid_checksum_is_stale(monkeypatch):
    for version in (RECORD_VERSION - 1, RECORD_VERSION + 1):
        with monkeypatch.context() as patch:
            patch.setattr(record, "RECORD_VERSION", version)
            blob = encode_record("pool", "k", b"payload")
        assert _decode_error(blob).stale


def test_non_canonical_header_is_corrupt():
    blob = encode_record("pool", "k", b"payload")
    header, _, payload = blob.partition(b"\n")
    spaced = header.replace(b",", b", ", 1)
    assert not _decode_error(spaced + b"\n" + payload).stale


@pytest.mark.parametrize(
    "blob", [b"", b"\n", b"[]\n", b"{}\n", b"not json\npayload", pickle.dumps({"version": 1})]
)
def test_garbage_is_corrupt(blob):
    assert not _decode_error(blob).stale


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["pool", "journal", "job"]),
    key=st.text(min_size=1, max_size=40),
    payload=st.binary(max_size=200),
    data=st.data(),
)
def test_any_single_bit_flip_decodes_as_corrupt(kind, key, payload, data):
    """A flipped bit anywhere never yields a payload and never reads as
    stale, so a ``flip-cache`` fault is always counted as corruption."""
    blob = encode_record(kind, key, payload)
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(RecordError) as info:
        decode_record(bytes(flipped), kind=kind, key=key, parse=bytes)
    assert not info.value.stale


# ----------------------------------------------------------------------
# Atomic publish and quarantine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("durable", [False, True])
def test_publish_atomic_replaces_without_litter(tmp_path, durable):
    path = tmp_path / "entry.bin"
    publish_atomic(path, b"first", durable=durable)
    publish_atomic(path, b"second", durable=durable)
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]


@pytest.mark.parametrize("durable", [False, True])
def test_failed_publish_leaves_no_temp_file(tmp_path, durable):
    # A non-empty directory under the target name makes the final
    # rename fail after the temp file was written.
    target = tmp_path / "entry.bin"
    target.mkdir()
    (target / "occupant").write_bytes(b"")
    with pytest.raises(OSError):
        publish_atomic(target, b"blob", durable=durable)
    assert not list(tmp_path.glob(f"*{TMP_SUFFIX}"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.store.record.os.replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        publish_atomic(tmp_path / "entry.bin", b"blob", durable=True)
    assert list(tmp_path.iterdir()) == []


def test_quarantine_sets_the_file_aside(tmp_path):
    path = tmp_path / "job-1.json"
    path.write_bytes(b"rotted")
    quarantine(path)
    assert not path.exists()
    assert (tmp_path / f"job-1.json{CORRUPT_SUFFIX}").read_bytes() == b"rotted"
    quarantine(path)  # already gone: a no-op


def test_journal_and_ledger_publish_durably_the_store_does_not(
    tmp_path, monkeypatch
):
    """File and directory fsync for journal/ledger writes; none for the
    store, whose lost entries only cost a recompute."""
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))

    def fsyncs(write) -> int:
        synced.clear()
        write()
        return len(synced)

    assert fsyncs(lambda: ArtifactStore(tmp_path / "s").publish("ab" * 32, b"x")) == 0
    ledger = JobLedger(tmp_path / "ledger")
    assert fsyncs(lambda: ledger.store(JobRecord(job_id="j", tenant="t", qasm="q"))) == 2
    assert fsyncs(lambda: RunJournal(tmp_path / "ckpt", "fp", [1])) == 2
    journal = RunJournal(tmp_path / "ckpt", "fp", [1])  # resume: no write
    assert fsyncs(lambda: journal.store_pool(0, "key", [])) == 2
