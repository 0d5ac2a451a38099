"""Run journal: manifest identity checks, atomic entries, quarantine."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.algorithms import tfim
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import CheckpointError
from repro.observability import ListSink, Tracer, use_tracer
from repro.partition.scan import scan_partition
from repro.resilience.journal import (
    JOURNAL_VERSION,
    RunJournal,
    quest_fingerprint,
)
from repro.store.record import encode_record
from repro.synthesis.leap import SynthesisSolution
from repro.transpile.basis import lower_to_basis

FAST = dict(
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)


def _baseline():
    return lower_to_basis(tfim(4, steps=1).without_measurements())


def _solutions():
    block = scan_partition(_baseline(), 2)[0]
    return [
        SynthesisSolution(
            circuit=block.circuit,
            distance=0.0,
            cnot_count=block.circuit.cnot_count(),
        )
    ]


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_tracks_result_affecting_knobs():
    baseline = _baseline()
    base = quest_fingerprint(baseline, QuestConfig(seed=1, **FAST))
    assert base == quest_fingerprint(baseline, QuestConfig(seed=1, **FAST))
    # Result-affecting knobs change the fingerprint...
    assert base != quest_fingerprint(baseline, QuestConfig(seed=2, **FAST))
    changed = dict(FAST, threshold_per_block=0.3)
    assert base != quest_fingerprint(baseline, QuestConfig(seed=1, **changed))
    # ...while runtime-only knobs do not.
    runtime = QuestConfig(seed=1, workers=4, cache=False, retry_attempts=5, **FAST)
    assert base == quest_fingerprint(baseline, runtime)


def test_fingerprint_tracks_the_circuit():
    config = QuestConfig(seed=1, **FAST)
    other = lower_to_basis(tfim(5, steps=1).without_measurements())
    assert quest_fingerprint(_baseline(), config) != quest_fingerprint(other, config)


# ----------------------------------------------------------------------
# Manifest / resume refusal
# ----------------------------------------------------------------------
def test_fresh_directory_writes_a_manifest(tmp_path):
    journal = RunJournal(tmp_path, "fp", [1, 2, 3])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {
        "version": JOURNAL_VERSION,
        "fingerprint": "fp",
        "seeds": [1, 2, 3],
        "num_blocks": 3,
    }
    assert list(tmp_path.iterdir()) == [tmp_path / "manifest.json"]
    assert journal.load_pool("key-0") is None


def test_resume_false_refuses_an_existing_journal(tmp_path):
    RunJournal(tmp_path, "fp", [1])
    with pytest.raises(CheckpointError, match="already holds a run journal"):
        RunJournal(tmp_path, "fp", [1], resume=False)


def test_resume_refuses_a_mismatched_fingerprint(tmp_path):
    RunJournal(tmp_path, "fp-a", [1])
    with pytest.raises(CheckpointError, match="fingerprint does not match"):
        RunJournal(tmp_path, "fp-b", [1])


def test_resume_refuses_a_mismatched_seed_stream(tmp_path):
    RunJournal(tmp_path, "fp", [1, 2])
    with pytest.raises(CheckpointError, match="seed stream does not match"):
        RunJournal(tmp_path, "fp", [1, 3])


def test_resume_refuses_an_unknown_journal_version(tmp_path):
    RunJournal(tmp_path, "fp", [1])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = JOURNAL_VERSION + 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="journal version"):
        RunJournal(tmp_path, "fp", [1])


def test_resume_refuses_a_garbled_manifest(tmp_path):
    RunJournal(tmp_path, "fp", [1])
    well_formed = {"version": JOURNAL_VERSION, "fingerprint": "fp", "num_blocks": 1}
    # Not JSON, then JSON of the wrong shape: each must fail closed.
    for text in (
        "{not json",
        "[]",
        json.dumps(dict(well_formed, seeds=["x"])),
        json.dumps(dict(well_formed, seeds=None)),
    ):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(CheckpointError, match="unreadable checkpoint manifest"):
            RunJournal(tmp_path, "fp", [1])


# ----------------------------------------------------------------------
# Entries: round-trip, atomicity, quarantine
# ----------------------------------------------------------------------
def test_store_then_load_round_trips_bit_identically(tmp_path):
    journal = RunJournal(tmp_path, "fp", [1])
    solutions = _solutions()
    journal.store_pool(0, "key-0", solutions)
    assert (tmp_path / "key-0.qckpt").exists()
    loaded = journal.load_pool("key-0")
    assert loaded is not None
    assert [s.cnot_count for s in loaded] == [s.cnot_count for s in solutions]
    for a, b in zip(loaded, solutions):
        assert a.distance == b.distance
        assert np.array_equal(a.circuit.unitary(), b.circuit.unitary())
    assert journal.corrupt_entries == 0


def test_missing_entry_is_a_plain_miss(tmp_path):
    journal = RunJournal(tmp_path, "fp", [1])
    assert journal.load_pool("key-0") is None
    assert journal.corrupt_entries == 0


def test_no_temp_files_survive_a_publish(tmp_path):
    journal = RunJournal(tmp_path, "fp", [1])
    journal.store_pool(0, "key-0", _solutions())
    leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


def test_key_mismatch_is_quarantined(tmp_path):
    """An entry whose record names another cache key must not resume."""
    journal = RunJournal(tmp_path, "fp", [1])
    journal.store_pool(0, "key-old", _solutions())
    (tmp_path / "key-old.qckpt").rename(tmp_path / "key-new.qckpt")
    assert journal.load_pool("key-new") is None
    assert journal.corrupt_entries == 1
    # Quarantine sets the file aside.
    assert not (tmp_path / "key-new.qckpt").exists()
    assert (tmp_path / "key-new.qckpt.corrupt").exists()


@pytest.mark.parametrize(
    "corruption",
    ["truncate", "garbage", "bitflip", "wrong-type"],
)
def test_corrupt_entries_are_quarantined_and_deleted(tmp_path, corruption):
    journal = RunJournal(tmp_path, "fp", [1])
    journal.store_pool(0, "key-0", _solutions())
    path = tmp_path / "key-0.qckpt"
    raw = path.read_bytes()
    if corruption == "truncate":
        path.write_bytes(raw[: len(raw) // 3])
    elif corruption == "garbage":
        path.write_bytes(b"not a pickle at all")
    elif corruption == "bitflip":
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(flipped))
    else:  # wrong payload type behind a valid checksum
        payload = pickle.dumps({"not": "a pool"})
        path.write_bytes(encode_record("journal", "key-0", payload))
    assert journal.load_pool("key-0") is None
    assert journal.corrupt_entries == 1
    assert not path.exists()


def test_quarantine_event_names_the_entry(tmp_path):
    journal = RunJournal(tmp_path, "fp", [1])
    journal.store_pool(0, "key-0", _solutions())
    (tmp_path / "key-0.qckpt").write_bytes(b"torn")
    sink = ListSink()
    with use_tracer(Tracer(sink)):
        assert journal.load_pool("key-0") is None
    events = [r for r in sink.records if r["name"] == "checkpoint.quarantine"]
    assert [event["attrs"] for event in events] == [{"key": "key-0"}]


# ----------------------------------------------------------------------
# End-to-end resume through run_quest
# ----------------------------------------------------------------------
def _run_config(**overrides):
    return QuestConfig(seed=5, **dict(FAST, **overrides))


def _results_identical(a, b):
    assert a.original_cnot_count == b.original_cnot_count
    assert len(a.circuits) == len(b.circuits)
    assert a.selection.bounds == b.selection.bounds
    for ca, cb in zip(a.circuits, b.circuits):
        assert ca.cnot_count() == cb.cnot_count()
        assert np.array_equal(ca.unitary(), cb.unitary())


def test_checkpointed_run_matches_a_plain_run(tmp_path):
    circuit = tfim(4, steps=1)
    plain = run_quest(circuit, _run_config())
    checkpointed = run_quest(
        circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt"
    )
    _results_identical(plain, checkpointed)
    assert checkpointed.checkpoint_hits == 0


def test_resume_skips_journaled_blocks_bit_identically(tmp_path):
    circuit = tfim(4, steps=1)
    first = run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    resumed = run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    _results_identical(first, resumed)
    assert resumed.checkpoint_hits > 0
    # Every nontrivial block came from the journal: no synthesis at all.
    assert resumed.cache_misses == 0
    assert "resumed from checkpoint" in resumed.summary()


def test_resume_refuses_a_different_config_end_to_end(tmp_path):
    circuit = tfim(4, steps=1)
    run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(CheckpointError, match="fingerprint does not match"):
        run_quest(
            circuit,
            _run_config(threshold_per_block=0.35),
            checkpoint_dir=tmp_path / "ckpt",
        )


def test_resume_false_refuses_reuse_end_to_end(tmp_path):
    circuit = tfim(4, steps=1)
    run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(CheckpointError, match="already holds a run journal"):
        run_quest(
            circuit,
            _run_config(),
            checkpoint_dir=tmp_path / "ckpt",
            resume=False,
        )


def _journal_files(directory):
    return sorted(path.name for path in directory.iterdir())


def test_repeated_blocks_journal_one_entry_per_key(tmp_path):
    """A Trotter circuit repeats block unitaries; each distinct entry key
    is journaled once, not once per repeat."""
    circuit = tfim(4, steps=3)
    first = run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    assert len(first.blocks) > first.cache_misses > 0
    entries = [
        name for name in _journal_files(tmp_path / "ckpt")
        if name.endswith(".qckpt")
    ]
    assert len(entries) == first.cache_misses
    resumed = run_quest(circuit, _run_config(), checkpoint_dir=tmp_path / "ckpt")
    _results_identical(first, resumed)
    assert resumed.checkpoint_hits == len(entries)
    assert resumed.cache_misses == 0


def test_store_served_blocks_are_not_journaled(tmp_path):
    """Blocks a warm store serves stay in the store: the journal holds
    only its manifest, and resume serves them from the store again."""
    circuit = tfim(4, steps=1)
    config = _run_config(store_dir=str(tmp_path / "store"))
    warm = run_quest(circuit, config)
    assert warm.cache_misses > 0
    served = run_quest(circuit, config, checkpoint_dir=tmp_path / "ckpt")
    assert served.cache_misses == 0
    assert _journal_files(tmp_path / "ckpt") == ["manifest.json"]
    resumed = run_quest(circuit, config, checkpoint_dir=tmp_path / "ckpt")
    _results_identical(warm, served)
    _results_identical(warm, resumed)
    assert resumed.cache_misses == 0
