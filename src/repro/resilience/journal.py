"""Checkpoint/resume journal for QUEST runs.

Per-block synthesis dominates a run's wall time, and the blocks complete
independently — so a crash three hours into a forty-block run should
cost one block, not forty.  :class:`RunJournal` persists, under a
``checkpoint_dir``:

``manifest.json``
    The run's identity, written once at start: journal format version,
    the **config fingerprint** (a digest of the baseline circuit plus
    every result-affecting :class:`QuestConfig` knob), the pre-drawn
    per-block seed stream, and the block count.  Resume refuses
    (:class:`~repro.exceptions.CheckpointError`) when the fingerprint or
    seed stream disagrees — mixing pools across configs would silently
    produce garbage.

``<entry_key>.qckpt``
    One file per content-addressed cache entry key this run resolved by
    landing a synthesis job (its own, or one adopted from another
    executor's in-flight job): a :mod:`repro.store.record` record of
    kind ``journal`` keyed by the entry key, holding the same
    :class:`~repro.synthesis.leap.SynthesisSolution` list the pool cache
    stores under that key.  Repeated blocks share one entry, and blocks
    the cache or store served are not journaled at all: on resume they
    are served from there again, or re-synthesized under their pinned
    seeds.  Every file (manifest included) is published with a durable
    :func:`~repro.store.record.publish_atomic` — temp file, ``fsync``,
    rename, directory ``fsync`` — so a crash mid-write leaves either the
    previous state or a temp file that resume ignores, never a
    half-entry under the final name.  Entries that fail to decode (torn
    write, bit rot, another key, an older format) are quarantined
    (counted, set aside, resynthesized), never trusted.

Resume is bit-identical by construction: solutions round-trip through
pickle exactly, pools reassemble from them deterministically, the seed
stream is pre-drawn and verified, and keys not in the journal
re-synthesize under the same seeds an uninterrupted run would have used.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.exceptions import CheckpointError
from repro.observability import emit
from repro.store.record import (
    RecordError,
    decode_record,
    encode_record,
    publish_atomic,
    quarantine,
)
from repro.synthesis.solution import decode_solutions, encode_solutions

#: Bump when the journal layout changes; old directories refuse to resume.
JOURNAL_VERSION = 3

_MANIFEST_NAME = "manifest.json"


def quest_fingerprint(baseline, config) -> str:
    """Digest of everything that determines a run's results.

    Covers the basis-lowered circuit (via its QASM text) and every
    :class:`QuestConfig` knob that changes pools or selection.  Runtime
    knobs — workers, cache, checkpointing, retry policy — are excluded:
    they change *how* results are computed, not what they are.
    """
    from repro.circuits.qasm import circuit_to_qasm

    knobs = (
        ("max_block_qubits", int(config.max_block_qubits)),
        ("max_samples", int(config.max_samples)),
        ("threshold_per_block", float(config.threshold_per_block)),
        ("weight", float(config.weight)),
        ("max_layers_per_block", int(config.max_layers_per_block)),
        ("solutions_per_layer", int(config.solutions_per_layer)),
        ("max_candidates_per_block", int(config.max_candidates_per_block)),
        ("instantiation_starts", int(config.instantiation_starts)),
        ("max_optimizer_iterations", int(config.max_optimizer_iterations)),
        ("annealing_maxiter", int(config.annealing_maxiter)),
        ("seed", config.seed),
        ("block_time_budget", config.block_time_budget),
        ("sphere_variants_per_count", int(config.sphere_variants_per_count)),
    )
    digest = hashlib.sha256()
    digest.update(circuit_to_qasm(baseline).encode())
    digest.update(b"\x00")
    digest.update(repr(knobs).encode())
    return digest.hexdigest()


class RunJournal:
    """Durably journaled per-entry-key solution lists under a checkpoint dir."""

    def __init__(
        self,
        directory: str | os.PathLike,
        fingerprint: str,
        seeds: list[int],
        *,
        resume: bool = True,
        fault_injector=None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        self.seeds = [int(seed) for seed in seeds]
        self.fault_injector = fault_injector
        #: Entries that existed but failed integrity/health checks.
        self.corrupt_entries = 0
        manifest_path = self._dir / _MANIFEST_NAME
        if manifest_path.exists():
            self._check_manifest(manifest_path, resume)
        else:
            self._write_manifest(manifest_path)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _write_manifest(self, path: Path) -> None:
        manifest = {
            "version": JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "seeds": self.seeds,
            "num_blocks": len(self.seeds),
        }
        publish_atomic(
            path, json.dumps(manifest, indent=1).encode(), durable=True
        )

    def _check_manifest(self, path: Path, resume: bool) -> None:
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {path}: {exc}"
            ) from exc
        seeds = manifest.get("seeds") if isinstance(manifest, dict) else None
        if not isinstance(seeds, list) or not all(
            isinstance(seed, int) for seed in seeds
        ):
            raise CheckpointError(
                f"unreadable checkpoint manifest {path}: expected an object "
                "with a list of integer seeds"
            )
        if not resume:
            raise CheckpointError(
                f"checkpoint directory {self._dir} already holds a run "
                "journal; resume it (resume=True / --resume) or clear the "
                "directory for a fresh run"
            )
        if manifest.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"checkpoint {self._dir} uses journal version "
                f"{manifest.get('version')!r}, this build writes "
                f"{JOURNAL_VERSION}; clear the directory to restart"
            )
        if manifest.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"refusing to resume from {self._dir}: its config "
                "fingerprint does not match this run (different circuit "
                "or QuestConfig); clear the directory to restart"
            )
        if seeds != self.seeds:
            raise CheckpointError(
                f"refusing to resume from {self._dir}: recorded seed "
                "stream does not match this run"
            )

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self._dir / f"{key}.qckpt"

    def store_pool(self, block: int, key: str, solutions) -> None:
        """Durably journal ``solutions`` as entry ``key``'s result.

        ``block`` is the landing job's first block index; it only labels
        the ``checkpoint.store`` event and the torn-checkpoint fault hook.
        """
        path = self._entry_path(key)
        record = encode_record("journal", key, encode_solutions(solutions))
        publish_atomic(path, record, durable=True)
        emit("checkpoint.store", block=int(block))
        if self.fault_injector is not None:
            self.fault_injector.on_checkpoint_write(int(block), path)

    def load_pool(self, key: str):
        """Entry ``key``'s journaled solution list, or None.

        A missing entry is a plain miss.  An entry that exists but does
        not decode as this key's record — stale or corrupt alike — is
        quarantined via :meth:`discard` and reported as a miss.
        """
        try:
            raw = self._entry_path(key).read_bytes()
        except OSError:
            return None
        try:
            return decode_record(
                raw, kind="journal", key=key, parse=decode_solutions
            )
        except RecordError:
            self.discard(key)
            return None

    def discard(self, key: str) -> None:
        """Quarantine entry ``key`` (count + set aside)."""
        self.corrupt_entries += 1
        emit("checkpoint.quarantine", key=key)
        quarantine(self._entry_path(key))
