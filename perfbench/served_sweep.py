"""Workload ``served_sweep``: a closed-loop parameter sweep through the daemon.

A :class:`~repro.service.QuestService` runs in this process (its event
loop on a thread) with ``store_dir`` set, the ``BENCH_service``
synthesis config and dispatcher concurrency 2.  Two client threads,
tenants ``alice`` and ``bob``, each submit their next job only after the
previous one returned, like ``repro submit`` (a closed loop with 2
clients, as many as a 2-core machine has cores).

The jobs are tfim, heisenberg and xy_model chains of 4-5 spins, 2-3
Trotter steps and 4 ``dt`` values, twelve distinct circuits in all.
Every job is submitted twice, the repeat at a seed-drawn later
position, in a seed-drawn order, so cache and store reads sit beside
misses, publishes, ledger and journal writes.  The distinct circuits
are the same for every seed: a seed changes how the jobs interleave,
not how much work they are.  Each pass boots a fresh daemon on an
empty store and replays the same stream.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import NOISE_LEVEL, SERVICE_CONFIG, Checks, PassResult

_clock = time.perf_counter

FAMILIES = ("tfim", "heisenberg", "xy_model")
#: Per tenant: its Trotter depth and the ``dt`` of its 4- and 5-spin
#: chains.  The tenants' jobs never share an entry key (different depth
#: and ``dt``), while each tenant's own jobs share blocks freely.
TENANTS = {
    "alice": {"steps": 2, "dt": {4: 0.05, 5: 0.15}},
    "bob": {"steps": 3, "dt": {4: 0.1, 5: 0.2}},
}
#: Submissions of every distinct job per pass.
SUBMISSIONS = 2
#: Served payloads recompiled solo and compared bit for bit.
SOLO_SAMPLES = 2
MAX_CONCURRENCY = 2
JOB_TIMEOUT = 600.0


def job_stream(seed: int) -> dict[str, list[tuple]]:
    """Per tenant, the ordered list of ``(family, spins, steps, dt)`` jobs.

    Each tenant's six distinct jobs (3 families x 4-5 spins) are fixed,
    so every seed does the same work; the seed draws the submission
    order and where each job's repeats land after its first submission.
    """
    rng = np.random.default_rng(seed)
    streams = {}
    for tenant, spec in TENANTS.items():
        distinct = [
            (family, spins, spec["steps"], dt)
            for family in FAMILIES
            for spins, dt in spec["dt"].items()
        ]
        jobs = [distinct[int(i)] for i in rng.permutation(len(distinct))]
        for job in list(jobs):
            for _ in range(SUBMISSIONS - 1):
                first = jobs.index(job)
                jobs.insert(int(rng.integers(first + 1, len(jobs) + 1)), job)
        streams[tenant] = jobs
    return streams


def build_circuit(job: tuple):
    from repro import algorithms

    family, spins, steps, dt = job
    return getattr(algorithms, family)(spins, steps=steps, dt=dt)


@dataclass
class ServedJob:
    tenant: str
    job: tuple
    job_id: str
    submitted: float
    acked: float
    done: float
    reply: dict

    @property
    def latency(self) -> float:
        return self.done - self.submitted


class ServedSweep:
    #: Nominal seconds of one pass; ``--seconds`` sets the pass count.
    pass_seconds = 8.0
    #: Jobs overlap and interleave differently in every pass, so their
    #: latencies pool across passes instead of pairing up.
    same_ops_each_pass = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._boots = 0
        self._thread = None
        self._dir = None

    def prepare(self) -> None:
        from repro import QuestConfig, run_quest
        from repro.algorithms import tfim
        from repro.circuits import circuit_to_qasm

        self.streams = job_stream(self.seed)
        self.qasm = {
            job: circuit_to_qasm(build_circuit(job))
            for jobs in self.streams.values()
            for job in jobs
        }
        # Warm-up outside the daemon and outside the stream's circuits.
        run_quest(tfim(3, steps=1), QuestConfig(**SERVICE_CONFIG))
        self.reset()

    def reset(self) -> None:
        """Boot a fresh daemon on an empty store and ledger."""
        from repro import QuestConfig
        from repro.service import QuestService, ServiceClient

        self.close()
        self._boots += 1
        self._dir = self.workdir / f"served-{os.getpid()}-{self._boots}"
        if self._dir.exists():
            shutil.rmtree(self._dir)
        self._dir.mkdir(parents=True)
        # AF_UNIX paths are capped near 108 bytes; a path relative to the
        # working directory stays short wherever the checkout lives.
        self.socket = os.path.relpath(self._dir / "s.sock")
        config = QuestConfig(
            **SERVICE_CONFIG, store_dir=str(self._dir / "store")
        )
        self.service = QuestService(
            self.socket,
            self._dir / "ledger",
            config=config,
            max_concurrency=MAX_CONCURRENCY,
        )
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.service.run()), daemon=True
        )
        self._thread.start()
        ServiceClient(self.socket).wait_until_ready(timeout=30.0)

    def close(self) -> None:
        from repro.exceptions import ServiceError
        from repro.service import ServiceClient

        if self._thread is not None:
            try:
                ServiceClient(self.socket).shutdown()
            except ServiceError:
                pass
            self._thread.join(timeout=60.0)
            if self._thread.is_alive():
                raise RuntimeError("daemon thread did not stop within 60 s")
            self._thread = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def _client(self, tenant: str, recorder) -> list[ServedJob]:
        from repro.service import ServiceClient

        client = ServiceClient(self.socket)
        served = []
        for index, job in enumerate(self.streams[tenant]):
            if recorder is not None:
                recorder.job = f"{tenant}:{index}"
            submitted = _clock()
            job_id = client.submit(self.qasm[job], tenant=tenant)
            acked = _clock()
            reply = client.wait(job_id, timeout=JOB_TIMEOUT)
            done = _clock()
            served.append(
                ServedJob(tenant, job, job_id, submitted, acked, done, reply)
            )
        return served

    def timed_pass(self, recorder=None) -> PassResult:
        start = _clock()
        with ThreadPoolExecutor(max_workers=len(self.streams)) as pool:
            futures = [
                pool.submit(self._client, tenant, recorder)
                for tenant in self.streams
            ]
            served = [job for future in futures for job in future.result()]
        wall = _clock() - start

        from repro.service import ServiceClient

        status = ServiceClient(self.socket).status()
        counters = status["metrics"].get("counters", {})
        namespaces = status["store"]["namespaces"].values()
        payloads = [job.reply.get("result") or {} for job in served]
        counts = {
            "cache.hits": sum(p.get("cache_hits", 0) for p in payloads),
            "cache.misses": sum(p.get("cache_misses", 0) for p in payloads),
            "dedup.joins": sum(p.get("dedup_joins", 0) for p in payloads),
            "inflight.joins": self.service.resources.inflight.joins,
            "store.publishes": sum(n.get("publishes", 0) for n in namespaces),
            "store.disk_hits": sum(n.get("disk_hits", 0) for n in namespaces),
            "journal.writes": int(counters.get("checkpoint.stores", 0)),
            "service.rejected": sum(status["rejected"].values()),
            "service.degraded": int(status["degraded_jobs"]),
            "service.stranded_joiners": int(status["stranded_joiners"]),
            "leap.budget_exhausted": int(counters.get("leap.budget_exhausted", 0)),
            "synthesis.fallbacks": int(counters.get("synthesis.fallbacks", 0)),
        }
        digest = hashlib.sha256()
        for job in sorted(served, key=lambda j: (j.tenant, j.submitted)):
            payload = job.reply.get("result") or {}
            digest.update(json.dumps([
                job.tenant, job.job, payload.get("circuits"),
                payload.get("choices"), payload.get("bounds"),
            ]).encode())
        distinct = self._distinct(served)
        reductions = [
            1.0 - float(np.mean(p["cnot_counts"])) / p["original_cnot_count"]
            for p in (job.reply["result"] for job in distinct.values())
            if p
        ]
        self.close()
        return PassResult(
            wall_seconds=wall,
            ops={f"{job.tenant}:{job.job_id}": job.latency for job in served},
            cnot_reduction=float(np.mean(reductions)) if reductions else 0.0,
            digest=digest.hexdigest(),
            counts=counts,
            detail={"served": served, "distinct": distinct},
        )

    @staticmethod
    def _distinct(served: list[ServedJob]) -> dict:
        """First completed occurrence of every (tenant, job)."""
        first = {}
        for job in sorted(served, key=lambda j: j.submitted):
            first.setdefault((job.tenant, job.job), job)
        return first

    def check(self, outcome: PassResult, checks: Checks) -> float:
        """Check every served job; return the mean ensemble TVD."""
        from repro import QuestConfig, run_quest
        from repro.circuits import circuit_from_qasm
        from repro.metrics import average_distributions, tvd
        from repro.noise import NoiseModel, noisy_distribution
        from repro.service.server import result_payload
        from repro.sim.statevector import ideal_distribution
        from repro.verify.certifier import (
            certify_equivalence,
            claims_from_manifest,
        )

        counts = outcome.counts
        for name in (
            "service.rejected", "service.degraded", "service.stranded_joiners",
            "leap.budget_exhausted", "synthesis.fallbacks",
        ):
            checks.expect(counts[name] == 0, f"{name} = {counts[name]}")

        distinct = outcome.detail["distinct"]
        for job in outcome.detail["served"]:
            reply = job.reply
            ok = (
                reply.get("state") == "done"
                and not reply.get("degraded")
                and not reply.get("error")
                and bool((reply.get("result") or {}).get("circuits"))
            )
            if ok:
                first = distinct[(job.tenant, job.job)].reply["result"]
                ok = (
                    reply["result"]["circuits"] == first["circuits"]
                    and reply["result"]["choices"] == first["choices"]
                )
            checks.expect(ok, f"{job.tenant} {job.job_id}: not a clean repeatable result")

        noise = NoiseModel.from_noise_level(NOISE_LEVEL)
        tvds = []
        for (tenant, job), served in distinct.items():
            payload = served.reply.get("result")
            if not payload:
                continue
            original = build_circuit(job)
            circuits = [circuit_from_qasm(text) for text in payload["circuits"]]
            for index, (circuit, manifest) in enumerate(
                zip(circuits, payload["claims"])
            ):
                block_qubits, claims = claims_from_manifest(manifest)
                report = certify_equivalence(
                    original, circuit, claims, block_qubits=block_qubits
                )
                checks.expect(
                    report.ok, f"{tenant} {job}: approx {index} VIOLATED"
                )
            tvds.append(tvd(
                ideal_distribution(original),
                average_distributions(
                    [noisy_distribution(c, noise) for c in circuits]
                ),
            ))

        rng = np.random.default_rng([self.seed, 0x5010])
        keys = sorted(distinct)
        config = QuestConfig(**SERVICE_CONFIG)
        for pick in rng.choice(len(keys), size=SOLO_SAMPLES, replace=False):
            tenant, job = keys[int(pick)]
            served = distinct[(tenant, job)].reply.get("result") or {}
            solo = result_payload(run_quest(build_circuit(job), config), config)
            fields = ("circuits", "claims", "choices", "bounds", "cnot_counts")
            checks.expect(
                all(served.get(f) == solo[f] for f in fields),
                f"{tenant} {job}: served payload differs from a solo run_quest",
            )
        return float(np.mean(tvds)) if tvds else float("nan")

    def queue_split(self, outcome: PassResult, spans) -> dict:
        """Per-job queue wait and run time from the daemon's run spans."""
        runs = {span.job: span for span in spans if span.name == "service.run"}
        queue = run = overhead = 0.0
        for job in outcome.detail["served"]:
            key = self.service.ledger.checkpoint_dir(job.job_id).name
            span = runs.get(key)
            if span is None:
                continue
            wait = span.start - job.acked
            ran = span.end - span.start
            queue += wait
            run += ran
            overhead += job.latency - wait - ran
        return {
            "service.queue_wait_s": queue,
            "service.run_s": run,
            "service.overhead_s": overhead,
        }
