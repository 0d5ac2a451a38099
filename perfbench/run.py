"""The repo benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite_compile --seed 2022 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``round(seconds / pass_seconds)`` passes (at least one) of a fixed
amount of work drawn from ``--seed``.  Where every pass runs the same
operations one at a time (``suite_compile``, ``certify_eval``), each
operation's fastest pass counts and ``wall_s`` is their sum; where
operations overlap (``served_sweep``), ``wall_s`` is the fastest pass
and the latencies pool over all passes.

``--trace 1`` alternates two untraced passes with two traced ones, whose
wrappers around the ``repro`` entry points (see ``layers.py``) record
spans.  It reports the per-layer metrics of the last traced pass and
``trace.overhead_frac``, the traced over the untraced wall estimate,
minus one.  Outputs are checked outside the timed region, on the first
pass (traced: the last traced pass); every other pass must reproduce
the first pass's outputs and counts exactly.
Human-readable lines come first; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the workloads multiply small matrices, and the served
# workload already runs two jobs at once on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import time
from pathlib import Path

_clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for daemon sockets, ledgers and stores (git-ignored).
WORKDIR = ROOT / ".perfbench_work"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Untraced/traced pass pairs of a ``--trace 1`` run.
TRACE_PAIRS = 2
WORKLOADS = ("suite_compile", "served_sweep", "certify_eval")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "cnot_reduction": "fraction",
    "ensemble_tvd": "TVD",
}

#: What ``wall_s`` is called in each workload's own terms.
WALL_NAMES = {
    "suite_compile": "compile_wall_s",
    "served_sweep": "sweep_wall_s",
    "certify_eval": "eval_wall_s",
}
#: Layers whose self time a single-threaded workload exists to load.
#: (The served workload runs two jobs at once, so its busy seconds add
#: up to more than its wall time and have no such share.)
TARGET_LAYERS = {
    "suite_compile": ("synthesis.",),
    "certify_eval": ("verify.", "noise.", "transpile.manila"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> float:
    """Put the checkout's ``src`` on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {src}; "
            "run the benchmark from the root of a full checkout"
        )
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = _clock()
    import repro  # noqa: F401
    import repro.service  # noqa: F401
    import repro.verify  # noqa: F401

    return _clock() - start


def _make(name: str, seed: int):
    if name == "suite_compile":
        from suite_compile import SuiteCompile as cls
    elif name == "served_sweep":
        from served_sweep import ServedSweep as cls
    else:
        from certify_eval import CertifyEval as cls
    return cls(seed, WORKDIR)


def main(argv=None) -> int:
    args = _parse(argv)
    import_seconds = _import_program()

    from common import Checks, median, peak_rss_mb, tail
    from layers import (
        EXACT_COUNTS,
        PER_LAYER,
        derive,
        install,
        kernel_evals_by_job,
        self_share,
    )
    from spans import Recorder, span_cost

    workload = _make(args.workload, args.seed)
    checks = Checks()
    setups: list[float] = []

    def set_up() -> None:
        workload.close()
        start = _clock()
        workload.prepare()
        setups.append(_clock() - start)

    passes = []
    traced = []
    recorder = Recorder()
    try:
        for _ in range(SETUP_REPEATS):
            set_up()
        if args.trace:
            # Untraced and traced passes alternate, so host drift during
            # the run weighs on both sides of trace.overhead_frac alike;
            # the per-layer metrics come from the last traced pass.
            for index in range(2 * TRACE_PAIRS):
                if index:
                    workload.reset()
                if index % 2 == 0:
                    passes.append(workload.timed_pass())
                    continue
                recorder.spans.clear()
                install(recorder)
                try:
                    traced.append(workload.timed_pass(recorder))
                    if index == 2 * TRACE_PAIRS - 1:
                        recorder.phase = "check"
                        tvd = workload.check(traced[-1], checks)
                finally:
                    recorder.unpatch()
        else:
            count = max(1, round(args.seconds / workload.pass_seconds))
            for index in range(count):
                if index:
                    workload.reset()
                passes.append(workload.timed_pass())
            tvd = workload.check(passes[0], checks)
    finally:
        workload.close()
        # Each run removes its own files; the shared parent goes when empty.
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    first = passes[0]
    for index, outcome in enumerate(passes[1:] + traced, start=1):
        checks.expect(
            outcome.digest == first.digest,
            f"pass {index} produced different outputs than pass 0",
        )
        for name in EXACT_COUNTS:
            if name in first.counts:
                checks.expect(
                    outcome.counts[name] == first.counts[name],
                    f"pass {index}: {name} {outcome.counts[name]} != "
                    f"{first.counts[name]}",
                )

    def estimate(runs) -> tuple[float, list[float], dict]:
        """``(wall, latency samples, per-op seconds)`` over some passes."""
        if workload.same_ops_each_pass:
            # A shared host slows runs in bursts, never speeds them up:
            # take each operation's fastest pass; the wall is their sum.
            best = {key: min(p.ops[key] for p in runs) for key in first.ops}
            wall = sum(best.values())
        else:
            best = runs[-1].ops
            wall = min(p.wall_seconds for p in runs)
        if first.latencies is not None:
            samples = [x for p in runs for x in p.latencies]
        elif workload.same_ops_each_pass:
            samples = list(best.values())
        else:
            samples = [x for p in runs for x in p.ops.values()]
        return wall, samples, best

    main_pass = traced[-1] if args.trace else passes[-1]
    if args.trace:
        untraced_wall = estimate(passes)[0]
        wall, ops, best = estimate(traced)
    else:
        wall, ops, best = estimate(passes)
    tail_value, tail_q, tail_beyond = tail(ops)
    lines = [
        f"workload {args.workload} seed {args.seed} passes {len(passes)} "
        f"trace {args.trace}",
        f"{WALL_NAMES[args.workload]} = {wall:.4f} s",
        f"latency tail = p{tail_q:g} of {len(ops)} samples "
        f"({tail_beyond} beyond)",
        f"setup samples s = {[round(s, 4) for s in setups]} "
        f"+ imports {import_seconds:.4f}",
    ]
    if args.workload == "served_sweep":
        lines.append(
            f"jobs_per_s = {len(main_pass.ops) / wall:.4f}"
        )
    lines.append("counts " + json.dumps(main_pass.counts, sort_keys=True))

    if args.trace:
        spans = recorder.spans
        pass_spans = [s for s in spans if s.phase == "pass"]
        check_spans = [s for s in spans if s.phase == "check"]
        split = (
            workload.queue_split(main_pass, pass_spans)
            if args.workload == "served_sweep"
            else {}
        )
        values = derive(pass_spans, check_spans, main_pass.counts, split)
        values["latency.tail_percentile"] = tail_q
        values["latency.samples"] = len(ops)
        values["trace.spans"] = len(spans)
        values["trace.overhead_frac"] = wall / untraced_wall - 1.0
        # The wrappers' own cost, free of host noise: spans times the
        # measured cost of one wrapped call, over the traced wall.
        values["trace.span_cost_frac"] = (
            len(pass_spans) * span_cost() / main_pass.wall_seconds
        )
        targets = TARGET_LAYERS.get(args.workload)
        if targets:
            share = self_share(pass_spans, targets, main_pass.wall_seconds)
            lines.append(
                f"self time of {'+'.join(targets)} = {100 * share:.2f}% "
                f"of traced wall {main_pass.wall_seconds:.4f} s"
            )
        if args.workload == "suite_compile":
            lines.append(
                "core.selection share = "
                f"{100 * values['core.selection_s'] / main_pass.wall_seconds:.4f}%"
            )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER
        }
        kernel_by_circuit = kernel_evals_by_job(pass_spans)
    else:
        metrics_values = {
            "setup_s": import_seconds + median(setups),
            "wall_s": wall,
            "latency_p50_s": median(ops),
            "latency_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb(),
            "cnot_reduction": first.cnot_reduction,
            "ensemble_tvd": tvd,
        }
        metrics = {
            name: {"value": metrics_values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        kernel_by_circuit = None

    if args.workload == "suite_compile":
        lines.extend(workload.rows(main_pass, best, kernel_by_circuit))
    attempted = max(checks.attempted, 1)
    lines.append(
        f"failed_frac = {checks.failed / attempted:.4f} "
        f"({checks.failed} of {attempted} checked operations)"
    )
    lines.extend(f"FAILED: {reason}" for reason in checks.failures)
    print("\n".join(lines))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
