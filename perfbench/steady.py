"""Steadiness mode: two sets of runs of the same code, spread vs bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads served_sweep --runs 5 --sets 1
    python3 perfbench/steady.py --counts

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py``
``--runs`` times per set, each run with its own seed (the same seed list
in every set), and reports per end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound.  A spread over the
bound is flagged ``UNHELD``; one over a third of it ``wide``.  Between
sets it reports how far the second median moved in the metric's worse
direction, flagged ``MOVED`` past the bound.  For ``suite_compile`` it
also reports the geometric mean of per-circuit median-seconds ratios,
set 2 over set 1, so one circuit's change cannot pass for the suite's.

``--counts`` runs the traced mode twice per workload at the recorded
seed and checks that the counts the benchmark names as exact repeat.

Every run prints its own lines; nothing is hidden or dropped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOTES = HERE / "notes.json"


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int, trace: int):
    """One benchmark run; returns (result JSON, per-circuit seconds).

    Raises when the run fails or prints other metrics or units than
    ``BENCHMARK.json`` declares for its trace mode.
    """
    command, seconds = bench["command"], bench["run_seconds"]
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    circuits = {}
    in_rows = False
    for line in lines:
        if line.startswith("circuit "):
            in_rows = True
            continue
        if in_rows:
            if line.startswith("geomean"):
                in_rows = False
                continue
            parts = line.split()
            circuits[parts[0]] = float(parts[1])
    result = json.loads(lines[-1])
    declared = {
        m["name"]: m["unit"]
        for m in bench["per_layer" if trace else "end_to_end"]
    }
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        raise RuntimeError(
            f"{workload}: printed metrics {sorted(printed.items())} differ "
            f"from BENCHMARK.json {sorted(declared.items())}"
        )
    return result, circuits


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def steadiness(args, bench: dict) -> int:
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + i for i in range(args.runs)]
    report = {}
    problems = 0
    # Sets run one after the other over every workload, so the second
    # set meets whatever the host has drifted to since the first.
    collected = {workload: [] for workload in names}
    for set_index in range(args.sets):
        for workload in names:
            values: dict[str, list[float]] = {}
            circuits: dict[str, list[float]] = {}
            for seed in seeds:
                result, rows = run_once(bench, workload, seed, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: FAILED checks {result}")
                    problems += 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, secs in rows.items():
                    circuits.setdefault(name, []).append(secs)
                print(
                    f"{workload} set {set_index + 1} seed {seed}: "
                    + " ".join(
                        f"{k}={v['value']:.6g}"
                        for k, v in result["metrics"].items()
                    ),
                    flush=True,
                )
            collected[workload].append((values, circuits))
    for workload, sets in collected.items():
        report[workload] = {}
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s) ==")
        print(f"{'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}  flag")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            rows = []
            for set_index, (values, _) in enumerate(sets):
                med, q1, q3, width = spread(values[name])
                if name == "setup_s":
                    flag = ""
                elif width > bound:
                    flag = "UNHELD"
                    problems += 1
                elif width > bound / 3:
                    flag = "wide"
                else:
                    flag = ""
                print(f"{name:<18}{set_index + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{width:>9.4f}{bound:>8.3f}  {flag}")
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": width, "flag": flag})
            if len(sets) > 1:
                moved = worse_by(rows[0]["median"], rows[1]["median"], spec["better"])
                flag = "MOVED" if moved > bound else ""
                problems += bool(flag)
                print(f"{'':<18}second median worse by {moved:+.4f} "
                      f"(bound {bound})  {flag}")
                rows.append({"second_worse_by": moved, "flag": flag})
            report[workload][name] = rows
        if len(sets) > 1 and sets[0][1]:
            first, second = sets[0][1], sets[1][1]
            ratios = [
                statistics.median(second[c]) / statistics.median(first[c])
                for c in first
            ]
            geo = statistics.geometric_mean(ratios)
            print(f"per-circuit seconds, geomean of set-2/set-1 median ratios: "
                  f"{geo:.4f} over {len(ratios)} circuits")
            report[workload]["circuit_geomean_ratio"] = geo
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if problems else 0


def counts(args, bench: dict) -> int:
    from layers import EXACT_COUNTS

    seed = json.loads(NOTES.read_text())["seeds"]["recorded"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    problems = 0
    for workload in names:
        runs = [run_once(bench, workload, seed, 1)[0] for _ in range(2)]
        for name in EXACT_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in runs)
            same = a == b
            problems += not same
            print(f"{workload:<14} {name:<30} {a:>10} {b:>10} "
                  f"{'same' if same else 'DIFFERENT'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--counts", action="store_true",
                        help="check exact counts instead of spreads")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    bench = _load_benchmark()
    return counts(args, bench) if args.counts else steadiness(args, bench)


if __name__ == "__main__":
    sys.exit(main())
