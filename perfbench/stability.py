#!/usr/bin/env python3
"""Stability and overhead report for the benchmark.

    python3 perfbench/stability.py [--workloads a,b] [--runs 10] [--sets 2]
                                   [--seconds S] [--first-seed 1] [--no-trace]

Run from the repository root. For each workload it makes `--sets` sets
of `--runs` untraced runs, each run with its own seed, and prints per
end-to-end metric and set: the median, the spread (distance between the
first and third quartile, as `statistics.quantiles(values, n=4)` gives
them, over the median) against the metric's bound from BENCHMARK.json,
and how far the later set's median moved from the first set's. Then it
makes one traced run per workload and prints the per-layer metrics and
the tracing overheads. Exits 1 when any spread exceeds its bound, any
run fails, or a median moves by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-2000:])
        return None, None
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's end-to-end values")
    args = parser.parse_args()

    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for _ in range(args.runs):
                _, result = run(workload, seed, args.seconds, trace=False)
                seed += 1
                if result is None or not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed - 1}: run failed or incorrect")
                    ok = False
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                if args.verbose:
                    print(f"  {workload} seed {seed - 1}: " + ", ".join(
                        f"{n} {v[-1]:.6g}" for n, v in values.items()), flush=True)
            sets.append(values)
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs, "
              f"{args.seconds:g} s each")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for values in sets:
                v = values[name]
                if len(v) < 2:
                    cells.append("too few runs")
                    ok = False
                    continue
                s = spread(v)
                medians.append(statistics.median(v))
                flag = "" if s <= bound / 3 else (" (>1/3 bound)" if s <= bound else " (>bound)")
                if s > bound:
                    ok = False
                cells.append(f"median {medians[-1]:.6g} spread {s:.3f}{flag}")
            moved = ""
            if len(medians) >= 2:
                shift = (medians[-1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    shift = -shift
                moved = f"  later set worse by {shift:+.3f}"
                if shift > bound:
                    ok = False
                    moved += " (>bound)"
            print(f"  {name:16} bound {bound:<5} " + " | ".join(cells) + moved)

    if not args.no_trace:
        for workload in args.workloads.split(","):
            record, result = run(workload, seed, args.seconds, trace=True)
            seed += 1
            if result is None or not result["correct"]:
                print(f"\n{workload}: traced run failed")
                ok = False
                continue
            print(f"\n{workload}: traced run (seed {seed - 1})")
            for key, value in sorted(record["inputs"].items()):
                if key.startswith("overhead") or key.startswith("lint_acc"):
                    print(f"  {key:24} {value}")
            for name, m in result["metrics"].items():
                print(f"  {name:26} {m['value']:.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
