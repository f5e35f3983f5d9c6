#!/usr/bin/env python3
"""Steadiness and repeatability checks for the service benchmark.

Run from the repository root:

``python3 servicebench/check.py spread --workload chain-rw --seeds 1-10``
    runs the benchmark once per seed (``--trace 0``) and prints, per
    end-to-end metric, the median, the quartiles and the spread (the
    inter-quartile distance over the median) against the metric's
    bound in BENCHMARK.json.

``python3 servicebench/check.py counts --workload chain-rw --seed 1``
    runs the traced benchmark twice on one seed and compares every
    count metric; they must repeat exactly on the single-client
    workloads (chain-rw, recover). On staff-commit it reports the
    spread instead.

``python3 servicebench/check.py baseline --spread A.json B.json C.json``
    writes ``servicebench/baseline.json`` from the ``spread`` outputs
    of the three workloads, one traced run per workload on seeds 1
    and 2, and the ``counts`` comparison of each workload.

Add ``--out FILE`` to ``spread`` or ``counts`` to keep the runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def spread(args) -> dict:
    spec = benchmark_spec()
    runs = []
    for seed in seeds(args.seeds):
        result = run_once(args.workload, seed, spec["run_seconds"], 0)
        runs.append(result)
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}",
            file=sys.stderr,
        )
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        table[name] = summarize(values)
        table[name]["bound"] = metric["bound"]
        row = table[name]
        print(
            f"{name:22s} median {row['median']:10.4g}  "
            f"q1 {row['q1']:10.4g}  q3 {row['q3']:10.4g}  "
            f"spread {row['spread']:.3f}  bound/3 {metric['bound'] / 3:.3f}"
            + ("" if row["spread"] < metric["bound"] / 3 else "  WIDE")
        )
    return {"workload": args.workload, "seeds": args.seeds, "metrics": table,
            "runs": runs}


def compare_counts(workload: str, first: dict, second: dict) -> dict:
    """Every count metric of two same-seed traced runs, side by side;
    exits non-zero if a single-client workload's counts differ."""
    names = [
        m["name"]
        for m in benchmark_spec()["per_layer"]
        if m["unit"].startswith("count")
        and m["name"] not in ("trace.blocks", "trace.count_mismatches")
    ]
    report = {}
    differing = 0
    for name in names:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        report[name] = [a, b]
        if a != b:
            differing += 1
            mean = (a + b) / 2
            print(f"{name:40s} {a:12.6g} {b:12.6g}  spread "
                  f"{abs(a - b) / mean if mean else 0:.3f}")
    single = workload in ("chain-rw", "recover")
    print(
        f"{workload}: {differing} of {len(names)} count metrics differ"
        + (" (must be 0)" if single else "")
    )
    if single and differing:
        raise SystemExit(1)
    return report


def counts(args) -> dict:
    seconds = benchmark_spec()["run_seconds"]
    first = run_once(args.workload, args.seed, seconds, 1)
    second = run_once(args.workload, args.seed, seconds, 1)
    report = compare_counts(args.workload, first, second)
    return {"workload": args.workload, "seed": args.seed, "counts": report}


def baseline(args) -> dict:
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "end_to_end": {}, "traced": {},
           "counts_seed_1": {}}
    for path in args.spread:
        with open(path) as handle:
            result = json.load(handle)
        out["end_to_end"][result["workload"]] = {
            "seeds": result["seeds"],
            "metrics": {
                name: {k: row[k] for k in ("median", "q1", "q3", "spread")}
                for name, row in result["metrics"].items()
            },
        }
    for workload in out["end_to_end"]:
        runs = [run_once(workload, seed, seconds, 1) for seed in (1, 1, 2)]
        out["traced"][workload] = {
            f"seed {seed}": {
                name: entry["value"] for name, entry in run["metrics"].items()
            }
            for seed, run in ((1, runs[0]), (2, runs[2]))
        }
        out["counts_seed_1"][workload] = compare_counts(
            workload, runs[0], runs[1]
        )
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(out, handle, indent=1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", default="1-10")
    p_counts = sub.add_parser("counts")
    p_counts.add_argument("--workload", required=True)
    p_counts.add_argument("--seed", type=int, default=1)
    for p in (p_spread, p_counts):
        p.add_argument("--out")
    p_baseline = sub.add_parser("baseline")
    p_baseline.add_argument("--spread", nargs="+", required=True)
    args = parser.parse_args()
    if args.command == "baseline":
        baseline(args)
        return 0
    result = spread(args) if args.command == "spread" else counts(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
