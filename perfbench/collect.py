"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload train_crowded --seeds 1 2 3 4 5 --seconds 20
    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out baseline.json

Each run is a fresh `run.py` process. For every metric the summary gives
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    log, result = run.run_child(workload, seed, seconds, trace)
    if result is None:
        raise SystemExit(f"{workload} seed {seed} crashed:\n{log}")
    return result


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=float(run.SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    workloads = run.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    report = {}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: failed {results[-1]['failed']}/{results[-1]['attempted']}",
                  file=sys.stderr, flush=True)
        report[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": summarise(results),
        }
        for name, s in report[workload]["metrics"].items():
            print(f"{workload:14s} {name:34s} median {s['median']:12.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
