"""Run two checkouts' benchmark in alternating pairs and compare their end-to-end metrics.

Usage, from anywhere:

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed S0]

PARENT and CHANGE are source trees of this project, such as `git archive`s
of two commits unpacked into directories. Pair k runs `perfbench/run.py`
of each checkout on workload W with seed S0 + k (default S0 is 0), each in
a fresh process with the checkout as its working directory, for S seconds
(default: `run_seconds` of the parent's BENCHMARK.json). The parent runs
first in even pairs and the change first in odd ones, so neither side
always meets the machine in the same state. The script reads nothing of
a checkout but its `perfbench/` and `BENCHMARK.json`.

After the runs it prints one line per end-to-end metric of the parent's
BENCHMARK.json: the parent's and the change's median (in full, so a
bit-identical `loss_end` reads the same), the parent's quartile spread
(third quartile minus first), in how many pairs the change was strictly
better by the metric's `better` (and in how many the two tied), whether
a gain is claimable, and whether the change's median is within the
metric's `bound`, a fraction of the parent's median. A gain is claimable
when the change's median is better, the change won at least 9 of every 10
pairs (a tie is no win), and the gap between the medians is larger than
the parent's quartile spread. A metric whose parent runs all read one
value and whose change runs all read one value is deterministic: its row
says so and gives the relative change, and it claims no gain, since the
spread of such a metric is 0 and would let a rounding-level move pass.
Pairs with a bad run are left out of the summary.
The script exits 1 when any run crashed, read `correct: false` or had
`failed` > 0, and 0 otherwise: it reports the bounds, it does not enforce
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run of `checkout` in a fresh process: its result
    object (the last line of its output), or None if it crashed."""
    cmd = [sys.executable, "-B", str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_problem(result: dict | None) -> str | None:
    """Why a run's result is bad, or None when it is good."""
    if result is None:
        return "crashed"
    if not result["correct"]:
        return "read correct: false"
    if result["failed"] > 0:
        return f"failed {result['failed']} checks"
    return None


def quartile_spread(values: list[float]) -> float:
    """Third quartile minus first (numpy's default linear interpolation)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per metric of `metrics` (BENCHMARK.json's `end_to_end`
    entries) over `pairs` of (parent, change) metric values by name."""
    rows = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        if m["better"] not in ("lower", "higher"):
            raise ValueError(f"metric {name} has better={m['better']!r}, not 'lower' or 'higher'")
        sign = 1.0 if m["better"] == "lower" else -1.0  # sign * value: lower is better
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        spread = quartile_spread(parent)
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        deterministic = len(set(parent)) == len(set(change)) == 1
        rows.append({
            "name": name,
            "unit": m["unit"],
            "parent_median": p_med,
            "change_median": c_med,
            "parent_spread": spread,
            "wins": wins,
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "deterministic": deterministic,
            "relative_change": (c_med - p_med) / p_med,
            "claimable": not deterministic and sign * (p_med - c_med) > spread and 10 * wins >= 9 * len(pairs),
            "bound": bound,
            "within_bound": sign * c_med <= sign * p_med * (1.0 + sign * bound),
        })
    return rows


def format_row(row: dict) -> str:
    spread = (
        f"deterministic, relative change {row['relative_change']:+.2g}" if row["deterministic"]
        else f"parent spread {row['parent_spread']:.3g}"
    )
    return (
        f"{row['name']:12s} {row['unit']:5s} parent {row['parent_median']} "
        f"change {row['change_median']} {spread} "
        f"change won {row['wins']}/{row['pairs']} ({row['ties']} tied) "
        f"gain claimable: {'yes' if row['claimable'] else 'no'} "
        f"within bound {row['bound']}: {'yes' if row['within_bound'] else 'NO'}"
    )


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json has {workloads}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [m["name"] for m in spec["end_to_end"]]
    pairs, bad = [], 0
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        results = {side: run_once(roots[side], args.workload, seed, seconds) for side in order}
        problems = {side: run_problem(results[side]) for side in SIDES}
        report = ", ".join(f"{side} {problems[side] or 'ok'}" for side in order)
        print(f"pair {k + 1}/{args.pairs} seed {seed}: {report}", flush=True)
        if any(problems.values()):
            bad += sum(p is not None for p in problems.values())
            continue
        pairs.append(tuple({n: results[side]["metrics"][n]["value"] for n in names} for side in SIDES))
    if pairs:
        print(f"{args.workload}: {len(pairs)} good pairs, {seconds:g} s per run")
        for row in summarize(spec["end_to_end"], pairs):
            print(format_row(row))
    if bad:
        print(f"{bad} bad runs", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
