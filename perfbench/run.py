"""querytrack benchmark: train and track on seeded synthetic clips, check the outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_clip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run instead. The lines before it are a
human-readable log: the environment, sample counts, failed checks and
every metric with its unit. Workload names, metric names and units, and
the default ``--seconds`` come from BENCHMARK.json. A single workload
exits 0 when it completes, failed checks or not (see ``correct``);
``--workload all`` exits 1 if any workload crashed or failed a check.
The workloads and phases are described in bench.py; spans of a traced
run are written to .perfbench_out/.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict | None]:
    """Run one workload in a fresh process; return its log and its result, None if it crashed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.stdout, result


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        log, result = run_child(name, args.seed, args.seconds, args.trace)
        print(log, end="", flush=True)
        if result is None or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "querytrack" / "__init__.py").is_file():
        print(f"querytrack sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    units = declared_metrics(bool(args.trace))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    metrics, tally, notes = bench.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out")
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(notes.pop("env"), sort_keys=True))
    for key, value in notes.items():
        print(f"{key} {value}")
    print(f"checks attempted {tally.attempted} failed {tally.failed}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
