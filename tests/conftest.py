"""Puts `perfbench/` on the import path, once for every test module: the
tests import the benchmark's clips, drivers, tracer and workloads by their
module names, as `perfbench/run.py` does."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
