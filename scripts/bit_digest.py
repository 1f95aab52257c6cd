"""Print a bit-level digest of one checkout's training and tracking outputs.

Usage, from anywhere:

    python3 scripts/bit_digest.py CHECKOUT > digest.txt

CHECKOUT is a source tree of this project, such as a `git archive` of a
commit unpacked into a directory. The script imports that tree's `src/`
package and its benchmark modules under `perfbench/` (the workloads, the
drivers and the clip generator), writes no bytecode into it, and prints:

- for float32 and float64, on the train_clip and train_crowded
  workloads' model configs, one line per step of `N_STEPS`
  `drivers.train_step`s on fixed-seed clips: the loss as a float hex, the
  sha256 of θ and of the group gradients after the step, and the sha256
  of every frame's newborn match cost and chosen pairs, the cost rebuilt
  from the step's `matches` with the checkout's
  `assignment.build_match_cost` and `drivers.WEIGHTS` (so a kernel change
  that moves the cost's bits but keeps the chosen pairs shows too);
- one line for a `STREAM_FRAMES`-frame `drivers.track_frame` stream on
  track_stream's config: the sha256 of its logits, boxes and hidden rows.

Two checkouts whose outputs are bit-identical print the same bytes, so
`cmp` compares them. One process digests one checkout, since a process
imports one `querytrack`; like the benchmark, it runs with one BLAS thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path
from types import ModuleType

N_STEPS = 4
STREAM_FRAMES = 60
CLIP_SEED = 7  # the k-th training step runs on the clip of bench.clip_seed(CLIP_SEED, k)
DTYPES = ("float32", "float64")


def load(root) -> ModuleType:
    """Import the checkout `root`'s `querytrack` and `perfbench/bench.py`,
    and return the `bench` module. Raises if this process already imported
    either from elsewhere."""
    root = Path(root).resolve()
    for sub in ("perfbench", "src"):
        if str(root / sub) not in sys.path:
            sys.path.insert(0, str(root / sub))
    import bench
    import querytrack

    for module, home in ((bench, root / "perfbench"), (querytrack, root / "src" / "querytrack")):
        if Path(module.__file__).resolve().parent != home:
            raise RuntimeError(f"{module.__name__} was imported from {module.__file__}, not from {home}")
    return bench


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"none" if a is None else str(a.dtype).encode() + a.tobytes())
    return h.hexdigest()


def match_arrays(drivers, matches):
    """Per frame of one step, the newborn match cost [n_detect, n_newborn]
    and the chosen (slot, identity) pairs as an int64 [k, 2] array."""
    import numpy as np  # here, not at the top: `main` fixes the BLAS threads before numpy loads

    for frame in matches:
        yield drivers.assignment.build_match_cost(frame.probs, frame.boxes, frame.newborn, drivers.WEIGHTS)
        yield np.array(frame.chosen.pairs, dtype=np.int64).reshape(-1, 2)


def train_lines(bench, w) -> list[str]:
    """`N_STEPS` training steps of the workload `w` per dtype, one line each."""
    lines = []
    for dtype in DTYPES:
        model = bench.TrackingModel(dataclasses.replace(w.cfg, dtype=dtype), seed=bench.MODEL_SEED)
        optimizer = bench.drivers.Adam(model.parameters())
        for k in range(N_STEPS):
            clip = bench.make_clip(bench.clip_seed(CLIP_SEED, k), w.n_frames, w.n_objects, w.cfg.image_size)
            result = bench.drivers.train_step(model, clip, optimizer)
            grads = _sha(g.grad for g in model.parameters().values())
            lines.append(
                f"{w.name} {dtype} step {k} loss {result.loss.hex()} theta {_sha([model.theta])} "
                f"grads {grads} matches {_sha(match_arrays(bench.drivers, result.matches))}"
            )
    return lines


def stream_line(bench, w) -> str:
    """`STREAM_FRAMES` tracked frames of the workload `w`, as bench's loop
    tracks them (each frame keeps as many rows as it has objects)."""
    model = bench.TrackingModel(w.cfg, seed=bench.MODEL_SEED)
    clip = bench.make_clip(bench.clip_seed(CLIP_SEED, 0), STREAM_FRAMES, w.n_objects, w.cfg.image_size)
    rows, track_set = {"logits": [], "boxes": [], "hidden": []}, None
    for image, gt in zip(clip.images, clip.annotations):
        preds, track_set = bench.drivers.track_frame(model, image, track_set, len(gt))
        for key, t in (("logits", preds.class_logits), ("boxes", preds.boxes), ("hidden", preds.hidden)):
            rows[key].append(t.data)
    digests = " ".join(f"{key} {_sha(arrays)}" for key, arrays in rows.items())
    return f"{w.name} {w.cfg.dtype} frames {STREAM_FRAMES} {digests}"


def digest_lines(bench, workloads: dict) -> list[str]:
    """Every line of the digest for `workloads`, by name as in `bench.WORKLOADS`."""
    lines = train_lines(bench, workloads["train_clip"]) + train_lines(bench, workloads["train_crowded"])
    return lines + [stream_line(bench, workloads["track_stream"])]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 scripts/bit_digest.py CHECKOUT", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before `load` first imports numpy, as in perfbench/run.py
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    bench = load(argv[0])
    print("\n".join(digest_lines(bench, bench.WORKLOADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
