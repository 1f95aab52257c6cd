"""Workloads and measurement phases of the querytrack benchmark.

Load model: one process per workload, one BLAS thread, a closed loop (the
next training step or tracked frame starts when the previous one ends).
A run goes through these phases:

1. set-up, repeated `SETUP_REPEATS` times (median reported as `setup_s`):
   model construction and clip generation, plus a checkpoint save and load
   on `track_stream`;
2. warm-up steps, checked but not timed;
3. the timed closed loop for `--seconds` seconds, each step checked
   outside its timed region; with `--trace 1` the first half runs
   untraced and the second half traced, and a few steps under
   tracemalloc follow;
4. the loss probe: `PROBE_STEPS` training steps on one fixed-seed clip,
   whose last losses give `loss_end`; the loss must fall below the first
   step's, and a second fresh model's first loss must equal the probe's
   bit for bit.

Host speed: on a shared host the speed of one core drifts; on a shared
2-vCPU Intel Xeon it changes by up to 2x within seconds. Every end-to-end
time is therefore measured beside a fixed reference kernel
(`SpeedReference`) and rescaled to the speed at which that kernel takes
`REFERENCE_S`: a step that took 120 ms while the kernel ran 1.2x slower
than `REFERENCE_S` counts 100 ms. The kernel does not use the package, so
a change to querytrack moves the rescaled times in the same proportion as
the raw ones. Raw medians are printed in the log beside them.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import querytrack.model as model_mod
from querytrack.model import ModelConfig, TrackingModel

import drivers
from clips import Clip, make_clip
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 7
WARMUP = {"train": 2, "stream": 50}  # untimed steps before the timed loop
MIN_SAMPLES = 5
MODEL_SEED = 0  # the seed argument makes the clips; the model's initial weights are fixed
PROBE_SEED = 20210507
PROBE_STEPS = 10
PROBE_TAIL = 5  # loss_end averages this many final probe losses
ALLOC_STEPS = 3  # steps measured under tracemalloc in the traced run
REFERENCE_S = 6.5e-3  # SpeedReference.seconds() on an idle 2-vCPU Intel Xeon, one BLAS thread
STREAM_FRAMES_PER_REFERENCE = 20  # train steps are bracketed one by one


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "stream"
    cfg: ModelConfig
    n_frames: int  # frames per clip
    n_objects: int  # live objects per clip, see clips.make_clip
    n_clips: int  # clips generated per run; training cycles through them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_clip", "train", ModelConfig(), n_frames=5, n_objects=5, n_clips=32),
        Workload("train_crowded", "train", ModelConfig(n_detect_queries=100),
                 n_frames=5, n_objects=48, n_clips=32),
        Workload("track_stream", "stream", ModelConfig(), n_frames=400, n_objects=5, n_clips=1),
    )
}


def probe_workload(w: Workload) -> Workload:
    """The training set-up whose learning `loss_end` guards for this workload."""
    return w if w.kind == "train" else WORKLOADS["train_clip"]


def clip_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_clips(w: Workload, seed: int) -> list[Clip]:
    return [make_clip(clip_seed(seed, k), w.n_frames, w.n_objects, w.cfg.image_size)
            for k in range(w.n_clips)]


def same_clip(a: Clip, b: Clip) -> bool:
    return np.array_equal(a.images, b.images) and a.annotations == b.annotations


class Loop:
    """The closed loop of one workload: set-up state plus a step function."""

    def __init__(self, w: Workload, seed: int, scratch: Path):
        self.w = w
        self.clips = make_clips(w, seed)
        if w.kind == "train":
            self.model = TrackingModel(w.cfg, seed=MODEL_SEED)
            self.optimizer = drivers.Adam(self.model.parameters())
        else:
            path = scratch / "stream.ckpt"
            model_mod.save_checkpoint(path, TrackingModel(w.cfg, seed=MODEL_SEED))
            self.model, _ = model_mod.load_checkpoint(path)
            self.track_set = None
        self.position = 0

    @property
    def frames_per_step(self) -> int:
        return self.w.n_frames if self.w.kind == "train" else 1

    def step(self, pause_trace=nullcontext) -> tuple[float, list[str]]:
        """Run one step; return its duration in seconds and any check problems.

        The checks run outside the timed region, inside `pause_trace()`, so a
        traced run does not count their calls into the package.
        """
        if self.w.kind == "train":
            clip = self.clips[self.position % len(self.clips)]
            start = time.perf_counter()
            result = drivers.train_step(self.model, clip, self.optimizer)
            elapsed = time.perf_counter() - start
            with pause_trace():
                problems = drivers.check_train_step(self.model, result)
        else:
            clip = self.clips[0]
            t = self.position % len(clip)
            if t == 0:
                self.track_set = None
            start = time.perf_counter()
            preds, self.track_set = drivers.track_frame(
                self.model, clip.images[t], self.track_set, len(clip.annotations[t]))
            elapsed = time.perf_counter() - start
            with pause_trace():
                problems = drivers.check_stream_frame(preds)
        self.position += 1
        return elapsed, problems


class SpeedReference:
    """A fixed kernel, independent of querytrack, that measures the host's current speed.

    It mixes what the program spends its time on: 64x64 BLAS products,
    small numpy element-wise ops and plain interpreter work. It allocates
    no garbage-collected objects, so it neither triggers nor absorbs the
    program's collections.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((64, 64)), rng.random((64, 64))
        self.out = np.empty((64, 64))
        self.x, self.w, self.bias = rng.random((20, 64)), 0.1 * rng.random((64, 64)), rng.random(64)
        self.table: dict[int, int] = {}

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(300):
            np.matmul(self.a, self.b, out=self.out)
            float(self.out[0, 0])
        for _ in range(150):
            y = np.maximum(self.x @ self.w + self.bias, 0.0)
            z = np.exp(-y)
            float((z / z.sum(axis=1, keepdims=True))[0, 0])
        total = 0
        for i in range(20000):
            self.table[i & 255] = total
            total += i * 3 % 7
        return time.perf_counter() - start

    def timed(self, fn):
        """Run fn(); return (its result, raw seconds, rescaled seconds)."""
        before = self.seconds()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, raw * 2.0 * REFERENCE_S / (before + self.seconds())


class Tally:
    """Checked units attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_phase(loop: Loop, seconds: float, tally: Tally, label: str, ref: SpeedReference,
              pause_trace=nullcontext):
    """Step durations in seconds, raw and rescaled, and the reference times between them."""
    raw, scaled = [], []
    batch = 1 if loop.w.kind == "train" else STREAM_FRAMES_PER_REFERENCE
    refs = [ref.seconds()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(raw) < MIN_SAMPLES:
        elapsed = []
        for _ in range(batch):
            step_s, problems = loop.step(pause_trace)
            elapsed.append(step_s)
            tally.add(f"{label} {len(raw) + len(elapsed)}", problems)
        refs.append(ref.seconds())
        factor = 2.0 * REFERENCE_S / (refs[-2] + refs[-1])
        raw.extend(elapsed)
        scaled.extend(e * factor for e in elapsed)
    return raw, scaled, refs


def loss_probe(w: Workload, tally: Tally) -> tuple[float, float]:
    """Fit one fixed-seed clip; return (first loss, mean of the last PROBE_TAIL losses).

    Every step sees the same clip, so without learning each loss would
    repeat the first one exactly: the drop from the first loss to
    `loss_end` is what the gradients and the update bought.
    """
    clip = make_clip(clip_seed(PROBE_SEED, 0), w.n_frames, w.n_objects, w.cfg.image_size)
    model = TrackingModel(w.cfg, seed=PROBE_SEED)
    optimizer = drivers.Adam(model.parameters())
    history = []
    for k in range(PROBE_STEPS):
        result = drivers.train_step(model, clip, optimizer)
        tally.add(f"probe {k}", drivers.check_train_step(model, result))
        history.append(result.loss)
    loss_end = float(np.mean(history[-PROBE_TAIL:]))
    tally.add("probe learns",
              [] if loss_end < history[0] else [f"loss_end {loss_end!r} >= first loss {history[0]!r}"])
    twin = TrackingModel(w.cfg, seed=PROBE_SEED)
    first = drivers.train_step(twin, clip, drivers.Adam(twin.parameters())).loss
    tally.add("first-step determinism",
              [] if first.hex() == history[0].hex() else [f"{first!r} != {history[0]!r}"])
    return history[0], loss_end


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path) -> tuple[dict, Tally, dict]:
    """Run one workload; returns (metrics, check tally, notes for the log)."""
    w = WORKLOADS[name]
    tally = Tally()
    notes: dict = {"env": environment()}
    ref = SpeedReference()
    out_dir.mkdir(exist_ok=True)
    setup_trace = Tracer()
    setup_raw, setup_scaled = [], []
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for _ in range(SETUP_REPEATS):
            with setup_trace if traced else nullcontext():
                loop, raw_s, scaled_s = ref.timed(lambda: Loop(w, seed, Path(scratch)))
            setup_raw.append(raw_s)
            setup_scaled.append(scaled_s)
    tally.add("clip reproducibility",
              [] if same_clip(make_clips(w, seed)[0], loop.clips[0]) else ["clip differs"])

    for k in range(WARMUP[w.kind]):
        tally.add(f"warm-up {k}", loop.step()[1])

    if not traced:
        raw, durations, _ = run_phase(loop, seconds, tally, "step", ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_frames = len(durations) * loop.frames_per_step
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "frames_per_s": n_frames / sum(durations),
            "step_ms_p50": 1e3 * float(np.percentile(durations, 50)),
            "step_ms_p90": 1e3 * float(np.percentile(durations, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        notes["probe_loss_first"], metrics["loss_end"] = loss_probe(probe_workload(w), tally)
        notes["samples"] = len(durations)
        notes["raw_setup_s"] = statistics.median(setup_raw)
        notes["raw_frames_per_s"] = n_frames / sum(raw)
        notes["raw_step_ms_p50_p90"] = [1e3 * float(np.percentile(raw, q)) for q in (50, 90)]
        notes["failed_frac"] = tally.failed / tally.attempted
        return metrics, tally, notes

    _, untraced, _ = run_phase(loop, seconds / 2, tally, "untraced step", ref)
    with Tracer() as run_trace:
        _, traced_durations, refs = run_phase(loop, seconds / 2, tally, "traced step", ref,
                                              run_trace.paused)
    n_steps = len(traced_durations)
    metrics = layer_metrics(setup_trace, run_trace, n_steps, n_steps * loop.frames_per_step,
                            REFERENCE_S / statistics.median(refs))
    metrics["autodiff.params_without_grad"] = (
        drivers.params_without_grad(loop.model) if w.kind == "train" else 0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_durations) / statistics.median(untraced) - 1.0)
    metrics["autodiff.peak_alloc_mb"] = peak_alloc_mb(loop, tally)
    loss_probe(probe_workload(w), tally)

    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    setup_trace.write_spans(spans_path, "setup")
    run_trace.write_spans(spans_path, "timed")
    notes["samples"] = n_steps
    notes["spans"] = str(spans_path)
    notes["failed_frac"] = tally.failed / tally.attempted
    return metrics, tally, notes


def peak_alloc_mb(loop: Loop, tally: Tally) -> float:
    """Median over a few steps of the tracemalloc peak within one step."""
    peaks = []
    tracemalloc.start()
    try:
        for k in range(ALLOC_STEPS):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, problems = loop.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            tally.add(f"tracemalloc step {k}", problems)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 2**20

