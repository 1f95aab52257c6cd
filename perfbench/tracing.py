"""Spans and counters for the traced run, and the per-layer metrics from them.

A `Tracer` wraps querytrack's public functions where they are looked up
(``querytrack.assignment.hungarian``, ``querytrack.model.multi_head_attention``,
``TrackingModel.encode``, ...) and records one span per call: name, parent,
start and end. A layer is the span name's prefix: ``autodiff``, ``model``,
``assignment``, ``losses``, or ``harness`` for the benchmark's own drivers.
Backward time per op kind comes from wrapping each pull closure that
``Tape.record`` receives, keyed by the op the closure was defined in.
Float box calls in the matcher (``boxes.giou``/``boxes.l1_box``) are only
counted: a span each would cost more than the call.

Spans stay in memory until `write_spans` is called at the end of the run.
The untraced run installs nothing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import querytrack.autodiff as ad
import querytrack.model as model_mod
from querytrack import assignment, losses

import drivers

BACKWARD_KINDS = ("matmul", "slice_axis", "softmax", "layer_norm", "add", "transpose", "concat")
NODE_KINDS = ("matmul", "slice_axis", "softmax")
LAYERS = ("autodiff", "model", "assignment", "losses")

# (owner, attribute, span name); the owner is where callers look the name up
SPANNED = (
    (drivers, "train_step", "harness.step"),
    (drivers, "track_frame", "harness.step"),
    (drivers.Adam, "step", "harness.optimizer"),
    (model_mod.TrackingModel, "forward_frame", "model.forward_frame"),
    (model_mod.TrackingModel, "encode", "model.encode"),
    (model_mod.TrackingModel, "decode", "model.decode"),
    (model_mod, "multi_head_attention", "model.attention"),
    (model_mod, "save_checkpoint", "model.checkpoint_save"),
    (model_mod, "load_checkpoint", "model.checkpoint_load"),
    (assignment, "assign_newborn", "assignment.assign_newborn"),
    (assignment, "build_match_cost", "assignment.match_cost"),
    (assignment, "hungarian", "assignment.hungarian"),
    (assignment, "propagate_assignment", "assignment.propagate"),
    (losses, "frame_loss", "losses.frame_loss"),
    (losses, "focal_loss", "losses.focal"),
    (losses, "box_giou_rows", "losses.box_rows"),
    (losses, "box_l1_rows", "losses.box_rows"),
    (losses, "clip_average_loss", "losses.clip_average"),
    (ad.Tape, "backward", "autodiff.backward"),
    (ad, "reset_grads", "autodiff.reset_grads"),
)
COUNTED = ((assignment, "giou", "box_pairs"), (assignment, "l1_box", "box_pairs"))


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.backward_s: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original, replacement)

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, self._counted(key, getattr(owner, attr)))
        self._patch(assignment, "hungarian", self._counting_cells(assignment.hungarian))
        self._patch(ad.Tape, "record", self._recording(ad.Tape.record))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original, _ in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    @contextmanager
    def paused(self):
        """Run the body with the original functions in place."""
        saved = list(self._saved)
        for owner, attr, original, _ in reversed(saved):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, replacement in saved:
                setattr(owner, attr, replacement)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_cells(self, fn):
        counts = self.counts

        def wrapper(cost):
            counts["cost_cells"] += np.size(cost)
            return fn(cost)

        return wrapper

    def _recording(self, record):
        counts, backward_s = self.counts, self.backward_s

        def wrapper(tape, out, pull):
            kind = pull.__qualname__.split(".", 1)[0]
            counts["nodes"] += 1
            counts["nodes." + kind] += 1
            if kind not in BACKWARD_KINDS:
                kind = "other"

            def timed_pull(grad):
                start = perf_counter()
                pull(grad)
                backward_s[kind] += perf_counter() - start

            record(tape, out, timed_pull)

        return wrapper

    # -- reading the trace -------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds by span name, calls by span name, self seconds by layer)."""
        inclusive, calls, child = defaultdict(float), Counter(), defaultdict(float)
        for name, parent, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_by_layer = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            self_by_layer[name.split(".", 1)[0]] += end - start - child[index]
        return inclusive, calls, self_by_layer

    def write_spans(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"phase": label, "id": index, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")


def layer_metrics(setup: Tracer, run: Tracer, n_steps: int, n_frames: int,
                  speed: float) -> dict[str, float]:
    """Per-layer metrics from the set-up trace and the timed-phase trace.

    Times are in ms per frame unless the unit says per step (one frame per
    step on the stream), multiplied by `speed` to rescale them to the
    benchmark's reference host speed as the end-to-end times are.
    """
    inclusive, calls, self_s = run.totals()
    setup_inclusive, setup_calls, _ = setup.totals()
    per_frame = 1e3 * speed / n_frames
    per_step = 1e3 * speed / n_steps

    def per_call_ms(name: str) -> float:
        if not setup_calls[name]:
            return 0.0
        return 1e3 * speed * setup_inclusive[name] / setup_calls[name]

    m = {
        "autodiff.backward_ms": inclusive["autodiff.backward"] * per_step,
        "autodiff.nodes_per_frame": run.counts["nodes"] / n_frames,
        "model.encode_ms": inclusive["model.encode"] * per_frame,
        "model.decode_ms": inclusive["model.decode"] * per_frame,
        "model.attention_ms": inclusive["model.attention"] * per_frame,
        "model.attention_calls_per_frame": calls["model.attention"] / n_frames,
        "model.checkpoint_save_ms": per_call_ms("model.checkpoint_save"),
        "model.checkpoint_load_ms": per_call_ms("model.checkpoint_load"),
        "assignment.match_cost_ms": inclusive["assignment.match_cost"] * per_frame,
        "assignment.hungarian_ms": inclusive["assignment.hungarian"] * per_frame,
        "assignment.cost_cells_per_frame": run.counts["cost_cells"] / n_frames,
        "boxes.pair_calls_per_frame": run.counts["box_pairs"] / n_frames,
        "losses.frame_loss_ms": inclusive["losses.frame_loss"] * per_frame,
        "losses.focal_ms": inclusive["losses.focal"] * per_frame,
        "losses.box_rows_ms": inclusive["losses.box_rows"] * per_frame,
        "harness.step_overhead_ms": self_s["harness"] * per_step,
    }
    for kind in BACKWARD_KINDS + ("other",):
        m[f"autodiff.backward_ms.{kind}"] = run.backward_s[kind] * per_step
    for kind in NODE_KINDS:
        m[f"autodiff.nodes_per_frame.{kind}"] = run.counts["nodes." + kind] / n_frames
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_s[layer] * per_step
    return m
