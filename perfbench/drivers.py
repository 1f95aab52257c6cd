"""Thin training and tracking drivers over querytrack's public functions.

The package has no trainer or tracker yet, so these stand in for them. They
call the package through module attributes (``assignment.assign_newborn``,
``losses.frame_loss``, ...) so that the traced run can wrap each name where
it is looked up. The output checks live here too; callers run them outside
the timed regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

import querytrack.autodiff as ad
from querytrack import assignment, losses
from querytrack.model import QueryRecord, QuerySet, TrackingModel

WEIGHTS = losses.LossWeights()
MATCH_TOL = 1e-9


ADAM_LR = 2e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Plain Adam over the parameters that received a gradient this step."""

    def __init__(self, params: dict[str, ad.Tensor]):
        self.params = params
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * p.grad * p.grad
            p.data -= ADAM_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class FrameMatch:
    """What one frame's newborn matching saw and chose, kept for the check."""

    probs: np.ndarray
    boxes: list
    newborn: list
    chosen: assignment.Assignment


@dataclass
class StepResult:
    loss: float
    matches: list[FrameMatch]


def train_step(model: TrackingModel, clip, optimizer: Adam) -> StepResult:
    """One training step on one clip: forward, matching, loss, backward, update.

    Track queries for frame t+1 are the hidden states of the slots matched in
    frame t whose object is still present, in `propagate_assignment` order.
    """
    params = model.parameters()
    ad.reset_grads(params)
    matches = []
    with ad.Tape() as tape:
        acc = losses.ClipLossAccumulator()
        track_set, track_assign = None, assignment.Assignment()
        for image, gt in zip(clip.images, clip.annotations):
            preds = model.forward_frame(ad.Tensor(image), track_set)
            n_track = preds.n_track
            present = {obj.identity for obj in gt}
            alive = assignment.Assignment([p for p in track_assign.pairs if p[1] in present])
            tracked = alive.identities()
            det_probs = preds.class_probs.data[n_track:]
            det_boxes = preds.box_list()[n_track:]
            det_assign = assignment.assign_newborn(det_probs, det_boxes, gt, tracked, WEIGHTS)
            acc.add(losses.frame_loss(preds, track_assign, det_assign, gt, WEIGHTS))
            newborn = [obj for obj in gt if obj.identity not in tracked]
            matches.append(FrameMatch(det_probs, det_boxes, newborn, det_assign))

            track_assign = assignment.propagate_assignment(alive, det_assign)
            rows = [s for s, _ in sorted(alive.pairs)] + [n_track + s for s, _ in sorted(det_assign.pairs)]
            track_set = None
            if rows:
                records = [QueryRecord("track", track_id=i) for _, i in track_assign.pairs]
                track_set = QuerySet(ad.gather_rows(preds.hidden, rows), records)
        loss = losses.clip_average_loss(acc)
    tape.backward(loss)
    optimizer.step()
    return StepResult(loss.item(), matches)


def track_frame(model: TrackingModel, image: np.ndarray, track_set, n_keep: int):
    """Track one frame without a tape; returns (predictions, next track block).

    The next track block carries the hidden rows of the `n_keep`
    top-scoring slots, standing in for a score-threshold lifecycle filter.
    """
    preds = model.forward_frame(ad.Tensor(image), track_set)
    n_keep = min(n_keep, len(preds))
    if n_keep == 0:
        return preds, None
    keep = np.sort(np.argsort(-preds.scores(), kind="stable")[:n_keep])
    records = [QueryRecord("track", track_id=k + 1) for k in range(n_keep)]
    return preds, QuerySet(ad.Tensor(preds.hidden.data[keep]), records)


# ---------------------------------------------------------------------------
# output checks, run outside the timed regions
# ---------------------------------------------------------------------------


def check_train_step(model: TrackingModel, result: StepResult) -> list[str]:
    """Problems with one step's outputs; an empty list means it passed.

    Parameters that got no gradient at all are not a step failure here:
    they are reported separately as `autodiff.params_without_grad`.
    """
    problems = []
    if not np.isfinite(result.loss):
        problems.append(f"loss {result.loss}")
    for name, p in model.parameters().items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            problems.append(f"non-finite gradient in {name}")
    for frame in result.matches:
        problems.extend(check_matching(frame))
    return problems


def check_matching(frame: FrameMatch) -> list[str]:
    """The chosen newborn matching must cost what scipy's optimum costs."""
    if not frame.newborn:
        return [] if len(frame.chosen) == 0 else ["pairs chosen with no newborn objects"]
    cost = assignment.build_match_cost(frame.probs, frame.boxes, frame.newborn, WEIGHTS)
    column = {obj.identity: j for j, obj in enumerate(frame.newborn)}
    rows, cols = linear_sum_assignment(cost)
    if len(frame.chosen) != len(rows):
        return [f"{len(frame.chosen)} pairs chosen, optimum has {len(rows)}"]
    got = sum(cost[slot, column[ident]] for slot, ident in frame.chosen.pairs)
    best = cost[rows, cols].sum()
    if abs(got - best) > MATCH_TOL:
        return [f"matching cost {got!r} vs optimum {best!r}"]
    return []


def check_stream_frame(preds) -> list[str]:
    """Tracked probabilities and boxes must be finite and strictly inside (0, 1)."""
    problems = []
    for name, values in (("probabilities", preds.class_probs.data), ("boxes", preds.boxes.data)):
        if not (np.isfinite(values).all() and (values > 0).all() and (values < 1).all()):
            problems.append(f"{name} outside (0, 1)")
    return problems


def params_without_grad(model: TrackingModel) -> int:
    """Parameters the last backward pass did not reach."""
    return sum(1 for p in model.parameters().values() if p.grad is None)
