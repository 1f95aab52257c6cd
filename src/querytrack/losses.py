"""Per-frame detection/tracking loss and its clip-level average.

The frame loss mirrors the matching cost: focal classification plus L1 and
generalized-IoU box regression for matched queries, focal background for
everything else. Per-frame terms are kept split into a track part and a
detect part so the two can be reported apart; the clip normalizer needs
only their object counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import Tensor
from querytrack.assignment import Assignment, GtObject, _check_annotations
from querytrack.boxes import box_giou_rows, box_l1_rows

__all__ = [
    "ClipLossAccumulator",
    "FrameLossTerms",
    "LossWeights",
    "clip_average_loss",
    "focal_loss",
    "frame_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Weights shared by the matching cost and the loss terms."""

    lambda_cls: float = 2.0
    lambda_l1: float = 5.0
    lambda_giou: float = 2.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        # every comparison with NaN is false, so NaN fails each check
        for name in ("lambda_cls", "lambda_l1", "lambda_giou", "focal_gamma"):
            value = getattr(self, name)
            if not 0 <= value < float("inf"):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if not 0 <= self.focal_alpha <= 1:
            raise ValueError(f"focal_alpha must be in [0, 1], got {self.focal_alpha!r}")
        if max(self.lambda_cls, self.lambda_l1, self.lambda_giou) == 0:
            raise ValueError("at least one loss weight must be positive")


def focal_loss(logits: Tensor, targets: np.ndarray, alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Summed binary focal loss of class logits against 0/1 targets, as one op.

    With p = sigmoid(x), positive cells contribute -alpha * (1-p)^gamma * log p
    and negative cells -(1-alpha) * p^gamma * log(1-p). Both logs are taken in
    logit space, log p = -softplus(-x) and log(1-p) = -softplus(x) with
    softplus(x) = logaddexp(0, x), and p and 1-p are their exponentials, so
    nothing saturates: a confident mistake keeps a loss growing linearly in
    |x| and a gradient of about alpha (positive) or 1-alpha (negative) in
    size. A background cell at logit 40 costs 0.75 * 40 = 30 with
    dL/dx = 0.75; a correct cell at |x| = 800 costs exactly 0. Backward, per
    cell, dL/dx is alpha * (1-p)^gamma * (-gamma * p * softplus(-x) - (1-p))
    for a positive and (1-alpha) * p^gamma * (gamma * (1-p) * softplus(x) + p)
    for a negative. It computes in the logits' dtype.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ad.ShapeError(f"targets shape {t.shape} != logits shape {logits.shape}")
    x = logits.data
    nlog_p, nlog_q = np.logaddexp(0.0, -x), np.logaddexp(0.0, x)
    p, q = np.exp(-nlog_p), np.exp(-nlog_q)
    pos, neg = t * alpha * q**gamma, (1.0 - t) * (1.0 - alpha) * p**gamma

    def pull(g):
        if logits.requires_grad:
            d = pos * (-gamma * p * nlog_p - q) + neg * (gamma * q * nlog_q + p)
            logits._accumulate(g * d)

    return ad.custom_op(np.sum(pos * nlog_p + neg * nlog_q), (logits,), pull)


def _block_total(
    cls: Tensor, l1_rows: Tensor | None, giou_rows: Tensor | None, weights: LossWeights
) -> Tensor:
    """One query block's weighted loss, as one op.

    cls is the block's focal loss; l1_rows and giou_rows [n,1] are the L1
    distances and GIoUs of its matched rows, both None when it has none.
    Forward, with the weights λ:

        cls·λ_cls + ((Σ l1_rows)·λ_L1 + (Σ (1 − giou_rows))·λ_GIoU)

    or cls·λ_cls alone without matched rows. Backward, for the output
    gradient g: g·λ_cls for cls, g·λ_L1 for each L1 row and −(g·λ_GIoU) for
    each GIoU row. These are the products of the chain of `scale`, sum,
    1 − x and `add` nodes it stands for, in its order (negation is exact, so
    1 − x rounds as x·−1 + 1 does), so the value and every gradient match
    that chain bit for bit.
    """
    total = cls.data * weights.lambda_cls
    inputs = (cls,)
    if l1_rows is not None:
        total = total + (
            l1_rows.data.sum() * weights.lambda_l1
            + (1.0 - giou_rows.data).sum() * weights.lambda_giou
        )
        inputs = (cls, l1_rows, giou_rows)

    def pull(g):
        if cls.requires_grad:
            cls._accumulate(g * weights.lambda_cls)
        if l1_rows is None:
            return
        if l1_rows.requires_grad:
            l1_rows._accumulate(np.broadcast_to(g * weights.lambda_l1, l1_rows.shape))
        if giou_rows.requires_grad:
            giou_rows._accumulate(np.broadcast_to(-(g * weights.lambda_giou), giou_rows.shape))

    return ad.custom_op(total, inputs, pull)


@dataclass
class FrameLossTerms:
    """One frame's loss split into its track and detect parts.

    `n_tracked` counts tracked objects still present in the ground truth;
    `n_newborn` counts matched newborn objects. Their sum is the frame's
    object count used by the clip normalizer.
    """

    track: Tensor
    detect: Tensor
    n_tracked: int
    n_newborn: int

    @property
    def total(self) -> Tensor:
        return ad.add(self.track, self.detect)

    @property
    def n_objects(self) -> int:
        return self.n_tracked + self.n_newborn


def frame_loss(
    preds,
    track_assign: Assignment,
    detect_assign: Assignment,
    gt_frame: list[GtObject],
    weights: LossWeights,
) -> FrameLossTerms:
    """Loss of one frame under a fixed label assignment.

    Track queries whose identity has left the ground truth are supervised as
    background (their object is gone); a detect pair pointing at a missing
    identity, a slot outside its block, or an identity in both assignments
    (one object supervising two queries) is a caller bug and raises.
    """
    n_track = preds.n_track
    n_total, n_classes = preds.class_logits.shape
    _check_annotations(gt_frame, n_classes)
    blocks = (("track", track_assign, n_track), ("detect", detect_assign, n_total - n_track))
    for block, assign, size in blocks:
        for slot, _ in assign.pairs:
            if not 0 <= slot < size:
                raise ValueError(f"{block} slot {slot} is outside the {block} block of {size} rows")
    both = sorted(track_assign.identities() & detect_assign.identities())
    if both:
        raise ValueError(f"identities {both} are in both the track and the detect assignment")
    by_identity = {obj.identity: obj for obj in gt_frame}

    class_targets = np.zeros((n_total, n_classes))
    track_rows, track_targets = [], []
    for slot, ident in track_assign.pairs:
        obj = by_identity.get(ident)
        if obj is None:
            continue  # dead object: background supervision
        class_targets[slot, obj.class_id] = 1.0
        track_rows.append(slot)
        track_targets.append(obj.box.to_array())
    detect_rows, detect_targets = [], []
    for slot, ident in detect_assign.pairs:
        obj = by_identity.get(ident)
        if obj is None:
            raise ValueError(f"detect assignment references missing identity {ident}")
        class_targets[n_track + slot, obj.class_id] = 1.0
        detect_rows.append(n_track + slot)
        detect_targets.append(obj.box.to_array())

    def block_loss(row_lo: int, row_hi: int, rows: list[int], targets: list) -> Tensor:
        logits = ad.slice_axis(preds.class_logits, 0, row_lo, row_hi)
        cls = focal_loss(logits, class_targets[row_lo:row_hi], weights.focal_alpha, weights.focal_gamma)
        if not rows:
            return _block_total(cls, None, None, weights)
        boxes = ad.gather_rows(preds.boxes, rows)
        gt = Tensor(np.stack(targets).astype(preds.boxes.data.dtype, copy=False))
        return _block_total(cls, box_l1_rows(boxes, gt), box_giou_rows(boxes, gt), weights)

    return FrameLossTerms(
        track=block_loss(0, n_track, track_rows, track_targets),
        detect=block_loss(n_track, n_total, detect_rows, detect_targets),
        n_tracked=len(track_rows),
        n_newborn=len(detect_rows),
    )


@dataclass
class ClipLossAccumulator:
    """Per-frame loss terms and object counts collected over one clip."""

    frames: list[FrameLossTerms] = field(default_factory=list)

    def add(self, terms: FrameLossTerms) -> None:
        self.frames.append(terms)

    @property
    def total_objects(self) -> int:
        return sum(f.n_objects for f in self.frames)


def clip_average_loss(acc: ClipLossAccumulator) -> Tensor:
    """Sum of all frame terms divided by the clip's total object count.

    The denominator is clamped at 1 so clips with no objects still train on
    their background terms. One backward pass through the result reaches
    every frame.
    """
    if not acc.frames:
        raise ValueError("loss accumulator has no frames")
    total = acc.frames[0].total
    for terms in acc.frames[1:]:
        total = ad.add(total, terms.total)
    return ad.scale(total, 1.0 / max(acc.total_objects, 1))
