"""Per-frame detection/tracking loss and its clip-level average.

The frame loss mirrors the matching cost: focal classification plus L1 and
generalized-IoU box regression for matched queries, focal background for
everything else. As in MOTR's collective average loss, a frame's loss is
one term over all its queries, track and detect alike, and the clip
normalizer needs only each frame's object count.

On the tape a frame's loss is one node and the clip average one more, as
DETR's criterion takes one focal call over all logits and one L1/GIoU call
over all matched boxes. A frame's value is one sum over its rows: the
focal cells of every query row, then the box terms of every matched row.
Each node computes what the unfused chain of single-purpose ops would
(`focal_loss`, `boxes.box_l1_rows`, `boxes.box_giou_rows`, with the
gathering and weighting around them), with the same products in the same
order, so values and gradients match that chain bit for bit. The chain is
written out in the tests, with test-local scaling ops, as the reference
for both nodes. The formulas are the same numpy kernels in both:
`_focal_cells` here, `_l1_rows` and `_giou_rows` in `boxes`.
The targets come from the matching cost's reader, `_read_annotations`,
and GIoU clamps degenerate boxes as the matching kernels do (`boxes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import Tensor
from querytrack.assignment import Assignment, GtObject, _check_disjoint, _read_annotations
from querytrack.boxes import _giou_rows, _giou_rows_back, _l1_rows
from querytrack.boxes import box_giou_rows, box_l1_rows  # noqa: F401  the benchmark's tracer wraps them here

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
    """Weights shared by the matching cost and the loss terms.

    Each is a real number, not a bool: anything else, or a value out of its
    range, raises a ValueError naming the field. Each is stored as a Python
    float, the form of every scalar constant the ops take.
    """

    lambda_cls: float = 2.0
    lambda_l1: float = 5.0
    lambda_giou: float = 2.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value, alpha = getattr(self, f.name), f.name == "focal_alpha"
            # the type before the range: True passes it as 1 and "2" raises a TypeError; NaN fails it
            if not ad._is_real(value) or not (
                0 <= value <= 1 if alpha else 0 <= value < float("inf")
            ):
                want = "a real number in [0, 1]" if alpha else "a finite, nonnegative real number"
                raise ValueError(f"{f.name} must be {want}, got {value!r}")
            # stored as a Python float: a numpy float64 would make a float32 model's loss float64
            object.__setattr__(self, f.name, float(value))
        if max(self.lambda_cls, self.lambda_l1, self.lambda_giou) == 0:
            raise ValueError("at least one loss weight must be positive")


def _focal_cells(x: np.ndarray, t: np.ndarray, alpha: float, gamma: float):
    """(per-cell focal loss, saved arrays) of logits x against 0/1 targets t,
    both [n, C]; every saved array is [n, C] too, so a slice of rows of
    each is what those rows' gradient needs."""
    nlog_p, nlog_q = np.logaddexp(0.0, -x), np.logaddexp(0.0, x)
    p, q = np.exp(-nlog_p), np.exp(-nlog_q)
    pos, neg = t * alpha * q**gamma, (1.0 - t) * (1.0 - alpha) * p**gamma
    return pos * nlog_p + neg * nlog_q, (nlog_p, nlog_q, p, q, pos, neg)


def _focal_cells_back(saved, gamma: float) -> np.ndarray:
    """d(cell)/dx of every cell of `_focal_cells`, from its saved arrays."""
    nlog_p, nlog_q, p, q, pos, neg = saved
    return pos * (-gamma * p * nlog_p - q) + neg * (gamma * q * nlog_q + p)


def focal_loss(logits: Tensor, targets: np.ndarray, alpha: float = LossWeights.focal_alpha,
               gamma: float = LossWeights.focal_gamma) -> Tensor:
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
    cells, saved = _focal_cells(logits.data, t, alpha, gamma)

    def pull(g):
        logits._accumulate(g * _focal_cells_back(saved, gamma))

    return ad.custom_op(np.sum(cells), (logits,), pull)


@dataclass
class FrameLossTerms:
    """One frame's loss and its object count.

    `loss` is the one node `frame_loss` records, one sum over the frame's
    rows, track and detect alike. `n_objects` counts the
    tracked objects still present in the ground truth plus the matched
    newborn objects: the frame's share of the clip normalizer.
    """

    loss: Tensor
    n_objects: int


def frame_loss(
    preds,
    track_assign: Assignment,
    detect_assign: Assignment,
    gt_frame: list[GtObject],
    weights: LossWeights,
) -> FrameLossTerms:
    """Loss of one frame under a fixed label assignment, as one op.

    Track queries whose identity has left the ground truth are supervised as
    background (their object is gone); a detect pair pointing at a missing
    identity, a slot outside its block, or an identity in both assignments
    (one object supervising two queries) is a caller bug and raises, as do
    class logits and boxes in two dtypes.

    The forward takes the focal cells of every query row once and the L1
    and GIoU geometry of every matched row once, track rows first, then
    newborn rows. The node reads `preds.class_logits` and, when any row is
    matched, `preds.boxes`. Its value is one sum over the frame's rows,

        Σ focal cells · λ_cls + (Σ L1 · λ_L1 + Σ (1 − GIoU) · λ_GIoU)

    with the focal sum over every logit row and the box sums over every
    matched row, 0 without one. Its backward, for the output gradient g,
    adds (g·λ_cls)·dfocal into every logit row, and d = dGIoU(−(g·λ_GIoU)),
    then d += (g·λ_L1)·sign(pred − target), into the matched box rows. These
    are the products of the unfused chain this node stands for
    (`focal_loss` over every logit row, `gather_rows` of the matched rows,
    `box_l1_rows`, `box_giou_rows` and a weighting of scale and `add`
    nodes; the tests write it out with test-local scale ops), in its
    order, so the value and both gradients match that chain bit for bit.
    """
    n_track = preds.n_track
    n_total = preds.class_logits.shape[0]
    ad._check_dtypes((preds.class_logits, preds.boxes), "frame_loss class_logits and boxes")
    row_of, gt_rows = _read_annotations(gt_frame)
    blocks = (("track", track_assign, n_track), ("detect", detect_assign, n_total - n_track))
    for block, assign, size in blocks:
        for slot, _ in assign.pairs:
            if not 0 <= slot < size:
                raise ValueError(f"{block} slot {slot} is outside the {block} block of {size} rows")
    _check_disjoint(track_assign, detect_assign)
    for _, ident in detect_assign.pairs:
        if ident not in row_of:
            raise ValueError(f"detect assignment references missing identity {ident}")

    # (logit row, ground-truth row) per matched query; a dead track identity is background
    pairs = [(slot, row_of[ident]) for slot, ident in track_assign.pairs if ident in row_of]
    pairs += [(n_track + slot, row_of[ident]) for slot, ident in detect_assign.pairs]
    index, matched_gt = np.array(pairs, dtype=np.intp).reshape(-1, 2).T

    logits, boxes = preds.class_logits, preds.boxes
    class_targets = np.zeros_like(logits.data)
    class_targets[index, 0] = 1.0
    gamma = weights.focal_gamma
    cells, focal = _focal_cells(logits.data, class_targets, weights.focal_alpha, gamma)
    pred_rows = boxes.data[index]
    target_rows = gt_rows[matched_gt].astype(boxes.data.dtype, copy=False)
    l1, diff = _l1_rows(pred_rows, target_rows)
    giou, geometry = _giou_rows(pred_rows, target_rows)

    # without matched rows the box sums are 0, and adding them changes no bit
    value = np.sum(cells) * weights.lambda_cls + (
        l1.sum() * weights.lambda_l1 + (1.0 - giou).sum() * weights.lambda_giou
    )

    def pull(g):
        logits._accumulate((g * weights.lambda_cls) * _focal_cells_back(focal, gamma))
        # with no matched row `boxes` is no input of the node: its .grad stays
        # None, not zeros, so that an optimizer skips it
        if pairs:
            d = _giou_rows_back(-(g * weights.lambda_giou), pred_rows, target_rows, geometry)
            d += (g * weights.lambda_l1) * np.sign(diff)
            full = np.zeros_like(boxes.data)
            full[index] = d
            boxes._accumulate(full)

    return FrameLossTerms(ad.custom_op(value, (logits, boxes) if pairs else (logits,), pull), len(pairs))


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
    """Sum of all frame losses divided by the clip's total object count, as one op.

    The denominator is clamped at 1 so clips with no objects still train on
    their background terms; frame losses in two dtypes raise a ValueError.
    The node reads every frame's `loss` and saves nothing but them and
    c = 1/max(N, 1). Its value is the chain's: a running sum over the
    frames in frame order, then × c; its backward hands each frame's loss
    g·c, as the scale and `add` nodes it stands for would, so both match
    that chain bit for bit. One backward pass through the result reaches
    every frame.
    """
    if not acc.frames:
        raise ValueError("loss accumulator has no frames")
    terms = tuple(f.loss for f in acc.frames)
    ad._check_dtypes(terms, "clip_average_loss frame losses")
    total = sum(t.data for t in terms)
    c = 1.0 / max(acc.total_objects, 1)

    def pull(g):
        g = g * c
        for t in terms:
            t._accumulate(g)

    return ad.custom_op(total * c, terms, pull)
