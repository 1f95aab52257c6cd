"""Bounding boxes in center-size form and their overlap measures.

The overlap geometry (corners, per-axis spans, enclosing sides and the
intersection, union and enclosing areas) is written once, in `_overlap`,
over broadcastable `[..., 4]` rows. Two surfaces sit on it: the pairwise
numpy kernels `iou`/`giou`/`l1_box` (`[m,4] x [n,4] -> [m,n]`) for matching
costs and metrics, and `box_giou_rows`, one differentiable tape op over
aligned rows (`[n,4] x [n,4] -> [n,1]`) for the loss. `box_l1_rows` is its
L1 counterpart, built from plain tape ops. Tests cross-check the kernels'
diagonal against the row ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import EPS_GUARD, ShapeError, Tensor

__all__ = ["Box", "iou", "giou", "l1_box", "box_l1_rows", "box_giou_rows"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box as (cx, cy, w, h), normalized to the image extent.

    Centers may straddle borders; w and h must be nonnegative and within a
    loose sanity bound. `np.asarray(box)` gives the 4-vector, so a Box or a
    list of them feeds the pairwise kernels directly.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box sides must be nonnegative, got w={self.w} h={self.h}")
        if self.w > 2 or self.h > 2:
            raise ValueError(f"box sides exceed sanity bound 2: w={self.w} h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.to_array(), dtype=dtype)

    @staticmethod
    def from_array(a) -> "Box":
        cx, cy, w, h = (float(v) for v in np.asarray(a).reshape(4))
        return Box(cx, cy, w, h)


# ---------------------------------------------------------------------------
# pairwise kernels, [m, 4] x [n, 4] -> [m, n]
# ---------------------------------------------------------------------------


def _rows(boxes) -> np.ndarray:
    """A Box, a list of Box or an [m,4] array as float64 [m,4] rows."""
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def _corners(rows: np.ndarray):
    """(lo, hi) corners of [..., 4] rows, each [..., 2] as (x, y)."""
    half = rows[..., 2:] / 2.0
    return rows[..., :2] - half, rows[..., :2] + half


def _overlap(a: np.ndarray, b: np.ndarray):
    """Overlap geometry of [..., 4] rows a and b, broadcast against each other.

    Returns (span, sides, inter, union, enclosing): the signed overlap per
    axis and the enclosing box's sides, each [..., 2] as (x, y), then the
    intersection, union and enclosing areas.
    """
    a_lo, a_hi = _corners(a)
    b_lo, b_hi = _corners(b)
    span = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    sides = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    inter = np.maximum(0.0, span[..., 0]) * np.maximum(0.0, span[..., 1])
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return span, sides, inter, union, sides[..., 0] * sides[..., 1]


def _iou(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou(a, b) -> np.ndarray:
    """Pairwise intersection over union in [0, 1]; zero-area union gives 0."""
    _, _, inter, union, _ = _overlap(_rows(a)[:, None], _rows(b)[None])
    return _iou(inter, union)


def giou(a, b) -> np.ndarray:
    """Pairwise generalized IoU in [-1, 1]: IoU minus empty enclosing-area fraction."""
    _, _, inter, union, enclosing = _overlap(_rows(a)[:, None], _rows(b)[None])
    return _iou(inter, union) - (enclosing - union) / np.maximum(enclosing, EPS_GUARD)


def l1_box(a, b) -> np.ndarray:
    """Pairwise sum of absolute coordinate differences in (cx, cy, w, h)."""
    d = np.abs(_rows(a)[:, None, :] - _rows(b)[None, :, :])
    return d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]


# ---------------------------------------------------------------------------
# differentiable row-wise versions, [n, 4] -> [n, 1]
# ---------------------------------------------------------------------------


def box_l1_rows(pred: Tensor, target: Tensor) -> Tensor:
    """Row-wise coordinate L1 distance between [n,4] box tensors -> [n,1]."""
    return ad.absolute(ad.sub(pred, target)).sum(axis=1, keepdims=True)


def box_giou_rows(pred: Tensor, target: Tensor) -> Tensor:
    """Row-wise generalized IoU between [n,4] box tensors -> [n,1], as one op.

    The value is G = I/U - (C - U)/C = I/U - 1 + U/C over the intersection
    I, union U and enclosing area C, with U and C clamped below at
    EPS_GUARD so degenerate zero-area rows stay finite; where a clamp
    engages, that denominator's gradient is zero. Backward chains G's
    partials through the corners: a span of the intersection passes
    gradient only where it is positive, and a min/max tie between the two
    rows' corners routes it to the operand being differentiated. GIoU is
    symmetric, so the target's gradient is the same rule with the rows
    swapped.
    """
    if pred.data.ndim != 2 or pred.shape[1] != 4 or target.shape != pred.shape:
        raise ShapeError(
            f"box_giou_rows needs two [n,4] tensors, got {pred.shape} and {target.shape}"
        )
    a, b = pred.data, target.data
    span, sides, inter, union, enclosing = _overlap(a, b)
    uc, cc = np.maximum(union, EPS_GUARD), np.maximum(enclosing, EPS_GUARD)
    i, empty = inter / uc, (enclosing - union) / cc

    def pull(g):
        g = g[:, 0]
        d_union = g / cc - g * i / uc * (union > EPS_GUARD)
        d_span = (g / uc - d_union)[:, None] * (span > 0) * np.maximum(0.0, span[:, ::-1])
        d_sides = (g * (empty * (enclosing > EPS_GUARD) - 1.0) / cc)[:, None] * sides[:, ::-1]
        for x, x_rows, y_rows in ((pred, a, b), (target, b, a)):
            if x.requires_grad:
                x_lo, x_hi = _corners(x_rows)
                y_lo, y_hi = _corners(y_rows)
                d_lo = -d_span * (x_lo >= y_lo) - d_sides * (x_lo <= y_lo)
                d_hi = d_span * (x_hi <= y_hi) + d_sides * (x_hi >= y_hi)
                d_wh = (d_hi - d_lo) * 0.5 + d_union[:, None] * x_rows[:, 3:1:-1]
                x._accumulate(np.concatenate([d_lo + d_hi, d_wh], axis=1))

    return ad.custom_op((i - empty)[:, None], (pred, target), pull)
