"""Bounding boxes in center-size form and their overlap measures.

Two surfaces on purpose: pairwise numpy kernels (`[m,4] x [n,4] -> [m,n]`)
for matching costs and metrics, and tensor row ops (`[n,4] x [n,4] ->
[n,1]`) that the losses differentiate through. Tests cross-check the
kernels' diagonal against the row ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import EPS_GUARD, Tensor

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
    cx, cy, w, h = rows.T
    hw, hh = w / 2.0, h / 2.0
    return cx - hw, cy - hh, cx + hw, cy + hh


def _pairwise_overlap(a, b):
    """(intersection, union, enclosing) areas of every row pair, each [m,n]."""
    a, b = _rows(a), _rows(b)
    ax1, ay1, ax2, ay2 = (c[:, None] for c in _corners(a))
    bx1, by1, bx2, by2 = _corners(b)
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    cw = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    ch = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    return inter, union, cw * ch


def _iou(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou(a, b) -> np.ndarray:
    """Pairwise intersection over union in [0, 1]; zero-area union gives 0."""
    inter, union, _ = _pairwise_overlap(a, b)
    return _iou(inter, union)


def giou(a, b) -> np.ndarray:
    """Pairwise generalized IoU in [-1, 1]: IoU minus empty enclosing-area fraction."""
    inter, union, enclosing = _pairwise_overlap(a, b)
    return _iou(inter, union) - (enclosing - union) / np.maximum(enclosing, EPS_GUARD)


def l1_box(a, b) -> np.ndarray:
    """Pairwise sum of absolute coordinate differences in (cx, cy, w, h)."""
    d = np.abs(_rows(a)[:, None, :] - _rows(b)[None, :, :])
    return d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]


# ---------------------------------------------------------------------------
# differentiable row-wise versions, [n, 4] -> [n, 1]
# ---------------------------------------------------------------------------


def _col(t: Tensor, j: int) -> Tensor:
    return ad.slice_axis(t, 1, j, j + 1)


def _corners_t(t: Tensor):
    cx, cy, w, h = (_col(t, j) for j in range(4))
    hw, hh = ad.scale(w, 0.5), ad.scale(h, 0.5)
    return ad.sub(cx, hw), ad.sub(cy, hh), ad.add(cx, hw), ad.add(cy, hh), w, h


def box_l1_rows(pred: Tensor, target: Tensor) -> Tensor:
    """Row-wise coordinate L1 distance between [n,4] box tensors -> [n,1]."""
    return ad.absolute(ad.sub(pred, target)).sum(axis=1, keepdims=True)


def box_giou_rows(pred: Tensor, target: Tensor) -> Tensor:
    """Row-wise generalized IoU between [n,4] box tensors -> [n,1].

    Denominators are guarded so degenerate zero-area rows stay finite.
    """
    ax1, ay1, ax2, ay2, aw, ah = _corners_t(pred)
    bx1, by1, bx2, by2, bw, bh = _corners_t(target)

    iw = ad.relu(ad.sub(ad.minimum(ax2, bx2), ad.maximum(ax1, bx1)))
    ih = ad.relu(ad.sub(ad.minimum(ay2, by2), ad.maximum(ay1, by1)))
    inter = ad.mul(iw, ih)
    union = ad.sub(ad.add(ad.mul(aw, ah), ad.mul(bw, bh)), inter)
    i = ad.div(inter, union)

    cw = ad.sub(ad.maximum(ax2, bx2), ad.minimum(ax1, bx1))
    ch = ad.sub(ad.maximum(ay2, by2), ad.minimum(ay1, by1))
    enclosing = ad.mul(cw, ch)
    return ad.sub(i, ad.div(ad.sub(enclosing, union), enclosing))
