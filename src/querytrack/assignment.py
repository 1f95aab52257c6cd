"""Bipartite matching between query slots and ground-truth objects.

Three layers: a minimum-cost assignment solver (scipy's), the pairwise
class/box matching cost, and the per-frame label-assignment rules the
tracker trains with — newborn objects are matched to detect queries only,
while track queries inherit the assignment of the object they already carry.
The cost and `losses.frame_loss` take a frame's checked identities and box
rows from one reader, `_read_annotations`, so both see the same targets.
Boxes are float64 `[m,4]` rows throughout; that reader is the one place a
`Box` record becomes a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from querytrack.autodiff import _is_integer
from querytrack.boxes import Box, giou, l1_box

__all__ = [
    "Assignment",
    "GtObject",
    "assign_newborn",
    "build_match_cost",
    "hungarian",
    "propagate_assignment",
]

@dataclass(frozen=True)
class GtObject:
    """One annotated object in one frame, of the one class the model tracks."""

    identity: int
    box: Box


@dataclass
class Assignment:
    """One-to-one map from query slots to ground-truth identities.

    Slots absent from `pairs` are background. Slot indices are local to a
    query block (track block or detect block), not to their concatenation.
    Each pair is a (slot, identity) tuple of integers (numpy integers too,
    not bools), and each slot and identity is used once.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        for pair in self.pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"assignment pair {pair!r} is not a (slot, identity) 2-tuple")
            if not (_is_integer(pair[0]) and _is_integer(pair[1])):
                raise ValueError(f"assignment pair {pair!r} needs an integer slot and identity")
        slots = [s for s, _ in self.pairs]
        ids = [i for _, i in self.pairs]
        if len(set(slots)) != len(slots):
            raise ValueError(f"duplicate query slots in assignment: {slots}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate identities in assignment: {ids}")

    def identities(self) -> set[int]:
        return {i for _, i in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment of a rectangular cost matrix.

    Returns min(rows, cols) (row, col) pairs sorted by row, as
    `scipy.optimize.linear_sum_assignment` solves and orders them.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def _read_annotations(gt_frame: list[GtObject]):
    """(each identity's row, float64 [n,4] box rows) of one frame's ground
    truth, in its order. An identity that is not an integer (bools are not)
    or is given twice, or a box that is not a `Box`, raises."""
    row_of, boxes = {}, []
    for obj in gt_frame:
        box = obj.box
        if not _is_integer(obj.identity):
            raise ValueError(f"an object has identity {obj.identity!r}, not an integer")
        if not isinstance(box, Box):
            raise ValueError(f"object {obj.identity} has box {box!r}, not a Box")
        if obj.identity in row_of:
            raise ValueError(f"identity {obj.identity} appears twice in one frame")
        row_of[obj.identity] = len(row_of)
        boxes.append((box.cx, box.cy, box.w, box.h))
    return row_of, np.array(boxes, dtype=np.float64).reshape(-1, 4)


def build_match_cost(
    pred_probs: np.ndarray,
    pred_boxes: np.ndarray,
    targets: list[GtObject],
    weights,
) -> np.ndarray:
    """Pairwise query/target matching cost, [n_queries, n_targets].

    cost(q, t) = lambda_cls * (-p_q) + lambda_l1 * l1 + lambda_giou * (-giou),
    the same weights the box/class losses use, with p_q query q's class
    probability. `pred_probs` must be [n_queries, 1], the column every
    target shares, and `pred_boxes` float64 [n_queries, 4] rows; the box
    kernels raise ShapeError for any other box input.
    """
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    if pred_probs.ndim != 2 or pred_probs.shape[1] != 1:
        raise ValueError(f"pred_probs must be [n_queries, 1], got shape {pred_probs.shape}")
    _, target_rows = _read_annotations(targets)
    l1, g = l1_box(pred_boxes, target_rows), giou(pred_boxes, target_rows)
    if len(pred_boxes) != len(pred_probs):
        raise ValueError(f"{len(pred_probs)} probability rows but {len(pred_boxes)} predicted boxes")
    return weights.lambda_cls * -pred_probs + weights.lambda_l1 * l1 + weights.lambda_giou * -g


def assign_newborn(
    pred_probs: np.ndarray,
    pred_boxes: np.ndarray,
    gt_frame: list[GtObject],
    already_tracked_ids: set[int],
    weights,
) -> Assignment:
    """Match detect queries against objects not yet carried by a track query.

    `pred_boxes` are the detect queries' float64 [n, 4] rows. Unmatched
    detect queries stay background. Identities in `already_tracked_ids` are
    excluded from the candidate set entirely.
    """
    newborn = [t for t in gt_frame if t.identity not in already_tracked_ids]
    if not newborn:
        return Assignment()
    cost = build_match_cost(pred_probs, pred_boxes, newborn, weights)
    return Assignment([(q, newborn[t].identity) for q, t in hungarian(cost)])


def _check_disjoint(track: Assignment, detect: Assignment) -> None:
    """Raise a ValueError naming the identities that are in both the track
    and the detect assignment: one object would supervise two queries."""
    both = sorted(track.identities() & detect.identities())
    if both:
        raise ValueError(f"identities {both} are in both the track and the detect assignment")


def propagate_assignment(prev_tr: Assignment, prev_det: Assignment) -> Assignment:
    """Next frame's track-query assignment from the previous frame's results.

    The surviving track pairs (ordered by slot) come first, then the newborn
    pairs (ordered by detect slot); slots are renumbered consecutively to
    match the next frame's track-query order. Identities never change.
    """
    _check_disjoint(prev_tr, prev_det)
    ordered = sorted(prev_tr.pairs) + sorted(prev_det.pairs)
    return Assignment([(slot, ident) for slot, (_, ident) in enumerate(ordered)])
