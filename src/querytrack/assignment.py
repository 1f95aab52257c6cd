"""Bipartite matching between query slots and ground-truth objects.

Three layers: a minimum-cost assignment solver (scipy's), the pairwise
class/box matching cost, and the per-frame label-assignment rules the
tracker trains with — newborn objects are matched to detect queries only,
while track queries inherit the assignment of the object they already carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    """One annotated object in one frame."""

    identity: int
    box: Box
    class_id: int = 0


@dataclass
class Assignment:
    """One-to-one map from query slots to ground-truth identities.

    Slots absent from `pairs` are background. Slot indices are local to a
    query block (track block or detect block), not to their concatenation.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
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

    Returns min(rows, cols) (row, col) pairs sorted by row, as solved by
    `scipy.optimize.linear_sum_assignment`.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {cost.shape}")
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def _check_annotations(gt_frame: list[GtObject], n_classes: int) -> None:
    """Reject one frame's ground truth that the matcher and the loss cannot
    index: a class id outside [0, n_classes), or an identity given twice."""
    seen = set()
    for obj in gt_frame:
        if not (isinstance(obj.class_id, (int, np.integer)) and 0 <= obj.class_id < n_classes):
            raise ValueError(
                f"object {obj.identity} has class_id {obj.class_id!r}, outside [0, {n_classes})"
            )
        if obj.identity in seen:
            raise ValueError(f"identity {obj.identity} appears twice in one frame")
        seen.add(obj.identity)


def build_match_cost(
    pred_probs: np.ndarray,
    pred_boxes: list[Box] | np.ndarray,
    targets: list[GtObject],
    weights,
) -> np.ndarray:
    """Pairwise query/target matching cost, [n_queries, n_targets].

    cost(q, t) = lambda_cls * (-p_q[class_t]) + lambda_l1 * l1 + lambda_giou * (-giou),
    the same weights the box/class losses use.
    """
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    _check_annotations(targets, pred_probs.shape[1])
    class_ids = [t.class_id for t in targets]
    target_boxes = [t.box for t in targets]
    return (
        weights.lambda_cls * -pred_probs[:, class_ids]
        + weights.lambda_l1 * l1_box(pred_boxes, target_boxes)
        + weights.lambda_giou * -giou(pred_boxes, target_boxes)
    )


def assign_newborn(
    pred_probs: np.ndarray,
    pred_boxes: list[Box] | np.ndarray,
    gt_frame: list[GtObject],
    already_tracked_ids: set[int],
    weights,
) -> Assignment:
    """Match detect queries against objects not yet carried by a track query.

    Unmatched detect queries stay background. Identities in
    `already_tracked_ids` are excluded from the candidate set entirely.
    """
    newborn = [t for t in gt_frame if t.identity not in already_tracked_ids]
    if not newborn:
        return Assignment()
    cost = build_match_cost(pred_probs, pred_boxes, newborn, weights)
    pairs = [(q, newborn[t].identity) for q, t in hungarian(cost)]
    pairs.sort()
    return Assignment(pairs)


def propagate_assignment(prev_tr: Assignment, prev_det: Assignment) -> Assignment:
    """Next frame's track-query assignment from the previous frame's results.

    The surviving track pairs (ordered by slot) come first, then the newborn
    pairs (ordered by detect slot); slots are renumbered consecutively to
    match the next frame's track-query order. Identities never change.
    """
    overlap = prev_tr.identities() & prev_det.identities()
    if overlap:
        raise ValueError(f"identities {sorted(overlap)} present in both assignments")
    ordered = sorted(prev_tr.pairs) + sorted(prev_det.pairs)
    return Assignment([(slot, ident) for slot, (_, ident) in enumerate(ordered)])
