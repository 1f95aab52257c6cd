"""MOTR's whole clip objective, gradient-checked along one direction in θ.

A float64 TINY model takes a 3-frame clip to its loss as MOTR trains: newborn
objects are matched to detect queries by `assign_newborn`, each frame's
matched rows (surviving tracks, then newborns) are carried into the next
frame as a track block with their decoder input rows as TAN's positions,
and one `clip_average_loss` sums every frame. Identity 1 leaves after the
first frame and identity 3 enters in the second, so the clip has a dead
track query, a newborn and two carried blocks.

Per-cell central differences over all of θ would take thousands of
forwards. A directional derivative takes two: the tape's θ-gradient · v
against (f(θ + εv) − f(θ − εv)) / 2ε for one seeded unit direction v.
Matching is piecewise constant in θ, so both perturbed forwards must
choose the base forward's pairs, or the difference measures a jump.
"""

import dataclasses

import numpy as np

import querytrack.autodiff as ad
from querytrack.assignment import Assignment, GtObject, assign_newborn, propagate_assignment
from querytrack.autodiff import Tape, Tensor
from querytrack.boxes import Box
from querytrack.losses import ClipLossAccumulator, LossWeights, clip_average_loss, frame_loss
from querytrack.model import QueryRecord, QuerySet, TrackingModel

from tiny import TINY

EPS = 1e-5
# central differences at ε = 1e-5 in float64 leave a truncation error
# near ε² and a rounding error near 1e-16 / ε, both far below 1e-6; a
# missing or wrong gradient term is not
REL_TOL = 1e-6

WEIGHTS = LossWeights()
OBJECTS = {
    1: Box(0.3, 0.35, 0.25, 0.2),
    2: Box(0.65, 0.6, 0.2, 0.3),
    3: Box(0.45, 0.7, 0.3, 0.2),
}
# identity 1 leaves after frame 0, identity 3 enters in frame 1
CLIP = [[1, 2], [2, 3], [2, 3]]


def clip_loss(model, images):
    """The clip's loss and each frame's newborn pairs."""
    acc = ClipLossAccumulator()
    track_set, track_assign, chosen = None, Assignment(), []
    for image, ids in zip(images, CLIP):
        gt = [GtObject(i, OBJECTS[i]) for i in ids]
        preds = model.forward_frame(Tensor(image), track_set)
        n_track = preds.n_track
        alive = Assignment([p for p in track_assign.pairs if p[1] in ids])
        det_probs, det_boxes = preds.class_probs.data[n_track:], preds.boxes.data[n_track:]
        det_assign = assign_newborn(det_probs, det_boxes, gt, alive.identities(), WEIGHTS)
        chosen.append(det_assign.pairs)
        acc.add(frame_loss(preds, track_assign, det_assign, gt, WEIGHTS))
        track_assign = propagate_assignment(alive, det_assign)
        rows = [s for s, _ in sorted(alive.pairs)] + [n_track + s for s, _ in sorted(det_assign.pairs)]
        track_set = QuerySet(
            ad.gather_rows(preds.hidden, rows),
            [QueryRecord("track", track_id=i) for _, i in track_assign.pairs],
            positions=ad.gather_rows(preds.queries, rows),
        )
    return clip_average_loss(acc), chosen


def test_clip_loss_directional_derivative_matches_central_differences():
    model = TrackingModel(dataclasses.replace(TINY, dtype="float64"), seed=7)
    rng = np.random.default_rng(7)
    images = [rng.uniform(0, 1, size=(16, 16, 1)) for _ in CLIP]
    groups = model.parameters()
    ad.reset_grads(groups)
    with Tape() as tape:
        loss, chosen = clip_loss(model, images)
    tape.backward(loss)
    # a group the backward did not reach has .grad None: its derivative is zero
    grad = np.concatenate([np.zeros_like(g.data) if g.grad is None else g.grad for g in groups.values()])
    assert grad.shape == model.theta.shape
    assert [len(pairs) for pairs in chosen] == [2, 1, 0]  # 1 and 2 are born, then 3
    assert groups["temporal"].grad is not None  # TAN ran on the carried blocks

    v = np.random.default_rng(8).standard_normal(model.theta.size)
    v /= np.linalg.norm(v)
    theta = model.theta.copy()
    sides = []
    for step in (EPS, -EPS):
        model.theta[:] = theta + step * v
        sides.append(clip_loss(model, images))
    model.theta[:] = theta
    assert [side_chosen for _, side_chosen in sides] == [chosen, chosen]

    analytic = float(grad @ v)
    numeric = (sides[0][0].item() - sides[1][0].item()) / (2.0 * EPS)
    rel_err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
    assert rel_err < REL_TOL, (analytic, numeric, rel_err)
