"""The tests' one small model configuration: 16×16 one-channel images cut
into four patches, width 8, one encoder and one decoder layer, and four
detect queries. It computes in float32, the model's default; `TINY64` is
the same model in float64.

`two_frame_clip_loss` is the tests' one training clip for a whole model:
two frames, the second carrying a track block with positions, through the
frame loss and the clip average."""

import dataclasses

import numpy as np

import querytrack.autodiff as ad
from querytrack.assignment import Assignment, GtObject
from querytrack.autodiff import Tensor
from querytrack.boxes import Box
from querytrack.losses import ClipLossAccumulator, LossWeights, clip_average_loss, frame_loss
from querytrack.model import ModelConfig, QueryRecord, QuerySet

TINY = ModelConfig(
    image_size=16,
    d_model=8,
    n_heads=2,
    n_encoder_layers=1,
    n_decoder_layers=1,
    n_detect_queries=4,
    ffn_dim=16,
)
TINY64 = dataclasses.replace(TINY, dtype="float64")

CLIP_GT = [GtObject(1, Box(0.4, 0.5, 0.3, 0.2)), GtObject(2, Box(0.7, 0.3, 0.2, 0.25))]


def two_frame_clip_loss(model, seed):
    """The clip loss of `model` on two frames of uniform pixels drawn with
    `seed`, recorded on the active tape, if any.

    Detect slots 0 and 2 take the two objects of `CLIP_GT` in the first
    frame. Their hidden rows, with their query rows as positions, are the
    second frame's track block, and its two rows take the same objects."""
    cfg = model.cfg
    images = np.random.default_rng(seed).uniform(0, 1, size=(2, cfg.image_size, cfg.image_size, 1))
    weights, acc = LossWeights(), ClipLossAccumulator()
    preds = model.forward_frame(Tensor(images[0]))
    acc.add(frame_loss(preds, Assignment(), Assignment([(0, 1), (2, 2)]), CLIP_GT, weights))
    carried = QuerySet(
        ad.gather_rows(preds.hidden, [0, 2]),
        [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)],
        positions=ad.gather_rows(preds.queries, [0, 2]),
    )
    preds = model.forward_frame(Tensor(images[1]), carried)
    acc.add(frame_loss(preds, Assignment([(0, 1), (1, 2)]), Assignment(), CLIP_GT, weights))
    return clip_average_loss(acc)
