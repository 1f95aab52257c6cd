"""The benchmark's drivers and tracer still run against the package.

`perfbench/tracing.py` looks up every package name it wraps when a
`Tracer` is entered, so a renamed or deleted name fails here instead of
only in a traced benchmark run (`perfbench/run.py --trace 1`).
"""

import clips
import drivers
import tracing

from querytrack.model import TrackingModel
from tiny import TINY


def test_traced_train_step_and_track_frame_pass_their_checks():
    model = TrackingModel(TINY, seed=0)
    clip = clips.make_clip(3, 3, 2, TINY.image_size)
    with tracing.Tracer() as tracer:
        result = drivers.train_step(model, clip, drivers.Adam(model.parameters()))
        preds, _ = drivers.track_frame(model, clip.images[0], None, n_keep=2)
    assert drivers.check_train_step(model, result) == []
    assert drivers.check_stream_frame(preds) == []
    names = [span[0] for span in tracer.spans]
    assert {"harness.step", "model.encode", "losses.frame_loss", "autodiff.backward"} <= set(names)
    assert names.count("losses.frame_loss") == len(clip.images)


def test_one_attention_span_per_attention_sublayer(monkeypatch):
    # model.attention_ms and model.attention_calls_per_frame count the
    # `multi_head_attention` spans: one per encoder layer and two per decoder
    # layer on every frame, plus the temporal layer's on each frame that
    # carries a track block
    carried = []
    aggregate = TrackingModel.aggregate

    def counting_aggregate(self, track_set):
        carried.append(len(track_set))
        return aggregate(self, track_set)

    monkeypatch.setattr(TrackingModel, "aggregate", counting_aggregate)
    model = TrackingModel(TINY, seed=0)
    clip = clips.make_clip(3, 4, 2, TINY.image_size)
    with tracing.Tracer() as tracer:
        drivers.train_step(model, clip, drivers.Adam(model.parameters()))
    spans = tracer.spans
    parents = [spans[s[1]][0] for s in spans if s[0] == "model.attention"]
    n_frames, n_sublayers = len(clip.images), TINY.n_encoder_layers + 2 * TINY.n_decoder_layers
    assert len(carried) >= 1
    assert parents.count("model.encode") == n_frames * TINY.n_encoder_layers
    assert parents.count("model.decode") == n_frames * 2 * TINY.n_decoder_layers
    assert parents.count("model.forward_frame") == len(carried)
    assert len(parents) == n_frames * n_sublayers + len(carried)
