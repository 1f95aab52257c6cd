"""The benchmark's drivers and tracer still run against the package.

`perfbench/tracing.py` looks up every package name it wraps when a
`Tracer` is entered, so a renamed or deleted name fails here instead of
only in a traced benchmark run (`perfbench/run.py --trace 1`).
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import clips  # noqa: E402
import drivers  # noqa: E402
import tracing  # noqa: E402

from querytrack.model import ModelConfig, TrackingModel  # noqa: E402

TINY = ModelConfig(
    image_size=16,
    patch_size=8,
    d_model=8,
    n_heads=2,
    n_encoder_layers=1,
    n_decoder_layers=1,
    n_detect_queries=4,
    ffn_dim=16,
)


def test_traced_train_step_and_track_frame_pass_their_checks():
    model = TrackingModel(TINY, seed=0)
    clip = clips.make_clip(3, 3, 2, TINY.image_size)
    with tracing.Tracer() as tracer:
        result = drivers.train_step(model, clip, drivers.Adam(model.parameters()))
        preds, _ = drivers.track_frame(model, clip.images[0], None, n_keep=2)
    assert drivers.check_train_step(model, result) == []
    assert drivers.check_stream_frame(preds) == []
    names = {span[0] for span in tracer.spans}
    assert {"harness.step", "model.encode", "losses.box_rows", "autodiff.backward"} <= names
