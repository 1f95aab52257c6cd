"""The dtype contract: float32 compute end to end, float64 for checks and pinned bits.

The model computes in `ModelConfig.dtype`. A silent float64 intermediate
would cost the float32 speed without failing any value check, so the tape
test below records the dtype of every node and every gradient. The
numerically risky spots (saturated logits, zero-area boxes, constant rows)
run in both dtypes, and the float64 path must still give the benchmark's
pinned loss probe bit for bit.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.boxes import box_giou_rows, giou
from querytrack.losses import focal_loss
from querytrack.model import ModelConfig, TrackingModel

import bench
from chain_ops import total
from op_table import OPS, Sizes
from tiny import TINY, two_frame_clip_loss

DTYPES = ["float32", "float64"]


def assert_rows_compute_in(dtype, rng):
    """Every op table row in dtype, at d = 8 in 2 heads and in 4: the
    forward output, the backward seed and every gradient stay in dtype."""
    for s in (Sizes(n=3, m=5, k=4, h=6, heads=2, dh=4), Sizes(n=3, m=5, k=4, h=6, heads=4, dh=2)):
        for name, row in OPS.items():
            args = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                    for shape in row.shapes(s)]
            with Tape() as tape:
                out = row.call(s, *args)
                loss = total(out)
            tape.backward(loss)
            assert out.data.dtype == loss.data.dtype == dtype, (dtype, s, name)
            assert [t.grad.dtype for t in args] == [np.dtype(dtype)] * len(args), (dtype, s, name)


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_op_computes_in_its_inputs_dtype(dtype):
    assert_rows_compute_in(dtype, np.random.default_rng(21))


def test_float32_after_float64_at_the_same_width_stays_float32():
    # the constant columns that the layer norm, the bias gradients and the
    # attention core multiply by are cached: a float64 call must not leave
    # its columns to a float32 call of the same width
    ad._column.cache_clear()
    rng = np.random.default_rng(22)
    for dtype in ("float64", "float32"):
        assert_rows_compute_in(dtype, rng)


def test_params_in_two_dtypes_rejected_when_made():
    # unchecked, a float64 w_in gave a float32 attention output whose
    # backward blamed b_in, and a float64 b1 was cast down in place
    def leaf(dtype, *shape):
        return Tensor(np.zeros(shape, dtype=dtype))

    with pytest.raises(ValueError, match=r"^AttentionParams tensors are float32, float32, float64, float32, "
                                         r"float32, float32; they need one dtype$"):
        ad.AttentionParams(leaf("f4", 4), leaf("f4", 4), leaf("f8", 4, 12), leaf("f4", 12), leaf("f4", 4, 4),
                           leaf("f4", 4), 2)
    with pytest.raises(ValueError, match=r"^FeedForwardParams tensors are float32, float32, float32, float64, "
                                         r"float32, float32; they need one dtype$"):
        ad.FeedForwardParams(leaf("f4", 4), leaf("f4", 4), leaf("f4", 4, 6), leaf("f8", 6), leaf("f4", 6, 4),
                             leaf("f4", 4))


def test_float32_tape_holds_only_float32(monkeypatch):
    # `two_frame_clip_loss` and its backward
    outputs, gradients, dropped = [], [], []
    record, accumulate = Tape.record, Tensor._accumulate

    def spy_record(tape, out, pull):
        outputs.append(out.data.dtype)

        def spy_pull(g):
            gradients.append(g.dtype)
            pull(g)

        record(tape, out, spy_pull)

    def spy_accumulate(t, g):
        if t.requires_grad:
            gradients.append(np.asarray(g).dtype)
        else:
            dropped.append((t, np.asarray(g).dtype))
        accumulate(t, g)

    monkeypatch.setattr(Tape, "record", spy_record)
    monkeypatch.setattr(Tensor, "_accumulate", spy_accumulate)
    model = TrackingModel(TINY, seed=31)
    with Tape() as tape:
        loss = two_frame_clip_loss(model, 31)
    tape.backward(loss)
    # 30 nodes: the first frame's 11 and its loss, the 2 carried gathers,
    # the second frame's 14 and its loss, the clip average. Every node gets
    # a gradient (30), and 140 terms reach tensors that require a gradient
    # through `_accumulate`: 44 into op outputs (each frame's loss hands its
    # logits and its boxes one term each) and 96 into the parameters' view
    # leaves. `_accumulate` drops the terms of tensors that need none: the
    # patch embedding's `add` hands the positional table one per frame
    assert len(outputs) == 30 and set(outputs) == {np.dtype(np.float32)}
    assert len(gradients) == 30 + 44 + 96 and set(gradients) == {np.dtype(np.float32)}
    assert [(t is model._pos, dtype) for t, dtype in dropped] == [(True, np.dtype(np.float32))] * 2
    grads = [p.grad for p in model.params.values()]
    assert all(g is not None for g in grads)
    assert {g.dtype for g in grads} == {np.dtype(np.float32)}


def test_float64_loss_probe_is_pinned_and_float32_tracks_it():
    # the benchmark's train_clip loss probe, bit for bit, and the float32
    # default within rounding of it. 4.873356229974084 is the probe with the
    # textbook softmax and the layer norm's row means as reductions, and
    # 4.873356229974078 the probe with separate query, key and value
    # products and the bias gradients as reductions: the same math,
    # rounded differently, so each stays within 1e-12
    w = bench.WORKLOADS["train_clip"]
    tally = bench.Tally()
    first, loss_end = bench.loss_probe(dataclasses.replace(w, cfg=ModelConfig(dtype="float64")), tally)
    assert first.hex() == (7.505320841572285).hex()
    assert loss_end.hex() == (4.873356229974082).hex()
    assert loss_end == pytest.approx(4.873356229974084, rel=1e-12, abs=0)
    assert loss_end == pytest.approx(4.873356229974078, rel=1e-12, abs=0)
    first32, loss_end32 = bench.loss_probe(w, tally)
    assert tally.failed == 0, tally.problems
    assert loss_end32 == pytest.approx(loss_end, rel=1e-5) and first32 == pytest.approx(first, rel=1e-5)


@pytest.mark.parametrize("dtype", DTYPES)
class TestRiskCasesInBothDtypes:
    """Where float32 could overflow, underflow or lose a floor, under warnings as errors."""

    @pytest.mark.parametrize("size", [20.0, 40.0, 800.0])
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_focal_saturation(self, dtype, size, target):
        # a confident mistake keeps loss weight * |x| and gradient weight
        # (float64 to 1e-7 as in test_losses.py, float32 to a few of its
        # ulps); a confident hit costs nothing and has a flat gradient
        weight = 0.25 if target else 0.75
        rel = max(1e-7, 4 * np.finfo(dtype).eps)
        for x, mistake in ((-size if target else size, True), (size if target else -size, False)):
            logits = Tensor(np.array([[x]], dtype=dtype), requires_grad=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with Tape() as tape:
                    loss = focal_loss(logits, [[target]])
                tape.backward(loss)
            assert loss.data.dtype == logits.grad.dtype == dtype
            grad = float(logits.grad[0, 0])
            if mistake:
                assert loss.item() == pytest.approx(weight * size, rel=rel)
                assert grad == pytest.approx(weight if x > 0 else -weight, rel=rel)
            else:
                assert 0.0 <= loss.item() < 1e-15 and np.isfinite(grad) and abs(grad) < 1e-15

    def test_sigmoid_at_800(self, dtype):
        x = Tensor(np.array([-800.0, 800.0], dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = ad.sigmoid(x)
                loss = total(out)
            tape.backward(loss)
        assert out.data.dtype == x.grad.dtype == dtype
        assert out.data.tolist() == [0.0, 1.0]
        assert x.grad.tolist() == [0.0, 0.0]

    def test_zero_area_giou_rows(self, dtype):
        # the EPS_GUARD clamp of 1e-12 is a normal float32 number, so it
        # still keeps the degenerate rows finite
        pred = np.array([
            [0.5, 0.5, 0.0, 0.0],  # both zero at one centre
            [0.5, 0.5, 0.4, 0.3],  # a zero-area target inside pred
            [0.2, 0.5, 0.0, 0.2],  # zero-width rows apart
        ])
        target = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.7, 0.5, 0.0, 0.2]])
        a = Tensor(pred.astype(dtype), requires_grad=True)
        b = Tensor(target.astype(dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = box_giou_rows(a, b)
                loss = total(out)
            tape.backward(loss)
        assert out.data.dtype == a.grad.dtype == b.grad.dtype == dtype
        assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()
        # GIoU 0, 0 and -1, as the float64 kernel gives: exactly in float64,
        # and to within the dtype's rounding in float32
        expected = np.diag(giou(pred, target))
        atol = 0 if dtype == "float64" else 4 * np.finfo(dtype).eps
        np.testing.assert_allclose(out.data[:, 0], expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("value", [3.7, -1234.5, 1e-3, 0.0, 7e4])
    def test_layer_norm_of_constant_rows(self, dtype, value):
        # the row mean can miss the value by a few ulps; the norm scales
        # that miss by at most 1/sqrt(eps), eps = 1e-5
        x = Tensor(np.full((3, 64), value, dtype=dtype), requires_grad=True)
        gain = Tensor(np.ones(64, dtype=dtype), requires_grad=True)
        bias = Tensor(np.zeros(64, dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = ad.layer_norm(x, gain, bias)
                loss = total(out)
            tape.backward(loss)
        assert out.data.dtype == x.grad.dtype == dtype
        bound = 4 * np.finfo(dtype).eps * abs(value) / np.sqrt(1e-5)
        assert np.abs(out.data).max() <= bound
        assert np.isfinite(x.grad).all() and np.isfinite(gain.grad).all()
