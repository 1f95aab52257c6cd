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
from querytrack.boxes import box_giou_rows, box_l1_rows, giou
from querytrack.losses import focal_loss
from querytrack.model import ModelConfig, TrackingModel

import bench
from chain_ops import scale, slice_axis, total
from tiny import TINY, two_frame_clip_loss

DTYPES = ["float32", "float64"]


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_op_computes_in_its_inputs_dtype(dtype):
    # forward outputs, the backward seed and every gradient stay in the
    # inputs' dtype
    rng = np.random.default_rng(21)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    a, b, c, bias, w2, b2 = leaf(3, 4), leaf(3, 4), leaf(4, 2), leaf(2), leaf(2, 4), leaf(4)
    gain, shift, mem, pos = leaf(4), leaf(4), leaf(5, 4), leaf(3, 4)
    pred, target, proj = leaf(3, 4), leaf(3, 4), [leaf(4, 12), leaf(12), leaf(4, 4), leaf(4)]
    targets = (rng.random((3, 4)) < 0.5).astype(np.float64)
    for f, args in [
        (ad.add, [a, b]), (ad.add, [a, a]), (lambda x: scale(x, 0.3), [a]),
        (ad.sigmoid, [a]), (ad.linear, [a, c, bias]), (ad.mlp, [a, c, bias, w2, b2]),
        (ad.layer_norm, [a, gain, shift]), (lambda x: slice_axis(x, 0, 1, 3), [a]),
        (lambda x: ad.gather_rows(x, [2, 0, 2]), [a]), (lambda x, y: ad.concat([x, y]), [a, b]),
        (lambda x, g, s, m, *p: ad.attention(x, ad.AttentionParams(g, s, *p, 2), memory=m),
         [a, gain, shift, mem, *proj]),
        (lambda x, g, s, q, *p: ad.attention(x, ad.AttentionParams(g, s, *p, 2), positions=q),
         [a, gain, shift, pos, *proj]),
        (lambda x, *p: ad.feed_forward(x, ad.FeedForwardParams(*p)), [a, gain, shift, c, bias, w2, b2]),
        (lambda x: focal_loss(x, targets), [a]), (box_l1_rows, [pred, target]),
    ]:
        ad.reset_grads(args)
        with Tape() as tape:
            out = f(*args)
            loss = total(out)
        tape.backward(loss)
        assert out.data.dtype == loss.data.dtype == dtype, f
        assert [t.grad.dtype for t in args] == [np.dtype(dtype)] * len(args), f


def test_float32_after_float64_at_the_same_width_stays_float32():
    # the layer norm and the attention core multiply by constant columns
    # that are cached: a float64 call must not leave its columns to a
    # float32 call of the same width
    rng = np.random.default_rng(22)
    for dtype in ("float64", "float32"):

        def leaf(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

        x, gain, shift, mem = leaf(3, 8), leaf(8), leaf(8), leaf(5, 8)
        proj = [leaf(8, 24), leaf(24), leaf(8, 8), leaf(8)]
        net = [leaf(8, 6), leaf(6), leaf(6, 8), leaf(8)]
        for f, args in [
            (ad.layer_norm, [x, gain, shift]),
            (lambda x, g, s, *p: ad.attention(x, ad.AttentionParams(g, s, *p, 2)), [x, gain, shift, *proj]),
            (lambda x, g, s, m, *p: ad.attention(x, ad.AttentionParams(g, s, *p, 4), memory=m),
             [x, gain, shift, mem, *proj]),
            (lambda x, *p: ad.feed_forward(x, ad.FeedForwardParams(*p)), [x, gain, shift, *net]),
        ]:
            ad.reset_grads(args)
            with Tape() as tape:
                out = f(*args)
                loss = total(out)
            tape.backward(loss)
            assert out.data.dtype == dtype, (dtype, f)
            assert [t.grad.dtype for t in args] == [np.dtype(dtype)] * len(args), (dtype, f)


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
        # GIoU 0, 0 and -1, as the float64 kernel gives, to within the dtype's rounding
        expected = np.diag(giou(pred, target))
        np.testing.assert_allclose(out.data[:, 0], expected, rtol=0, atol=4 * np.finfo(dtype).eps)

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
