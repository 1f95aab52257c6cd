import warnings
from collections import Counter

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.assignment import Assignment, GtObject
from querytrack.boxes import Box, giou, l1_box
from querytrack.losses import (
    ClipLossAccumulator,
    FrameLossTerms,
    LossWeights,
    _block_total,
    clip_average_loss,
    focal_loss,
    frame_loss,
)
from querytrack.model import ModelConfig, QueryRecord, QuerySet, TrackingModel


def logit(p):
    """The class logit whose sigmoid is the probability p."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


def probability_focal(x, target, alpha=0.25, gamma=2.0):
    """Reference: the focal loss of one cell written on p = sigmoid(x)."""
    p = 1.0 / (1.0 + np.exp(-x))
    if target:
        return -alpha * (1.0 - p) ** gamma * np.log(p)
    return -(1.0 - alpha) * p**gamma * np.log(1.0 - p)


def focal_value_and_grad(x, target):
    logits = Tensor([[x]], requires_grad=True)
    with Tape() as tape:
        loss = focal_loss(logits, [[target]])
    tape.backward(loss)
    return loss.item(), logits.grad[0, 0]


class StubPreds:
    """Minimal predictions carrier: class logits, boxes, track-block size."""

    def __init__(self, logits, boxes, n_track=0):
        self.class_logits = Tensor(np.asarray(logits, dtype=np.float64))
        self.boxes = Tensor(np.asarray(boxes, dtype=np.float64))
        self.n_track = n_track


W = LossWeights(lambda_cls=2.0, lambda_l1=5.0, lambda_giou=2.0)


class TestFocal:
    def test_saturated_positive_goes_to_zero(self):
        assert focal_loss(Tensor([[800.0]]), [[1.0]]).item() == 0.0

    def test_positive_at_half(self):
        expected = 0.25 * 0.25 * np.log(2.0)
        assert focal_loss(Tensor([[0.0]]), [[1.0]]).item() == pytest.approx(expected, abs=1e-12)
        assert focal_loss(Tensor([[0.0]]), [[1.0]]).item() == pytest.approx(0.04332, abs=1e-5)

    def test_negative_at_half(self):
        expected = 0.75 * 0.25 * np.log(2.0)
        assert focal_loss(Tensor([[0.0]]), [[0.0]]).item() == pytest.approx(expected, abs=1e-12)
        assert focal_loss(Tensor([[0.0]]), [[0.0]]).item() == pytest.approx(0.12997, abs=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        x = Tensor(logit(rng.uniform(0.1, 0.9, size=(4, 2))))
        t = (rng.random((4, 2)) < 0.4).astype(float)
        report = ad.grad_check(lambda x: focal_loss(x, t), [x])
        assert report.passed, report.max_rel_err

    def test_gradient_with_other_alpha_and_gamma(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(0.0, 3.0, size=(5, 3)))
        t = (rng.random((5, 3)) < 0.5).astype(float)
        for alpha, gamma in ((0.5, 0.0), (0.1, 1.0), (0.9, 3.5)):
            report = ad.grad_check(lambda x: focal_loss(x, t, alpha, gamma), [x])
            assert report.passed, (alpha, gamma, report.max_rel_err)

    def test_records_one_tape_node(self):
        logits = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape() as tape:
            focal_loss(logits, np.eye(3, 2))
            assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["focal_loss"]

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_matches_probability_formula_away_from_saturation(self, target):
        for x in np.linspace(-8.0, 8.0, 161):
            got = focal_loss(Tensor([[x]]), [[target]]).item()
            assert got == pytest.approx(probability_focal(x, target), rel=1e-12, abs=0), x

    @pytest.mark.parametrize("size", [20.0, 40.0, 800.0])
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_confident_mistake_keeps_its_gradient(self, size, target):
        # a positive at -size or a background cell at +size: the loss grows
        # as alpha (or 1 - alpha) times |x| and dL/dx stays near that weight
        x, weight = (-size, 0.25) if target else (size, 0.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = focal_value_and_grad(x, target)
        assert loss == pytest.approx(weight * size, rel=1e-7)
        assert grad == pytest.approx(weight if x > 0 else -weight, rel=1e-7)

    @pytest.mark.parametrize("size", [20.0, 40.0, 800.0])
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_confident_hit_is_finite_and_flat(self, size, target):
        x = size if target else -size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = focal_value_and_grad(x, target)
        assert 0.0 <= loss < 1e-15 and np.isfinite(grad) and abs(grad) < 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError, match="targets shape"):
            focal_loss(Tensor(np.zeros((2, 1))), np.zeros((1, 2)))


class TestFrameLoss:
    def test_perfect_matched_prediction(self):
        b = Box(0.4, 0.4, 0.2, 0.2)
        preds = StubPreds([[800.0]], [b.to_array()], n_track=0)
        out = frame_loss(preds, Assignment(), Assignment([(0, 7)]), [GtObject(7, b)], W)
        assert out.detect.item() == pytest.approx(0.0, abs=1e-12)
        assert out.track.item() == 0.0
        assert out.n_objects == 1

    def test_worked_composite_value(self):
        # scaled quarter-offset pair: l1 = 0.3, giou = 1/7 - 2/9 ~ -0.07937
        pred_box = Box(0.15, 0.15, 0.3, 0.3)
        gt_box = Box(0.3, 0.3, 0.3, 0.3)
        assert l1_box(pred_box, gt_box) == pytest.approx(0.3, abs=1e-12)
        assert giou(pred_box, gt_box) == pytest.approx(-0.07937, abs=1e-5)
        preds = StubPreds([[0.0]], [pred_box.to_array()], n_track=0)
        out = frame_loss(preds, Assignment(), Assignment([(0, 1)]), [GtObject(1, gt_box)], W)
        manual = (
            2.0 * 0.25 * 0.25 * np.log(2.0)
            + 5.0 * l1_box(pred_box, gt_box)
            + 2.0 * (1.0 - giou(pred_box, gt_box))
        )
        assert out.total.item() == pytest.approx(manual, abs=1e-12)
        assert out.total.item() == pytest.approx(3.7453, abs=1e-4)

    def test_empty_ground_truth_is_all_negatives(self):
        probs = np.array([[0.3], [0.6]])
        preds = StubPreds(logit(probs), np.full((2, 4), 0.5), n_track=0)
        out = frame_loss(preds, Assignment(), Assignment(), [], W)
        expected = 2.0 * sum(
            0.75 * p**2 * -np.log(1 - p) for p in probs.reshape(-1)
        )
        assert out.total.item() == pytest.approx(expected, abs=1e-12)
        assert out.n_objects == 0

    def test_dead_track_identity_supervised_as_background(self):
        preds = StubPreds(logit([[0.8], [0.2]]), np.full((2, 4), 0.5), n_track=2)
        out = frame_loss(preds, Assignment([(0, 1), (1, 2)]), Assignment(), [GtObject(1, Box(0.5, 0.5, 0.5, 0.5))], W)
        # identity 2 vanished: contributes only a negative focal term
        assert out.n_tracked == 1

    def test_detect_pair_with_missing_identity_raises(self):
        preds = StubPreds(logit([[0.8]]), np.full((1, 4), 0.5), n_track=0)
        with pytest.raises(ValueError, match="missing identity"):
            frame_loss(preds, Assignment(), Assignment([(0, 9)]), [], W)

    @pytest.mark.parametrize(
        "gt, message",
        [
            ([GtObject(1, Box(0.5, 0.5, 0.2, 0.2), class_id=-1)], r"class_id -1, outside \[0, 1\)"),
            ([GtObject(1, Box(0.5, 0.5, 0.2, 0.2), class_id=1)], r"class_id 1, outside \[0, 1\)"),
            ([GtObject(1, Box(0.5, 0.5, 0.2, 0.2)), GtObject(1, Box(0.3, 0.3, 0.1, 0.1))], "identity 1 appears twice"),
        ],
        ids=["negative_class", "class_past_the_last", "duplicate_identity"],
    )
    def test_bad_annotations_rejected(self, gt, message):
        preds = StubPreds([[0.0], [0.0]], np.full((2, 4), 0.5), n_track=0)
        with pytest.raises(ValueError, match=message):
            frame_loss(preds, Assignment(), Assignment([(0, 1)]), gt, W)

    @pytest.mark.parametrize(
        "track_pairs, detect_pairs, message",
        [
            ([(1, 1)], [], "track slot 1 is outside the track block of 1 rows"),
            ([(-1, 1)], [], "track slot -1 is outside the track block of 1 rows"),
            ([], [(-1, 2)], "detect slot -1 is outside the detect block of 4 rows"),
            ([], [(4, 2)], "detect slot 4 is outside the detect block of 4 rows"),
        ],
        ids=["track_past_its_block", "track_negative", "detect_negative", "detect_past_its_block"],
    )
    def test_slot_outside_its_block_rejected(self, track_pairs, detect_pairs, message):
        # one track row, then four detect rows
        preds = StubPreds(np.zeros((5, 1)), np.full((5, 4), 0.5), n_track=1)
        gt = [GtObject(1, Box(0.4, 0.5, 0.3, 0.2)), GtObject(2, Box(0.7, 0.3, 0.2, 0.25))]
        with pytest.raises(ValueError, match=message):
            frame_loss(preds, Assignment(track_pairs), Assignment(detect_pairs), gt, W)

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(1)
        preds = StubPreds(
            logit(rng.uniform(0.2, 0.8, (3, 1))), rng.uniform(0.3, 0.7, (3, 4)), n_track=1
        )
        gt = [GtObject(1, Box(0.5, 0.5, 0.2, 0.2)), GtObject(2, Box(0.3, 0.6, 0.1, 0.3))]
        tr, det = Assignment([(0, 1)]), Assignment([(1, 2)])
        base = frame_loss(preds, tr, det, gt, W).total.item()
        c = 3.5
        scaled_w = LossWeights(
            lambda_cls=W.lambda_cls * c, lambda_l1=W.lambda_l1 * c, lambda_giou=W.lambda_giou * c
        )
        scaled = frame_loss(preds, tr, det, gt, scaled_w).total.item()
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        logits = logit(rng.uniform(0.1, 0.9, (5, 1)))
        boxes = rng.uniform(0.2, 0.8, (5, 4))
        gt = [GtObject(i, Box(0.5, 0.5, 0.2, 0.2)) for i in (1, 2, 3)]
        preds = StubPreds(logits, boxes, n_track=2)
        tr = Assignment([(0, 1), (1, 2)])
        det = Assignment([(1, 3)])
        base = frame_loss(preds, tr, det, gt, W).total.item()

        # swap the two track slots and permute the detect block
        perm = [1, 0, 4, 2, 3]
        preds_p = StubPreds(logits[perm], boxes[perm], n_track=2)
        tr_p = Assignment([(1, 1), (0, 2)])
        det_p = Assignment([(2, 3)])
        permuted = frame_loss(preds_p, tr_p, det_p, gt, W).total.item()
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_gradient_through_boxes_and_probs(self):
        rng = np.random.default_rng(3)
        logits = Tensor(logit(rng.uniform(0.2, 0.8, (3, 1))))
        boxes = Tensor(rng.uniform(0.3, 0.7, (3, 4)))
        gt = [GtObject(1, Box(0.45, 0.55, 0.2, 0.25)), GtObject(2, Box(0.6, 0.4, 0.15, 0.3))]

        def f(logits, boxes):
            preds = type("P", (), {"class_logits": logits, "boxes": boxes, "n_track": 1})()
            return frame_loss(preds, Assignment([(0, 1)]), Assignment([(1, 2)]), gt, W).total

        assert ad.grad_check(f, [logits, boxes], tol=1e-4).passed


class TestBlockTotal:
    """The one-op block loss against the arithmetic of the node chain it stands for."""

    WEIGHTS = LossWeights(lambda_cls=1.7, lambda_l1=4.3, lambda_giou=2.9)

    def leaves(self, n_rows, seed):
        rng = np.random.default_rng(seed)
        cls = Tensor(rng.uniform(0.0, 3.0), requires_grad=True)
        if n_rows == 0:
            return cls, None, None
        l1 = Tensor(rng.uniform(0.0, 2.0, size=(n_rows, 1)), requires_grad=True)
        giou_rows = Tensor(rng.uniform(-1.0, 1.0, size=(n_rows, 1)), requires_grad=True)
        return cls, l1, giou_rows

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 7])
    def test_bits_match_chain_arithmetic(self, n_rows):
        w = self.WEIGHTS
        for seed in range(5):
            cls, l1, giou_rows = self.leaves(n_rows, seed)
            upstream = 0.37 + seed  # a gradient other than 1 reaching the block
            with Tape() as tape:
                out = _block_total(cls, l1, giou_rows, w)
                loss = ad.scale(out, upstream)
            tape.backward(loss)
            # the chain: scale(cls, λ_cls), then add(., add(scale(sum(l1), λ_L1),
            # scale(sum(shift(scale(giou, -1), 1)), λ_GIoU))) when rows are matched
            g = np.ones(()) * upstream
            expected = cls.data * w.lambda_cls
            if n_rows:
                expected = expected + (
                    l1.data.sum() * w.lambda_l1 + (giou_rows.data * -1.0 + 1.0).sum() * w.lambda_giou
                )
                assert np.array_equal(l1.grad, np.broadcast_to(g * w.lambda_l1, l1.shape).copy())
                assert np.array_equal(
                    giou_rows.grad, np.broadcast_to(g * w.lambda_giou, giou_rows.shape).copy() * -1.0
                )
            assert np.array_equal(out.data, expected)
            assert np.array_equal(cls.grad, g * w.lambda_cls)

    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    def test_gradient_in_every_input(self, n_rows):
        leaves = [t for t in self.leaves(n_rows, 9) if t is not None]

        def f(cls, l1=None, giou_rows=None):
            return _block_total(cls, l1, giou_rows, self.WEIGHTS)

        report = ad.grad_check(f, leaves)
        assert report.passed and len(report.rel_errs) == 1 + 2 * bool(n_rows), report.max_rel_err

    def test_records_one_tape_node(self):
        cls, l1, giou_rows = self.leaves(2, 0)
        with Tape() as tape:
            _block_total(cls, l1, giou_rows, self.WEIGHTS)
            assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["_block_total"]


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


class TestTinyModelFrameLoss:
    """One TINY frame with a one-row track block and positions, then its loss."""

    GT = [GtObject(1, Box(0.4, 0.5, 0.3, 0.2)), GtObject(2, Box(0.7, 0.3, 0.2, 0.25))]

    def setup_method(self):
        self.model = TrackingModel(TINY, seed=30)
        rng = np.random.default_rng(30)
        self.image = Tensor(rng.uniform(0, 1, size=(16, 16, 1)))
        self.track_set = QuerySet(
            Tensor(rng.standard_normal((1, TINY.d_model))),
            [QueryRecord("track", track_id=1)],
            positions=Tensor(rng.standard_normal((1, TINY.d_model))),
        )

    def loss(self):
        preds = self.model.forward_frame(self.image, self.track_set)
        return frame_loss(preds, Assignment([(0, 1)]), Assignment([(2, 2)]), self.GT, LossWeights()).total

    def test_gradient_reaches_heads_decoder_and_temporal_layer(self):
        params = self.model.params
        names = ["head.class.w", "head.box.outer.w", "decoder.0.ffn.inner.w", "temporal.attn.q.w"]
        report = ad.grad_check(lambda *_: self.loss(), [params[n] for n in names])
        assert report.passed, report.max_rel_err

    def test_op_granularity(self):
        # pins the node count per op kind, so splitting an op again shows here
        with Tape() as tape:
            self.loss()
            kinds = Counter(pull.__qualname__.split(".", 1)[0] for _, pull in tape.nodes)
        assert kinds == {
            "attention": 4, "feed_forward": 3, "add": 2, "linear": 2, "box_giou_rows": 2,
            "box_l1_rows": 2, "focal_loss": 2, "gather_rows": 2, "slice_axis": 2,
            "_block_total": 2, "layer_norm": 1, "mlp": 1, "concat": 1, "sigmoid": 1,
        }
        assert sum(kinds.values()) == 27
        assert not {
            "matmul", "mul", "log", "pow_scalar", "relu", "gelu", "sub", "absolute",
            "scale", "shift", "reduce_sum",
        } & kinds.keys()


def make_terms(rng):
    return FrameLossTerms(
        track=Tensor(rng.uniform(0, 5)),
        detect=Tensor(rng.uniform(0, 5)),
        n_tracked=int(rng.integers(0, 4)),
        n_newborn=int(rng.integers(0, 3)),
    )


class TestClipAverage:
    def test_single_frame_reduction_is_exact(self):
        terms = FrameLossTerms(track=Tensor(1.25), detect=Tensor(2.5), n_tracked=2, n_newborn=1)
        acc = ClipLossAccumulator()
        acc.add(terms)
        manual = ad.scale(ad.add(terms.track, terms.detect), 1.0 / 3)
        assert clip_average_loss(acc).item() == manual.item()

    def test_two_frame_arithmetic(self):
        acc = ClipLossAccumulator()
        acc.add(FrameLossTerms(Tensor(1.0), Tensor(3.0), 1, 1))
        acc.add(FrameLossTerms(Tensor(4.0), Tensor(2.0), 2, 1))
        assert clip_average_loss(acc).item() == pytest.approx(2.0)

    def test_matches_manual_ratio_on_random_accumulators(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            acc = ClipLossAccumulator()
            for _ in range(int(rng.integers(1, 7))):
                acc.add(make_terms(rng))
            manual = sum(f.total.item() for f in acc.frames) / max(acc.total_objects, 1)
            assert abs(clip_average_loss(acc).item() - manual) < 1e-9

    def test_empty_frames_clamp_denominator(self):
        acc = ClipLossAccumulator()
        acc.add(FrameLossTerms(Tensor(0.7), Tensor(0.3), 0, 0))
        acc.add(FrameLossTerms(Tensor(0.5), Tensor(0.5), 0, 0))
        assert clip_average_loss(acc).item() == pytest.approx(2.0)

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError):
            clip_average_loss(ClipLossAccumulator())


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_cls=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_cls=0.0, lambda_l1=0.0, lambda_giou=0.0)
