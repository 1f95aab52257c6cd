from collections import Counter

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.assignment import Assignment, GtObject, build_match_cost
from querytrack.boxes import Box, box_giou_rows, box_l1_rows, giou, l1_box

from box_rows import box_rows
from querytrack.losses import (
    ClipLossAccumulator,
    FrameLossTerms,
    LossWeights,
    clip_average_loss,
    focal_loss,
    frame_loss,
)
from querytrack.model import QueryRecord, QuerySet, TrackingModel

from chain_ops import scale, total
from gradcheck import grad_check
from tiny import TINY, TINY64


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
        report = grad_check(lambda x: focal_loss(x, t), [x])
        assert report.passed, report.max_rel_err

    def test_gradient_with_other_alpha_and_gamma(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(0.0, 3.0, size=(5, 3)))
        t = (rng.random((5, 3)) < 0.5).astype(float)
        for alpha, gamma in ((0.5, 0.0), (0.1, 1.0), (0.9, 3.5)):
            report = grad_check(lambda x: focal_loss(x, t, alpha, gamma), [x])
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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError, match="targets shape"):
            focal_loss(Tensor(np.zeros((2, 1))), np.zeros((1, 2)))


class TestFrameLoss:
    def test_perfect_matched_prediction(self):
        b = Box(0.4, 0.4, 0.2, 0.2)
        preds = StubPreds([[800.0]], box_rows(b), n_track=0)
        out = frame_loss(preds, Assignment(), Assignment([(0, 7)]), [GtObject(7, b)], W)
        # the empty track block's sum is 0 and the detect block's about 0
        assert out.loss.item() == pytest.approx(0.0, abs=1e-12)
        assert out.n_objects == 1

    def test_worked_composite_value(self):
        # scaled quarter-offset pair: l1 = 0.3, giou = 1/7 - 2/9 ~ -0.07937
        pred_box = Box(0.15, 0.15, 0.3, 0.3)
        gt_box = Box(0.3, 0.3, 0.3, 0.3)
        pred_rows, gt_rows = box_rows(pred_box), box_rows(gt_box)
        assert l1_box(pred_rows, gt_rows) == pytest.approx(0.3, abs=1e-12)
        assert giou(pred_rows, gt_rows) == pytest.approx(-0.07937, abs=1e-5)
        preds = StubPreds([[0.0]], pred_rows, n_track=0)
        out = frame_loss(preds, Assignment(), Assignment([(0, 1)]), [GtObject(1, gt_box)], W)
        manual = (
            2.0 * 0.25 * 0.25 * np.log(2.0)
            + 5.0 * l1_box(pred_rows, gt_rows)
            + 2.0 * (1.0 - giou(pred_rows, gt_rows))
        )
        assert out.loss.item() == pytest.approx(manual, abs=1e-12)
        assert out.loss.item() == pytest.approx(3.7453, abs=1e-4)

    def test_empty_ground_truth_is_all_negatives(self):
        probs = np.array([[0.3], [0.6]])
        preds = StubPreds(logit(probs), np.full((2, 4), 0.5), n_track=0)
        out = frame_loss(preds, Assignment(), Assignment(), [], W)
        expected = 2.0 * sum(
            0.75 * p**2 * -np.log(1 - p) for p in probs.reshape(-1)
        )
        assert out.loss.item() == pytest.approx(expected, abs=1e-12)
        assert out.n_objects == 0

    def test_dead_track_identity_supervised_as_background(self):
        preds = StubPreds(logit([[0.8], [0.2]]), np.full((2, 4), 0.5), n_track=2)
        out = frame_loss(preds, Assignment([(0, 1), (1, 2)]), Assignment(), [GtObject(1, Box(0.5, 0.5, 0.5, 0.5))], W)
        # identity 2 vanished: contributes only a negative focal term, while
        # identity 1's row is a positive with a perfect box
        expected = 2.0 * (0.25 * 0.2**2 * -np.log(0.8) + 0.75 * 0.2**2 * -np.log(0.8))
        assert out.loss.item() == pytest.approx(expected, rel=1e-12)
        assert out.n_objects == 1

    def test_detect_pair_with_missing_identity_raises(self):
        preds = StubPreds(logit([[0.8]]), np.full((1, 4), 0.5), n_track=0)
        with pytest.raises(ValueError, match="missing identity"):
            frame_loss(preds, Assignment(), Assignment([(0, 9)]), [], W)
        # the first missing identity in slot order is the one named
        preds = StubPreds(logit([[0.8], [0.3], [0.5]]), np.full((3, 4), 0.5), n_track=0)
        gt = [GtObject(4, Box(0.5, 0.5, 0.2, 0.2))]
        with pytest.raises(ValueError, match="detect assignment references missing identity 9$"):
            frame_loss(preds, Assignment(), Assignment([(0, 4), (1, 9), (2, 6)]), gt, W)

    def test_box_terms_are_the_match_cost_of_the_matched_pairs(self):
        # the matcher and the loss read one frame's boxes the same way:
        # with no class term, a matched pair's box loss is its cost + λ_GIoU
        rng = np.random.default_rng(41)
        w = LossWeights(lambda_cls=0.0, lambda_l1=5.0, lambda_giou=2.0)
        boxes = rng.uniform(0.3, 0.7, size=(5, 4)) * [1, 1, 0.5, 0.5]
        gt = [GtObject(i, Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.1, 0.3, 2))) for i in (8, 3, 5)]
        preds = StubPreds(np.zeros((5, 1)), boxes, n_track=2)
        cost = build_match_cost(np.zeros((5, 1)), boxes, gt, w)
        out = frame_loss(preds, Assignment([(1, 5)]), Assignment([(0, 3), (2, 8)]), gt, w)
        # the track block's one pair, then the detect block's two
        np.testing.assert_allclose(out.loss.item(), (cost[1, 2] + 2.0) + (cost[2, 1] + cost[4, 0] + 4.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "gt, message",
        [
            ([GtObject(1, Box(0.5, 0.5, 0.2, 0.2)), GtObject(1, Box(0.3, 0.3, 0.1, 0.1))], "identity 1 appears twice"),
        ],
        ids=["duplicate_identity"],
    )
    def test_bad_annotations_rejected(self, gt, message):
        preds = StubPreds([[0.0], [0.0]], np.full((2, 4), 0.5), n_track=0)
        with pytest.raises(ValueError, match=message):
            frame_loss(preds, Assignment(), Assignment([(0, 1)]), gt, W)

    @pytest.mark.parametrize("dtypes", [("float32", "float64"), ("float64", "float32")])
    def test_logits_and_boxes_in_two_dtypes_rejected(self, dtypes):
        # unchecked, the loss would be float64 and its backward would hand
        # the float32 input a float64 gradient
        preds = StubPreds([[0.0], [0.0]], np.full((2, 4), 0.5))
        preds.class_logits, preds.boxes = (
            Tensor(t.data.astype(dtype), requires_grad=True)
            for t, dtype in zip((preds.class_logits, preds.boxes), dtypes)
        )
        gt = [GtObject(1, Box(0.5, 0.5, 0.2, 0.2))]
        message = f"frame_loss class_logits and boxes are {dtypes[0]}, {dtypes[1]}; they need one dtype"
        with Tape() as tape, pytest.raises(ValueError, match=message):
            frame_loss(preds, Assignment(), Assignment([(0, 1)]), gt, W)
        assert tape.nodes == []

    @pytest.mark.parametrize(
        "track_pairs, detect_pairs, message",
        [
            ([(1, 1)], [], "track slot 1 is outside the track block of 1 rows"),
            ([(-1, 1)], [], "track slot -1 is outside the track block of 1 rows"),
            ([], [(-1, 2)], "detect slot -1 is outside the detect block of 4 rows"),
            ([], [(4, 2)], "detect slot 4 is outside the detect block of 4 rows"),
            # unchecked, np.intp(pairs) made 0.5 detect row 0 and True detect row 1
            ([], [(0.5, 2)], r"pair \(0\.5, 2\) needs an integer slot"),
            ([], [(True, 2)], r"pair \(True, 2\) needs an integer slot"),
        ],
        ids=["track_past_its_block", "track_negative", "detect_negative", "detect_past_its_block",
             "detect_float_slot", "detect_bool_slot"],
    )
    def test_slot_outside_its_block_rejected(self, track_pairs, detect_pairs, message):
        # one track row, then four detect rows
        preds = StubPreds(np.zeros((5, 1)), np.full((5, 4), 0.5), n_track=1)
        gt = [GtObject(1, Box(0.4, 0.5, 0.3, 0.2)), GtObject(2, Box(0.7, 0.3, 0.2, 0.25))]
        with pytest.raises(ValueError, match=message):
            frame_loss(preds, Assignment(track_pairs), Assignment(detect_pairs), gt, W)

    @pytest.mark.parametrize(
        "track_pairs, detect_pairs, message",
        [
            ([(0, 1)], [(0, 1)], r"identities \[1\] are in both the track and the detect assignment"),
            ([(0, 1), (1, 2)], [(0, 2), (3, 1)], r"identities \[1, 2\] are in both"),
        ],
        ids=["one_object", "two_objects"],
    )
    def test_identity_in_both_assignments_rejected(self, track_pairs, detect_pairs, message):
        # the object would supervise a track and a detect query and count
        # twice in the clip normaliser
        preds = StubPreds(np.zeros((6, 1)), np.full((6, 4), 0.5), n_track=2)
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
        base = frame_loss(preds, tr, det, gt, W).loss.item()
        c = 3.5
        scaled_w = LossWeights(
            lambda_cls=W.lambda_cls * c, lambda_l1=W.lambda_l1 * c, lambda_giou=W.lambda_giou * c
        )
        scaled = frame_loss(preds, tr, det, gt, scaled_w).loss.item()
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        logits = logit(rng.uniform(0.1, 0.9, (5, 1)))
        boxes = rng.uniform(0.2, 0.8, (5, 4))
        gt = [GtObject(i, Box(0.5, 0.5, 0.2, 0.2)) for i in (1, 2, 3)]
        preds = StubPreds(logits, boxes, n_track=2)
        tr = Assignment([(0, 1), (1, 2)])
        det = Assignment([(1, 3)])
        base = frame_loss(preds, tr, det, gt, W).loss.item()

        # swap the two track slots and permute the detect block
        perm = [1, 0, 4, 2, 3]
        preds_p = StubPreds(logits[perm], boxes[perm], n_track=2)
        tr_p = Assignment([(1, 1), (0, 2)])
        det_p = Assignment([(2, 3)])
        permuted = frame_loss(preds_p, tr_p, det_p, gt, W).loss.item()
        assert permuted == pytest.approx(base, abs=1e-12)


def chain_frame_loss(preds, track_assign, detect_assign, gt, w):
    """The frame's loss as the chain of public ops `frame_loss` stands for,
    with the targets gathered as `frame_loss` does, track rows first:
    focal_loss over every logit row; gather_rows of the matched rows →
    box_l1_rows and box_giou_rows; then
    cls·λ_cls + (Σ L1·λ_L1 + Σ (1 − GIoU)·λ_GIoU) as scale, sum and add nodes."""
    n_track, by_identity = preds.n_track, {obj.identity: obj for obj in gt}
    class_targets = np.zeros(preds.class_logits.shape)
    rows, target_boxes = [], []
    for offset, assign in ((0, track_assign), (n_track, detect_assign)):
        for slot, ident in assign.pairs:
            if ident in by_identity:
                class_targets[offset + slot, 0] = 1.0
                rows.append(offset + slot)
                target_boxes.append(by_identity[ident].box)
    cls = scale(focal_loss(preds.class_logits, class_targets, w.focal_alpha, w.focal_gamma), w.lambda_cls)
    if not rows:
        return cls
    boxes = ad.gather_rows(preds.boxes, rows)
    gt_rows = Tensor(box_rows(*target_boxes).astype(preds.boxes.data.dtype))
    l1 = scale(total(box_l1_rows(boxes, gt_rows)), w.lambda_l1)
    one = Tensor(np.ones((len(rows), 1), dtype=gt_rows.data.dtype))
    one_minus_giou = ad.add(scale(box_giou_rows(boxes, gt_rows), -1.0), one)
    return ad.add(cls, ad.add(l1, scale(total(one_minus_giou), w.lambda_giou)))


def block_scenario(rng, dtype, n_track, n_detect, n_tracked, n_newborn, n_dead):
    """One-class predictions, a ground-truth frame and the two assignments:
    n_tracked live and n_dead vanished identities in the track block,
    n_newborn matched detect slots."""
    n = n_track + n_detect
    boxes = np.hstack([rng.uniform(0.25, 0.75, (n, 2)), rng.uniform(0.05, 0.4, (n, 2))])
    preds = StubPreds(rng.normal(0.0, 2.0, (n, 1)), boxes, n_track)
    for t in (preds.class_logits, preds.boxes):
        t.data, t.requires_grad = t.data.astype(dtype), True
    gt = [
        GtObject(k + 1, Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.05, 0.4, 2)))
        for k in range(n_tracked + n_newborn)
    ]
    track_slots = rng.permutation(n_track)[: n_tracked + n_dead].tolist()
    track_ids = list(range(1, n_tracked + 1)) + [100 + k for k in range(n_dead)]
    detect_slots = rng.permutation(n_detect)[:n_newborn].tolist()
    detect_ids = range(n_tracked + 1, n_tracked + n_newborn + 1)
    return preds, Assignment(list(zip(track_slots, track_ids))), Assignment(list(zip(detect_slots, detect_ids))), gt


def node_frame_loss(preds, track_assign, detect_assign, gt, w):
    """The frame's node, as `chain_frame_loss` gives the chain's total."""
    return frame_loss(preds, track_assign, detect_assign, gt, w).loss


def loss_with_upstream(loss_fn, preds, track_assign, detect_assign, gt, w, upstream):
    """The frame loss of `loss_fn`, after the backward of loss·upstream."""
    with Tape() as tape:
        loss = loss_fn(preds, track_assign, detect_assign, gt, w)
        scaled = scale(loss, upstream)
    tape.backward(scaled)
    return loss


class TestBlockTotal:
    """A frame's total as one node, against the chain of public ops it
    stands for (one chain over the rows of both query blocks): the value,
    d(logits) and d(boxes) bit for bit."""

    WEIGHTS = LossWeights(lambda_cls=1.7, lambda_l1=4.3, lambda_giou=2.9, focal_alpha=0.3, focal_gamma=1.5)

    def run_both(self, scenario, seed):
        """(node value and gradients, chain value and gradients) of one scenario."""
        results = []
        for loss_fn in (node_frame_loss, chain_frame_loss):
            preds, track_assign, detect_assign, gt = scenario(np.random.default_rng(seed))
            # an upstream gradient other than 1
            loss = loss_with_upstream(loss_fn, preds, track_assign, detect_assign, gt, self.WEIGHTS, 0.37 + seed)
            results.append((loss.data, preds.class_logits.grad, preds.boxes.grad))
        # every object of a scenario is matched, so rows are matched exactly when it has objects
        return results, len(gt) > 0

    def assert_bits_match(self, scenario, seeds=range(3)):
        for seed in seeds:
            (node, chain), matched = self.run_both(scenario, seed)
            assert node[1] is not None and (node[2] is not None) == matched, seed
            for name, got, want in zip(("loss", "d(logits)", "d(boxes)"), node, chain):
                assert (got is None) == (want is None), (name, seed)
                if got is not None:
                    assert got.dtype == want.dtype and np.array_equal(got, want), (name, seed)

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 7])
    def test_bits_match_chain_arithmetic(self, n_rows):
        # in both dtypes, every split of the matched rows between the
        # blocks, with and without a vanished identity in the track block
        splits = {(0, n_rows), (n_rows // 2, n_rows - n_rows // 2), (n_rows, 0)}
        for dtype in ("float32", "float64"):
            for n_tracked, n_newborn in sorted(splits):
                for n_track, n_dead in ((n_tracked + 2, 1), (n_tracked, 0)):
                    self.assert_bits_match(
                        lambda rng: block_scenario(rng, dtype, n_track, 9, n_tracked, n_newborn, n_dead)
                    )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_empty_track_block_and_dead_identity_bits(self, dtype):
        # no track rows at all; then a track block whose only identity has left
        self.assert_bits_match(lambda rng: block_scenario(rng, dtype, 0, 6, 0, 3, 0))
        self.assert_bits_match(lambda rng: block_scenario(rng, dtype, 2, 6, 0, 3, 1))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_block_without_matched_rows_leaves_boxes_without_a_gradient(self, dtype):
        # neither block has a matched row: the node does not read the boxes
        preds, track_assign, detect_assign, gt = block_scenario(np.random.default_rng(3), dtype, 2, 5, 0, 0, 1)
        loss_with_upstream(node_frame_loss, preds, track_assign, detect_assign, gt, self.WEIGHTS, 0.6)
        assert preds.boxes.grad is None and preds.class_logits.grad.dtype == dtype

    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    def test_gradient_in_every_input(self, n_rows):
        preds, track_assign, detect_assign, gt = block_scenario(
            np.random.default_rng(9), "float64", 3, 4, n_rows // 2, n_rows - n_rows // 2, 1
        )
        report = grad_check(
            lambda *_: node_frame_loss(preds, track_assign, detect_assign, gt, self.WEIGHTS),
            [preds.class_logits, preds.boxes],
        )
        assert report.passed, report.max_rel_err

    def test_records_one_tape_node(self):
        # one node for the frame, reading the logits and the boxes
        preds, track_assign, detect_assign, gt = block_scenario(np.random.default_rng(0), "float64", 3, 4, 1, 2, 1)
        with Tape() as tape:
            out = frame_loss(preds, track_assign, detect_assign, gt, self.WEIGHTS)
            assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["frame_loss"]
            assert [o for o, _ in tape.nodes] == [out.loss]


class TestTinyModelFrameLoss:
    """One float64 TINY frame with a one-row track block and positions, then its loss."""

    GT = [GtObject(1, Box(0.4, 0.5, 0.3, 0.2)), GtObject(2, Box(0.7, 0.3, 0.2, 0.25))]

    def setup_method(self):
        self.model = TrackingModel(TINY64, seed=30)
        rng = np.random.default_rng(30)
        self.image = Tensor(rng.uniform(0, 1, size=(16, 16, 1)))
        self.track_set = QuerySet(
            Tensor(rng.standard_normal((1, TINY64.d_model))),
            [QueryRecord("track", track_id=1)],
            positions=Tensor(rng.standard_normal((1, TINY64.d_model))),
        )

    def loss(self):
        preds = self.model.forward_frame(self.image, self.track_set)
        return frame_loss(preds, Assignment([(0, 1)]), Assignment([(2, 2)]), self.GT, LossWeights()).loss

    def test_gradient_reaches_heads_decoder_and_temporal_layer(self):
        params = self.model.params
        names = ["head.class.w", "head.box.outer.w", "decoder.0.ffn.inner.w", "temporal.attn.in.w"]
        report = grad_check(lambda *_: self.loss(), [params[n] for n in names])
        assert report.passed, report.max_rel_err

    def test_op_granularity(self):
        # pins the node count per op kind, so splitting an op again shows here
        with Tape() as tape:
            self.loss()
            kinds = Counter(pull.__qualname__.split(".", 1)[0] for _, pull in tape.nodes)
        assert kinds == {
            "attention": 4, "feed_forward": 3, "add": 1, "linear": 2, "frame_loss": 1,
            "layer_norm": 1, "mlp": 1, "concat": 1, "sigmoid": 1,
        }
        assert sum(kinds.values()) == 15
        assert not {
            "matmul", "mul", "log", "pow_scalar", "relu", "gelu", "sub", "absolute",
            "scale", "shift", "reduce_sum",
        } & kinds.keys()


def make_terms(rng):
    return FrameLossTerms(loss=Tensor(rng.uniform(0, 10)), n_objects=int(rng.integers(0, 6)))


class TestClipAverage:
    def test_single_frame_reduction_is_exact(self):
        # a frame whose track block sums to 1.25 and detect block to 2.5
        terms = FrameLossTerms(loss=Tensor(1.25 + 2.5), n_objects=3)
        acc = ClipLossAccumulator()
        acc.add(terms)
        manual = scale(terms.loss, 1.0 / 3)
        assert clip_average_loss(acc).item() == manual.item()

    def test_two_frame_arithmetic(self):
        acc = ClipLossAccumulator()
        acc.add(FrameLossTerms(Tensor(1.0 + 3.0), 2))
        acc.add(FrameLossTerms(Tensor(4.0 + 2.0), 3))
        assert clip_average_loss(acc).item() == pytest.approx(2.0)

    def test_matches_manual_ratio_on_random_accumulators(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            acc = ClipLossAccumulator()
            for _ in range(int(rng.integers(1, 7))):
                acc.add(make_terms(rng))
            manual = sum(f.loss.item() for f in acc.frames) / max(acc.total_objects, 1)
            assert abs(clip_average_loss(acc).item() - manual) < 1e-9

    def test_empty_frames_clamp_denominator(self):
        acc = ClipLossAccumulator()
        acc.add(FrameLossTerms(Tensor(0.7 + 0.3), 0))
        acc.add(FrameLossTerms(Tensor(0.5 + 0.5), 0))
        assert clip_average_loss(acc).item() == pytest.approx(2.0)

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError):
            clip_average_loss(ClipLossAccumulator())

    def test_frame_losses_in_two_dtypes_rejected(self):
        # unchecked, the average would be float64 and its backward would
        # hand the float32 frame loss a float64 gradient
        acc = ClipLossAccumulator()
        acc.add(FrameLossTerms(Tensor(np.float32(1.0), requires_grad=True), 1))
        acc.add(FrameLossTerms(Tensor(np.float64(2.0), requires_grad=True), 1))
        message = "clip_average_loss frame losses are float32, float64; they need one dtype"
        with Tape() as tape, pytest.raises(ValueError, match=message):
            clip_average_loss(acc)
        assert tape.nodes == []

    @pytest.mark.parametrize("n_frames", range(1, 7))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bits_match_the_add_scale_chain(self, n_frames, dtype):
        # a running sum of the frame losses in frame order, then
        # × 1/max(N, 1); every frame's loss gets the upstream gradient times that
        rng = np.random.default_rng(40 + n_frames)
        results = []
        for use_node in (True, False):
            acc = ClipLossAccumulator()
            for terms in [make_terms(rng) for _ in range(n_frames)]:
                terms.loss.data, terms.loss.requires_grad = terms.loss.data.astype(dtype), True
                acc.add(terms)
            with Tape() as tape:
                if use_node:
                    average = clip_average_loss(acc)
                else:
                    total = acc.frames[0].loss
                    for terms in acc.frames[1:]:
                        total = ad.add(total, terms.loss)
                    average = scale(total, 1.0 / max(acc.total_objects, 1))
                loss = scale(average, 0.83)
            tape.backward(loss)
            results.append([average.data] + [f.loss.grad for f in acc.frames])
            rng = np.random.default_rng(40 + n_frames)  # the same terms again
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(5)
        acc = ClipLossAccumulator()
        for _ in range(3):
            terms = make_terms(rng)
            terms.loss.requires_grad = True
            acc.add(terms)
        with Tape() as tape:
            clip_average_loss(acc)
            assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["clip_average_loss"]


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_cls=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_cls=0.0, lambda_l1=0.0, lambda_giou=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda_cls", float("nan")), ("lambda_l1", float("inf")), ("lambda_giou", -1.0),
        ("focal_alpha", 1.5), ("focal_alpha", -0.25), ("focal_alpha", float("nan")),
        ("focal_gamma", -1.0), ("focal_gamma", float("inf")), ("focal_gamma", float("nan")),
        # not a real number: each raised a bare TypeError from a comparison, or was taken as 1
        ("lambda_cls", "2"), ("focal_alpha", None), ("lambda_l1", True), ("lambda_giou", np.True_),
        ("focal_gamma", [2.0]), ("focal_alpha", complex(0.5, 0)),
    ],
)
def test_weights_reject_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        LossWeights(**{field: value})


def test_numpy_weights_are_stored_as_python_floats():
    # a numpy float64 weight made a float32 model's frame loss float64, and
    # its backward raised a GradientError on the float64 logit gradient
    w = LossWeights(
        lambda_cls=np.float64(2.0), lambda_l1=np.float32(5.0), lambda_giou=2, focal_gamma=np.int64(2)
    )
    assert all(type(getattr(w, f)) is float for f in ("lambda_cls", "lambda_l1", "lambda_giou", "focal_gamma"))
    assert w == LossWeights()
    model = TrackingModel(TINY, seed=0)
    gt = [GtObject(1, Box(0.5, 0.5, 0.2, 0.2))]
    with Tape() as tape:
        preds = model.forward_frame(Tensor(np.zeros((16, 16, 1), np.float32)))
        loss = frame_loss(preds, Assignment(), Assignment([(0, 1)]), gt, w).loss
    assert loss.data.dtype == np.float32
    tape.backward(loss)
    assert preds.class_logits.grad.dtype == np.float32


def test_weights_accept_the_bounds():
    LossWeights(focal_alpha=0.0, focal_gamma=0.0)
    LossWeights(focal_alpha=1.0, lambda_cls=0.0)
