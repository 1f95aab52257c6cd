import math
import warnings

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import ShapeError, Tape, Tensor
from querytrack.boxes import Box, box_giou_rows, box_l1_rows, giou, iou, l1_box


def weighted_sum(x, w):
    """sum(x * w) for a constant array (or number) w, as one test-local tape op."""
    w = np.asarray(w, dtype=np.float64)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * w)

    return ad.custom_op(np.sum(x.data * w), (x,), pull)


def random_box(rng, min_side=0.05, max_side=0.6) -> Box:
    w = float(rng.uniform(min_side, max_side))
    h = float(rng.uniform(min_side, max_side))
    return Box(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), w, h)


class TestIou:
    def test_self_overlap_is_one(self):
        b = Box(0.3, 0.4, 0.2, 0.1)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert iou(Box(0.1, 0.1, 0.1, 0.1), Box(0.9, 0.9, 0.1, 0.1)) == 0.0

    def test_quarter_offset_value(self):
        a = Box(0.25, 0.25, 0.5, 0.5)
        b = Box(0.5, 0.5, 0.5, 0.5)
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_zero_area_union(self):
        z = Box(0.5, 0.5, 0.0, 0.0)
        assert iou(z, z) == 0.0


class TestGiou:
    def test_self_overlap_is_one(self):
        b = Box(0.3, 0.4, 0.2, 0.1)
        assert giou(b, b) == pytest.approx(1.0)

    def test_far_corners(self):
        a = Box(0.05, 0.05, 0.1, 0.1)
        b = Box(0.95, 0.95, 0.1, 0.1)
        assert giou(a, b) == pytest.approx(-0.98, abs=1e-12)

    def test_quarter_offset_value(self):
        a = Box(0.25, 0.25, 0.5, 0.5)
        b = Box(0.5, 0.5, 0.5, 0.5)
        expected = 1.0 / 7.0 - 0.125 / 0.5625
        assert giou(a, b) == pytest.approx(expected, abs=1e-12)
        assert giou(a, b) == pytest.approx(-0.07937, abs=1e-5)

    def test_bounds_and_dominance(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            g, i = giou(a, b), iou(a, b)
            assert -1.0 <= g <= 1.0
            assert 0.0 <= i <= 1.0
            assert g <= i + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-0.2, 0.2, size=2)
            a2 = Box(a.cx + dx, a.cy + dy, a.w, a.h)
            b2 = Box(b.cx + dx, b.cy + dy, b.w, b.h)
            assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)
            assert giou(a2, b2) == pytest.approx(giou(a, b), abs=1e-12)


class TestL1:
    def test_identical_boxes(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        assert l1_box(b, b) == 0.0

    def test_example_value(self):
        assert l1_box(Box(0.5, 0.5, 0.2, 0.2), Box(0.6, 0.5, 0.2, 0.4)) == pytest.approx(0.3)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert l1_box(a, b) == pytest.approx(l1_box(b, a), abs=1e-15)


class TestTensorVersions:
    def test_rows_match_float_path(self):
        rng = np.random.default_rng(3)
        boxes_a = [random_box(rng) for _ in range(12)]
        boxes_b = [random_box(rng) for _ in range(12)]
        ta = Tensor(np.stack([b.to_array() for b in boxes_a]))
        tb = Tensor(np.stack([b.to_array() for b in boxes_b]))
        g_rows = box_giou_rows(ta, tb).data.reshape(-1)
        l_rows = box_l1_rows(ta, tb).data.reshape(-1)
        for k, (a, b) in enumerate(zip(boxes_a, boxes_b)):
            assert g_rows[k] == pytest.approx(giou(a, b), abs=1e-12)
            assert l_rows[k] == pytest.approx(l1_box(a, b), abs=1e-12)

    def test_giou_gradient_all_eight_coordinates(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            # keep boxes overlapping-ish and nondegenerate so no kink is hit
            a = np.array([[0.4 + rng.uniform(-0.05, 0.05), 0.5, 0.31, 0.27]])
            b = np.array([[0.5, 0.45 + rng.uniform(-0.05, 0.05), 0.24, 0.33]])
            ta, tb = Tensor(a), Tensor(b)
            report = ad.grad_check(
                lambda x, y: weighted_sum(box_giou_rows(x, y), 1.0), [ta, tb], tol=1e-4
            )
            assert report.passed, report.max_rel_err

    def test_giou_rows_record_one_tape_node(self):
        ta = Tensor([[0.4, 0.5, 0.3, 0.2], [0.2, 0.2, 0.1, 0.1]], requires_grad=True)
        tb = Tensor([[0.5, 0.5, 0.2, 0.3], [0.8, 0.8, 0.1, 0.1]], requires_grad=True)
        with Tape() as tape:
            box_giou_rows(ta, tb)
        assert len(tape.nodes) == 1

    def test_l1_rows_record_one_tape_node(self):
        ta = Tensor([[0.4, 0.5, 0.3, 0.2], [0.2, 0.2, 0.1, 0.1]], requires_grad=True)
        tb = Tensor([[0.5, 0.5, 0.2, 0.3], [0.8, 0.8, 0.1, 0.1]], requires_grad=True)
        with Tape() as tape:
            out = box_l1_rows(ta, tb)
        assert len(tape.nodes) == 1
        np.testing.assert_allclose(out.data, [[0.3], [1.2]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "pred, target",
        [
            # disjoint: apart on both axes, and apart in x while overlapping in y
            ([[0.2, 0.3, 0.2, 0.1], [0.7, 0.5, 0.1, 0.3]], [[0.7, 0.75, 0.3, 0.2], [0.2, 0.52, 0.2, 0.2]]),
            # nested: the target lies strictly inside pred, and pred inside the target
            ([[0.5, 0.5, 0.6, 0.5], [0.41, 0.52, 0.1, 0.12]], [[0.52, 0.47, 0.2, 0.15], [0.4, 0.5, 0.4, 0.35]]),
            # partly overlapping along both axes
            ([[0.4, 0.5, 0.31, 0.27], [0.6, 0.3, 0.2, 0.2]], [[0.5, 0.43, 0.24, 0.33], [0.68, 0.36, 0.25, 0.1]]),
        ],
        ids=["disjoint", "nested", "partial"],
    )
    def test_giou_gradient_pred_and_target(self, pred, target):
        ta, tb = Tensor(pred), Tensor(target)
        # distinct row weights on the [2,1] GIoU column
        report = ad.grad_check(lambda x, y: weighted_sum(box_giou_rows(x, y), [[1.0], [-0.7]]), [ta, tb])
        assert report.passed, report.max_rel_err

    def test_zero_area_rows_finite(self):
        pred = np.array([
            [0.5, 0.5, 0.0, 0.0],  # both zero at one centre
            [0.5, 0.5, 0.4, 0.3],  # a zero-area target inside pred
            [0.2, 0.5, 0.0, 0.2],  # zero-width rows apart
        ])
        target = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.7, 0.5, 0.0, 0.2]])
        ta, tb = Tensor(pred, requires_grad=True), Tensor(target, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = box_giou_rows(ta, tb)
                loss = weighted_sum(out, 1.0)
            tape.backward(loss)
        assert np.isfinite(out.data).all()
        np.testing.assert_array_equal(out.data[:, 0], np.diag(giou(pred, target)))
        assert np.isfinite(ta.grad).all() and np.isfinite(tb.grad).all()

    def test_giou_rows_reject_bad_shapes(self):
        with pytest.raises(ShapeError):
            box_giou_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            box_giou_rows(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))

    def test_l1_rows_reject_bad_shapes(self):
        with pytest.raises(ShapeError, match="box_l1_rows needs two"):
            box_l1_rows(Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
        with pytest.raises(ShapeError):
            box_l1_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_l1_gradient(self):
        rng = np.random.default_rng(5)
        ta = Tensor(rng.uniform(0.2, 0.8, size=(3, 4)))
        tb = Tensor(rng.uniform(0.2, 0.8, size=(3, 4)))
        # distinct row weights, so a gradient routed to the wrong row shows
        report = ad.grad_check(lambda x, y: weighted_sum(box_l1_rows(x, y), [[1.0], [-0.7], [2.5]]), [ta, tb])
        assert report.passed, report.max_rel_err


class TestPairwiseKernels:
    def sets(self, seed, m=12, n=9):
        rng = np.random.default_rng(seed)
        return [random_box(rng) for _ in range(m)], [random_box(rng) for _ in range(n)]

    @pytest.mark.parametrize("kernel", [iou, giou, l1_box])
    def test_cell_equals_single_pair(self, kernel):
        boxes_a, boxes_b = self.sets(6)
        full = kernel(boxes_a, boxes_b)
        assert full.shape == (12, 9)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert kernel(a, b).shape == (1, 1)
                assert full[i, j] == kernel(a, b)[0, 0]

    @pytest.mark.parametrize("kernel", [iou, giou, l1_box])
    def test_box_list_and_array_agree(self, kernel):
        boxes_a, boxes_b = self.sets(7)
        rows_a = np.stack([b.to_array() for b in boxes_a])
        assert np.array_equal(kernel(boxes_a, boxes_b), kernel(rows_a, boxes_b))

    @pytest.mark.parametrize("kernel", [iou, giou, l1_box])
    def test_empty_sets(self, kernel):
        boxes_a, _ = self.sets(8)
        assert kernel(np.zeros((0, 4)), boxes_a).shape == (0, 12)
        assert kernel(boxes_a, np.zeros((0, 4))).shape == (12, 0)
        assert kernel([], []).shape == (0, 0)

    def test_diagonal_matches_tensor_rows(self):
        boxes_a, boxes_b = self.sets(9, m=12, n=12)
        ta = Tensor(np.stack([b.to_array() for b in boxes_a]))
        tb = Tensor(np.stack([b.to_array() for b in boxes_b]))
        np.testing.assert_allclose(
            np.diag(giou(boxes_a, boxes_b)), box_giou_rows(ta, tb).data[:, 0], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.diag(l1_box(boxes_a, boxes_b)), box_l1_rows(ta, tb).data[:, 0], rtol=0, atol=1e-12
        )


def test_invalid_boxes_rejected():
    with pytest.raises(ValueError):
        Box(0.5, 0.5, -0.1, 0.2)
    with pytest.raises(ValueError):
        Box(0.5, 0.5, 0.1, 2.5)


@pytest.mark.parametrize(
    "args,field",
    [
        ((math.nan, 0.5, 0.1, 0.1), "cx"),
        ((0.5, 0.5, math.nan, 0.1), "w"),
        ((math.inf, 0.5, 0.1, 0.1), "cx"),
        ((0.5, -math.inf, 0.1, 0.1), "cy"),
        ((0.5, 0.5, 0.1, math.nan), "h"),
    ],
)
def test_non_finite_boxes_rejected(args, field):
    with pytest.raises(ValueError, match=rf"box {field} must be finite"):
        Box(*args)
