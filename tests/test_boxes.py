import math

import numpy as np
import pytest

from querytrack.autodiff import ShapeError, Tape, Tensor
from querytrack.boxes import Box, box_giou_rows, box_l1_rows, giou, iou, l1_box

from box_rows import box_rows
from chain_ops import weighted_sum
from gradcheck import grad_check


def random_box(rng, min_side=0.05, max_side=0.6) -> Box:
    w = float(rng.uniform(min_side, max_side))
    h = float(rng.uniform(min_side, max_side))
    return Box(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), w, h)


class TestIou:
    def test_self_overlap_is_one(self):
        b = box_rows(Box(0.3, 0.4, 0.2, 0.1))
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert iou(box_rows(Box(0.1, 0.1, 0.1, 0.1)), box_rows(Box(0.9, 0.9, 0.1, 0.1))) == 0.0

    def test_quarter_offset_value(self):
        a = box_rows(Box(0.25, 0.25, 0.5, 0.5))
        b = box_rows(Box(0.5, 0.5, 0.5, 0.5))
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_zero_area_union(self):
        z = box_rows(Box(0.5, 0.5, 0.0, 0.0))
        assert iou(z, z) == 0.0


class TestGiou:
    def test_self_overlap_is_one(self):
        b = box_rows(Box(0.3, 0.4, 0.2, 0.1))
        assert giou(b, b) == pytest.approx(1.0)

    def test_far_corners(self):
        a = box_rows(Box(0.05, 0.05, 0.1, 0.1))
        b = box_rows(Box(0.95, 0.95, 0.1, 0.1))
        assert giou(a, b) == pytest.approx(-0.98, abs=1e-12)

    def test_quarter_offset_value(self):
        a = box_rows(Box(0.25, 0.25, 0.5, 0.5))
        b = box_rows(Box(0.5, 0.5, 0.5, 0.5))
        expected = 1.0 / 7.0 - 0.125 / 0.5625
        assert giou(a, b) == pytest.approx(expected, abs=1e-12)
        assert giou(a, b) == pytest.approx(-0.07937, abs=1e-5)

    def test_bounds_and_dominance(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = box_rows(random_box(rng)), box_rows(random_box(rng))
            g, i = giou(a, b), iou(a, b)
            assert -1.0 <= g <= 1.0
            assert 0.0 <= i <= 1.0
            assert g <= i + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = box_rows(random_box(rng)), box_rows(random_box(rng))
            shift = np.append(rng.uniform(-0.2, 0.2, size=2), [0.0, 0.0])
            assert iou(a + shift, b + shift) == pytest.approx(iou(a, b), abs=1e-12)
            assert giou(a + shift, b + shift) == pytest.approx(giou(a, b), abs=1e-12)


class TestL1:
    def test_identical_boxes(self):
        b = box_rows(Box(0.5, 0.5, 0.2, 0.2))
        assert l1_box(b, b) == 0.0

    def test_example_value(self):
        assert l1_box(box_rows(Box(0.5, 0.5, 0.2, 0.2)), box_rows(Box(0.6, 0.5, 0.2, 0.4))) == pytest.approx(0.3)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = box_rows(random_box(rng)), box_rows(random_box(rng))
            assert l1_box(a, b) == pytest.approx(l1_box(b, a), abs=1e-15)


class TestTensorVersions:
    def test_giou_gradient_all_eight_coordinates(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            # keep boxes overlapping-ish and nondegenerate so no kink is hit
            a = np.array([[0.4 + rng.uniform(-0.05, 0.05), 0.5, 0.31, 0.27]])
            b = np.array([[0.5, 0.45 + rng.uniform(-0.05, 0.05), 0.24, 0.33]])
            ta, tb = Tensor(a), Tensor(b)
            report = grad_check(
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
        report = grad_check(lambda x, y: weighted_sum(box_giou_rows(x, y), [[1.0], [-0.7]]), [ta, tb])
        assert report.passed, report.max_rel_err

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
        report = grad_check(lambda x, y: weighted_sum(box_l1_rows(x, y), [[1.0], [-0.7], [2.5]]), [ta, tb])
        assert report.passed, report.max_rel_err


class TestPairwiseKernels:
    def sets(self, seed, m=12, n=9):
        rng = np.random.default_rng(seed)
        return box_rows(*(random_box(rng) for _ in range(m))), box_rows(*(random_box(rng) for _ in range(n)))

    @pytest.mark.parametrize("kernel", [iou, giou, l1_box])
    def test_cell_equals_single_pair(self, kernel):
        boxes_a, boxes_b = self.sets(6)
        full = kernel(boxes_a, boxes_b)
        assert full.shape == (12, 9)
        for i in range(12):
            for j in range(9):
                one = kernel(boxes_a[i : i + 1], boxes_b[j : j + 1])
                assert one.shape == (1, 1)
                assert full[i, j] == one[0, 0]

    @pytest.mark.parametrize("kernel", [iou, giou, l1_box])
    def test_empty_sets(self, kernel):
        boxes_a, _ = self.sets(8)
        assert kernel(np.zeros((0, 4)), boxes_a).shape == (0, 12)
        assert kernel(boxes_a, np.zeros((0, 4))).shape == (12, 0)
        assert kernel(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 0)

    def test_diagonal_matches_tensor_rows(self):
        boxes_a, boxes_b = self.sets(9, m=12, n=12)
        ta, tb = Tensor(boxes_a), Tensor(boxes_b)
        np.testing.assert_array_equal(np.diag(giou(boxes_a, boxes_b)), box_giou_rows(ta, tb).data[:, 0])
        np.testing.assert_array_equal(np.diag(l1_box(boxes_a, boxes_b)), box_l1_rows(ta, tb).data[:, 0])

    def test_tiny_identical_boxes_clamp_as_the_rows_do(self):
        # union 1e-14 is below EPS_GUARD: unclamped, the pairwise IoU was
        # 1.0000000001 and GIoU 1.0000000001 against 0.0099999999994 rows
        b = np.array([[0.5, 0.5, 1e-7, 1e-7]])
        assert 0.0 <= iou(b, b)[0, 0] <= 1.0
        np.testing.assert_array_equal(giou(b, b)[0], box_giou_rows(Tensor(b), Tensor(b)).data[:, 0])


class TestBoxArray:
    """[m,4] row arrays, the one form the pairwise kernels take."""

    @pytest.mark.parametrize("shape", [(2, 6), (6,), (1, 1, 4), (3, 3)])
    def test_other_shapes_rejected(self, shape):
        # reshape(-1, 4) would read a [2,6] array as three boxes
        ok = box_rows(Box(0.5, 0.5, 0.2, 0.2))
        for kernel in (iou, giou, l1_box):
            with pytest.raises(ShapeError, match=rf"{kernel.__name__} takes .* got shape \({shape[0]},"):
                kernel(np.zeros(shape), ok)
            with pytest.raises(ShapeError, match=rf"got shape \({shape[0]},"):
                kernel(ok, np.zeros(shape))


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
        # not real numbers: a bool passed as 1 or 0, and isfinite raised a bare TypeError on the rest
        ((True, 0.5, 0.1, 0.1), "cx"),
        ((0.5, 0.5, False, 0.1), "w"),
        ((0.5, 0.5, 0.1, np.True_), "h"),
        (("0.5", 0.5, 0.1, 0.1), "cx"),
        ((0.5, None, 0.1, 0.1), "cy"),
    ],
)
def test_non_finite_boxes_rejected(args, field):
    with pytest.raises(ValueError, match=rf"box {field} must be finite"):
        Box(*args)
