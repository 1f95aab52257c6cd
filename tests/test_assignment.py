import itertools
import re

import numpy as np
import pytest

from querytrack.assignment import (
    Assignment,
    GtObject,
    _read_annotations,
    assign_newborn,
    build_match_cost,
    hungarian,
    propagate_assignment,
)
from querytrack.autodiff import ShapeError
from querytrack.boxes import Box, giou, iou, l1_box
from querytrack.losses import LossWeights

from box_rows import box_rows


def brute_force_cost(cost: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all permutations."""
    rows, cols = cost.shape
    best = np.inf
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            best = min(best, sum(cost[r, c] for r, c in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            best = min(best, sum(cost[r, c] for c, r in enumerate(perm)))
    return best


class TestHungarian:
    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []
        assert hungarian(np.zeros((0, 0))) == []

    @pytest.mark.parametrize("shape", [(0,), (0, 2, 2), (2, 0, 3)])
    def test_empty_cost_of_other_rank_rejected(self, shape):
        with pytest.raises(ValueError, match="must be 2-d"):
            hungarian(np.zeros(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            cost = rng.uniform(-5, 5, size=(rows, cols))
            pairs = hungarian(cost)
            # sorted by row, as documented; random continuous costs have one
            # optimum, so with the cost and one-to-one pairs this fixes the list
            assert pairs == sorted(pairs)
            assert len(pairs) == min(rows, cols)
            assert len({r for r, _ in pairs}) == len(pairs)
            assert len({c for _, c in pairs}) == len(pairs)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == pytest.approx(brute_force_cost(cost), abs=1e-9)

    def test_rectangular_wide_and_tall(self):
        cost = np.array([[5.0, 1.0, 9.0, 2.0]])
        assert hungarian(cost) == [(0, 1)]
        assert hungarian(cost.T) == [(1, 0)]


class TestMatchCost:
    def test_perfect_prediction(self):
        w = LossWeights(lambda_cls=2.0, lambda_l1=5.0, lambda_giou=2.0)
        b = Box(0.5, 0.5, 0.2, 0.2)
        cost = build_match_cost(np.array([[1.0]]), box_rows(b), [GtObject(0, b)], w)
        assert cost[0, 0] == pytest.approx(-w.lambda_cls - w.lambda_giou)

    def test_arithmetic_example(self):
        # p=0.5, l1=0.3, giou ~ -0.0794 gives 2*(-0.5) + 5*0.3 + 2*0.0794
        w = LossWeights(lambda_cls=2.0, lambda_l1=5.0, lambda_giou=2.0)
        pred = Box(0.25, 0.25, 0.5, 0.5)
        tgt = Box(0.5, 0.5, 0.5, 0.5)
        # use a target with l1 0.3 and giou -0.08 per the worked numbers
        cost = build_match_cost(
            np.array([[0.5]]),
            box_rows(Box(0.5, 0.5, 0.2, 0.2)),
            [GtObject(0, Box(0.6, 0.5, 0.2, 0.4))],
            w,
        )
        g = giou(box_rows(Box(0.5, 0.5, 0.2, 0.2)), box_rows(Box(0.6, 0.5, 0.2, 0.4)))
        assert cost[0, 0] == pytest.approx(-1.0 + 1.5 - 2 * g)
        # the worked composite from the quarter-offset boxes
        cost2 = build_match_cost(
            np.array([[0.5]]), box_rows(pred), [GtObject(0, tgt)], w
        )
        g2 = giou(box_rows(pred), box_rows(tgt))
        l2 = 0.25 + 0.25  # |dcx| + |dcy|
        assert cost2[0, 0] == pytest.approx(-1.0 + 5 * l2 - 2 * g2)

    def test_monotone_in_l1(self):
        w = LossWeights()
        base = Box(0.5, 0.5, 0.2, 0.2)
        prev = None
        for shift in [0.0, 0.05, 0.1, 0.2]:
            tgt = GtObject(0, Box(0.5 + shift, 0.5, 0.2, 0.2))
            c = build_match_cost(np.array([[0.7]]), box_rows(base), [tgt], w)[0, 0]
            if prev is not None:
                assert c > prev
            prev = c

    @pytest.mark.parametrize(
        "gt, message",
        [
            ([GtObject(1, Box(0.5, 0.5, 0.2, 0.2)), GtObject(1, Box(0.3, 0.3, 0.1, 0.1))], "identity 1 appears twice"),
            # an identity is an integer, as a QueryRecord's track id is
            ([GtObject("a", Box(0.5, 0.5, 0.2, 0.2))], r"identity 'a', not an integer"),
            ([GtObject(1.5, Box(0.5, 0.5, 0.2, 0.2))], r"identity 1\.5, not an integer"),
            ([GtObject(True, Box(0.5, 0.5, 0.2, 0.2))], r"identity True, not an integer"),
            ([GtObject(None, Box(0.5, 0.5, 0.2, 0.2))], r"identity None, not an integer"),
        ],
        ids=["duplicate_identity", "string_identity", "float_identity", "bool_identity", "no_identity"],
    )
    def test_bad_annotations_rejected(self, gt, message):
        probs = np.array([[0.5], [0.3]])
        boxes = box_rows(Box(0.5, 0.5, 0.2, 0.2), Box(0.4, 0.4, 0.2, 0.2))
        with pytest.raises(ValueError, match=message):
            build_match_cost(probs, boxes, gt, LossWeights())

    def test_probability_rows_must_match_box_rows(self):
        # three queries with one box would broadcast that box to every query
        probs = np.array([[0.9], [0.5], [0.1]])
        gt = [GtObject(1, Box(0.5, 0.5, 0.2, 0.2)), GtObject(2, Box(0.2, 0.2, 0.1, 0.1))]
        with pytest.raises(ValueError, match="3 probability rows but 1 predicted boxes"):
            build_match_cost(probs, box_rows(Box(0.5, 0.5, 0.2, 0.2)), gt, LossWeights())
        with pytest.raises(ValueError, match="3 probability rows but 1 predicted boxes"):
            assign_newborn(probs, box_rows(Box(0.5, 0.5, 0.2, 0.2)), gt, set(), LossWeights())

    def test_probabilities_must_be_2d(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        with pytest.raises(ValueError, match=r"\[n_queries, 1\], got shape \(2,\)"):
            build_match_cost(np.array([0.5, 0.3]), box_rows(b, b), [GtObject(1, b)], LossWeights())
        # one query's [1, 2] table against two targets would broadcast column t to target t
        with pytest.raises(ValueError, match=r"\[n_queries, 1\], got shape \(1, 2\)"):
            build_match_cost(np.array([[0.5, 0.3]]), box_rows(b), [GtObject(1, b), GtObject(2, b)], LossWeights())

    def test_boxes_in_any_other_form_rejected(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        ok, probs, gt = box_rows(b), np.array([[0.9]]), [GtObject(1, b)]
        for bad, got in ((b, "a Box"), (np.array([0.5, 0.5, 0.2, 0.2]), r"shape \(4,\)"),
                         ([b], "a list"), (np.zeros((1, 3)), r"shape \(1, 3\)")):
            for kernel in (iou, giou, l1_box):
                with pytest.raises(ShapeError, match=rf"{kernel.__name__} takes \[m,4\] and \[n,4\] box rows, got {got}"):
                    kernel(bad, ok)
                with pytest.raises(ShapeError, match=f"got {got}"):
                    kernel(ok, bad)
            with pytest.raises(ShapeError, match=f"got {got}"):
                build_match_cost(probs, bad, gt, LossWeights())
        # an annotation's box is a Box record, not rows or a tuple
        for box in (np.array([0.5, 0.5, 0.2, 0.2]), (0.5, 0.5, 0.2, 0.2), np.array([[0.5, 0.5, 0.2, 0.2]])):
            with pytest.raises(ValueError, match=r"object 1 has box .*, not a Box"):
                build_match_cost(probs, ok, [GtObject(1, box)], LossWeights())


def make_gt(ids_boxes):
    return [GtObject(i, b) for i, b in ids_boxes]


class TestAssignNewborn:
    def setup_method(self):
        self.w = LossWeights()
        self.boxes = [Box(0.2, 0.2, 0.1, 0.1), Box(0.5, 0.5, 0.1, 0.1), Box(0.8, 0.8, 0.1, 0.1)]
        self.rows = box_rows(*self.boxes)
        self.probs = np.full((3, 1), 0.9)

    def test_first_frame_everything_is_newborn(self):
        gt = make_gt([(1, self.boxes[0]), (2, self.boxes[1]), (3, self.boxes[2])])
        out = assign_newborn(self.probs, self.rows, gt, set(), self.w)
        assert out.identities() == {1, 2, 3}
        # co-located predictions match their own object
        assert sorted(out.pairs) == [(0, 1), (1, 2), (2, 3)]

    def test_tracked_ids_excluded(self):
        gt = make_gt([(1, self.boxes[0]), (2, self.boxes[1]), (3, self.boxes[2])])
        out = assign_newborn(self.probs, self.rows, gt, {1, 2}, self.w)
        assert out.identities() == {3}
        assert out.pairs == [(2, 3)]

    def test_no_newborns_all_background(self):
        gt = make_gt([(1, self.boxes[0])])
        out = assign_newborn(self.probs, self.rows, gt, {1}, self.w)
        assert out.pairs == []

    def test_never_matches_tracked_identity_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_obj = int(rng.integers(0, 5))
            gt = [
                GtObject(i, Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.2, 2)))
                for i in range(n_obj)
            ]
            tracked = {i for i in range(n_obj) if rng.random() < 0.5}
            probs = rng.uniform(0, 1, size=(6, 1))
            preds = box_rows(*(Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.2, 2)) for _ in range(6)))
            out = assign_newborn(probs, preds, gt, tracked, self.w)
            assert not (out.identities() & tracked)
            assert out.pairs == sorted(out.pairs)  # in detect slot order
            expected = {t.identity for t in gt} - tracked
            assert out.identities() == set(
                sorted(expected)[: min(6, len(expected))]
            ) or out.identities() <= expected
            if len(expected) <= 6:
                assert out.identities() == expected


class TestReadAnnotations:
    def test_rows_classes_and_boxes_in_frame_order(self):
        gt = [GtObject(7, Box(0.5, 0.4, 0.2, 0.1)), GtObject(3, Box(0.1, 0.2, 0.3, 0.4))]
        row_of, rows = _read_annotations(gt)
        assert row_of == {7: 0, 3: 1}
        assert rows.dtype == np.float64 and rows.tolist() == [[0.5, 0.4, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]

    def test_empty_frame(self):
        row_of, rows = _read_annotations([])
        assert row_of == {} and rows.shape == (0, 4)


class TestPropagate:
    def test_first_frame_empty(self):
        out = propagate_assignment(Assignment(), Assignment())
        assert out.pairs == []

    def test_single_newborn_becomes_track(self):
        out = propagate_assignment(Assignment(), Assignment([(0, 5)]))
        assert out.pairs == [(0, 5)]

    def test_union_with_reindexing(self):
        tr = Assignment([(0, 1), (1, 2)])
        det = Assignment([(3, 7)])
        out = propagate_assignment(tr, det)
        assert out.pairs == [(0, 1), (1, 2), (2, 7)]
        assert out.identities() == {1, 2, 7}

    def test_overlapping_identities_rejected(self):
        with pytest.raises(ValueError, match="identities"):
            propagate_assignment(Assignment([(0, 1)]), Assignment([(0, 1)]))


@pytest.mark.parametrize("pair", [(1, 2, 3), 5, (4,), [0, 1]], ids=["triple", "int", "single", "list"])
def test_assignment_rejects_a_pair_that_is_not_a_two_tuple(pair):
    # unchecked, these raised bare unpacking errors, or took a list as a pair
    with pytest.raises(ValueError, match=rf"assignment pair {re.escape(repr(pair))} is not a \(slot, identity\) 2-tuple"):
        Assignment([(0, 1), pair])


@pytest.mark.parametrize(
    "pair",
    [(0.5, 7), (np.float64(1.0), 7), (True, 7), (np.True_, 7), ("0", 7),
     (0, 7.0), (0, False), (0, "a"), (0, None)],
    ids=["float_slot", "numpy_float_slot", "bool_slot", "numpy_bool_slot", "string_slot",
         "float_identity", "bool_identity", "string_identity", "no_identity"],
)
def test_assignment_rejects_a_slot_or_identity_that_is_not_an_integer(pair):
    # unchecked, frame_loss indexed with np.intp(pairs): slot 0.5 trained
    # row 0 and slot True row 1
    with pytest.raises(ValueError, match=r"assignment pair .* needs an integer slot and identity"):
        Assignment([(0, 1), pair])


def test_assignment_takes_numpy_integers():
    a = Assignment([(np.int64(0), np.int32(7)), (np.intp(2), 3)])
    assert a.identities() == {7, 3} and len(a) == 2


def test_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        Assignment([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        Assignment([(0, 1), (1, 1)])
