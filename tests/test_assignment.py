import itertools

import numpy as np
import pytest

from querytrack.assignment import (
    Assignment,
    GtObject,
    assign_newborn,
    build_match_cost,
    hungarian,
    propagate_assignment,
)
from querytrack.boxes import Box
from querytrack.losses import LossWeights


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
    def test_two_by_two_diagonal(self):
        pairs = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pairs == [(0, 0), (1, 1)]

    def test_two_by_two_off_costs(self):
        pairs = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert pairs == [(0, 0), (1, 1)]
        assert sum(1.0 for _ in pairs) == 2

    def test_three_by_three_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian(cost)
        assert pairs == [(0, 1), (1, 0), (2, 2)]
        assert sum(cost[r, c] for r, c in pairs) == 5.0

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
            assert len(pairs) == min(rows, cols)
            assert len({r for r, _ in pairs}) == len(pairs)
            assert len({c for _, c in pairs}) == len(pairs)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == pytest.approx(brute_force_cost(cost), abs=1e-9)

    def test_constant_shift_leaves_assignment_unchanged(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cost = rng.uniform(0, 3, size=(4, 4))
            assert hungarian(cost) == hungarian(cost + 17.5)

    def test_rectangular_wide_and_tall(self):
        cost = np.array([[5.0, 1.0, 9.0, 2.0]])
        assert hungarian(cost) == [(0, 1)]
        assert hungarian(cost.T) == [(1, 0)]


class TestMatchCost:
    def test_perfect_prediction(self):
        w = LossWeights(lambda_cls=2.0, lambda_l1=5.0, lambda_giou=2.0)
        b = Box(0.5, 0.5, 0.2, 0.2)
        cost = build_match_cost(np.array([[1.0]]), [b], [GtObject(0, b)], w)
        assert cost[0, 0] == pytest.approx(-w.lambda_cls - w.lambda_giou)

    def test_arithmetic_example(self):
        # p=0.5, l1=0.3, giou ~ -0.0794 gives 2*(-0.5) + 5*0.3 + 2*0.0794
        w = LossWeights(lambda_cls=2.0, lambda_l1=5.0, lambda_giou=2.0)
        pred = Box(0.25, 0.25, 0.5, 0.5)
        tgt = Box(0.5, 0.5, 0.5, 0.5)
        # use a target with l1 0.3 and giou -0.08 per the worked numbers
        cost = build_match_cost(
            np.array([[0.5]]),
            [Box(0.5, 0.5, 0.2, 0.2)],
            [GtObject(0, Box(0.6, 0.5, 0.2, 0.4))],
            w,
        )
        from querytrack.boxes import giou as giou_f

        g = giou_f(Box(0.5, 0.5, 0.2, 0.2), Box(0.6, 0.5, 0.2, 0.4))
        assert cost[0, 0] == pytest.approx(-1.0 + 1.5 - 2 * g)
        # the worked composite from the quarter-offset boxes
        cost2 = build_match_cost(
            np.array([[0.5]]), [pred], [GtObject(0, tgt)], w
        )
        g2 = giou_f(pred, tgt)
        l2 = 0.25 + 0.25  # |dcx| + |dcy|
        assert cost2[0, 0] == pytest.approx(-1.0 + 5 * l2 - 2 * g2)

    def test_monotone_in_l1(self):
        w = LossWeights()
        base = Box(0.5, 0.5, 0.2, 0.2)
        prev = None
        for shift in [0.0, 0.05, 0.1, 0.2]:
            tgt = GtObject(0, Box(0.5 + shift, 0.5, 0.2, 0.2))
            c = build_match_cost(np.array([[0.7]]), [base], [tgt], w)[0, 0]
            if prev is not None:
                assert c > prev
            prev = c


    def test_each_column_takes_its_own_class_probability(self):
        w = LossWeights(lambda_cls=2.0, lambda_l1=0.0, lambda_giou=0.0)
        b = Box(0.5, 0.5, 0.2, 0.2)
        probs = np.array([[0.1, 0.7], [0.4, 0.2], [0.9, 0.3]])
        targets = [GtObject(0, b, class_id=1), GtObject(1, b, class_id=0), GtObject(2, b, class_id=1)]
        cost = build_match_cost(probs, [b, b, b], targets, w)
        np.testing.assert_array_equal(cost, -2.0 * probs[:, [1, 0, 1]])

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
        probs = np.array([[0.5], [0.3]])
        boxes = [Box(0.5, 0.5, 0.2, 0.2), Box(0.4, 0.4, 0.2, 0.2)]
        with pytest.raises(ValueError, match=message):
            build_match_cost(probs, boxes, gt, LossWeights())


def make_gt(ids_boxes):
    return [GtObject(i, b) for i, b in ids_boxes]


class TestAssignNewborn:
    def setup_method(self):
        self.w = LossWeights()
        self.boxes = [Box(0.2, 0.2, 0.1, 0.1), Box(0.5, 0.5, 0.1, 0.1), Box(0.8, 0.8, 0.1, 0.1)]
        self.probs = np.full((3, 1), 0.9)

    def test_first_frame_everything_is_newborn(self):
        gt = make_gt([(1, self.boxes[0]), (2, self.boxes[1]), (3, self.boxes[2])])
        out = assign_newborn(self.probs, self.boxes, gt, set(), self.w)
        assert out.identities() == {1, 2, 3}
        # co-located predictions match their own object
        assert sorted(out.pairs) == [(0, 1), (1, 2), (2, 3)]

    def test_tracked_ids_excluded(self):
        gt = make_gt([(1, self.boxes[0]), (2, self.boxes[1]), (3, self.boxes[2])])
        out = assign_newborn(self.probs, self.boxes, gt, {1, 2}, self.w)
        assert out.identities() == {3}
        assert out.pairs == [(2, 3)]

    def test_no_newborns_all_background(self):
        gt = make_gt([(1, self.boxes[0])])
        out = assign_newborn(self.probs, self.boxes, gt, {1}, self.w)
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
            preds = [
                Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.2, 2))
                for _ in range(6)
            ]
            out = assign_newborn(probs, preds, gt, tracked, self.w)
            assert not (out.identities() & tracked)
            expected = {t.identity for t in gt} - tracked
            assert out.identities() == set(
                sorted(expected)[: min(6, len(expected))]
            ) or out.identities() <= expected
            if len(expected) <= 6:
                assert out.identities() == expected


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


def test_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        Assignment([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        Assignment([(0, 1), (1, 1)])
