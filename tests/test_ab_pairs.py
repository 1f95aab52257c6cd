"""`scripts/ab_pairs.py` summarises alternating benchmark pairs: checked on
made-up results, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "loss_end", "unit": "loss", "better": "lower", "bound": 0.1},
]


def pair(parent, change):
    names = [m["name"] for m in METRICS]
    return dict(zip(names, parent)), dict(zip(names, change))


def test_summary_of_made_up_pairs():
    pairs = [
        pair((100.0, 10.0, 4.0), (110.0, 9.0, 4.0)),
        pair((104.0, 9.5, 4.0), (103.0, 9.6, 4.0)),
        pair((96.0, 10.5, 4.0), (120.0, 13.0, 4.0)),
        pair((102.0, 9.8, 4.0), (102.0, 13.5, 4.0)),
        pair((98.0, 10.2, 4.0), (99.0, 14.0, 4.0)),
    ]
    fps, step, loss = ab_pairs.summarize(METRICS, pairs)
    # parent frames/s sorted 96, 98, 100, 102, 104: median 100, quartiles 98 and 102
    assert (fps["parent_median"], fps["change_median"], fps["parent_spread"]) == (100.0, 103.0, 4.0)
    assert (fps["wins"], fps["ties"], fps["pairs"], fps["within_bound"]) == (3, 1, 5, True)
    # the change's step time is 13.0 against 10.0: 30% worse, past the 0.2 bound
    assert (step["parent_median"], step["change_median"]) == (10.0, 13.0)
    assert (step["wins"], step["ties"], step["within_bound"]) == (1, 0, False)
    assert (loss["wins"], loss["ties"], loss["parent_spread"], loss["within_bound"]) == (0, 5, 0.0, True)
    assert not (fps["claimable"] or step["claimable"] or loss["claimable"])
    line = ab_pairs.format_row(step)
    assert line.startswith("step_ms_p50") and "change won 1/5 (0 tied) gain claimable: no" in line
    assert line.endswith("within bound 0.2: NO")

    # ten pairs; each parent metric's quartiles sit 4.5 steps of 0.1 or 1 apart
    parent = [(100.0 + k, 10.0 + k / 10, 4.0 + k / 10) for k in range(10)]
    change = [
        # frames/s 10 higher in 9 pairs and tied in one: median 113.5 against 104.5
        (fps + 10.0 * (k < 9),
         # step time 1 ms lower in 8 pairs, 0.5 ms higher in 2: a wide gap, too few wins
         step - 1.0 if k < 8 else step + 0.5,
         # loss 0.1 lower in every pair: a gap within the parent's 0.45 spread
         loss - 0.1)
        for k, (fps, step, loss) in enumerate(parent)
    ]
    fps, step, loss = ab_pairs.summarize(METRICS, [pair(p, c) for p, c in zip(parent, change)])
    assert (fps["wins"], fps["ties"], fps["parent_spread"], fps["claimable"]) == (9, 1, 4.5, True)
    assert (step["wins"], step["change_median"] < step["parent_median"] - step["parent_spread"]) == (8, True)
    assert not step["claimable"]
    assert (loss["wins"], loss["parent_spread"] > 0.1, loss["claimable"]) == (10, True, False)
    assert "change won 9/10 (1 tied) gain claimable: yes" in ab_pairs.format_row(fps)


def test_a_deterministic_metric_claims_no_gain():
    # train_crowded's loss_end, 1.4e-8 relative lower in all of 10 pairs:
    # a rounding-level move that a zero parent spread would let pass
    pairs = [pair((100.0 + k, 10.0, 6.609424686431884), (101.0 + k, 10.0, 6.609424591064453)) for k in range(10)]
    fps, step, loss = ab_pairs.summarize(METRICS, pairs)
    assert (loss["wins"], loss["parent_spread"], loss["deterministic"], loss["claimable"]) == (10, 0.0, True, False)
    assert loss["relative_change"] == pytest.approx(-1.443e-8, rel=1e-3)
    assert (step["deterministic"], step["relative_change"], step["claimable"]) == (True, 0.0, False)
    assert (fps["deterministic"], fps["wins"]) == (False, 10)
    line = ab_pairs.format_row(loss)
    assert "deterministic, relative change -1.4e-08 change won 10/10 (0 tied) gain claimable: no" in line
    assert "deterministic" not in ab_pairs.format_row(fps)


def test_bound_edges_hold_both_ways():
    # a median exactly at its bound is within it, in either direction
    fps, step, _ = ab_pairs.summarize(METRICS, [pair((100.0, 10.0, 4.0), (80.0, 12.0, 4.4))])
    assert fps["within_bound"] and step["within_bound"]
    fps, step, loss = ab_pairs.summarize(METRICS, [pair((100.0, 10.0, 4.0), (79.0, 12.5, 4.5))])
    assert not (fps["within_bound"] or step["within_bound"] or loss["within_bound"])


def test_unknown_direction_rejected_by_name():
    metrics = [dict(METRICS[0], better="up")]
    with pytest.raises(ValueError, match="metric frames_per_s has better='up'"):
        ab_pairs.summarize(metrics, [pair((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))])


@pytest.mark.parametrize("result, problem", [
    (None, "crashed"),
    ({"correct": False, "failed": 1}, "read correct: false"),
    ({"correct": True, "failed": 2}, "failed 2 checks"),
    ({"correct": True, "failed": 0}, None),
])
def test_run_problem(result, problem):
    assert ab_pairs.run_problem(result) == problem


def fake_result(values, correct=True):
    units = {m["name"]: m["unit"] for m in METRICS}
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def checkouts(tmp_path):
    """Two checkout directories holding this project's BENCHMARK.json with `METRICS`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec["end_to_end"] = METRICS
    roots = []
    for side in ab_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        roots.append(str(tmp_path / side))
    return roots


def test_pairs_alternate_and_share_a_seed(tmp_path, monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        parent, change = pair((100.0, 10.0, 4.0), (101.0, 9.9, 4.0))
        return fake_result(parent if checkout.name == "parent" else change)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [*checkouts(tmp_path), "--workload", "train_clip", "--pairs", "3", "--seed", "7"]
    assert ab_pairs.main(argv) == 0
    assert calls == [
        ("parent", "train_clip", 7, 25), ("change", "train_clip", 7, 25),
        ("change", "train_clip", 8, 25), ("parent", "train_clip", 8, 25),
        ("parent", "train_clip", 9, 25), ("change", "train_clip", 9, 25),
    ]
    out = capsys.readouterr().out
    assert "pair 2/3 seed 8: change ok, parent ok" in out
    assert "frames_per_s" in out and "change won 3/3 (0 tied)" in out


def test_a_bad_run_exits_nonzero_and_leaves_its_pair_out(tmp_path, monkeypatch, capsys):
    def run_once(checkout, workload, seed, seconds):
        if checkout.name == "change" and seed == 1:
            return fake_result(pair((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))[0], correct=False)
        return fake_result(pair((100.0, 10.0, 4.0), (0.0, 0.0, 0.0))[0])

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [*checkouts(tmp_path), "--workload", "train_clip", "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "pair 2/2 seed 1: change read correct: false, parent ok" in out
    assert "train_clip: 1 good pairs, 1 s per run" in out


def test_unknown_workload_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab_pairs, "run_once", lambda *a: pytest.fail("no run expected"))
    assert ab_pairs.main([*checkouts(tmp_path), "--workload", "nope", "--pairs", "1"]) == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err


def test_pairs_must_be_positive(tmp_path):
    with pytest.raises(SystemExit):
        ab_pairs.parse_args([*checkouts(tmp_path), "--workload", "train_clip", "--pairs", "0"])
