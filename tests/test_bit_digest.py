"""`scripts/bit_digest.py` digests this checkout: run here on the TINY model."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tiny import TINY

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bit_digest", ROOT / "scripts" / "bit_digest.py")
bit_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_digest)

SHA = "[0-9a-f]{64}"


def tiny_workloads(bench):
    """The benchmark's workloads on TINY models, the crowded one with more
    detect queries and objects."""
    crowded = dataclasses.replace(TINY, n_detect_queries=8)
    shrunk = {"train_clip": (TINY, 2), "train_crowded": (crowded, 5), "track_stream": (TINY, 2)}
    return {
        name: dataclasses.replace(w, cfg=shrunk[name][0], n_objects=shrunk[name][1])
        for name, w in bench.WORKLOADS.items()
    }


def test_digest_of_the_tiny_model_is_one_line_per_step_and_repeats_bit_for_bit(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = bit_digest.load(ROOT)
    lines = bit_digest.digest_lines(bench, tiny_workloads(bench))
    steps = [
        rf"{name} {dtype} step {k} loss -?0x[0-9a-f.]+p[+-]\d+ theta {SHA} grads {SHA} matches {SHA}"
        for name in ("train_clip", "train_crowded")
        for dtype in ("float32", "float64")
        for k in range(bit_digest.N_STEPS)
    ]
    stream = rf"track_stream float32 frames {bit_digest.STREAM_FRAMES} logits {SHA} boxes {SHA} hidden {SHA}"
    assert len(lines) == len(steps) + 1
    for line, pattern in zip(lines, steps + [stream]):
        assert re.fullmatch(pattern, line), line
    # each step trains on: θ moves, and the float64 run is another run
    thetas = [line.split()[7] for line in lines[:-1]]
    assert len(set(thetas)) == len(thetas)
    assert bit_digest.digest_lines(bench, tiny_workloads(bench)) == lines


def test_match_arrays_are_each_frames_cost_and_chosen_pairs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = bit_digest.load(ROOT)
    w = tiny_workloads(bench)["train_crowded"]
    model = bench.TrackingModel(w.cfg, seed=bench.MODEL_SEED)
    clip = bench.make_clip(bench.clip_seed(bit_digest.CLIP_SEED, 0), w.n_frames, w.n_objects, w.cfg.image_size)
    matches = bench.drivers.train_step(model, clip, bench.drivers.Adam(model.parameters())).matches
    arrays = list(bit_digest.match_arrays(bench.drivers, matches))
    assert len(arrays) == 2 * len(matches) == 2 * w.n_frames
    assert any(frame.chosen.pairs for frame in matches)
    for frame, cost, pairs in zip(matches, arrays[::2], arrays[1::2]):
        assert cost.shape == (w.cfg.n_detect_queries, len(frame.newborn))
        # the cost the matcher minimised: the chosen pairs are its optimum
        assert pairs.dtype == np.int64 and pairs.shape == (len(frame.chosen), 2)
        assert [tuple(p) for p in pairs.tolist()] == list(frame.chosen.pairs)
        assert bench.drivers.check_matching(frame) == []


def test_a_checkout_other_than_the_imported_one_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(RuntimeError, match="was imported from"):
        bit_digest.load(tmp_path)


def test_usage_without_one_checkout(capsys):
    assert bit_digest.main([]) == 2
    assert "bit_digest.py CHECKOUT" in capsys.readouterr().err
