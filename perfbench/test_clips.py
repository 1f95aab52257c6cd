"""Tests of the benchmark's clip generator.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import numpy as np

from clips import make_clip


def test_same_seed_gives_identical_clip():
    a = make_clip(7, 6, 5, 64)
    b = make_clip(7, 6, 5, 64)
    assert np.array_equal(a.images, b.images)
    assert a.annotations == b.annotations


def test_other_seed_gives_other_clip():
    a = make_clip(7, 6, 5, 64)
    b = make_clip(8, 6, 5, 64)
    assert not np.array_equal(a.images, b.images)


def test_objects_enter_and_exit_inside_the_image():
    clip = make_clip(3, 60, 5, 64)
    assert clip.images.shape == (60, 64, 64, 1)
    entered = exited = 0
    for prev, cur in zip(clip.annotations, clip.annotations[1:]):
        before = {o.identity for o in prev}
        now = {o.identity for o in cur}
        entered += len(now - before)
        exited += len(before - now)
    assert entered > 0 and exited > 0
    for frame in clip.annotations:
        assert len({o.identity for o in frame}) == len(frame)
        for obj in frame:
            x0, y0, x1, y1 = obj.box.corners()
            assert 0.0 <= x0 < x1 <= 1.0 + 1e-12 and 0.0 <= y0 < y1 <= 1.0 + 1e-12
