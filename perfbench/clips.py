"""Seeded synthetic clips: moving boxes on a noise background.

A clip is a function of ``(seed, n_frames, n_objects, image_size)`` alone.
Boxes move at constant velocity, so they cross one another; they enter
through the borders and leave through them. The live population (objects
inside the image or within one box side of it) is kept at ``n_objects``:
every object that drifts out is replaced by a new one placed just outside
a border and heading inwards. Part of the population is always just
outside the image, so a frame shows somewhat fewer than ``n_objects``
boxes (about 65% to 80% of them), and entrances and exits both occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from querytrack.assignment import GtObject
from querytrack.boxes import Box

MIN_VISIBLE = 0.3  # an object is annotated when this share of its area is in view
BACKGROUND_MAX = 0.3  # noise amplitude; objects are drawn brighter than this


@dataclass(frozen=True)
class Clip:
    images: np.ndarray  # [n_frames, H, W, 1], float64
    annotations: list[list[GtObject]]  # visible objects per frame, by identity

    def __len__(self) -> int:
        return len(self.annotations)


def make_clip(seed: int, n_frames: int, n_objects: int, image_size: int) -> Clip:
    """Render one clip; the same arguments always give the same clip."""
    if n_frames < 1 or n_objects < 1 or image_size < 8:
        raise ValueError(f"bad clip spec: {n_frames} frames, {n_objects} objects, {image_size}px")
    rng = np.random.default_rng(seed)
    size = float(image_size)
    mean_side = size / (2.0 * np.sqrt(n_objects))
    margin = 1.4 * mean_side

    # per-object state columns: cx, cy, w, h, vx, vy, brightness, identity
    state = np.zeros((0, 8))
    next_id = 1

    def new_objects(count: int, at_border: bool) -> np.ndarray:
        nonlocal next_id
        w = rng.uniform(0.6, 1.4, count) * mean_side
        h = rng.uniform(0.6, 1.4, count) * mean_side
        speed = rng.uniform(0.03, 0.09, count) * size
        if at_border:
            # start just outside a random border, aimed across the image
            edge = rng.integers(0, 4, count)
            along = rng.uniform(0.0, size, count)
            out_x = np.where(edge == 0, -w / 2, size + w / 2)
            out_y = np.where(edge == 2, -h / 2, size + h / 2)
            cx = np.where(edge < 2, out_x, along)
            cy = np.where(edge < 2, along, out_y)
            target = rng.uniform(0.25, 0.75, (count, 2)) * size
            angle = np.arctan2(target[:, 1] - cy, target[:, 0] - cx)
        else:
            cx = rng.uniform(-margin / 2, size + margin / 2, count)
            cy = rng.uniform(-margin / 2, size + margin / 2, count)
            angle = rng.uniform(0.0, 2 * np.pi, count)
        brightness = rng.uniform(0.5, 1.0, count)
        ids = np.arange(next_id, next_id + count)
        next_id += count
        return np.column_stack(
            [cx, cy, w, h, speed * np.cos(angle), speed * np.sin(angle), brightness, ids]
        )

    images = np.empty((n_frames, image_size, image_size, 1))
    annotations = []
    for t in range(n_frames):
        if t == 0:
            state = new_objects(n_objects, at_border=False)
        else:
            state[:, 0:2] += state[:, 4:6]
            cx, cy, w, h = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
            gone = (
                (cx + w / 2 < -margin) | (cx - w / 2 > size + margin)
                | (cy + h / 2 < -margin) | (cy - h / 2 > size + margin)
            )
            state = state[~gone]
            state = np.concatenate([state, new_objects(n_objects - len(state), at_border=True)])
        images[t], annotations_t = _render(rng, state, image_size)
        annotations.append(annotations_t)
    return Clip(images, annotations)


def _render(rng: np.random.Generator, state: np.ndarray, image_size: int):
    size = float(image_size)
    image = rng.uniform(0.0, BACKGROUND_MAX, (image_size, image_size, 1))
    objects = []
    for cx, cy, w, h, _, _, brightness, ident in state:
        x0, x1 = max(cx - w / 2, 0.0), min(cx + w / 2, size)
        y0, y1 = max(cy - h / 2, 0.0), min(cy + h / 2, size)
        if x1 <= x0 or y1 <= y0:
            continue
        px0, px1 = int(np.floor(x0)), int(np.ceil(x1))
        py0, py1 = int(np.floor(y0)), int(np.ceil(y1))
        patch = image[py0:py1, px0:px1]
        np.maximum(patch, brightness, out=patch)
        if (x1 - x0) * (y1 - y0) >= MIN_VISIBLE * w * h:
            box = Box((x0 + x1) / (2 * size), (y0 + y1) / (2 * size), (x1 - x0) / size, (y1 - y0) / size)
            objects.append(GtObject(identity=int(ident), box=box))
    return image, objects
