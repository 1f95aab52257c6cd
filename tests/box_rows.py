"""The tests' one conversion from `Box` records to the `[m,4]` rows that the
package's box code takes."""

import numpy as np

from querytrack.boxes import Box


def box_rows(*boxes: Box) -> np.ndarray:
    """The boxes as float64 [m,4] (cx, cy, w, h) rows, in order."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
