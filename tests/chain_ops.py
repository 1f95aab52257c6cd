"""Single-purpose tape ops that only the tests' unfused reference chains use.

The fused ops in `querytrack` (the frame-loss node, the clip average,
`ad.attention`) are checked bit for bit against the chains of small ops
they stand for. The package has no caller of a row slice or a
constant scale, so those two ops live here, written on `ad.custom_op`
under the package's tape contract: each computes in its input's dtype and
accumulates its gradient through `_accumulate`.
"""

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import ShapeError, Tensor


def scale(x: Tensor, c: float) -> Tensor:
    """x · c for a Python float c; backward hands x g · c."""
    c = float(c)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * c)

    return ad.custom_op(x.data * c, (x,), pull)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """x[start:stop] along `axis`; a negative axis counts from the last, as in numpy."""
    ndim = x.data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"slice_axis axis {axis} is out of range for shape {x.shape}")
    index = (slice(None),) * (axis % ndim) + (slice(start, stop),)

    def pull(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return ad.custom_op(x.data[index].copy(), (x,), pull)
