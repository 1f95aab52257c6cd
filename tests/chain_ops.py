"""Single-purpose tape ops that only the tests use.

The fused ops in `querytrack` (the frame-loss node, the clip average,
`ad.attention`) are checked bit for bit against the chains of small ops
they stand for, and gradient tests reduce an op's output to a scalar loss.
The package has no caller of a row slice, a constant scale, a sum or a
weighted sum, so those ops live here, written on `ad.custom_op` under the
package's tape contract: each accumulates its gradient through
`_accumulate`, and all but `weighted_sum`, whose weights are float64,
compute in their input's dtype.
"""

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import Tensor


def scale(x: Tensor, c: float) -> Tensor:
    """x · c for a Python float c; backward hands x g · c."""
    c = float(c)
    return ad.custom_op(x.data * c, (x,), lambda g: x._accumulate(g * c))


def total(x: Tensor) -> Tensor:
    """sum(x) as one tape op, in x's dtype; backward hands g to every cell."""
    return ad.custom_op(x.data.sum(), (x,), lambda g: x._accumulate(np.broadcast_to(g, x.shape).copy()))


def weighted_sum(x: Tensor, w) -> Tensor:
    """sum(x * w) for a constant array (or number) w, taken as float64, as one tape op."""
    w = np.asarray(w, dtype=np.float64)
    return ad.custom_op(np.sum(x.data * w), (x,), lambda g: x._accumulate(np.broadcast_to(g * w, x.shape)))


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """x[start:stop] along axis 0 (rows) or 1 (columns)."""
    index = (slice(None),) * axis + (slice(start, stop),)

    def pull(g):
        buf = np.zeros_like(x.data)
        buf[index] = g
        x._accumulate(buf)

    return ad.custom_op(x.data[index].copy(), (x,), pull)
