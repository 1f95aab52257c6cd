"""The tests' one table of tape ops: every op form of `querytrack.autodiff`,
and the loss and chain ops that the gradient and dtype sweeps run with them.

A row of `OPS` holds the op's input shapes as a function of the sizes (a
`Sizes`), the call on those inputs, the gradient check's tolerance and
whether the op has a tape-free path. A row is named after its op, and an
op with more than one form (`attention` with positions, with memory) or
case (`add` of one tensor to itself) gets one row per form, named
`<op>-<form>`. Three sweeps read the table, and only it:

- `tests/test_autodiff.py::test_randomized_gradient_sweep` checks every
  row's gradients against central differences, in float64, at random
  sizes, to the row's tolerance;
- `tests/test_precision.py::test_every_op_computes_in_its_inputs_dtype`
  runs every row in each dtype, and
  `test_float32_after_float64_at_the_same_width_stays_float32` in float64
  and then in float32 at the same widths; both check the dtype of the
  output, of the loss and of every gradient;
- `tests/test_autodiff.py::test_tape_free_call_builds_no_backward_rule`
  runs every row with a tape-free path without a tape and checks that it
  builds no backward rule.

The per-op gradient tests (`TestMatmul`, `TestLayerNorm`, `TestFeedForwardOp`
and `TestAttentionOp`) check a row too, at fixed sizes and seeds, through
`tests/test_autodiff.py::check_row`, as the gradient sweep does.

`tests/test_autodiff.py::test_op_table_lists_every_op` fails when a name
of `ad.__all__` is neither a row's op nor one of the module's non-op
names, so a new op, or a new form of one, is one more row here.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import querytrack.autodiff as ad
from querytrack.boxes import box_l1_rows
from querytrack.losses import focal_loss

from chain_ops import scale, slice_axis


@dataclass(frozen=True)
class Sizes:
    """The sizes a row's input shapes are drawn from: n rows, m rows of a
    second block (`concat`'s, or `attention`'s memory keys), a width k, a
    hidden width h, and an attention's heads of dh columns each."""

    n: int
    m: int
    k: int
    h: int
    heads: int
    dh: int

    @property
    def d(self) -> int:
        """An attention sublayer's width."""
        return self.heads * self.dh


@dataclass(frozen=True)
class Row:
    """shapes(s) -> the input shapes; call(s, *inputs) -> the op's output;
    tol, the gradient check's; tape_free, whether the op returns before
    `custom_op` when no tape is active (the test-local chain ops and the
    losses always go onto it)."""

    shapes: Callable[[Sizes], list]
    call: Callable
    tol: float = 1e-4
    tape_free: bool = True


def _sublayer(s: Sizes) -> list:
    """The shapes of an attention sublayer's x [n,d], its layer norm's gain
    and bias, its w_in, b_in, wo and bo."""
    d = s.d
    return [(s.n, d), (d,), (d,), (d, 3 * d), (3 * d,), (d, d), (d,)]


def _attend(s: Sizes, x, gain, bias, w_in, b_in, wo, bo, **rows):
    return ad.attention(x, ad.AttentionParams(gain, bias, w_in, b_in, wo, bo, s.heads), **rows)


def _focal(s: Sizes, x):
    """`focal_loss` with every third cell a positive."""
    return focal_loss(x, np.arange(x.data.size).reshape(x.shape) % 3 == 0)


OPS = {
    "linear": Row(lambda s: [(s.n, s.k), (s.k, s.h), (s.h,)], lambda s, *xs: ad.linear(*xs), tol=1e-6),
    "mlp": Row(lambda s: [(s.n, s.k), (s.k, s.h), (s.h,), (s.h, s.d), (s.d,)], lambda s, *xs: ad.mlp(*xs)),
    "layer_norm": Row(lambda s: [(s.n, s.k), (s.k,), (s.k,)], lambda s, *xs: ad.layer_norm(*xs), tol=1e-5),
    "add": Row(lambda s: [(s.n, s.k)] * 2, lambda s, a, b: ad.add(a, b)),
    "add-same_operand": Row(lambda s: [(s.n, s.k)], lambda s, a: ad.add(a, a)),
    "sigmoid": Row(lambda s: [(s.n, s.k)], lambda s, x: ad.sigmoid(x)),
    # b between two uses of a: blocks of two row counts, and one input twice
    "concat": Row(lambda s: [(s.n, s.k), (s.m, s.k)], lambda s, a, b: ad.concat([a, b, a])),
    # a repeated row, so the backward scatter-adds
    "gather_rows": Row(lambda s: [(s.n, s.k)], lambda s, x: ad.gather_rows(x, [s.n - 1, 0, s.n - 1])),
    "feed_forward": Row(
        lambda s: [(s.n, s.k), (s.k,), (s.k,), (s.k, s.h), (s.h,), (s.h, s.k), (s.k,)],
        lambda s, x, *p: ad.feed_forward(x, ad.FeedForwardParams(*p)),
    ),
    "attention": Row(_sublayer, _attend),
    "attention-positions": Row(
        lambda s: _sublayer(s) + [(s.n, s.d)], lambda s, *xs: _attend(s, *xs[:7], positions=xs[7])
    ),
    "attention-memory": Row(
        lambda s: _sublayer(s) + [(s.m, s.d)], lambda s, *xs: _attend(s, *xs[:7], memory=xs[7])
    ),
    "scale": Row(lambda s: [(s.n, s.k)], lambda s, x: scale(x, 0.3), tape_free=False),
    "slice_axis": Row(lambda s: [(s.n, s.k)], lambda s, x: slice_axis(x, 1, 1, s.k), tape_free=False),
    "focal_loss": Row(lambda s: [(s.n, s.k)], _focal, tape_free=False),
    "box_l1_rows": Row(lambda s: [(s.n, 4)] * 2, lambda s, *xs: box_l1_rows(*xs), tape_free=False),
}
