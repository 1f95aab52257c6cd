"""Dense tensors with tape-based reverse-mode differentiation.

Everything the model and losses compute runs through the ops in this module.
Ops execute eagerly on numpy arrays; when a `Tape` is active and an input
requires gradients, the op appends its backward rule to the tape.
Calling `Tape.backward(loss)` replays the rules in reverse execution order,
accumulating gradients additively into every participating tensor that
requires one. It releases each rule once the rule has run, so an op output
and the arrays its rule saved live only until that rule is done, unless
the caller holds them; a tensor the caller holds keeps its `.grad`.

Conventions kept deliberately narrow so each backward rule stays auditable:

- each op computes in its inputs' dtype, float32 or float64, and so does
  its backward: scalar constants are Python floats, which never promote an
  array, and the constant columns that turn row sums and means into
  matrix products (`_column`) are built in the input's dtype and cached
  per dtype; `Tensor` turns any other real input (Python numbers, lists,
  bools, ints) into float64 and rejects the rest (objects, strings,
  complex numbers),
- `add`, the one binary op, takes two operands of one shape (biases
  broadcast inside the ops that add them); it and `concat` take operands
  of one dtype and raise on a mix, which numpy would promote to float64
  and hand a float32 input a float64 gradient,
- every op output goes onto the tape through `custom_op`, and every
  gradient term into a tensor through `Tensor._accumulate`, which checks
  the term's shape and dtype against the tensor's and raises on either,
  and keeps the term only when the tensor requires a gradient: a backward
  rule hands each of its inputs its term without asking,
- each thread records on one tape at a time, held in a per-thread slot:
  entering a `Tape` while the thread already records on one raises a
  GradientError, since the outer tape's backward would not replay the
  inner tape's nodes and the inputs below them would get no gradient and
  no error; threads that each record on their own `Tape` do not see each
  other's, a tape and its tensors belong to one thread, and no locking
  is done,
- an op's inputs are leaves (tensors no tape recorded) or tensors of the
  active tape: `custom_op` raises a GradientError naming an input that
  another tape recorded, whose nodes this tape's backward would not reach,
- a leaf may be a view of a group leaf (`leaf_group`): a 1-d leaf whose
  consecutive slices are the view leaves' data. The ops see only the
  views; each view adds its gradient terms into its slice of the group's
  gradient, which is zero-filled when the first view is reached. So
  `group.grad` is None exactly when no view was reached since the group's
  last `reset_grad`, and an optimizer can update a group, views and all,
  as one array,
- an op defines its backward rule only when a tape is active: with none it
  returns its output first, so inference builds no closures,
- `attention` and `feed_forward`, most of a training tape's nodes, each
  define a rule that closes over one saved tuple (the saved arrays and
  the inputs), and their helpers are module functions.
  MOTR's clip-level loss keeps every frame's nodes alive until backward,
  and each closure cell is an object CPython's cyclic collector tracks:
  rules over two dozen cells each made a training step start about three
  collections and, now and then, a walk of every tracked object. The tape
  makes no reference cycles (`backward` breaks the one through
  `out._tape`), so those collections found nothing to free.

`Tensor` defines no arithmetic operators: every op is a named function, so
each node on the tape is one a reader can find.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

__all__ = [
    "AttentionParams",
    "FeedForwardParams",
    "GradientError",
    "ShapeError",
    "Tape",
    "Tensor",
    "add",
    "attention",
    "concat",
    "custom_op",
    "feed_forward",
    "gather_rows",
    "layer_norm",
    "leaf_group",
    "linear",
    "mlp",
    "reset_grads",
    "sigmoid",
    "view_leaf",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with the op's contract."""


class GradientError(RuntimeError):
    """Tape misuse: non-scalar loss, detached loss, double backward, a nested
    tape, an op input of another tape."""


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool (`bool` is an `int`): the
    package's one integer test, for head counts here, track ids in `model`
    and slots and identities in `assignment`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number (a Python or numpy int or float), and not a bool: the
    package's one test for a scalar it reads as a number, a loss weight in
    `losses` or a `Box` field in `boxes`."""
    return isinstance(value, Real) and not isinstance(value, bool)


class _TapeSlot(threading.local):
    """The tape the calling thread records on, or None."""

    tape: "Tape | None" = None


_SLOT = _TapeSlot()


def active_tape() -> "Tape | None":
    return _SLOT.tape


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward().

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = build_loss(...)
        tape.backward(loss)

    One backward pass per tape; build a fresh tape per training step. A
    thread records on one tape at a time: entering a tape while the thread
    records on another raises a GradientError and leaves that one
    recording, and leaving a tape clears the thread's slot. While another
    tape records, an op output this tape recorded is no op's input
    (`custom_op` raises).
    backward() takes the recorded nodes off the tape and releases each one
    as soon as its rule has run. So the rule's closure, the arrays it saved,
    its output tensor and that tensor's gradient are freed before the rules
    of earlier ops run, unless the caller still holds them: a tensor the
    caller holds keeps its data and its `.grad`.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple[Tensor, object]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if _SLOT.tape is not None:
            raise GradientError("this thread already records on a tape; tapes do not nest")
        _SLOT.tape = self
        return self

    def __exit__(self, *exc) -> bool:
        _SLOT.tape = None
        return False

    def record(self, out: "Tensor", pull) -> None:
        """Append a backward rule; pull(grad_out) accumulates into inputs."""
        self.nodes.append((out, pull))

    def backward(self, loss: "Tensor") -> None:
        """Populate .grad of every tensor the scalar `loss` depends on."""
        if loss.data.shape != ():
            raise GradientError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        if loss._tape is not self:
            raise GradientError("loss is not recorded on this tape")
        if self.consumed:
            raise GradientError("backward already ran on this tape; build a new one")
        self.consumed = True
        loss._accumulate(np.ones((), dtype=loss.data.dtype))
        # out._tape -> tape -> nodes -> out is a reference cycle; break it
        nodes, self.nodes = self.nodes, []
        while nodes:
            out, pull = nodes.pop()
            if out.grad is not None:
                pull(out.grad)
            # drop this node before the next rule runs: what only it held
            # (saved arrays, out and its gradient) is freed now
            del out, pull


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _real_as_float64(data: np.ndarray) -> np.ndarray:
    """`Tensor`'s data of a dtype other than float32 and float64: bool,
    integer and float arrays as float64; any other dtype kind raises,
    where `astype` would parse strings, read None as NaN and drop an
    imaginary part."""
    if data.dtype.kind not in "biuf":
        raise TypeError(f"a Tensor holds real numbers, got dtype {data.dtype}")
    return data.astype(np.float64)


class Tensor:
    """Dense n-d value, optionally carrying a gradient.

    Leaves are built directly (`Tensor(data, requires_grad=True)`); every op
    output is a non-leaf that remembers the tape it was recorded on. A
    float32 or float64 array is kept as it is; other real data (bools,
    integers, other floats) becomes float64, and data of any other dtype
    (objects, strings, complex numbers) raises a TypeError naming it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else _real_as_float64(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs one element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def reset_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add the gradient term g into .grad if this tensor requires a
        gradient: every backward rule hands each of its inputs its term
        through here, and this is the one place that drops a term for a
        tensor that needs none. g has this tensor's shape and dtype; a term
        of another shape or dtype raises one GradientError naming both,
        whether or not the tensor requires a gradient, before anything is
        stored, where `+=` would broadcast or cast it unseen. The first
        term starts the gradient (`_first_term`); later ones are added in
        place.
        """
        data = self.data
        if g.shape != data.shape or g.dtype != data.dtype:
            raise GradientError(
                f"a {g.dtype} gradient term of shape {g.shape} for a {data.dtype} tensor of shape {data.shape}"
            )
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = self._first_term(g)
        else:
            self.grad += g

    def _first_term(self, g: np.ndarray) -> np.ndarray:
        """The gradient that the checked first term g starts: a copy, so it
        shares no memory with g, which the op that made it may hand to
        other inputs too. Where g holds a -0.0 the stored value stays -0.0
        (a zero-filled start would give +0.0); the two compare equal."""
        return g.copy()

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _GroupLeaf(Tensor):
    """A 1-d leaf over consecutive view leaves; resetting it resets them."""

    __slots__ = ("_views", "__weakref__")

    def reset_grad(self) -> None:
        self.grad = None
        for v in self._views:
            v.grad = None


class _ViewLeaf(Tensor):
    """A leaf whose data and gradient are slices of a group leaf's.

    It holds its group weakly, so a group and its views form no reference
    cycle.
    """

    __slots__ = ("_group", "_span")

    def reset_grad(self) -> None:
        """Zero this view's slice of the group's gradient and detach from it."""
        if self.grad is not None:
            self.grad[...] = 0.0
        self.grad = None

    def _first_term(self, g: np.ndarray) -> np.ndarray:
        """Bind this view's gradient to its slice of the group's gradient,
        zero-filling that when this is the group's first view reached, and
        add g into it."""
        group = self._group and self._group()
        if group is None:
            raise GradientError("view leaf is not in a live leaf group")
        if group.grad is None:
            group.grad = np.zeros_like(group.data)
        grad = group.grad[self._span].reshape(self.data.shape)
        grad += g
        return grad


def view_leaf(shape: tuple[int, ...]) -> Tensor:
    """A leaf of `shape` for `leaf_group` to lay out; until then its data
    is a read-only zero placeholder that takes no memory."""
    # one zero repeated by zero strides: np.broadcast_to costs 6x as much
    placeholder = np.ndarray(shape, np.float64, bytes(8), 0, (0,) * len(shape))
    view = _ViewLeaf(placeholder, requires_grad=True)
    view._group = view._span = None
    return view


def leaf_group(data: np.ndarray, views) -> Tensor:
    """A group leaf over the 1-d `data`, adopting `views` (from `view_leaf`).

    The views tile `data` in order: view i's data becomes the next
    `views[i].data.size` values, reshaped. Writing into a view's or the
    group's data in place changes both; rebinding `.data` detaches them.
    Gradients follow the same layout (the module docstring): `group.grad`
    gathers every view's gradient, and `reset_grad` on the group clears
    them all.
    """
    if data.ndim != 1:
        raise ShapeError(f"a leaf group needs 1-d data, got shape {data.shape}")
    if sum(v.data.size for v in views) != data.size:
        raise ShapeError(f"view shapes {[v.shape for v in views]} do not tile {data.size} values")
    group = _GroupLeaf(data, requires_grad=True)
    ref, start = weakref.ref(group), 0
    for v in views:
        stop = start + v.data.size
        v.data, v._group, v._span = data[start:stop].reshape(v.shape), ref, slice(start, stop)
        start = stop
    group._views = list(views)
    return group


def reset_grads(tensors) -> None:
    """Clear gradients on an iterable or dict of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.reset_grad()


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def custom_op(data: np.ndarray, inputs: tuple, pull) -> Tensor:
    """The one way onto the tape: the output `Tensor(data)` of an op whose
    backward rule `pull(grad_out)` hands each input its term through
    `_accumulate`. When a tape is active and an input requires gradients,
    the output requires them too and the tape records it (`Tape.record`).
    With a tape active, an input that another tape recorded raises a
    GradientError naming it: this tape's backward would stop at it."""
    out = Tensor(data)
    tape = active_tape()
    if tape is None:
        return out
    needs_grad = False
    for i, t in enumerate(inputs):
        if t._tape is not None and t._tape is not tape:
            raise GradientError(f"op input {i}, {t!r}, is recorded on another tape than the active one")
        needs_grad |= t.requires_grad
    if needs_grad:
        out.requires_grad = True
        out._tape = tape
        tape.record(out, pull)
    return out


@lru_cache(maxsize=256)
def _column(n: int, value: float, dtype: np.dtype) -> np.ndarray:
    """A read-only [n,1] column of `value` in `dtype`. A row sum or mean is
    a product with it: one BLAS call, where numpy reduces a short last axis
    one row at a time. Cached per (n, value, dtype)."""
    col = np.full((n, 1), value, dtype=dtype)
    col.flags.writeable = False
    return col


# ---------------------------------------------------------------------------
# elementwise / binary ops
# ---------------------------------------------------------------------------


def _check_dtypes(xs, inputs: str) -> None:
    """Raise a ValueError naming `inputs` (say "add operands") and their
    dtypes unless the tensors xs share one dtype: numpy would promote a
    float32 and a float64 input to float64, and the backward would then
    hand the float32 one a float64 gradient."""
    dtypes = [t.data.dtype for t in xs]
    if len(set(dtypes)) > 1:
        raise ValueError(f"{inputs} are {', '.join(map(str, dtypes))}; they need one dtype")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors of one shape and one dtype; backward hands
    both the output gradient g. Any other pair of shapes raises a
    ShapeError naming both: biases broadcast inside the ops that add them
    (`_project`, `_affine`)."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    _check_dtypes((a, b), "add operands")
    out = a.data + b.data
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        a._accumulate(g)
        b._accumulate(g)

    return custom_op(out, (a, b), pull)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf below about -709; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    if active_tape() is None:
        return Tensor(s)

    def pull(g):
        x._accumulate(g * s * (1.0 - s))

    return custom_op(s, (x,), pull)


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------


def _project(r: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The affine map r [n,k] @ w [k,m] + b [m] of the rows r; every op's
    projection (`linear`, `mlp`'s two layers, `attention`'s in- and
    out-projections) is this one."""
    out = r @ w
    out += b
    return out


def _column_sums(g: np.ndarray) -> np.ndarray:
    """The column sums of the 2-d g, as the product 1ᵀ g with a cached ones
    column. On a float32 [140, 64] gradient with one BLAS thread that takes
    2.3 µs, where numpy's reduction over the leading axis takes 8.7 µs."""
    return (_column(g.shape[0], 1.0, g.dtype).T @ g).reshape(g.shape[1])


def _project_back(r: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray, need_r: bool = True):
    """`_project`'s backward for the output gradient g: accumulate dw = rᵀ g,
    then db = the column sums of g; return dr = g wᵀ, or None when need_r
    is false.

    Only `linear` passes need_r, as its input's `requires_grad`: the image
    patches of the model's patch embedding are the one input that no
    workload differentiates, and without the flag every training frame
    would compute a [64,64]×[64,64] g wᵀ only for `_accumulate` to drop it.
    """
    w._accumulate(r.T @ g)
    b._accumulate(_column_sums(g))
    return g @ w.data.T if need_r else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x [n,k] @ w [k,m] + b [m] -> [n,m], as one op: a `_project`.

    Backward, `_project_back`'s, for the output gradient g, in this order:
    dw = xᵀ g, db is the column sums of g, and dx = g wᵀ. Saves x's data
    and reads the weights at backward time.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear needs x [n,k], w [k,m] and b [m], got {x.shape}, {w.shape} and {b.shape}"
        )
    xd = x.data
    out = _project(xd, w.data, b.data)
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        dx = _project_back(xd, w, b, g, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    return custom_op(out, (x, w, b), pull)


def _mlp_forward(xd: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """(output, relu output a) of relu(xd w1 + b1) w2 + b2."""
    h = _project(xd, w1.data, b1.data)
    a = h * (h > 0)
    return _project(a, w2.data, b2.data), a


def _mlp_backward(xd, w1, b1, w2, b2, a, g):
    """Accumulate the w2, b2, w1 and b1 terms, in that order; return dx.

    Each layer's terms are `_project_back`'s, with gh = (g w2ᵀ) ⊙ (a > 0)
    the first layer's output gradient. The mask a > 0 is the forward's
    h > 0: a = h where h > 0, and 0, -0 or NaN (for h = -inf or NaN) where
    it is not.
    """
    gh = _project_back(a, w2, b2, g)
    gh *= a > 0
    return _project_back(xd, w1, b1, gh)


def _check_mlp(op: str, k: int, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> None:
    """Raise a ShapeError naming `op` unless w1 [k,h], b1 [h], w2 [h,m] and
    b2 [m] are a two-layer net on k input columns: the one shape rule of
    `mlp`, checked per call, and of `FeedForwardParams`, checked once."""
    if (
        w1.data.ndim != 2 or w2.data.ndim != 2 or w1.shape[0] != k
        or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]
    ):
        raise ShapeError(
            f"{op} needs w1 [{k},h], b1 [h], w2 [h,m] and b2 [m], got {w1.shape}, "
            f"{b1.shape}, {w2.shape} and {b2.shape}"
        )


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer ReLU net relu(x [n,k] @ w1 [k,h] + b1 [h]) @ w2 [h,m] + b2 [m]
    -> [n,m], as one op.

    Each layer is a `_project`, and its backward a `_project_back`. So,
    for the output gradient g, with a the relu output and r its 0/1 mask:
    dw2 = aᵀ g, db2 is the column sums of g, gh = (g w2ᵀ) ⊙ r, dw1 = xᵀ gh,
    db1 is the column sums of gh and dx = gh w1ᵀ, accumulated in that order.

    Saves x's data and a. The backward derives r as a > 0, which is the
    forward's mask h > 0 (NaN included), and, like `linear`, reads the
    weights at backward time.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"mlp needs x [n,k], got {x.shape}")
    _check_mlp("mlp", x.shape[1], w1, b1, w2, b2)
    xd = x.data
    out, a = _mlp_forward(xd, w1, b1, w2, b2)
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        x._accumulate(_mlp_backward(xd, w1, b1, w2, b2, a, g))

    return custom_op(out, (x, w1, b1, w2, b2), pull)


def concat(xs) -> Tensor:
    """Stack [n_i, k] row blocks of one width k and one dtype into one
    [Σ n_i, k] tensor, in order; backward hands each block its rows of g.
    Anything else, no blocks included, raises a ShapeError naming the
    shapes. The model's one caller, `decode`, stacks the track rows over
    the detect rows."""
    xs = list(xs)
    if not xs or any(t.data.ndim != 2 for t in xs) or len({t.shape[1] for t in xs}) > 1:
        raise ShapeError(f"concat needs [n,k] row blocks of one width, got shapes {[t.shape for t in xs]}")
    _check_dtypes(xs, "concat operands")
    out = np.concatenate([t.data for t in xs])
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        # each block's gradient is a view of g, its rows
        start = 0
        for t in xs:
            stop = start + t.shape[0]
            t._accumulate(g[start:stop])
            start = stop

    return custom_op(out, tuple(xs), pull)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds (indices may repeat).

    idx is a 1-d sequence of integer row indices, each in [0, n); an
    empty sequence selects no rows. Anything else (bools, floats, a
    negative or past-the-end row, more dimensions) raises a ShapeError
    naming it.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows is 2-d only, got {x.shape}")
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.dtype.kind not in "iu" and idx.size):
        raise ShapeError(f"gather_rows needs a 1-d integer row index, got {idx.dtype} shape {idx.shape}")
    idx = idx.astype(np.intp, copy=False)
    bad = (idx < 0) | (idx >= x.shape[0])
    if bad.any():
        raise ShapeError(f"gather_rows index {idx[bad][0]} is outside [0, {x.shape[0]})")
    out = x.data[idx]
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x._accumulate(buf)

    return custom_op(out, (x,), pull)


# ---------------------------------------------------------------------------
# layer norm and the pre-norm residual sublayers
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def _check_norm(d: int, gain: Tensor, bias: Tensor, op: str) -> None:
    if d == 0:
        raise ShapeError(f"{op} needs at least one column to normalise")
    if (gain.shape, bias.shape) != ((d,), (d,)):
        raise ShapeError(f"{op} affine shapes {gain.shape}/{bias.shape} do not match ({d},)")


def _layer_norm_forward(xd: np.ndarray, gain: Tensor, bias: Tensor):
    """(output, normalised rows y, 1/std per row) of the layer norm of [n, d] rows xd.

    The row mean and the variance are each one product with a [d,1] column
    of 1/d in xd's dtype: numpy's reductions along a short last axis run
    one row at a time. y is written over the centred rows.
    """
    mean = _column(xd.shape[-1], 1.0 / xd.shape[-1], xd.dtype)
    xc = xd - xd @ mean
    inv = (xc * xc) @ mean
    inv += _NORM_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xc *= inv
    return _affine(xc, gain, bias), xc, inv


def _affine(y: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """The layer norm's output from its normalised rows y; the fused ops'
    backward rules call it again to recompute that output bit for bit."""
    out = y * gain.data
    out += bias.data
    return out


def _layer_norm_backward(x, gain: Tensor, bias: Tensor, y, inv, g) -> None:
    """Accumulate the gain, bias and x terms of the layer norm of [n, d]
    rows, in that order.

    dgain = column sums of g ⊙ y, dbias = column sums of g (each a
    `_column_sums` product), and with gy = g ⊙ gain:
    dx = (gy − rowmean(gy) − y ⊙ rowmean(gy ⊙ y)) ⊙ inv, each row mean a
    product with the forward's column of 1/d.
    """
    d = y.shape[1]
    gain._accumulate(_column_sums(g * y))
    bias._accumulate(_column_sums(g))
    mean = _column(d, 1.0 / d, y.dtype)
    gy = g * gain.data
    dx = gy - gy @ mean
    gy *= y
    dx -= y * (gy @ mean)
    dx *= inv
    x._accumulate(dx)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of x [n, d] to zero mean / unit variance, then
    the affine gain [d] and bias [d] -> [n, d], as one op.

    x takes [n, d] rows, as `linear`, `mlp`, `attention` and
    `feed_forward` do; anything else raises a ShapeError. The variance
    gets `_NORM_EPS` added, as in every fused sublayer's layer norm.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs x [n,d], got {x.shape}")
    _check_norm(x.shape[1], gain, bias, "layer_norm")
    out, y, inv = _layer_norm_forward(x.data, gain, bias)
    if active_tape() is None:
        return Tensor(out)

    def pull(g):
        _layer_norm_backward(x, gain, bias, y, inv, g)

    return custom_op(out, (x, gain, bias), pull)


def _sublayer_width(gain: Tensor, bias: Tensor, op: str) -> int:
    """The width d of a sublayer's residual stream, which its layer norm's
    affine fixes: gain and bias [d] each, with d >= 1."""
    if gain.data.ndim != 1:
        raise ShapeError(f"{op} affine shapes {gain.shape}/{bias.shape} are not [d] vectors")
    _check_norm(gain.shape[0], gain, bias, op)
    return gain.shape[0]


@dataclass(frozen=True, slots=True, eq=False)
class AttentionParams:
    """One attention sublayer's parameters, checked once, when it is made.

    gain and bias [d] are its layer norm's affine and fix the width d;
    w_in [d,3d] and b_in [3d] the packed in-projection, whose column blocks
    [0,d), [d,2d) and [2d,3d) project the queries, keys and values (DETR's
    `in_proj_weight`); wo [d,d] and bo [d] the out-projection; n_heads a
    positive integer (a numpy integer too, not a bool) that divides d.
    Anything else raises a ShapeError naming it, and tensors of more than
    one dtype a ValueError naming theirs, here, so `attention` checks only
    what changes per call. The record also derives, once, the
    head width dh = d / n_heads and the score scale 1/sqrt(dh), a Python
    float (an np.float64 would promote float32 work). The record holds the
    tensors, so an update of their data in place reaches it; rebinding a
    tensor's `.data` is not re-checked.
    """

    gain: Tensor
    bias: Tensor
    w_in: Tensor
    b_in: Tensor
    wo: Tensor
    bo: Tensor
    n_heads: int
    d: int = field(init=False)
    dh: int = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        n_heads = self.n_heads
        if not _is_integer(n_heads) or n_heads < 1:
            raise ShapeError(f"attention n_heads must be a positive int, got {n_heads!r}")
        d = _sublayer_width(self.gain, self.bias, "attention")
        if d % n_heads:
            raise ShapeError(f"attention width {d} is not divisible by n_heads={n_heads}")
        proj = (self.w_in, self.b_in, self.wo, self.bo)
        if tuple(t.shape for t in proj) != ((d, 3 * d), (3 * d,), (d, d), (d,)):
            raise ShapeError(
                f"attention needs [{d},{3 * d}] and [{d},{d}] weights and [{3 * d}] and [{d}] "
                f"biases, got {[t.shape for t in proj]}"
            )
        _check_dtypes((self.gain, self.bias, *proj), "AttentionParams tensors")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "dh", d // n_heads)
        object.__setattr__(self, "scale", 1.0 / math.sqrt(self.dh))


@dataclass(frozen=True, slots=True, eq=False)
class FeedForwardParams:
    """One feed-forward sublayer's parameters, checked once, when it is made.

    gain and bias [d] are its layer norm's affine and fix the width d;
    w1 [d,h], b1 [h], w2 [h,d] and b2 [d] the net's, all of one dtype.
    Anything else raises a ShapeError naming it, or a ValueError naming
    the dtypes, here, so `feed_forward` checks only its input.
    As with `AttentionParams`, rebinding a tensor's `.data` is not
    re-checked.
    """

    gain: Tensor
    bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    d: int = field(init=False)

    def __post_init__(self):
        d = _sublayer_width(self.gain, self.bias, "feed_forward")
        _check_mlp("feed_forward", d, self.w1, self.b1, self.w2, self.b2)
        if self.w2.shape[1] != d:
            raise ShapeError(f"feed_forward output width {self.w2.shape[1]} != input width {d}")
        _check_dtypes((self.gain, self.bias, self.w1, self.b1, self.w2, self.b2), "FeedForwardParams tensors")
        object.__setattr__(self, "d", d)


def _in_products(xn: np.ndarray, p: AttentionParams, memory: Tensor | None,
                 positions: Tensor | None) -> tuple:
    """(rows, w_in columns, b_in columns) of each of `attention`'s
    in-projection products, for the layer-normed rows xn: one product in
    self-attention, two with positions or with memory."""
    d, w, b = p.d, p.w_in.data, p.b_in.data
    if memory is not None:
        return (xn, w[:, :d], b[:d]), (memory.data, w[:, d:], b[d:])
    if positions is not None:
        return (xn + positions.data, w[:, : 2 * d], b[: 2 * d]), (xn, w[:, 2 * d :], b[2 * d :])
    return ((xn, w, b),)


def _head_blocks(outs: list, p: AttentionParams) -> list:
    """The in-projection products' outputs (or their gradients) -> the q, k
    and v blocks as [heads, rows, dh] views."""
    return [h for a in outs for h in a.reshape(len(a), -1, p.n_heads, p.dh).transpose(1, 2, 0, 3)]


def _split_heads(a: np.ndarray, p: AttentionParams) -> np.ndarray:
    """[rows, d] -> its [heads, rows, dh] view."""
    return a.reshape(a.shape[0], p.n_heads, p.dh).transpose(1, 0, 2)


def attention(
    x: Tensor, p: AttentionParams, memory: Tensor | None = None, positions: Tensor | None = None,
) -> Tensor:
    """One pre-norm residual attention sublayer, x + attend(LN(x)), as one op.

    x [n,d] is the residual stream and p the sublayer's `AttentionParams`
    (its layer norm's gain and bias, the packed in-projection w_in and b_in,
    the out-projection wo and bo, and n_heads) -> [n,d]. The record checked
    the parameters when it was made; each call checks that p is an
    `AttentionParams`, that x is [n, p.d], that memory is [m, p.d] and not
    given with positions, that positions match x, that memory and
    positions are in x's dtype, and that there is at least one key row.
    With xn = LN(x) (`layer_norm`'s formula), the query, key and value
    rows are

        self-attention:   q = k = xn, or xn + positions [n,d] when given;  v = xn
        cross-attention:  q = xn;  k = v = memory [m,d]

    and the blocks whose rows are the same array share one product, a
    `_project` with those columns of w_in and b_in:

        self-attention:   [Q|K|V] = xn w_in + b_in
        with positions:   [Q|K] = (xn + positions) w_in[:, :2d] + b_in[:2d],
                          V = xn w_in[:, 2d:] + b_in[2d:]
        cross-attention:  Q = xn w_in[:, :d] + b_in[:d],
                          [K|V] = memory w_in[:, d:] + b_in[d:]

    Head h owns columns [h*dh, (h+1)*dh) of each block, with dh = p.dh =
    d / n_heads, and c = p.scale = 1/sqrt(dh). Forward:

        Q̃ = Q · c
        per head, with key-major scores [keys, queries]:
            E_h = exp(K_h Q̃_hᵀ − each query's max over the keys)
            den_h = 1ᵀ E_h  (a product with a ones column)
            O_h = (E_hᵀ V_h) / den_h  (each query's row divided)
        A = [O_1, ..., O_H]  (heads in column order)
        out = x + (A wo + bo)

    So O_h = softmax(Q_h K_hᵀ · c) V_h, normalised after the value product
    as in FlashAttention (Dao et al., 2022): the division runs over
    [n, dh] rows, not [n, m] scores, and the max and the sum over the keys
    run along the contiguous query axis. The heads run as one batched product
    over [n_heads, rows, dh] views of the projections' outputs, E is
    computed in place in one [n_heads, m, n] buffer, and the value product
    writes each O_h straight into its columns of A. Backward, for the
    output gradient g, in this order:

        dx = g  (the residual term),  dwo = Aᵀ g,  dbo = column sums of g,
        dA = g woᵀ
        per head:  G = dA_h / den_h,  dV_h = E_h G,
                   D = rowsum(G ⊙ O_h)  (a product with a ones column),
                   dZᵀ = (V_h Gᵀ − D) ⊙ E_h  (D broadcast along the keys),
                   dK_h = dZᵀ Q̃_h,  dQ_h = c · (dZ K_h)
        the heads write into the column blocks of one gradient buffer dR
        per in-projection product ([dQ|dK|dV]; [dQ|dK] and dV; or dQ and
        [dK|dV]), and each product's rows r and columns w, b of w_in, b_in
        take  dw = rᵀ dR,  db = column sums of dR,  dr = dR wᵀ
        dw_in and db_in: the products' blocks side by side, accumulated once
        self-attention:  dxn = [dQ|dK|dV] w_inᵀ  (dq + dk + dv summed in the product)
        with positions:  dqk = [dQ|dK] w_in[:, :2d]ᵀ,  dpositions += dqk,
                         dxn = dV w_in[:, 2d:]ᵀ + dqk
        with memory:     dmemory += [dK|dV] w_in[:, d:]ᵀ,  dxn = dQ w_in[:, :d]ᵀ
        then the layer norm's backward of dxn: dgain, dbias, and dx += its term

    Every column sum is a `_column_sums` product. D is FlashAttention's row
    term: rowsum(dS ⊙ S) of the textbook backward, with S the softmax and
    dS = dA_h V_hᵀ, equals the row dot products of dA_h and O_h, so no
    [n, m] product is needed for it. The result equals the textbook
    formula up to rounding (`tests/test_autodiff.py` checks both against
    each other).

    These are also the products of the unfused chain (`layer_norm`, the
    `add` of the positions, one `linear` per in-projection product over
    its columns of w_in and b_in, the slices of its output into q, k and v,
    the core as its own op, the output `linear` and the residual `add`;
    `tests/test_autodiff.py` builds it), in the order its tape replays
    them. So the output and every gradient match the chain bit for bit.

    With a tape recording, the node's rule closes over one saved tuple:
    the inputs x, p, memory and positions; the layer norm's normalised rows
    y and 1/std per row; the in-projection outputs and their Q̃, K and V
    head views; and E, den ([n_heads, n, 1]) and the merged heads A, whose
    head view is O. The backward hands every input its term, and
    `Tensor._accumulate` keeps those of the inputs that need a gradient.
    It rebuilds the products' rows with the forward's own `_in_products`,
    from xn recomputed as y ⊙ gain + bias, so they have the forward's
    bits; like `linear`, it reads the parameters (and the positions and
    memory) at backward time.
    With no tape, the op returns its output and builds no backward rule.
    """
    if not isinstance(p, AttentionParams):
        raise TypeError(f"attention needs an AttentionParams record, got a {type(p).__name__}")
    xd, d = x.data, p.d
    if xd.ndim != 2 or xd.shape[1] != d:
        raise ShapeError(f"attention needs x [n,{d}], got {x.shape}")
    if memory is not None:
        if positions is not None:
            raise ValueError("attention adds positions in self-attention only, not with memory")
        if memory.data.ndim != 2 or memory.shape[1] != d:
            raise ShapeError(f"attention memory needs [m,{d}] rows, got {memory.shape}")
        # one comparison on the hot path; `_check_dtypes` only words the error
        if memory.data.dtype != xd.dtype:
            _check_dtypes((x, memory), "attention x and memory")
    if positions is not None:
        if positions.shape != xd.shape:
            raise ShapeError(f"attention positions {positions.shape} do not match x {x.shape}")
        if positions.data.dtype != xd.dtype:
            _check_dtypes((x, positions), "attention x and positions")
    if (xd if memory is None else memory.data).shape[0] == 0:
        raise ShapeError(f"attention needs at least one key row, got x={x.shape} memory="
                         f"{None if memory is None else memory.shape}")
    gain, bias = p.gain, p.bias
    xn, y, inv = _layer_norm_forward(xd, gain, bias)
    outs = [_project(*r) for r in _in_products(xn, p, memory, positions)]
    qh, kh, vh = _head_blocks(outs, p)
    qh *= p.scale
    e = kh @ qh.transpose(0, 2, 1)  # key-major: [heads, keys, queries]
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    den = (_column(e.shape[1], 1.0, e.dtype).T @ e).transpose(0, 2, 1)
    heads = np.empty_like(xd)  # A; its head view is O
    o = np.matmul(e.transpose(0, 2, 1), vh, out=_split_heads(heads, p))
    o /= den
    out = _project(heads, p.wo.data, p.bo.data)
    out += xd
    if active_tape() is None:
        return Tensor(out)

    saved = (x, p, memory, positions, y, inv, outs, qh, kh, vh, e, den, heads)

    def pull(g):
        x, p, memory, positions, y, inv, outs, qh, kh, vh, e, den, heads = saved
        gain, bias = p.gain, p.bias
        x._accumulate(g)
        gh = _split_heads(_project_back(heads, p.wo, p.bo, g), p)
        gh /= den
        grads = [np.empty_like(a) for a in outs]
        gq, gk, gv = _head_blocks(grads, p)
        np.matmul(e, gh, out=gv)
        dz = vh @ gh.transpose(0, 2, 1)
        gh *= _split_heads(heads, p)  # G ⊙ O: its row sums are D
        dz -= (gh @ _column(p.dh, 1.0, gh.dtype)).transpose(0, 2, 1)
        dz *= e
        np.matmul(dz, qh, out=gk)
        np.matmul(dz.transpose(0, 2, 1), kh, out=gq)
        gq *= p.scale
        dw, db, dr = [], [], []
        for (r, w, _), gr in zip(_in_products(_affine(y, gain, bias), p, memory, positions), grads):
            dw.append(r.T @ gr)
            db.append(_column_sums(gr))
            dr.append(gr @ w.T)
        p.w_in._accumulate(np.concatenate(dw, axis=1) if len(dw) > 1 else dw[0])
        p.b_in._accumulate(np.concatenate(db) if len(db) > 1 else db[0])
        if memory is not None:
            dxn, dm = dr
            memory._accumulate(dm)
        elif positions is not None:
            dqk, dv = dr
            positions._accumulate(dqk)
            dxn = dv + dqk
        else:
            (dxn,) = dr
        _layer_norm_backward(x, gain, bias, y, inv, dxn)

    extra = tuple(t for t in (memory, positions) if t is not None)
    return custom_op(out, (x, gain, bias, p.w_in, p.b_in, p.wo, p.bo) + extra, pull)


def feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    """One pre-norm residual feed-forward sublayer, x + mlp(LN(x)), as one op.

    x [n,d] is the residual stream and p the sublayer's
    `FeedForwardParams` (its layer norm's gain and bias, and the net's w1,
    b1, w2 and b2). The record checked the parameters when it was made;
    each call checks that p is a `FeedForwardParams` and that x is
    [n, p.d]. Forward, with `layer_norm`'s and `mlp`'s formulas:

        xn = LN(x),  out = x + (relu(xn w1 + b1) w2 + b2)

    Backward, for the output gradient g, in this order: dx = g (the
    residual term); `mlp`'s backward of g (dw2, db2, dw1, db1, then dxn);
    the layer norm's backward of dxn (dgain, dbias, and dx += its term).
    These are the products of the unfused chain `layer_norm` -> `mlp` ->
    `add`, in the order its tape replays them, so the output and every
    gradient match the chain bit for bit.

    With a tape recording, the node's rule closes over one saved tuple:
    x and p, the layer norm's normalised rows y and 1/std per row, and the
    relu output a. The backward recomputes xn as y ⊙ gain + bias and the
    relu mask as a > 0, the forward's own expressions, so both have the
    forward's bits; like `linear`, it reads the parameters at backward
    time. With no tape, the op returns its output and builds no backward
    rule.
    """
    if not isinstance(p, FeedForwardParams):
        raise TypeError(f"feed_forward needs a FeedForwardParams record, got a {type(p).__name__}")
    if x.data.ndim != 2 or x.shape[1] != p.d:
        raise ShapeError(f"feed_forward needs x [n,{p.d}], got {x.shape}")
    gain, bias, w1, b1, w2, b2 = p.gain, p.bias, p.w1, p.b1, p.w2, p.b2
    xn, y, inv = _layer_norm_forward(x.data, gain, bias)
    out, a = _mlp_forward(xn, w1, b1, w2, b2)
    out += x.data
    if active_tape() is None:
        return Tensor(out)
    saved = (x, p, y, inv, a)

    def pull(g):
        x, p, y, inv, a = saved
        x._accumulate(g)
        gxn = _mlp_backward(_affine(y, p.gain, p.bias), p.w1, p.b1, p.w2, p.b2, a, g)
        _layer_norm_backward(x, p.gain, p.bias, y, inv, gxn)

    return custom_op(out, (x, gain, bias, w1, b1, w2, b2), pull)
