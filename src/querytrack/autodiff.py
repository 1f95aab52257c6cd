"""Dense tensors with tape-based reverse-mode differentiation.

Everything the model and losses compute runs through the ops in this module.
Ops execute eagerly on float64 numpy arrays; when a `Tape` is active and an
input requires gradients, the op appends its backward rule to the tape.
Calling `Tape.backward(loss)` replays the rules in reverse execution order,
accumulating gradients additively into every participating tensor.

Conventions kept deliberately narrow so each backward rule stays auditable:

- float64 only (gradient checks need double precision),
- binary ops accept equal shapes, or a second operand whose shape is a
  suffix of the first (leading-axis expansion, e.g. bias add),
- `log` clamps at ``EPS_GUARD`` so saturated probabilities cannot produce
  non-finite values,
- a tape and its tensors belong to one worker; no locking is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS_GUARD = 1e-12

__all__ = [
    "EPS_GUARD",
    "GradCheckReport",
    "GradientError",
    "ShapeError",
    "Tape",
    "Tensor",
    "absolute",
    "activation",
    "add",
    "attention",
    "concat",
    "custom_op",
    "extract_patches",
    "gather_rows",
    "gelu",
    "grad_check",
    "layer_norm",
    "log",
    "matmul",
    "mul",
    "pow_scalar",
    "reduce_sum",
    "relu",
    "reset_grads",
    "scale",
    "shift",
    "sigmoid",
    "slice_axis",
    "softmax",
    "sub",
    "transpose",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with the op's contract."""


class GradientError(RuntimeError):
    """Backward pass misuse: non-scalar loss, detached loss, double backward."""


_TAPES: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward().

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = build_loss(...)
        tape.backward(loss)

    One backward pass per tape; build a fresh tape per training step.
    backward() drops the recorded nodes, so the graph (op outputs, backward
    closures) is freed by reference counting once the caller lets go of it.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple[Tensor, object]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _TAPES.pop()
        assert popped is self, "tapes must unwind in LIFO order"
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
        loss._accumulate(np.ones((), dtype=np.float64))
        # out._tape -> tape -> nodes -> out is a reference cycle; break it
        nodes, self.nodes = self.nodes, []
        for out, pull in reversed(nodes):
            if out.grad is not None:
                pull(out.grad)


class Tensor:
    """Dense n-d value, optionally carrying a gradient.

    Leaves are built directly (`Tensor(data, requires_grad=True)`); every op
    output is a non-leaf that remembers the tape it was recorded on.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def backward(self) -> None:
        if self._tape is None:
            raise GradientError("loss is detached: no tape recorded it")
        self._tape.backward(self)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- convenience reductions / views ------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return shift(self, other) if _is_number(other) else add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return scale(self, other) if _is_number(other) else mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if _is_number(other):
            return shift(self, -other)
        return sub(self, other)

    def __rsub__(self, other):
        return shift(scale(self, -1.0), other)

    def __truediv__(self, other):
        if not _is_number(other):
            raise TypeError(f"a Tensor divides only by a number, got {type(other).__name__}")
        return scale(self, 1.0 / other)

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.floating, np.integer))


def reset_grads(tensors) -> None:
    """Clear gradients on an iterable or dict of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.reset_grad()


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _make(data: np.ndarray, inputs: tuple) -> Tensor:
    """Build an op output; marks it grad-tracked if recording applies."""
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
    return out


def custom_op(data: np.ndarray, inputs: tuple, pull) -> Tensor:
    """Extension point: create an op output with an explicit backward rule.

    `pull(grad_out)` must accumulate into each input via `_accumulate`.
    The rule is recorded only when gradients are being tracked.
    """
    out = _make(data, inputs)
    if out.requires_grad:
        out._tape.record(out, pull)
    return out


def _suffix_axes(a_shape: tuple, b_shape: tuple) -> tuple | None:
    """Leading axes to reduce when b broadcasts into a; None if shapes equal."""
    if a_shape == b_shape:
        return None
    if len(b_shape) < len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape:
        return tuple(range(len(a_shape) - len(b_shape)))
    raise ShapeError(
        f"shapes {a_shape} and {b_shape} do not match "
        "(equal shapes or suffix broadcast only)"
    )


def _reduce_to(g: np.ndarray, axes: tuple | None) -> np.ndarray:
    return g if axes is None else g.sum(axis=axes)


# ---------------------------------------------------------------------------
# elementwise / binary ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    axes = _suffix_axes(a.shape, b.shape)

    def pull(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(_reduce_to(g, axes))

    return custom_op(a.data + b.data, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    axes = _suffix_axes(a.shape, b.shape)

    def pull(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-_reduce_to(g, axes))

    return custom_op(a.data - b.data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    axes = _suffix_axes(a.shape, b.shape)
    ad, bd = a.data, b.data

    def pull(g):
        if a.requires_grad:
            a._accumulate(g * bd)
        if b.requires_grad:
            b._accumulate(_reduce_to(g * ad, axes))

    return custom_op(ad * bd, (a, b), pull)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * c)

    return custom_op(x.data * c, (x,), pull)


def shift(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g)

    return custom_op(x.data + c, (x,), pull)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return custom_op(x.data * mask, (x,), pull)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf below about -709; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return custom_op(s, (x,), pull)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-form gelu; the derivative below differentiates this exact form."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * xd**3)
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def pull(g):
        if x.requires_grad:
            sech2 = 1.0 - t * t
            d = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
            x._accumulate(g * d)

    return custom_op(out, (x,), pull)


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "relu":
        return relu(x)
    if kind == "gelu":
        return gelu(x)
    raise ValueError(f"unknown activation {kind!r}; expected 'relu' or 'gelu'")


def log(x: Tensor) -> Tensor:
    """log with input clamped at EPS_GUARD; zero gradient inside the clamp."""
    xc = np.maximum(x.data, EPS_GUARD)
    live = x.data > EPS_GUARD

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * live / xc)

    return custom_op(np.log(xc), (x,), pull)


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.data)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * sign)

    return custom_op(np.abs(x.data), (x,), pull)


def pow_scalar(x: Tensor, p: float) -> Tensor:
    p = float(p)
    out = x.data**p

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * p * x.data ** (p - 1.0))

    return custom_op(out, (x,), pull)


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul is 2-d only, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def pull(g):
        if a.requires_grad:
            a._accumulate(g @ bd.T)
        if b.requires_grad:
            b._accumulate(ad.T @ g)

    return custom_op(ad @ bd, (a, b), pull)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose is 2-d only, got {x.shape}")

    def pull(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return custom_op(x.data.T.copy(), (x,), pull)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    xshape = x.shape

    def pull(g):
        if not x.requires_grad:
            return
        if axis is None:
            x._accumulate(np.broadcast_to(g, xshape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(ge, xshape).copy())

    return custom_op(x.data.sum(axis=axis, keepdims=keepdims), (x,), pull)


def concat(xs, axis: int = 0) -> Tensor:
    xs = list(xs)
    if not xs:
        raise ShapeError("concat needs at least one tensor")
    sizes = [t.shape[axis] for t in xs]
    offsets = np.cumsum(sizes)[:-1]

    def pull(g):
        parts = np.split(g, offsets, axis=axis)
        for t, p in zip(xs, parts):
            if t.requires_grad:
                t._accumulate(p)

    return custom_op(np.concatenate([t.data for t in xs], axis=axis), tuple(xs), pull)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = (slice(None),) * axis + (slice(start, stop),)

    def pull(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return custom_op(x.data[index].copy(), (x,), pull)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds (indices may repeat)."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows is 2-d only, got {x.shape}")
    idx = np.asarray(idx, dtype=np.intp)

    def pull(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            np.add.at(buf, idx, g)
            x._accumulate(buf)

    return custom_op(x.data[idx].copy(), (x,), pull)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def pull(g):
        if x.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            x._accumulate(s * (g - inner))

    return custom_op(s, (x,), pull)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over projected rows, as one op.

    q [n,d], k [m,d], v [m,d] -> [n,d]. Head h owns columns
    [h*dh, (h+1)*dh) with dh = d / n_heads; the heads run as one batched
    product over [n_heads, rows, dh] views. Per head, with c = 1/sqrt(dh):

        S = softmax((Q Kᵀ) · c)  (row max subtracted before exp),  out = S V

    and the output columns keep the head order. Backward, per head, for the
    output gradient g:

        dV = Sᵀ g,  dS = g Vᵀ,  dZ = S ⊙ (dS − rowsum(dS ⊙ S)) · c,
        dQ = dZ K,  dK = dZᵀ Q

    Gradients accumulate, so passing one tensor as both q and k is correct.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention is 2-d only, got q={q.shape} k={k.shape} v={v.shape}")
    n, d = q.shape
    m = k.shape[0]
    if k.shape != (m, d) or v.shape != (m, d) or m == 0 or d % n_heads:
        raise ShapeError(
            f"attention needs q [n,d], k and v [m,d] with m > 0 and d divisible by "
            f"{n_heads} heads, got q={q.shape} k={k.shape} v={v.shape}"
        )
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x):  # [rows, d] -> [heads, rows, dh] view
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(x):  # [heads, rows, dh] -> [rows, d]
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    z = (qh @ kh.transpose(0, 2, 1)) * c
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def pull(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(s.transpose(0, 2, 1) @ gh))
        if q.requires_grad or k.requires_grad:
            ds = gh @ vh.transpose(0, 2, 1)
            dz = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * c
            if q.requires_grad:
                q._accumulate(merge(dz @ kh))
            if k.requires_grad:
                k._accumulate(merge(dz.transpose(0, 2, 1) @ qh))

    return custom_op(merge(s @ vh), (q, k, v), pull)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match ({d},)"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv
    out = y * gain.data + bias.data

    def pull(g):
        if gain.requires_grad:
            gain._accumulate((g * y).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * y).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (gy - m1 - y * m2))

    return custom_op(out, (x, gain, bias), pull)


def extract_patches(img: Tensor, patch: int) -> Tensor:
    """[H,W,C] image -> [T, patch*patch*C] rows of non-overlapping patches.

    Patches scan row-major over the patch grid; T = (H/patch)*(W/patch).
    """
    if img.data.ndim != 3:
        raise ShapeError(f"extract_patches expects [H,W,C], got {img.shape}")
    h, w, c = img.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {patch}")
    hp, wp = h // patch, w // patch
    out = (
        img.data.reshape(hp, patch, wp, patch, c)
        .transpose(0, 2, 1, 3, 4)
        .reshape(hp * wp, patch * patch * c)
    )

    def pull(g):
        if img.requires_grad:
            back = (
                g.reshape(hp, wp, patch, patch, c)
                .transpose(0, 2, 1, 3, 4)
                .reshape(h, w, c)
            )
            img._accumulate(back)

    return custom_op(out, (img,), pull)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Per-input relative errors between tape and central-difference gradients.

    The error measure is |a - n| / max(|a|, |n|, 1): absolute near zero,
    relative at scale.
    """

    passed: bool
    max_rel_err: float
    tol: float
    rel_errs: list = field(repr=False, default_factory=list)


def grad_check(f, inputs, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of the scalar f(*inputs) with central differences.

    `inputs` tensors are used as the differentiation leaves; their data is
    perturbed in place (and restored) for the numeric side.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    if isinstance(inputs, Tensor):
        inputs = [inputs]
    for t in inputs:
        t.requires_grad = True
        t.reset_grad()

    with Tape() as tape:
        out = f(*inputs)
    if out.data.shape != ():
        raise GradientError(f"grad_check needs a scalar function, got {out.shape}")
    tape.backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    rel_errs = []
    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        err = np.zeros_like(flat)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            f_plus = f(*inputs).item()
            flat[k] = keep - eps
            f_minus = f(*inputs).item()
            flat[k] = keep
            n = (f_plus - f_minus) / (2.0 * eps)
            ak = a.reshape(-1)[k]
            err[k] = abs(ak - n) / max(abs(ak), abs(n), 1.0)
        rel_errs.append(err.reshape(t.data.shape))
        if flat.size:
            worst = max(worst, float(err.max()))
    return GradCheckReport(passed=worst < tol, max_rel_err=worst, tol=tol, rel_errs=rel_errs)
