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
- a tape and its tensors belong to one worker; no locking is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GradCheckReport",
    "GradientError",
    "ShapeError",
    "Tape",
    "Tensor",
    "add",
    "attention",
    "concat",
    "custom_op",
    "extract_patches",
    "gather_rows",
    "grad_check",
    "layer_norm",
    "linear",
    "mlp",
    "reduce_sum",
    "reset_grads",
    "scale",
    "shift",
    "sigmoid",
    "slice_axis",
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

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g into .grad; the first full-shape term is stored as a copy.

        The copy keeps the stored gradient from sharing memory with g, which
        the op that made it may hand to other inputs too. Where g holds a
        -0.0 the stored value stays -0.0 (a zero-filled start would give
        +0.0); the two compare equal.
        """
        if self.grad is None:
            if g.shape == self.data.shape:
                self.grad = g.copy()
                return
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
        if not _is_number(other):
            raise TypeError(f"a Tensor multiplies only by a number, got {type(other).__name__}")
        return scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if not _is_number(other):
            raise TypeError(f"a Tensor subtracts only a number, got {type(other).__name__}")
        return shift(self, -other)

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


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf below about -709; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return custom_op(s, (x,), pull)


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x [n,k] @ w [k,m] + b [m] -> [n,m], as one op.

    Backward, for the output gradient g: dx = g wᵀ, dw = xᵀ g, and db is
    the column sums of g.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear needs x [n,k], w [k,m] and b [m], got {x.shape}, {w.shape} and {b.shape}"
        )
    xd, wd = x.data, w.data

    def pull(g):
        if x.requires_grad:
            x._accumulate(g @ wd.T)
        if w.requires_grad:
            w._accumulate(xd.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return custom_op(xd @ wd + b.data, (x, w, b), pull)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer ReLU net relu(x [n,k] @ w1 [k,h] + b1 [h]) @ w2 [h,m] + b2 [m]
    -> [n,m], as one op.

    Backward, for the output gradient g, with a the relu output and r its
    0/1 mask: dw2 = aᵀ g, db2 is the column sums of g, gh = (g w2ᵀ) ⊙ r,
    dx = gh w1ᵀ, dw1 = xᵀ gh and db1 is the column sums of gh.
    """
    if (
        x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
        or x.shape[1] != w1.shape[0] or b1.shape != w1.shape[1:]
        or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]
    ):
        raise ShapeError(
            f"mlp needs x [n,k], w1 [k,h], b1 [h], w2 [h,m] and b2 [m], got {x.shape}, "
            f"{w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}"
        )
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = xd @ w1d + b1.data
    mask = h > 0
    a = h * mask

    def pull(g):
        if w2.requires_grad:
            w2._accumulate(a.T @ g)
        if b2.requires_grad:
            b2._accumulate(g.sum(axis=0))
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = (g @ w2d.T) * mask
            if x.requires_grad:
                x._accumulate(gh @ w1d.T)
            if w1.requires_grad:
                w1._accumulate(xd.T @ gh)
            if b1.requires_grad:
                b1._accumulate(gh.sum(axis=0))

    return custom_op(a @ w2d + b2.data, (x, w1, b1, w2, b2), pull)


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


def attention(q: Tensor, k: Tensor, v: Tensor, proj, n_heads: int) -> Tensor:
    """One multi-head attention block, projections included, as one op.

    q [n,d], k [m,d], v [m,d] and proj = (wq, bq, wk, bk, wv, bv, wo, bo),
    each weight [d,d] and each bias [d] -> [n,d]. Head h owns columns
    [h*dh, (h+1)*dh) with dh = d / n_heads, and c = 1/sqrt(dh). Forward:

        Q = q wq + bq,  K = k wk + bk,  V = v wv + bv
        per head:  S_h = softmax((Q_h K_hᵀ) · c)  (row max subtracted before exp)
        A = [S_1 V_1, ..., S_H V_H]  (heads in column order),  out = A wo + bo

    The heads run as one batched product over [n_heads, rows, dh] views.
    The softmax runs in place on the one [n_heads, n, m] logit buffer, and
    its backward in place on the dS buffer. Backward, for the output
    gradient g, in this order:

        dwo = Aᵀ g,  dbo = column sums of g,  dA = g woᵀ
        per head:  dV_h = S_hᵀ dA_h,  dS = dA_h V_hᵀ,
                   dZ = S_h ⊙ (dS − rowsum(dS ⊙ S_h)) · c,
                   dQ_h = dZ K_h,  dK_h = dZᵀ Q_h
        then for (x, w, b, dX) = (v, wv, bv, dV), (k, wk, bk, dK), (q, wq, bq, dQ):
                   dx = dX wᵀ,  dw = xᵀ dX,  db = column sums of dX

    These are the products of the unfused chain (three `linear` ops, the
    core as its own op, the output `linear`; `tests/test_autodiff.py` builds
    it), in the order its tape replays them. So when one tensor is passed
    as several of q, k and v, its gradient terms accumulate in the same
    sequence (v, then k, then q), and the output and every gradient match
    the chain bit for bit.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention is 2-d only, got q={q.shape} k={k.shape} v={v.shape}")
    n, d = q.shape
    m = k.shape[0]
    if k.shape != (m, d) or v.shape != (m, d) or d % n_heads:
        raise ShapeError(
            f"attention needs q [n,d], k and v [m,d] with d divisible by "
            f"{n_heads} heads, got q={q.shape} k={k.shape} v={v.shape}"
        )
    if m == 0:
        raise ShapeError(f"attention needs at least one key row, got k={k.shape}")
    wq, bq, wk, bk, wv, bv, wo, bo = proj
    if any(w.shape != (d, d) for w in proj[::2]) or any(b.shape != (d,) for b in proj[1::2]):
        raise ShapeError(
            f"attention needs [{d},{d}] weights and [{d}] biases, got "
            f"{[t.shape for t in proj]}"
        )
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x):  # [rows, d] -> [heads, rows, dh] view
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(x):  # [heads, rows, dh] -> [rows, d]
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    def project(x, w, b):
        y = x.data @ w.data
        y += b.data
        return y

    qp, kp, vp = project(q, wq, bq), project(k, wk, bk), project(v, wv, bv)
    qh, kh, vh = split(qp), split(kp), split(vp)
    s = qh @ kh.transpose(0, 2, 1)
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    heads = merge(s @ vh)
    out = heads @ wo.data
    out += bo.data

    need_q, need_k, need_v = (
        x.requires_grad or w.requires_grad or b.requires_grad
        for x, w, b in ((q, wq, bq), (k, wk, bk), (v, wv, bv))
    )

    def project_back(x, w, b, gy):
        if x.requires_grad:
            x._accumulate(gy @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ gy)
        if b.requires_grad:
            b._accumulate(gy.sum(axis=0))

    def pull(g):
        if wo.requires_grad:
            wo._accumulate(heads.T @ g)
        if bo.requires_grad:
            bo._accumulate(g.sum(axis=0))
        if not (need_q or need_k or need_v):
            return
        gh = split(g @ wo.data.T)
        if need_v:
            gv = merge(s.transpose(0, 2, 1) @ gh)
        if need_q or need_k:
            dz = gh @ vh.transpose(0, 2, 1)
            dz -= (dz * s).sum(axis=-1, keepdims=True)
            dz *= s
            dz *= c
        if need_v:
            project_back(v, wv, bv, gv)
        if need_k:
            project_back(k, wk, bk, merge(dz.transpose(0, 2, 1) @ qh))
        if need_q:
            project_back(q, wq, bq, merge(dz @ kh))

    return custom_op(out, (q, k, v, *proj), pull)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match ({d},)"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    # sum / d is numpy's mean without its Python-level overhead; same bits
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    y = xc * inv
    out = y * gain.data + bias.data

    def pull(g):
        if gain.requires_grad:
            gain._accumulate((g * y).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.sum(axis=-1, keepdims=True) / d
            m2 = (gy * y).sum(axis=-1, keepdims=True) / d
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
