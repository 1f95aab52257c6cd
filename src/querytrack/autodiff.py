"""Dense tensors with tape-based reverse-mode differentiation.

Everything the model and losses compute runs through the ops in this module.
Ops execute eagerly on float64 numpy arrays; when a `Tape` is active and an
input requires gradients, the op appends its backward rule to the tape.
Calling `Tape.backward(loss)` replays the rules in reverse execution order,
accumulating gradients additively into every participating tensor.

Conventions kept deliberately narrow so each backward rule stays auditable:

- float64 only (gradient checks need double precision),
- `add`, the one binary op, accepts equal shapes or a second operand whose
  shape is a suffix of the first (leading-axis expansion, e.g. bias add),
- a tape and its tensors belong to one worker; no locking is done.

`Tensor` defines no arithmetic operators: every op is a named function, so
each node on the tape is one a reader can find.
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
    "feed_forward",
    "gather_rows",
    "grad_check",
    "layer_norm",
    "linear",
    "mlp",
    "reset_grads",
    "scale",
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

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


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


def _check_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, op: str) -> None:
    if (
        x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
        or x.shape[1] != w1.shape[0] or b1.shape != w1.shape[1:]
        or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]
    ):
        raise ShapeError(
            f"{op} needs x [n,k], w1 [k,h], b1 [h], w2 [h,m] and b2 [m], got {x.shape}, "
            f"{w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}"
        )


def _mlp_forward(xd: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """(output, relu output a, relu mask) of relu(xd w1 + b1) w2 + b2."""
    h = xd @ w1.data + b1.data
    mask = h > 0
    a = h * mask
    return a @ w2.data + b2.data, a, mask


def _mlp_backward(xd, w1, b1, w2, b2, a, mask, g, need_x: bool):
    """Accumulate the w2, b2, w1 and b1 terms, in that order; return dx or None.

    dw2 = aᵀ g, db2 = column sums of g, gh = (g w2ᵀ) ⊙ mask, dx = gh w1ᵀ,
    dw1 = xdᵀ gh, db1 = column sums of gh.
    """
    if w2.requires_grad:
        w2._accumulate(a.T @ g)
    if b2.requires_grad:
        b2._accumulate(g.sum(axis=0))
    if not (need_x or w1.requires_grad or b1.requires_grad):
        return None
    gh = (g @ w2.data.T) * mask
    if w1.requires_grad:
        w1._accumulate(xd.T @ gh)
    if b1.requires_grad:
        b1._accumulate(gh.sum(axis=0))
    return gh @ w1.data.T if need_x else None


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer ReLU net relu(x [n,k] @ w1 [k,h] + b1 [h]) @ w2 [h,m] + b2 [m]
    -> [n,m], as one op.

    Backward, for the output gradient g, with a the relu output and r its
    0/1 mask: dw2 = aᵀ g, db2 is the column sums of g, gh = (g w2ᵀ) ⊙ r,
    dw1 = xᵀ gh, db1 is the column sums of gh and dx = gh w1ᵀ, accumulated
    in that order.
    """
    _check_mlp(x, w1, b1, w2, b2, "mlp")
    xd = x.data
    out, a, mask = _mlp_forward(xd, w1, b1, w2, b2)

    def pull(g):
        dx = _mlp_backward(xd, w1, b1, w2, b2, a, mask, g, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    return custom_op(out, (x, w1, b1, w2, b2), pull)


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


# ---------------------------------------------------------------------------
# layer norm and the pre-norm residual sublayers
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def _check_norm(d: int, gain: Tensor, bias: Tensor, op: str) -> None:
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op} affine shapes {gain.shape}/{bias.shape} do not match ({d},)")


def _layer_norm_forward(xd: np.ndarray, gain: Tensor, bias: Tensor, eps: float):
    """(output, normalised rows y, 1/std per row) of the layer norm over the last axis."""
    d = xd.shape[-1]
    # sum / d is numpy's mean without its Python-level overhead; same bits
    mu = xd.sum(axis=-1, keepdims=True) / d
    xc = xd - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    y = xc * inv
    return y * gain.data + bias.data, y, inv


def _layer_norm_backward(x, gain: Tensor, bias: Tensor, y, inv, g) -> None:
    """Accumulate the gain, bias and x terms of the layer norm, in that order.

    dgain = column sums of g ⊙ y, dbias = column sums of g, and with
    gy = g ⊙ gain: dx = inv ⊙ (gy − rowmean(gy) − y ⊙ rowmean(gy ⊙ y)).
    """
    d = y.shape[-1]
    if gain.requires_grad:
        gain._accumulate((g * y).reshape(-1, d).sum(axis=0))
    if bias.requires_grad:
        bias._accumulate(g.reshape(-1, d).sum(axis=0))
    if x.requires_grad:
        gy = g * gain.data
        m1 = gy.sum(axis=-1, keepdims=True) / d
        m2 = (gy * y).sum(axis=-1, keepdims=True) / d
        x._accumulate(inv * (gy - m1 - y * m2))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _check_norm(x.shape[-1], gain, bias, "layer_norm")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    out, y, inv = _layer_norm_forward(x.data, gain, bias, eps)

    def pull(g):
        _layer_norm_backward(x, gain, bias, y, inv, g)

    return custom_op(out, (x, gain, bias), pull)


class _Sink:
    """Gradient buffer of an intermediate that a fused op keeps to itself.

    It keeps the first term it is given (every term is a fresh array) where
    `Tensor._accumulate` would copy it; later terms add in place.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def attention(
    x: Tensor, gain: Tensor, bias: Tensor, proj, n_heads: int,
    memory: Tensor | None = None, positions: Tensor | None = None,
) -> Tensor:
    """One pre-norm residual attention sublayer, x + attend(LN(x)), as one op.

    x [n,d] is the residual stream, gain and bias [d] its layer norm's
    affine, and proj = (wq, bq, wk, bk, wv, bv, wo, bo), each weight [d,d]
    and each bias [d] -> [n,d]. With xn = LN(x) (`layer_norm`'s formula),
    the query, key and value rows are

        self-attention:   q = k = xn, or xn + positions [n,d] when given;  v = xn
        cross-attention:  q = xn;  k = v = memory [m,d]

    Head h owns columns [h*dh, (h+1)*dh) with dh = d / n_heads, and
    c = 1/sqrt(dh). Forward:

        Q = q wq + bq,  K = k wk + bk,  V = v wv + bv
        per head:  S_h = softmax((Q_h K_hᵀ) · c)  (row max subtracted before exp)
        A = [S_1 V_1, ..., S_H V_H]  (heads in column order)
        out = x + (A wo + bo)

    The heads run as one batched product over [n_heads, rows, dh] views.
    The softmax runs in place on the one [n_heads, n, m] logit buffer, and
    its backward in place on the dS buffer. Backward, for the output
    gradient g, in this order:

        dx = g  (the residual term),  dwo = Aᵀ g,  dbo = column sums of g,
        dA = g woᵀ
        per head:  dV_h = S_hᵀ dA_h,  dS = dA_h V_hᵀ,
                   dZ = S_h ⊙ (dS − rowsum(dS ⊙ S_h)) · c,
                   dQ_h = dZ K_h,  dK_h = dZᵀ Q_h
        then for (r, w, b, dR) = (v, wv, bv, dV), (k, wk, bk, dK), (q, wq, bq, dQ):
                   dr += dR wᵀ,  dw = rᵀ dR,  db = column sums of dR
        with positions:  dxn += dq,  then dpositions += dq
        then the layer norm's backward of dxn: dgain, dbias, and dx += its term

    These are the products of the unfused chain (`layer_norm`, the `add` of
    the positions, three `linear` projections, the core as its own op, the
    output `linear` and the residual `add`; `tests/test_autodiff.py` builds
    it), in the order its tape replays them. So every tensor that collects
    several terms sums them in the chain's sequence (x: the residual term,
    then the layer norm's; xn: value, key, query; memory: value, then key),
    and the output and every gradient match the chain bit for bit.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"attention needs x [n,d], got {x.shape}")
    d = x.shape[1]
    if d % n_heads:
        raise ShapeError(f"attention width {d} is not divisible by {n_heads} heads")
    if memory is not None:
        if positions is not None:
            raise ValueError("attention adds positions in self-attention only, not with memory")
        if memory.data.ndim != 2 or memory.shape[1] != d:
            raise ShapeError(f"attention memory needs [m,{d}] rows, got {memory.shape}")
    if positions is not None and positions.shape != x.shape:
        raise ShapeError(f"attention positions {positions.shape} do not match x {x.shape}")
    if (x if memory is None else memory).shape[0] == 0:
        raise ShapeError(f"attention needs at least one key row, got x={x.shape} memory="
                         f"{None if memory is None else memory.shape}")
    _check_norm(d, gain, bias, "attention")
    wq, bq, wk, bk, wv, bv, wo, bo = proj
    if any(w.shape != (d, d) for w in proj[::2]) or any(b.shape != (d,) for b in proj[1::2]):
        raise ShapeError(
            f"attention needs [{d},{d}] weights and [{d}] biases, got "
            f"{[t.shape for t in proj]}"
        )
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(a):  # [rows, d] -> [heads, rows, dh] view
        return a.reshape(a.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(a):  # [heads, rows, dh] -> [rows, d]
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    def project(r, w, b):
        out = r.data @ w.data
        out += b.data
        return out

    xn, y, inv = _layer_norm_forward(x.data, gain, bias, _NORM_EPS)
    norm = _Sink(xn, x.requires_grad or gain.requires_grad or bias.requires_grad)
    if memory is not None:
        q, k, v = norm, memory, memory
    else:
        qk = norm if positions is None else _Sink(
            xn + positions.data, norm.requires_grad or positions.requires_grad
        )
        q, k, v = qk, qk, norm
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
    out += x.data

    need_q, need_k, need_v = (
        r.requires_grad or w.requires_grad or b.requires_grad
        for r, w, b in ((q, wq, bq), (k, wk, bk), (v, wv, bv))
    )

    def project_back(r, w, b, gr):
        if r.requires_grad:
            r._accumulate(gr @ w.data.T)
        if w.requires_grad:
            w._accumulate(r.data.T @ gr)
        if b.requires_grad:
            b._accumulate(gr.sum(axis=0))

    def pull(g):
        if x.requires_grad:
            x._accumulate(g)
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
        if positions is not None and q.grad is not None:
            if norm.requires_grad:
                norm._accumulate(q.grad)
            if positions.requires_grad:
                positions._accumulate(q.grad)
        if norm.grad is not None:
            _layer_norm_backward(x, gain, bias, y, inv, norm.grad)

    inputs = (x, gain, bias, *proj) + tuple(t for t in (memory, positions) if t is not None)
    return custom_op(out, inputs, pull)


def feed_forward(
    x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """One pre-norm residual feed-forward sublayer, x + mlp(LN(x)), as one op.

    x [n,d] is the residual stream, gain and bias [d] its layer norm's
    affine, and w1 [d,h], b1 [h], w2 [h,d], b2 [d] the net's. Forward, with
    `layer_norm`'s and `mlp`'s formulas:

        xn = LN(x),  out = x + (relu(xn w1 + b1) w2 + b2)

    Backward, for the output gradient g, in this order: dx = g (the
    residual term); `mlp`'s backward of g (dw2, db2, dw1, db1, then dxn);
    the layer norm's backward of dxn (dgain, dbias, and dx += its term).
    These are the products of the unfused chain `layer_norm` -> `mlp` ->
    `add`, in the order its tape replays them, so the output and every
    gradient match the chain bit for bit.
    """
    _check_mlp(x, w1, b1, w2, b2, "feed_forward")
    d = x.shape[1]
    if w2.shape[1] != d:
        raise ShapeError(f"feed_forward output width {w2.shape[1]} != input width {d}")
    _check_norm(d, gain, bias, "feed_forward")
    xn, y, inv = _layer_norm_forward(x.data, gain, bias, _NORM_EPS)
    out, a, mask = _mlp_forward(xn, w1, b1, w2, b2)
    out += x.data
    need_norm = x.requires_grad or gain.requires_grad or bias.requires_grad

    def pull(g):
        if x.requires_grad:
            x._accumulate(g)
        gxn = _mlp_backward(xn, w1, b1, w2, b2, a, mask, g, need_norm)
        if gxn is not None:
            _layer_norm_backward(x, gain, bias, y, inv, gxn)

    return custom_op(out, (x, gain, bias, w1, b1, w2, b2), pull)


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

    `inputs` tensors are used as the differentiation leaves; each cell of
    their data is perturbed in place (and restored) for the numeric side,
    whatever the array's layout, so a leaf that views another array (say
    `Tensor(a.T)`) is perturbed where f reads it.
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
        data = t.data
        err = np.zeros(data.shape)
        for k in np.ndindex(data.shape):
            keep = data[k]
            data[k] = keep + eps
            f_plus = f(*inputs).item()
            data[k] = keep - eps
            f_minus = f(*inputs).item()
            data[k] = keep
            n = (f_plus - f_minus) / (2.0 * eps)
            err[k] = abs(a[k] - n) / max(abs(a[k]), abs(n), 1.0)
        rel_errs.append(err)
        if err.size:
            worst = max(worst, float(err.max()))
    return GradCheckReport(passed=worst < tol, max_rel_err=worst, tol=tol, rel_errs=rel_errs)
