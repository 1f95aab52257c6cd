import gc
import math
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.model import TrackingModel

from chain_ops import scale, slice_axis, total, weighted_sum
from gradcheck import grad_check
from op_table import OPS, Sizes
from tiny import TINY, two_frame_clip_loss


def scalar(f):
    """Wrap a tensor function so grad_check sees sum(f(...))."""
    return lambda *xs: weighted_sum(f(*xs), 1.0)


def rng_tensor(rng, *shape):
    return Tensor(rng.standard_normal(shape))


PROJ_NAMES = ["w_in", "b_in", "wo", "bo"]


def packed_proj(wq, bq, wk, bk, wv, bv, wo, bo):
    """(w_in, b_in, wo, bo) from the separate query, key and value arrays:
    w_in = [wq|wk|wv] [d,3d] and b_in = [bq|bk|bv] [3d]."""
    return [Tensor(np.hstack([wq, wk, wv])), Tensor(np.concatenate([bq, bk, bv])),
            Tensor(wo), Tensor(bo)]


def identity_proj(d):
    """Attention projections that leave their rows unchanged."""
    eye, zero = np.eye(d), np.zeros(d)
    return packed_proj(*[eye, zero] * 4)


def random_proj(rng, d):
    """(w_in, b_in, wo, bo) packed from eight draws in the order wq, bq, wk,
    bk, wv, bv, wo, bo: [d,d] weights and [d] biases."""
    return packed_proj(*[rng.standard_normal((d, d) if i % 2 == 0 else d) / np.sqrt(d) for i in range(8)])


def random_norm(rng, d):
    """A layer norm's gain and bias, [d] each, away from the identity."""
    return [Tensor(1.0 + 0.3 * rng.standard_normal(d)), Tensor(0.3 * rng.standard_normal(d))]


def check_row(name, s, rng):
    """`grad_check` of the op table's row `name` at sizes s: random float64
    inputs of the row's shapes, a random weighting of its output, the row's
    tolerance."""
    row = OPS[name]
    leaves = [rng_tensor(rng, *shape) for shape in row.shapes(s)]
    w = rng.standard_normal(row.call(s, *leaves).shape)
    report = grad_check(lambda *xs: weighted_sum(row.call(s, *xs), w), leaves, tol=row.tol)
    assert report.passed, (name, s, report.max_rel_err)
    return report


def square(x):
    """x**2 elementwise, as one test-local tape op."""

    return ad.custom_op(x.data**2, (x,), lambda g: x._accumulate(g * 2.0 * x.data))


class TestMatmul:
    """The matrix product of `ad.linear`, with a zero bias, and its shape checks."""

    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ad.linear(eye, x, Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, x.data)

    def test_column_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(ad.linear(a, b, Tensor([0.0])).data, [[3.0], [7.0]])
        np.testing.assert_allclose(ad.linear(a, b, Tensor([0.5])).data, [[3.5], [7.5]])

    def test_shape_mismatch_names_both_shapes(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.linear(a, b, Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match=r"\(3, 2\) and \(3,\)"):
            ad.linear(a, Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))

    def test_gradient_vs_finite_differences(self):
        # the row's tolerance is 1e-6
        check_row("linear", Sizes(n=3, m=1, k=4, h=2, heads=1, dh=1), np.random.default_rng(0))


class TestMlp:
    """`ad.mlp`: relu(x w1 + b1) w2 + b2 as one tape op."""

    @staticmethod
    def inputs(rng, n=5, k=3, h=4, m=2):
        return [rng_tensor(rng, n, k), rng_tensor(rng, k, h), rng_tensor(rng, h),
                rng_tensor(rng, h, m), rng_tensor(rng, m)]

    def test_matches_numpy_formula(self):
        inputs = self.inputs(np.random.default_rng(30))
        x, w1, b1, w2, b2 = (t.data for t in inputs)
        expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_array_equal(ad.mlp(*inputs).data, expected)

    def test_grad_check_all_inputs_with_a_dead_unit(self):
        rng = np.random.default_rng(31)
        x, w1, b1, w2, b2 = self.inputs(rng)
        b1.data[1] = -50.0  # hidden unit 1 is off for every row
        assert ((x.data @ w1.data + b1.data)[:, 1] < 0).all()
        w = rng.standard_normal((5, 2))
        report = grad_check(lambda *ts: weighted_sum(ad.mlp(*ts), w), [x, w1, b1, w2, b2])
        assert report.passed, report.max_rel_err
        # nothing flows through the dead unit
        assert w1.grad[:, 1].tolist() == [0.0] * 3 and b1.grad[1] == 0.0
        assert w2.grad[1].tolist() == [0.0] * 2

    def test_only_the_second_layer_needs_a_gradient(self):
        # only w2 and b2 keep a gradient: `_accumulate` drops the terms the
        # backward hands x, w1 and b1
        rng = np.random.default_rng(33)
        x, w1, b1, w2, b2 = self.inputs(rng)
        w2.requires_grad = b2.requires_grad = True
        g = rng.standard_normal((5, 2))
        with Tape() as tape:
            loss = weighted_sum(ad.mlp(x, w1, b1, w2, b2), g)
        tape.backward(loss)
        a = np.maximum(x.data @ w1.data + b1.data, 0.0)
        np.testing.assert_allclose(w2.grad, a.T @ g, rtol=1e-12)
        np.testing.assert_allclose(b2.grad, g.sum(axis=0), rtol=1e-12)
        assert x.grad is None and w1.grad is None and b1.grad is None

    def test_bad_shapes_rejected(self):
        x, w1, b1, w2, b2 = self.inputs(np.random.default_rng(32))
        with pytest.raises(ad.ShapeError, match=r"mlp needs .*\(4, 2\) and \(3,\)"):
            ad.mlp(x, w1, b1, w2, Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError):
            ad.mlp(x, w1, b1, Tensor(np.zeros((3, 2))), b2)
        with pytest.raises(ad.ShapeError):
            ad.mlp(Tensor(np.zeros((5, 4))), w1, b1, w2, b2)


def logit_inputs(logits):
    """(x, [gain, bias], proj, memory) of a one-head cross-attention whose
    [n,m] logit table is `logits`.

    The width is d = 2n + m, with unit norm and identity projections. Row i
    of x is e_2i - e_(2i+1): its mean is exactly 0, so its layer norm is
    the row times a factor r that every row shares. Memory row j holds
    logit (i, j) · sqrt(d) / r at column 2i, undoing r and the op's
    1/sqrt(d), and a 1 at column 2n + j. Each query then sees the logits,
    each value is the one-hot 2n + j, and x is 0 in those columns, so
    output column 2n + j of row i is the weight of key j for query i.
    """
    logits = np.atleast_2d(logits)
    n, m = logits.shape
    d = 2 * n + m
    r = 1.0 / np.sqrt(2.0 / d + 1e-5)  # the op's 1/std for a row with squares summing to 2
    x = np.zeros((n, d))
    x[np.arange(n), 2 * np.arange(n)] = 1.0
    x[np.arange(n), 2 * np.arange(n) + 1] = -1.0
    memory = np.zeros((m, d))
    memory[:, 0 : 2 * n : 2] = logits.T * np.sqrt(d) / r
    memory[np.arange(m), 2 * n + np.arange(m)] = 1.0
    return Tensor(x), [Tensor(np.ones(d)), Tensor(np.zeros(d))], identity_proj(d), Tensor(memory)


def attention_weights(logits):
    """The row softmax inside `ad.attention`, read out for an [n,m] logit
    table through `logit_inputs`."""
    x, norm, proj, memory = logit_inputs(logits)
    out = ad.attention(x, ad.AttentionParams(*norm, *proj, 1), memory=memory)
    return out.data[:, 2 * x.shape[0] :]


class TestSoftmax:
    """The row softmax of `ad.attention`, read out through `attention_weights`."""

    def test_symmetry(self):
        np.testing.assert_allclose(attention_weights([0.0, 0.0]), [[0.5, 0.5]])

    def test_closed_form(self):
        out = attention_weights([np.log(2.0), 0.0])
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5))
        a = attention_weights(x)
        b = attention_weights(x + 173.25)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = attention_weights(rng.standard_normal((3, 7)) * 10)
            assert np.all(s >= 0) and np.all(s <= 1)
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)


def split_heads(x, n_heads):
    """[rows, d] -> [heads, rows, dh] view."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def merge_heads(x):
    """[heads, rows, dh] -> [rows, d]."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def flash_core(qp, kp, vp, n_heads):
    """`ad.attention`'s core as one test-local op over its own kernels,
    `ad._attention_core_forward` and `ad._attention_core_backward`, so a
    chain through it checks how the op wires the core in, bit for bit."""
    c = 1.0 / math.sqrt(qp.shape[1] // n_heads)
    # the kernels scale the queries and overwrite the gradient of O in place
    qh, kh, vh = (split_heads(a, n_heads) for a in (qp.data.copy(), kp.data, vp.data))
    o = np.empty_like(qp.data)
    e, den = ad._attention_core_forward(qh, kh, vh, c, split_heads(o, n_heads))

    def pull(g):
        grads = [np.empty_like(t.data) for t in (qp, kp, vp)]
        gq, gk, gv = (split_heads(a, n_heads) for a in grads)
        ad._attention_core_backward(split_heads(g.copy(), n_heads), qh, kh, vh, e, den, split_heads(o, n_heads),
                                    c, gq, gk, gv)
        for t, a in zip((qp, kp, vp), grads):
            t._accumulate(a)

    return ad.custom_op(o, (qp, kp, vp), pull)


def textbook_core(qp, kp, vp, n_heads):
    """The batched-head core as the softmax is usually written, as one
    test-local op: scaled scores, normalisation before the value product
    and the backward row term rowsum(dS ⊙ S)."""
    dh = qp.shape[1] // n_heads
    c = 1.0 / np.sqrt(dh)
    qh, kh, vh = (split_heads(a, n_heads) for a in (qp.data, kp.data, vp.data))
    z = (qh @ kh.transpose(0, 2, 1)) * c
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def pull(g):
        gh = split_heads(g, n_heads)
        vp._accumulate(merge_heads(s.transpose(0, 2, 1) @ gh))
        ds = gh @ vh.transpose(0, 2, 1)
        dz = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * c
        qp._accumulate(merge_heads(dz @ kh))
        kp._accumulate(merge_heads(dz.transpose(0, 2, 1) @ qh))

    return ad.custom_op(merge_heads(s @ vh), (qp, kp, vp), pull)


def unfused_attention_sublayer(x, p, memory=None, positions=None, core=flash_core):
    """The chain `ad.attention` replaced, op for op: `layer_norm`, the query,
    key and value rows, one `ad.linear` per in-projection product over its
    columns of the packed weight and bias (`slice_axis`), `slice_axis` of
    each product into its q, k and v blocks, a batched-head core, the output
    `ad.linear` and the residual `add`.

    Self-attention is one `linear` over the whole [d,3d] weight. With
    `flash_core`, this chain is the bit-for-bit reference for how
    `ad.attention` fuses the layer norm, the projections, the core and the
    residual add; with `textbook_core`, the reference for its arithmetic.
    """
    w_in, b_in, wo, bo = p.w_in, p.b_in, p.wo, p.bo
    d = x.shape[1]
    xn = ad.layer_norm(x, p.gain, p.bias)
    if memory is not None:
        products = [(xn, 0, d), (memory, d, 3 * d)]
    elif positions is not None:
        products = [(ad.add(xn, positions), 0, 2 * d), (xn, 2 * d, 3 * d)]
    else:
        products = [(xn, 0, 3 * d)]
    outs = [
        ad.linear(r, w_in, b_in) if (lo, hi) == (0, 3 * d)
        else ad.linear(r, slice_axis(w_in, 1, lo, hi), slice_axis(b_in, 0, lo, hi))
        for r, lo, hi in products
    ]
    qp, kp, vp = (slice_axis(o, 1, j, j + d) for o in outs for j in range(0, o.shape[1], d))
    return ad.add(x, ad.linear(core(qp, kp, vp, p.n_heads), wo, bo))


def unfused_feed_forward(x, p):
    """`layer_norm`, `mlp` and the residual `add`: the chain `ad.feed_forward` replaced."""
    return ad.add(x, ad.mlp(ad.layer_norm(x, p.gain, p.bias), p.w1, p.b1, p.w2, p.b2))


def tape_bits(block, leaves, w, w_extra):
    """Output and leaf gradients of sum(block() * w) + sum(leaves[0] * w_extra).

    The second term is recorded after the block, so leaves[0] already holds
    a gradient when the block's backward rule adds its terms.
    """
    for t in leaves:
        t.requires_grad = True
        t.reset_grad()
    with Tape() as tape:
        out = block()
        loss = ad.add(weighted_sum(out, w), weighted_sum(leaves[0], w_extra))
    tape.backward(loss)
    return out.data, [t.grad.copy() for t in leaves]


class TestAttentionOp:
    """`ad.attention`: a pre-norm residual attention sublayer, x + attend(LN(x)),
    with its projections and batched-head softmax(Q Kᵀ / sqrt(dh)) V, as one
    tape op."""

    @staticmethod
    def weighted(x, gain, bias, proj, n_heads, w, **kw):
        return weighted_sum(ad.attention(x, ad.AttentionParams(gain, bias, *proj, n_heads), **kw), w.data)

    @pytest.mark.parametrize("n,m,d,n_heads", [(3, 5, 4, 1), (2, 4, 6, 2), (4, 3, 8, 4)])
    def test_grad_check(self, n, m, d, n_heads):
        # cross-attention: x attends to m memory rows
        s = Sizes(n, m, k=1, h=1, heads=n_heads, dh=d // n_heads)
        report = check_row("attention-memory", s, np.random.default_rng(n * 100 + m * 10 + n_heads))
        assert len(report.rel_errs) == 8

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_grad_check_shared_query_key(self, n_heads):
        # self-attention with positions, as in the temporal aggregation layer:
        # query and key are LN(x) + positions, the value is LN(x)
        s = Sizes(n=4, m=1, k=1, h=1, heads=n_heads, dh=6 // n_heads)
        report = check_row("attention-positions", s, np.random.default_rng(20 + n_heads))
        assert len(report.rel_errs) == 8

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_grad_check_shared_query_key_value(self, n_heads):
        # self-attention, as in the encoder layers and decoder self-attention
        s = Sizes(n=4, m=1, k=1, h=1, heads=n_heads, dh=6 // n_heads)
        report = check_row("attention", s, np.random.default_rng(30 + n_heads))
        assert len(report.rel_errs) == 7

    # the reference chain's attention core gets q, k and v shared as named:
    # q_is_k is self-attention with positions (the temporal layer), k_is_v is
    # cross-attention with memory, q_is_k_is_v is self-attention (the encoder
    # layers and decoder self-attention)
    @pytest.mark.parametrize("sharing", ["q_is_k", "k_is_v", "q_is_k_is_v"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_bits_match_unfused_composition(self, sharing, n_heads):
        rng = np.random.default_rng(50 + n_heads)
        n, m, d = 5, 7, 4 * n_heads
        x = Tensor(rng.standard_normal((n, d)))
        extra = {
            "q_is_k": {"positions": Tensor(rng.standard_normal((n, d)))},
            "k_is_v": {"memory": Tensor(rng.standard_normal((m, d)))},
            "q_is_k_is_v": {},
        }[sharing]
        norm, proj = random_norm(rng, d), random_proj(rng, d)
        w, w_extra = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        leaves = [x, *norm, *extra.values(), *proj]

        p = ad.AttentionParams(*norm, *proj, n_heads)

        def run(op):
            return tape_bits(lambda: op(x, p, **extra), leaves, w, w_extra)

        fused_out, fused_grads = run(ad.attention)
        ref_out, ref_grads = run(unfused_attention_sublayer)
        assert np.array_equal(fused_out, ref_out)
        names = ["x", "gain", "bias", *extra, *PROJ_NAMES]
        assert len(fused_grads) == len(ref_grads) == len(names)
        for name, a, b in zip(names, fused_grads, ref_grads):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_bits_match_unfused_decoder_layer(self, n_heads):
        # self-attention, cross-attention and the FFN over one shared memory,
        # which collects the value and key terms of the cross-attention
        rng = np.random.default_rng(60 + n_heads)
        n, m, d, h = 4, 6, 4 * n_heads, 12
        x, memory = Tensor(rng.standard_normal((n, d))), Tensor(rng.standard_normal((m, d)))
        norms = [random_norm(rng, d) for _ in range(3)]
        projs = [random_proj(rng, d) for _ in range(2)]
        net = [rng_tensor(rng, d, h), rng_tensor(rng, h), rng_tensor(rng, h, d), rng_tensor(rng, d)]
        w, w_extra = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        leaves = [x, memory, *norms[0], *norms[1], *norms[2], *projs[0], *projs[1], *net]

        self_attn, cross_attn = (ad.AttentionParams(*norms[i], *projs[i], n_heads) for i in range(2))
        ffn = ad.FeedForwardParams(*norms[2], *net)

        def run(attention, feed_forward):
            def layer():
                y = attention(x, self_attn)
                y = attention(y, cross_attn, memory=memory)
                return feed_forward(y, ffn)

            return tape_bits(layer, leaves, w, w_extra)

        fused_out, fused_grads = run(ad.attention, ad.feed_forward)
        ref_out, ref_grads = run(unfused_attention_sublayer, unfused_feed_forward)
        assert np.array_equal(fused_out, ref_out)
        for i, (a, b) in enumerate(zip(fused_grads, ref_grads)):
            assert np.array_equal(a, b), i

    @pytest.mark.parametrize("mode", ["self", "positions", "memory", "feed_forward"])
    def test_each_input_gets_its_gradient_alone(self, mode):
        # the query, key and value row gradients reach x (through the layer
        # norm), the positions or the memory, and the feed-forward net's
        # reach x through its layer norm, whichever inputs need one: an
        # input's gradient is the same bits alone as with all the others,
        # and an input that needs none gets none
        rng = np.random.default_rng(70)
        n, m, d = 4, 6, 8
        extra = {"positions": {"positions": (n, d)}, "memory": {"memory": (m, d)}}.get(mode, {})
        arrays = {"x": rng.standard_normal((n, d))}
        arrays["gain"], arrays["bias"] = (t.data for t in random_norm(rng, d))
        arrays.update({name: rng.standard_normal(shape) for name, shape in extra.items()})
        if mode == "feed_forward":
            params = ["w1", "b1", "w2", "b2"]
            arrays.update(zip(params, (rng.standard_normal(s) for s in [(d, 2 * d), (2 * d,), (2 * d, d), (d,)])))
        else:
            params = PROJ_NAMES
            arrays.update(zip(params, (t.data for t in random_proj(rng, d))))
        w = rng.standard_normal((n, d))

        def grads(needs):
            ts = {name: Tensor(a, requires_grad=name in needs) for name, a in arrays.items()}
            norm, net = (ts["gain"], ts["bias"]), [ts[name] for name in params]
            with Tape() as tape:
                if mode == "feed_forward":
                    out = ad.feed_forward(ts["x"], ad.FeedForwardParams(*norm, *net))
                else:
                    out = ad.attention(ts["x"], ad.AttentionParams(*norm, *net, 2),
                                       **{name: ts[name] for name in extra})
                loss = weighted_sum(out, w)
            tape.backward(loss)
            return {name: t.grad for name, t in ts.items()}

        every = grads(set(arrays))
        for needs in [{name} for name in arrays] + [{"x", params[0]}, {*extra, "gain", params[1]}]:
            for name, g in grads(needs).items():
                if name in needs:
                    assert np.array_equal(g, every[name]), (needs, name)
                else:
                    assert g is None, (needs, name)

    def test_one_tape_node(self):
        # the layer norm, the projections and the residual add are part of
        # the one node, in each of the three forms
        rng = np.random.default_rng(55)
        x, memory = Tensor(rng.standard_normal((3, 4)), requires_grad=True), rng_tensor(rng, 5, 4)
        positions = rng_tensor(rng, 3, 4)
        self_attn, cross_attn, temporal = (
            ad.AttentionParams(*random_norm(rng, 4), *random_proj(rng, 4), 2) for _ in range(3)
        )
        with Tape() as tape:
            ad.attention(x, self_attn)
            ad.attention(x, cross_attn, memory=memory)
            ad.attention(x, temporal, positions=positions)
        assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["attention"] * 3

    # the record checks the head count against the width once, when it is
    # made; the op checks each call's rows
    @pytest.mark.parametrize(
        "x_shape,memory_shape,positions_shape,n_heads,match",
        [
            ((2, 4), None, None, 3, None),
            ((2, 4), None, (3, 4), 1, "positions"),
            ((2, 4), (3, 2), None, 1, "memory needs"),
            ((2, 4), (0, 4), None, 1, "at least one key row"),
            ((4,), None, None, 1, r"needs x \[n,4\]"),
        ],
        ids=["indivisible_width", "positions_rows", "memory_width", "no_key_rows", "not_2d"],
    )
    def test_bad_shapes_rejected(self, x_shape, memory_shape, positions_shape, n_heads, match):
        x = Tensor(np.zeros(x_shape))
        kw = {
            name: Tensor(np.zeros(shape))
            for name, shape in (("memory", memory_shape), ("positions", positions_shape))
            if shape is not None
        }
        norm = [Tensor(np.ones(x_shape[-1])), Tensor(np.zeros(x_shape[-1]))]
        if match is None:
            with pytest.raises(ad.ShapeError, match="not divisible"):
                ad.AttentionParams(*norm, *identity_proj(x_shape[-1]), n_heads)
            return
        p = ad.AttentionParams(*norm, *identity_proj(x_shape[-1]), n_heads)
        with pytest.raises(ad.ShapeError, match=match):
            ad.attention(x, p, **kw)

    @pytest.mark.parametrize("name", ["memory", "positions"])
    def test_memory_or_positions_in_another_dtype_rejected(self, name):
        # unchecked, numpy would compute in float64 behind the float32
        # output, and the backward would then blame w_in
        rng = np.random.default_rng(57)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        leaves = random_norm(rng, 4) + random_proj(rng, 4)
        p = ad.AttentionParams(*(Tensor(t.data.astype(np.float32)) for t in leaves), 2)
        other = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        message = f"attention x and {name} are float32, float64; they need one dtype"
        with Tape() as tape, pytest.raises(ValueError, match=message):
            ad.attention(x, p, **{name: other})
        assert tape.nodes == []

    @pytest.mark.parametrize("n_heads", [0, -2, 2.0, True, "2", None, 3])
    def test_bad_head_count_rejected_by_name(self, n_heads):
        # unchecked, 0 would divide by zero, -2 take the square root of a
        # negative width and 2.0 fail in a reshape
        with pytest.raises(ad.ShapeError, match="n_heads"):
            ad.AttentionParams(Tensor(np.ones(4)), Tensor(np.zeros(4)), *identity_proj(4), n_heads)

    def test_single_zero_query(self):
        p = ad.AttentionParams(Tensor(np.ones(1)), Tensor(np.zeros(1)), *identity_proj(1), 1)
        np.testing.assert_allclose(ad.attention(Tensor([[0.0]]), p).data, [[0.0]])

    def test_numpy_int_head_count_accepted(self):
        x = Tensor(np.zeros((2, 4)))
        p = ad.AttentionParams(Tensor(np.ones(4)), Tensor(np.zeros(4)), *identity_proj(4), np.int64(2))
        assert ad.attention(x, p).shape == (2, 4)

    def test_positions_with_memory_rejected(self):
        x = Tensor(np.zeros((2, 4)))
        p = ad.AttentionParams(Tensor(np.ones(4)), Tensor(np.zeros(4)), *identity_proj(4), 1)
        with pytest.raises(ValueError, match="positions in self-attention only"):
            ad.attention(x, p, memory=Tensor(np.zeros((3, 4))), positions=x)

    @pytest.mark.parametrize("count", [0, 3, 6, 8])
    def test_proj_of_another_length_rejected_by_name(self, count):
        # the record takes exactly four projection tensors before n_heads;
        # eight is the layout with separate query, key and value projections
        proj = [Tensor(np.eye(4)), Tensor(np.zeros(4))] * (count // 2) + [Tensor(np.zeros(4))] * (count % 2)
        with pytest.raises(TypeError, match=r"AttentionParams\.__init__\(\)"):
            ad.AttentionParams(Tensor(np.ones(4)), Tensor(np.zeros(4)), *proj, 2)

    def test_bad_norm_shapes_rejected(self):
        for gain, bias in [(np.ones(3), np.zeros(4)), (np.ones((4, 4)), np.zeros(4))]:
            with pytest.raises(ad.ShapeError, match="attention affine shapes"):
                ad.AttentionParams(Tensor(gain), Tensor(bias), *identity_proj(4), 1)

    @pytest.mark.parametrize(
        "index,shape", [(0, (4, 8)), (2, (3, 4)), (1, (4,)), (3, (1, 4)), (0, (4, 4))]
    )
    def test_bad_projection_shapes_rejected(self, index, shape):
        proj = identity_proj(4)
        proj[index] = Tensor(np.zeros(shape))
        with pytest.raises(ad.ShapeError, match="weights and"):
            ad.AttentionParams(Tensor(np.ones(4)), Tensor(np.zeros(4)), *proj, 2)

    def test_plain_tuple_rejected_by_the_op(self):
        x = Tensor(np.zeros((2, 4)))
        fields = (Tensor(np.ones(4)), Tensor(np.zeros(4)), *identity_proj(4), 2)
        with pytest.raises(TypeError, match="attention needs an AttentionParams record, got a tuple"):
            ad.attention(x, fields)


class TestAttentionFormula:
    """`ad.attention`'s arithmetic against its one independent reference,
    the unfused chain with `textbook_core`: the same math, so the output
    and every gradient agree to rounding."""

    @staticmethod
    def assert_match(x, norm, proj, n_heads, extra, seed):
        # each entry within 1e-12 relative, where an entry that cancels to
        # near zero is measured against the largest reference entry: the
        # key bias's gradient, for one, is zero in exact arithmetic (the
        # softmax ignores a shift that every key shares), rounding in both
        rng = np.random.default_rng(seed)
        n, d = x.shape
        w, w_extra = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        leaves = [x, *norm, *extra.values(), *proj]
        p = ad.AttentionParams(*norm, *proj, n_heads)
        out, grads = tape_bits(lambda: ad.attention(x, p, **extra), leaves, w, w_extra)
        ref_out, ref_grads = tape_bits(
            lambda: unfused_attention_sublayer(x, p, core=textbook_core, **extra), leaves, w, w_extra,
        )
        largest = max(np.abs(a).max() for a in [ref_out, *ref_grads])
        names = ["out", "x", "gain", "bias", *extra, *PROJ_NAMES]
        for name, a, b in zip(names, [out, *grads], [ref_out, *ref_grads]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * largest, err_msg=name)

    @pytest.mark.parametrize("mode", ["self", "positions", "memory"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_textbook_formula(self, mode, n_heads):
        rng = np.random.default_rng(80 + n_heads)
        n, m, d = 5, 7, 4 * n_heads
        x = Tensor(rng.standard_normal((n, d)))
        extra = {
            "self": {},
            "positions": {"positions": Tensor(rng.standard_normal((n, d)))},
            "memory": {"memory": Tensor(rng.standard_normal((m, d)))},
        }[mode]
        self.assert_match(x, random_norm(rng, d), random_proj(rng, d), n_heads, extra, 90 + n_heads)

    @pytest.mark.parametrize("n_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("shared_query_key", [False, True])
    def test_matches_per_head_reference(self, n_heads, shared_query_key):
        # shared query and key: self-attention; otherwise cross-attention
        # to memory rows
        rng = np.random.default_rng(40 + n_heads)
        for _ in range(5):
            d = n_heads * int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            m = n + int(rng.integers(1, 5))
            x = Tensor(rng.standard_normal((n, d)))
            extra = {} if shared_query_key else {"memory": Tensor(rng.standard_normal((m, d)))}
            norm, proj = random_norm(rng, d), random_proj(rng, d)
            w = rng.standard_normal((n, d))
            p = ad.AttentionParams(*norm, *proj, n_heads)
            leaves = [x, *norm, *extra.values(), *proj]
            out, grads = tape_bits(lambda: ad.attention(x, p, **extra), leaves, w, np.zeros((n, d)))
            ref_out, ref_grads = tape_bits(
                lambda: unfused_attention_sublayer(x, p, core=textbook_core, **extra), leaves, w, np.zeros((n, d)),
            )
            np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
            assert len(grads) == len(ref_grads) == (7 if shared_query_key else 8)
            for a, b in zip(grads, ref_grads):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["offset_row", "single_key", "equal_scores"])
    def test_matches_textbook_formula_at_edge_logits(self, case):
        rng = np.random.default_rng(85)
        logits = rng.standard_normal((3, 5))
        if case == "offset_row":
            logits[1] += 173.25
        elif case == "single_key":
            logits = logits[:, :1]
        else:
            logits[2] = 0.7
        x, norm, proj, memory = logit_inputs(logits)
        self.assert_match(x, norm, proj, 1, {"memory": memory}, 86)


class TestFeedForwardOp:
    """`ad.feed_forward`: a pre-norm residual feed-forward sublayer,
    x + mlp(LN(x)), as one tape op."""

    @staticmethod
    def inputs(rng, n=5, d=4, h=6):
        return [rng_tensor(rng, n, d), *random_norm(rng, d), rng_tensor(rng, d, h),
                rng_tensor(rng, h), rng_tensor(rng, h, d), rng_tensor(rng, d)]

    def test_grad_check_all_inputs(self):
        report = check_row("feed_forward", Sizes(n=5, m=1, k=4, h=6, heads=1, dh=1), np.random.default_rng(70))
        assert len(report.rel_errs) == 7

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_bits_match_unfused_composition(self, seed):
        rng = np.random.default_rng(seed)
        leaves = self.inputs(rng)
        w, w_extra = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        x, p = leaves[0], ad.FeedForwardParams(*leaves[1:])
        fused_out, fused_grads = tape_bits(lambda: ad.feed_forward(x, p), leaves, w, w_extra)
        ref_out, ref_grads = tape_bits(lambda: unfused_feed_forward(x, p), leaves, w, w_extra)
        assert np.array_equal(fused_out, ref_out)
        for name, a, b in zip("x gain bias w1 b1 w2 b2".split(), fused_grads, ref_grads):
            assert np.array_equal(a, b), name

    def test_one_tape_node(self):
        inputs = self.inputs(np.random.default_rng(74))
        inputs[0].requires_grad = True
        with Tape() as tape:
            ad.feed_forward(inputs[0], ad.FeedForwardParams(*inputs[1:]))
        assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["feed_forward"]

    def test_bad_shapes_rejected(self):
        # the record checks the parameters when it is made, the op its input
        x, gain, bias, w1, b1, w2, b2 = self.inputs(np.random.default_rng(75))
        with pytest.raises(ad.ShapeError, match="feed_forward output width 3 != input width 4"):
            ad.FeedForwardParams(gain, bias, w1, b1, Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match="feed_forward needs"):
            ad.FeedForwardParams(gain, bias, w1, Tensor(np.zeros(5)), w2, b2)
        with pytest.raises(ad.ShapeError, match="feed_forward affine shapes"):
            ad.FeedForwardParams(gain, Tensor(np.zeros(5)), w1, b1, w2, b2)
        p = ad.FeedForwardParams(gain, bias, w1, b1, w2, b2)
        with pytest.raises(ad.ShapeError, match=r"feed_forward needs x \[n,4\], got \(5, 3\)"):
            ad.feed_forward(Tensor(np.zeros((5, 3))), p)
        with pytest.raises(TypeError, match="feed_forward needs a FeedForwardParams record, got a tuple"):
            ad.feed_forward(x, (gain, bias, w1, b1, w2, b2))


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_element_row(self):
        # the variance is 1, so the eps of 1e-5 moves each entry by 5e-6
        out = ad.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_d_input_rejected(self):
        # unchecked, reading the width of a 0-d tensor raised a bare IndexError;
        # a 1-d or 3-d input is no block of rows either
        for shape in ((), (4,), (2, 3, 4)):
            with pytest.raises(ad.ShapeError, match=rf"layer_norm needs x \[n,d\], got {re.escape(str(shape))}"):
                ad.layer_norm(Tensor(np.zeros(shape)), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_zero_width_rejected(self):
        with pytest.raises(ad.ShapeError, match="at least one column"):
            ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))

    def test_gradient(self):
        # the row's tolerance is 1e-5
        check_row("layer_norm", Sizes(n=3, m=1, k=6, h=1, heads=1, dh=1), np.random.default_rng(3))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_gradient_closed_form(self):
        x = Tensor(0.0)
        report = grad_check(scalar(ad.sigmoid), [x])
        assert report.passed
        x.reset_grad()
        with Tape() as tape:
            out = weighted_sum(ad.sigmoid(x), 1.0)
        tape.backward(out)
        np.testing.assert_allclose(x.grad, 0.25, atol=1e-12)

    def test_concat_shape(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((5, 3)))
        assert ad.concat([a, b]).shape == (7, 3)

    def test_concat_of_nothing_rejected(self):
        with pytest.raises(ad.ShapeError, match=r"concat needs \[n,k\] row blocks of one width, got shapes \[\]"):
            ad.concat([])

    def test_binary_shape_mismatch(self):
        # add takes one shape: a bias broadcasts inside the op that adds it
        for a, b in (((2, 3), (3, 2)), ((5, 3), (3,))):
            x, y = Tensor(np.zeros(a), requires_grad=True), Tensor(np.zeros(b), requires_grad=True)
            with Tape() as tape, pytest.raises(ad.ShapeError, match=re.escape(f"add needs equal shapes, got {a} and {b}")):
                ad.add(x, y)
            assert tape.nodes == []

    @pytest.mark.parametrize("op", [ad.add, lambda a, b: ad.concat([a, b])], ids=["add", "concat"])
    @pytest.mark.parametrize("dtypes", [("float32", "float64"), ("float64", "float32")])
    def test_mixed_dtypes_rejected(self, op, dtypes):
        # numpy would promote the result to float64, and backward would then
        # hand the float32 leaf a float64 gradient
        a, b = (Tensor(np.zeros((2, 3), dtype=d), requires_grad=True) for d in dtypes)
        name = "add" if op is ad.add else "concat"
        with Tape() as tape, pytest.raises(ValueError, match=f"{name} operands are {dtypes[0]}, {dtypes[1]};"):
            op(a, b)
        assert tape.nodes == []

    def test_concat_rejects_unequal_sizes_off_the_axis(self):
        # numpy raised a bare ValueError that did not name the op; a 1-d or
        # 3-d block is no block of rows
        x = Tensor(np.zeros((2, 3)))
        for other in ((2, 4), (3,), (1, 2, 3)):
            shapes = re.escape(str([(2, 3), other]))
            with pytest.raises(ad.ShapeError, match=rf"concat needs \[n,k\] row blocks of one width, got shapes {shapes}"):
                ad.concat([x, Tensor(np.zeros(other))])
        assert ad.concat([x, Tensor(np.zeros((0, 3)))]).shape == (2, 3)

    @pytest.mark.parametrize("op", [lambda x: scale(x, 2.5)])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.2, 2.0, size=(4, 3)))
        assert grad_check(scalar(op), [x]).passed

    def test_slice_and_gather_gradients(self):
        rng = np.random.default_rng(7)
        x = rng_tensor(rng, 5, 4)
        assert grad_check(lambda x: weighted_sum(slice_axis(x, 1, 1, 3), 1.0), [x]).passed
        # repeated index exercises scatter-add
        w = rng.standard_normal((4, 4))
        assert grad_check(lambda x: weighted_sum(ad.gather_rows(x, [0, 2, 2, 4]), w), [x]).passed

    @pytest.mark.parametrize(
        "idx, message",
        [
            ([-1], r"gather_rows index -1 is outside \[0, 3\)"),
            ([0, 3], r"gather_rows index 3 is outside \[0, 3\)"),
            ([0.7], r"1-d integer row index, got float64 shape \(1,\)"),
            ([True, False], r"1-d integer row index, got bool shape \(2,\)"),
            ([[0, 1]], r"1-d integer row index, got int64 shape \(1, 2\)"),
            (1, r"1-d integer row index, got int64 shape \(\)"),
        ],
        ids=["negative", "past_the_end", "float", "bool", "two_dimensional", "scalar"],
    )
    def test_gather_rows_rejects_a_bad_index(self, idx, message):
        # unchecked, -1 took the last row, 0.7 was truncated to row 0, [[0, 1]]
        # gave a 3-d tensor and 3 raised a bare IndexError
        with pytest.raises(ad.ShapeError, match=message):
            ad.gather_rows(Tensor(np.zeros((3, 2))), idx)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_gather_rows_needs_a_2d_tensor(self, shape):
        with pytest.raises(ad.ShapeError, match=rf"gather_rows is 2-d only, got {re.escape(str(shape))}"):
            ad.gather_rows(Tensor(np.zeros(shape)), [0])

    def test_gather_rows_takes_an_empty_or_unsigned_index(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        assert ad.gather_rows(x, []).shape == (0, 2)
        assert np.array_equal(ad.gather_rows(x, np.array([2, 0], dtype=np.uint8)).data, x.data[[2, 0]])

    def test_concat_gradient_is_each_input_slice_of_g(self):
        rng = np.random.default_rng(17)
        xs = [rng_tensor(rng, 3, 4), rng_tensor(rng, 3, 4), rng_tensor(rng, 3, 4)]
        for t in xs:
            t.requires_grad = True
        w = rng.standard_normal(ad.concat(xs).shape)
        with Tape() as tape:
            loss = weighted_sum(ad.concat(xs), w)
        tape.backward(loss)
        for t, part in zip(xs, np.split(w, 3)):
            assert np.array_equal(t.grad, part)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(x, 1.0)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(square(x), 1.0)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        a = rng_tensor(rng, 3, 4)
        b = rng_tensor(rng, 4, 6)
        c = rng_tensor(rng, 6)

        norm, proj = random_norm(rng, 6), random_proj(rng, 6)

        p = ad.AttentionParams(*norm, *proj, 2)

        def f(a, b, c):
            h = ad.linear(a, b, c)
            return weighted_sum(ad.sigmoid(ad.attention(h, p)), 1.0)

        assert grad_check(f, [a, b, c], tol=1e-4).passed

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = scale(x, 2.0)
        with pytest.raises(ad.GradientError, match="scalar"):
            tape.backward(out)

    def test_detached_loss_rejected(self):
        x = Tensor(np.ones(3))  # no grad
        with Tape() as tape:
            out = weighted_sum(x, 1.0)
        with pytest.raises(ad.GradientError):
            tape.backward(out)

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(x, 1.0)
        tape.backward(loss)
        with pytest.raises(ad.GradientError, match="already"):
            tape.backward(loss)

    @staticmethod
    def one_tape_gradients():
        """(x, w, b) leaves of an identity `linear` at x = [[1, 2]], and the
        gradients of total(sigmoid(linear(x, w, b))) recorded on one tape:
        x's is sigmoid's slope at 1 and 2."""
        def leaves():
            return (Tensor([[1.0, 2.0]], requires_grad=True), Tensor(np.eye(2), requires_grad=True),
                    Tensor(np.zeros(2), requires_grad=True))

        ref = leaves()
        with Tape() as tape:
            loss = total(ad.sigmoid(ad.linear(*ref)))
        tape.backward(loss)
        np.testing.assert_allclose(ref[0].grad, [[0.19661193, 0.10499359]], rtol=1e-7)
        return leaves(), [t.grad for t in ref]

    def test_nested_tape_rejected_and_the_outer_keeps_recording(self):
        # a nested tape used to take sigmoid's node, and the outer backward
        # then left x, w and b without a gradient and raised nothing
        (x, w, b), ref = self.one_tape_gradients()
        with Tape() as outer:
            a = ad.linear(x, w, b)
            with pytest.raises(ad.GradientError, match="already records on a tape; tapes do not nest"):
                with Tape():
                    pytest.fail("a nested tape was entered")
            assert ad.active_tape() is outer
            loss = total(ad.sigmoid(a))
        assert ad.active_tape() is None
        outer.backward(loss)
        for t, g in zip((x, w, b), ref):
            assert np.array_equal(t.grad, g)

    def test_input_of_another_tape_rejected_by_name(self):
        # a tensor another tape recorded used to pass, and this tape's
        # backward stopped at it: `a` got its gradient, x and w none
        (x, w, b), ref = self.one_tape_gradients()
        with Tape():
            a = ad.linear(x, w, b)
        with Tape() as tape:
            message = "op input 0, Tensor(shape=(1, 2), requires_grad), is recorded on another tape"
            with pytest.raises(ad.GradientError, match=re.escape(message)):
                ad.sigmoid(a)
            assert tape.nodes == []
            # leaves and this tape's own tensors pass
            loss = total(ad.sigmoid(ad.linear(x, w, b)))
        tape.backward(loss)
        for t, g in zip((x, w, b), ref):
            assert np.array_equal(t.grad, g)

    def test_backward_frees_graph_without_cyclic_gc(self):
        x = Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = square(x)
                loss = weighted_sum(square(hidden), 1.0)
            tape.backward(loss)
            assert tape.nodes == []
            with pytest.raises(ad.GradientError, match="already"):
                tape.backward(loss)
            hidden_data = weakref.ref(hidden.data)
            del hidden, loss
            assert hidden_data() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(x.grad, 4.0 * np.ones(3))

    def test_backward_frees_each_node_before_earlier_rules_run(self):
        # each rule notes, when it runs, which later rules' saved arrays are dead
        refs, dead_when_pulled = [], []

        def twice_square(t):
            saved = 2.0 * t.data  # held by this op's rule alone
            index = len(refs)
            refs.append(weakref.ref(saved))

            def pull(g):
                dead_when_pulled.append((index, [r() is None for r in refs[index + 1:]]))
                t._accumulate(2.0 * g * saved)

            return ad.custom_op(t.data * saved, (t,), pull)

        x = Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                loss = weighted_sum(twice_square(twice_square(twice_square(x))), 1.0)
            tape.backward(loss)
        finally:
            gc.enable()
        assert dead_when_pulled == [(2, []), (1, [True]), (0, [True, True])]
        np.testing.assert_array_equal(x.grad, np.full(3, 1024.0))

    def test_caller_held_tensors_keep_their_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            mid = square(x)
            out = square(mid)
            loss = weighted_sum(out, 1.0)
        tape.backward(loss)
        assert tape.nodes == []
        assert np.array_equal(out.grad, [1.0, 1.0])
        assert np.array_equal(mid.grad, [2.0, 8.0])
        assert np.array_equal(mid.data, [1.0, 4.0])
        assert np.array_equal(x.grad, [4.0, 32.0])

    def test_reuse_accumulates_sum_of_uses(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal(4), requires_grad=True)

        with Tape() as tape:
            loss = ad.add(weighted_sum(square(x), 1.0), weighted_sum(scale(x, 3.0), 1.0))
        tape.backward(loss)
        both = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = weighted_sum(square(x), 1.0)
        tape.backward(loss)
        first = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = weighted_sum(scale(x, 3.0), 1.0)
        tape.backward(loss)
        second = x.grad.copy()

        np.testing.assert_allclose(both, first + second, atol=1e-12)

    @pytest.mark.parametrize("op", [ad.add, lambda a, b: ad.concat([a, b])], ids=["add", "concat"])
    def test_gradient_storage_never_shared(self, op):
        # both ops hand each input the output gradient or a view of it
        rng = np.random.default_rng(13)
        a, b = (Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            out = op(a, b)
            loss = weighted_sum(out, rng.standard_normal(out.shape))
        tape.backward(loss)
        out_grad, b_grad = out.grad.copy(), b.grad.copy()
        a._accumulate(np.ones((2, 3)))
        assert np.array_equal(b.grad, b_grad)
        assert np.array_equal(out.grad, out_grad)

    def test_gradient_term_of_another_shape_rejected(self):
        # `+=` would broadcast a smaller term over the whole gradient unseen,
        # and a first term of another shape would be stored as the gradient
        # (and a tensor that needs no gradient still rejects one: the check
        # comes before the term is dropped)
        x, frozen = Tensor(np.zeros((2, 3)), requires_grad=True), Tensor(np.zeros((2, 3)))
        for t in (x, frozen):
            for g in (np.ones(()), np.ones(3), np.ones((1, 2, 3))):
                message = f"a float64 gradient term of shape {g.shape} for a float64 tensor of shape (2, 3)"
                with pytest.raises(ad.GradientError, match=re.escape(message)):
                    t._accumulate(g)
        assert x.grad is None
        frozen._accumulate(np.ones((2, 3)))
        assert frozen.grad is None
        x._accumulate(np.ones((2, 3)))
        with pytest.raises(ad.GradientError, match=r"float64 gradient term of shape \(3,\) for a float64 tensor"):
            x._accumulate(np.ones(3))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_gradient_term_of_another_dtype_rejected(self):
        # a float64 first term would be stored as a float32 tensor's
        # gradient, and a later one `+=` would cast down unseen
        # (and a tensor that needs no gradient still rejects one)
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        frozen = Tensor(np.zeros((2, 3), dtype=np.float32))
        message = "a float64 gradient term of shape (2, 3) for a float32 tensor of shape (2, 3)"
        for t in (x, frozen):
            with pytest.raises(ad.GradientError, match=re.escape(message)):
                t._accumulate(np.ones((2, 3)))
        assert x.grad is None
        frozen._accumulate(np.ones((2, 3), dtype=np.float32))
        assert frozen.grad is None
        x._accumulate(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ad.GradientError, match=re.escape(message)):
            x._accumulate(np.ones((2, 3)))
        assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.ones((2, 3)))

    def test_rules_hold_one_saved_tuple_and_are_named_for_their_op(self):
        # a TINY two-frame training forward, the second frame carrying a
        # track block with positions. Each attention and feed_forward rule
        # closes over one cell, its saved tuple; and every rule is defined
        # inside the op that its qualname starts with, the name by which
        # the benchmark's tracer files its backward time
        with Tape() as tape:
            two_frame_clip_loss(TrackingModel(TINY, seed=33), 33)
        kinds = set()
        for _, pull in tape.nodes:
            kind = pull.__qualname__.split(".", 1)[0]
            op = getattr(sys.modules[pull.__module__], kind)
            assert pull.__qualname__ == f"{kind}.<locals>.pull", pull.__qualname__
            assert pull.__code__ in op.__code__.co_consts, pull.__qualname__
            if kind in ("attention", "feed_forward"):
                assert len(pull.__closure__) == 1, (kind, pull.__code__.co_freevars)
            kinds.add(kind)
        assert {"attention", "feed_forward", "gather_rows", "frame_loss", "clip_average_loss"} <= kinds

    def test_input_added_to_itself_gets_twice_the_gradient(self):
        rng = np.random.default_rng(14)
        x, w = Tensor(rng.standard_normal((2, 3)), requires_grad=True), rng.standard_normal((2, 3))
        with Tape() as tape:
            out = ad.add(x, x)
            loss = weighted_sum(out, w)
        tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * w)
        assert np.array_equal(out.grad, w)

    def test_determinism_same_seed_same_bits(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(4), requires_grad=True)
            w_in = Tensor(rng.standard_normal((4, 12)), requires_grad=True)
            b_in = Tensor(rng.standard_normal(12), requires_grad=True)
            with Tape() as tape:
                p = ad.AttentionParams(b, b, w_in, b_in, x, b, 2)
                loss = weighted_sum(ad.attention(ad.linear(x, x, b), p, memory=x), 1.0)
            tape.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestTapePerThread:
    """Each thread records on the innermost tape it entered itself."""

    @staticmethod
    def train_step(seed, barrier):
        """(loss, group gradients) of one step of a TINY model on
        `two_frame_clip_loss`. `barrier` holds the thread inside its tape
        until every party has entered its own and recorded."""
        model = TrackingModel(TINY, seed=seed)
        with Tape() as tape:
            barrier.wait()
            loss = two_frame_clip_loss(model, seed)
            barrier.wait()
        tape.backward(loss)
        return loss.item(), {name: g.grad for name, g in model.parameters().items()}

    def test_threads_train_as_they_do_one_after_the_other(self):
        # with one stack for all threads, a later thread's tape took the
        # others' ops, and the first to leave its tape popped another's:
        # "tapes must unwind in LIFO order"; three threads on two cores,
        # switching often
        seeds = (0, 1, 2)
        alone = [self.train_step(seed, threading.Barrier(1)) for seed in seeds]
        every = threading.Barrier(len(seeds), timeout=30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                threaded = list(pool.map(lambda seed: self.train_step(seed, every), seeds))
        finally:
            sys.setswitchinterval(interval)
        for (loss, grads), (ref_loss, ref_grads) in zip(threaded, alone):
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), name
        assert ad.active_tape() is None


class TestGradCheck:
    def test_linear_function_near_exact(self):
        x = Tensor(np.arange(5.0))
        report = grad_check(lambda x: weighted_sum(scale(x, 4.0), 1.0), [x])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_corrupted_backward_rule_is_caught(self):
        def bad_square(x):
            # wrong factor on purpose
            return ad.custom_op(x.data**2, (x,), lambda g: x._accumulate(g * 3.0 * x.data))

        x = Tensor(np.array([1.0, -2.0]))
        report = grad_check(lambda x: weighted_sum(bad_square(x), 1.0), [x])
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_strided_leaf_is_perturbed_where_f_reads_it(self):
        # the op claims a zero gradient; a transposed leaf views its base array
        def zero_grad_square(x):
            return ad.custom_op(np.sum(x.data**2), (x,), lambda g: x._accumulate(np.zeros_like(x.data)))

        a = np.random.default_rng(15).uniform(0.5, 2.0, size=(3, 4))
        before = a.copy()
        for leaf in (Tensor(a.T), Tensor(np.ascontiguousarray(a.T))):
            report = grad_check(zero_grad_square, [leaf])
            assert not report.passed and report.max_rel_err > 0.5, leaf.data.flags.c_contiguous
        np.testing.assert_array_equal(a, before)

    def test_eps_bounds_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: weighted_sum(x, 1.0), [Tensor([1.0])], eps=1e-8)

    def test_non_scalar_function_rejected(self):
        with pytest.raises(ad.GradientError, match=r"grad_check needs a scalar function, got \(2,\)"):
            grad_check(lambda x: scale(x, 2.0), [Tensor([1.0, 2.0])])

    def test_float32_leaf_rejected_by_name(self):
        # float32 rounding of f is far larger than a central difference at eps
        x, y = Tensor([1.0, 2.0]), Tensor(np.array([1.0, 2.0], dtype=np.float32))
        with pytest.raises(TypeError, match=r"grad_check input 1 Tensor\(shape=\(2,\)\) is float32"):
            grad_check(lambda x, y: weighted_sum(ad.add(x, y), 1.0), [x, y])
        assert not y.requires_grad


def assert_no_rule_without_a_tape(call, monkeypatch):
    """With no tape, call()'s inputs that require grad give an output that
    does not, and its op returns before it defines its rule or reaches
    custom_op."""
    with Tape():
        taped = call()
    assert taped.requires_grad

    def no_node(*args):
        raise AssertionError("a tape-free call built a tape node")

    monkeypatch.setattr(ad, "custom_op", no_node)
    monkeypatch.setattr(ad.Tape, "record", no_node)
    out = call()
    assert not out.requires_grad and out._tape is None
    assert np.array_equal(out.data, taped.data)


# the names of `ad.__all__` that are no op: the records, the errors, the
# tape, the leaves and the one way onto the tape
NOT_OPS = {"AttentionParams", "FeedForwardParams", "GradientError", "ShapeError", "Tape", "Tensor",
           "custom_op", "leaf_group", "reset_grads", "view_leaf"}


def test_op_table_lists_every_op():
    assert NOT_OPS <= set(ad.__all__)
    assert set(ad.__all__) - NOT_OPS - {name.split("-")[0] for name in OPS} == set()


@pytest.mark.parametrize("name", [name for name, row in OPS.items() if row.tape_free])
def test_tape_free_call_builds_no_backward_rule(name, monkeypatch):
    row, s = OPS[name], Sizes(n=3, m=5, k=4, h=5, heads=2, dh=2)
    rng = np.random.default_rng(57)
    leaves = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in row.shapes(s)]
    assert_no_rule_without_a_tape(lambda: row.call(s, *leaves), monkeypatch)


class TestTensorDtype:
    def test_tensor_keeps_float32_and_float64_and_makes_the_rest_float64(self):
        for dtype in (np.float32, np.float64):
            a = np.arange(3, dtype=dtype)
            assert Tensor(a).data is a
            assert Tensor(dtype(1.5)).data.dtype == dtype
        for data in (1.5, 3, [1, 2], [[0.5]], np.arange(3), np.ones(2, np.float16), True):
            assert Tensor(data).data.dtype == np.float64, data

    @pytest.mark.parametrize(
        "data, dtype",
        [(np.array([1.0, None]), "object"), (np.array(["1.5"]), "<U3"), (np.array([1 + 2j]), "complex128")],
        ids=["none", "string", "complex"],
    )
    def test_data_that_is_not_real_rejected(self, data, dtype):
        # astype would read None as NaN, parse "1.5" and drop the imaginary part
        with pytest.raises(TypeError, match=rf"^a Tensor holds real numbers, got dtype {dtype}$"):
            Tensor(data)


@pytest.mark.parametrize("shape", [(2,), (1, 3), (0,)])
def test_item_needs_one_element(shape):
    with pytest.raises(ad.ShapeError, match=rf"item\(\) needs one element, shape is {re.escape(str(shape))}"):
        Tensor(np.zeros(shape)).item()
    assert Tensor([[2.5]]).item() == 2.5


def test_randomized_gradient_sweep():
    """Every row of the op table at random sizes, against central differences
    of a random weighting of its output, to the row's tolerance: attention
    at 1, 2 and 4 heads in turn, and memory keys never as many as queries."""
    rng = np.random.default_rng(12)
    for trial in range(25):
        n, m = (int(v) for v in rng.choice(np.arange(1, 6), size=2, replace=False))
        s = Sizes(n, m, k=int(rng.integers(2, 6)), h=int(rng.integers(1, 6)),
                  heads=(1, 2, 4)[trial % 3], dh=int(rng.integers(1, 3)))
        for name in OPS:
            check_row(name, s, rng)
