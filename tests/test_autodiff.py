import gc
import warnings
import weakref

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.boxes import box_l1_rows
from querytrack.losses import focal_loss


def scalar(f):
    """Wrap a tensor function so grad_check sees sum(f(...))."""
    return lambda *xs: weighted_sum(f(*xs), 1.0)


def rng_tensor(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def weighted_sum(x, w):
    """sum(x * w) for a constant array (or number) w, as one test-local tape op."""
    w = np.asarray(w, dtype=np.float64)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * w)

    return ad.custom_op(np.sum(x.data * w), (x,), pull)


def identity_proj(d):
    """Attention projections that leave their rows unchanged."""
    eye, zero = Tensor(np.eye(d)), Tensor(np.zeros(d))
    return [eye, zero] * 4


def random_proj(rng, d):
    """(wq, bq, wk, bk, wv, bv, wo, bo): [d,d] weights and [d] biases."""
    return [Tensor(rng.standard_normal((d, d) if i % 2 == 0 else d) / np.sqrt(d)) for i in range(8)]


def random_norm(rng, d):
    """A layer norm's gain and bias, [d] each, away from the identity."""
    return [Tensor(1.0 + 0.3 * rng.standard_normal(d)), Tensor(0.3 * rng.standard_normal(d))]


def square(x):
    """x**2 elementwise, as one test-local tape op."""

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * 2.0 * x.data)

    return ad.custom_op(x.data**2, (x,), pull)


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
        rng = np.random.default_rng(0)
        a = rng_tensor(rng, 3, 4)
        b = rng_tensor(rng, 4, 2)
        c = rng_tensor(rng, 2)
        w = rng.standard_normal((3, 2))
        report = ad.grad_check(lambda a, b, c: weighted_sum(ad.linear(a, b, c), w), [a, b, c])
        assert report.passed, report.max_rel_err
        assert report.max_rel_err < 1e-6


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
        report = ad.grad_check(lambda *ts: weighted_sum(ad.mlp(*ts), w), [x, w1, b1, w2, b2])
        assert report.passed, report.max_rel_err
        # nothing flows through the dead unit
        assert w1.grad[:, 1].tolist() == [0.0] * 3 and b1.grad[1] == 0.0
        assert w2.grad[1].tolist() == [0.0] * 2

    def test_bad_shapes_rejected(self):
        x, w1, b1, w2, b2 = self.inputs(np.random.default_rng(32))
        with pytest.raises(ad.ShapeError, match=r"mlp needs .*\(4, 2\) and \(3,\)"):
            ad.mlp(x, w1, b1, w2, Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError):
            ad.mlp(x, w1, b1, Tensor(np.zeros((3, 2))), b2)
        with pytest.raises(ad.ShapeError):
            ad.mlp(Tensor(np.zeros((5, 4))), w1, b1, w2, b2)


def attention_weights(logits):
    """The row softmax inside `ad.attention`, read out for an [n,m] logit table.

    Cross-attention in one head of width d = 2n + m, unit norm and identity
    projections. Row i of x is e_2i - e_(2i+1): its mean is exactly 0, so
    its layer norm is the row times a factor r that every row shares. Memory
    row j holds logit (i, j) · sqrt(d) / r at column 2i, undoing r and the
    op's 1/sqrt(d), and a 1 at column 2n + j. Each query then sees the
    logits, each value is the one-hot 2n + j, and x is 0 in those columns,
    so output column 2n + j of row i is the weight of key j for query i.
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
    out = ad.attention(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d)), identity_proj(d), 1,
                       memory=Tensor(memory))
    return out.data[:, 2 * n :]


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


def unfused_attention(q, k, v, proj, n_heads):
    """The attention block as four `ad.linear` ops around the batched-head core.

    The core is a test-local op holding the formula the fused op replaced,
    so this chain is the bit-for-bit reference for `ad.attention`.
    """
    wq, bq, wk, bk, wv, bv, wo, bo = proj
    qp, kp, vp = ad.linear(q, wq, bq), ad.linear(k, wk, bk), ad.linear(v, wv, bv)
    d = qp.shape[1]
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x):
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(qp.data), split(kp.data), split(vp.data)
    z = (qh @ kh.transpose(0, 2, 1)) * c
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def pull(g):
        gh = split(g)
        if vp.requires_grad:
            vp._accumulate(merge(s.transpose(0, 2, 1) @ gh))
        if qp.requires_grad or kp.requires_grad:
            ds = gh @ vh.transpose(0, 2, 1)
            dz = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * c
            if qp.requires_grad:
                qp._accumulate(merge(dz @ kh))
            if kp.requires_grad:
                kp._accumulate(merge(dz.transpose(0, 2, 1) @ qh))

    return ad.linear(ad.custom_op(merge(s @ vh), (qp, kp, vp), pull), wo, bo)


def unfused_attention_sublayer(x, gain, bias, proj, n_heads, memory=None, positions=None):
    """`layer_norm`, the query/key/value choice, `unfused_attention` and the
    residual `add`: the chain `ad.attention` replaced, op for op."""
    xn = ad.layer_norm(x, gain, bias)
    if memory is not None:
        return ad.add(x, unfused_attention(xn, memory, memory, proj, n_heads))
    qk = xn if positions is None else ad.add(xn, positions)
    return ad.add(x, unfused_attention(qk, qk, xn, proj, n_heads))


def unfused_feed_forward(x, gain, bias, w1, b1, w2, b2):
    """`layer_norm`, `mlp` and the residual `add`: the chain `ad.feed_forward` replaced."""
    return ad.add(x, ad.mlp(ad.layer_norm(x, gain, bias), w1, b1, w2, b2))


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
        return weighted_sum(ad.attention(x, gain, bias, proj, n_heads, **kw), w.data)

    @pytest.mark.parametrize("n,m,d,n_heads", [(3, 5, 4, 1), (2, 4, 6, 2), (4, 3, 8, 4)])
    def test_grad_check(self, n, m, d, n_heads):
        # cross-attention: x attends to m memory rows
        rng = np.random.default_rng(n * 100 + m * 10 + n_heads)
        x, memory, w = rng_tensor(rng, n, d), rng_tensor(rng, m, d), rng_tensor(rng, n, d)
        report = ad.grad_check(
            lambda x, gain, bias, memory, *proj: self.weighted(
                x, gain, bias, proj, n_heads, w, memory=memory
            ),
            [x, *random_norm(rng, d), memory, *random_proj(rng, d)],
        )
        assert report.passed, report.max_rel_err
        assert len(report.rel_errs) == 12

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_grad_check_shared_query_key(self, n_heads):
        # self-attention with positions, as in the temporal aggregation layer:
        # query and key are LN(x) + positions, the value is LN(x)
        rng = np.random.default_rng(20 + n_heads)
        x, positions, w = rng_tensor(rng, 4, 6), rng_tensor(rng, 4, 6), rng_tensor(rng, 4, 6)
        report = ad.grad_check(
            lambda x, gain, bias, positions, *proj: self.weighted(
                x, gain, bias, proj, n_heads, w, positions=positions
            ),
            [x, *random_norm(rng, 6), positions, *random_proj(rng, 6)],
        )
        assert report.passed, report.max_rel_err
        assert len(report.rel_errs) == 12

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_grad_check_shared_query_key_value(self, n_heads):
        # self-attention, as in the encoder layers and decoder self-attention
        rng = np.random.default_rng(30 + n_heads)
        x, w = rng_tensor(rng, 4, 6), rng_tensor(rng, 4, 6)
        report = ad.grad_check(
            lambda x, gain, bias, *proj: self.weighted(x, gain, bias, proj, n_heads, w),
            [x, *random_norm(rng, 6), *random_proj(rng, 6)],
        )
        assert report.passed, report.max_rel_err
        assert len(report.rel_errs) == 11

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

        def run(op):
            return tape_bits(lambda: op(x, *norm, proj, n_heads, **extra), leaves, w, w_extra)

        fused_out, fused_grads = run(ad.attention)
        ref_out, ref_grads = run(unfused_attention_sublayer)
        assert np.array_equal(fused_out, ref_out)
        names = ["x", "gain", "bias", *extra, *"wq bq wk bk wv bv wo bo".split()]
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

        def run(attention, feed_forward):
            def layer():
                y = attention(x, *norms[0], projs[0], n_heads)
                y = attention(y, *norms[1], projs[1], n_heads, memory=memory)
                return feed_forward(y, *norms[2], *net)

            return tape_bits(layer, leaves, w, w_extra)

        fused_out, fused_grads = run(ad.attention, ad.feed_forward)
        ref_out, ref_grads = run(unfused_attention_sublayer, unfused_feed_forward)
        assert np.array_equal(fused_out, ref_out)
        for i, (a, b) in enumerate(zip(fused_grads, ref_grads)):
            assert np.array_equal(a, b), i

    def test_one_tape_node(self):
        # the layer norm, the projections and the residual add are part of
        # the one node, in each of the three forms
        rng = np.random.default_rng(55)
        x, memory = Tensor(rng.standard_normal((3, 4)), requires_grad=True), rng_tensor(rng, 5, 4)
        positions = rng_tensor(rng, 3, 4)
        with Tape() as tape:
            ad.attention(x, *random_norm(rng, 4), random_proj(rng, 4), 2)
            ad.attention(x, *random_norm(rng, 4), random_proj(rng, 4), 2, memory=memory)
            ad.attention(x, *random_norm(rng, 4), random_proj(rng, 4), 2, positions=positions)
        assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["attention"] * 3

    @pytest.mark.parametrize(
        "x_shape,memory_shape,positions_shape,n_heads",
        [
            ((2, 4), None, None, 3),
            ((2, 4), None, (3, 4), 1),
            ((2, 4), (3, 2), None, 1),
            ((2, 4), (0, 4), None, 1),
            ((4,), None, None, 1),
        ],
        ids=["indivisible_width", "positions_rows", "memory_width", "no_key_rows", "not_2d"],
    )
    def test_bad_shapes_rejected(self, x_shape, memory_shape, positions_shape, n_heads):
        x = Tensor(np.zeros(x_shape))
        kw = {
            name: Tensor(np.zeros(shape))
            for name, shape in (("memory", memory_shape), ("positions", positions_shape))
            if shape is not None
        }
        norm = [Tensor(np.ones(x_shape[-1])), Tensor(np.zeros(x_shape[-1]))]
        with pytest.raises(ad.ShapeError):
            ad.attention(x, *norm, identity_proj(x_shape[-1]), n_heads, **kw)

    def test_positions_with_memory_rejected(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="positions in self-attention only"):
            ad.attention(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), identity_proj(4), 1,
                         memory=Tensor(np.zeros((3, 4))), positions=x)

    def test_bad_norm_shapes_rejected(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ad.ShapeError, match="attention affine shapes"):
            ad.attention(x, Tensor(np.ones(3)), Tensor(np.zeros(4)), identity_proj(4), 1)

    @pytest.mark.parametrize(
        "index,shape", [(4, (4, 3)), (6, (3, 4)), (1, (3,)), (7, (1, 4))]
    )
    def test_bad_projection_shapes_rejected(self, index, shape):
        x = Tensor(np.zeros((2, 4)))
        proj = identity_proj(4)
        proj[index] = Tensor(np.zeros(shape))
        with pytest.raises(ad.ShapeError, match="weights and"):
            ad.attention(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), proj, 2)


class TestFeedForwardOp:
    """`ad.feed_forward`: a pre-norm residual feed-forward sublayer,
    x + mlp(LN(x)), as one tape op."""

    @staticmethod
    def inputs(rng, n=5, d=4, h=6):
        return [rng_tensor(rng, n, d), *random_norm(rng, d), rng_tensor(rng, d, h),
                rng_tensor(rng, h), rng_tensor(rng, h, d), rng_tensor(rng, d)]

    def test_grad_check_all_inputs(self):
        rng = np.random.default_rng(70)
        inputs = self.inputs(rng)
        w = rng.standard_normal((5, 4))
        report = ad.grad_check(lambda *ts: weighted_sum(ad.feed_forward(*ts), w), inputs)
        assert report.passed, report.max_rel_err
        assert len(report.rel_errs) == 7

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_bits_match_unfused_composition(self, seed):
        rng = np.random.default_rng(seed)
        leaves = self.inputs(rng)
        w, w_extra = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        fused_out, fused_grads = tape_bits(lambda: ad.feed_forward(*leaves), leaves, w, w_extra)
        ref_out, ref_grads = tape_bits(lambda: unfused_feed_forward(*leaves), leaves, w, w_extra)
        assert np.array_equal(fused_out, ref_out)
        for name, a, b in zip("x gain bias w1 b1 w2 b2".split(), fused_grads, ref_grads):
            assert np.array_equal(a, b), name

    def test_one_tape_node(self):
        inputs = self.inputs(np.random.default_rng(74))
        inputs[0].requires_grad = True
        with Tape() as tape:
            ad.feed_forward(*inputs)
        assert [pull.__qualname__.split(".")[0] for _, pull in tape.nodes] == ["feed_forward"]

    def test_bad_shapes_rejected(self):
        x, gain, bias, w1, b1, w2, b2 = self.inputs(np.random.default_rng(75))
        with pytest.raises(ad.ShapeError, match="feed_forward output width 3 != input width 4"):
            ad.feed_forward(x, gain, bias, w1, b1, Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match="feed_forward needs"):
            ad.feed_forward(x, gain, bias, w1, Tensor(np.zeros(5)), w2, b2)
        with pytest.raises(ad.ShapeError, match="feed_forward affine shapes"):
            ad.feed_forward(x, gain, Tensor(np.zeros(5)), w1, b1, w2, b2)


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_element_row(self):
        out = ad.layer_norm(
            Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rng_tensor(rng, 3, 6)
        gain = Tensor(rng.standard_normal(6))
        bias = Tensor(rng.standard_normal(6))

        w = rng.standard_normal((3, 6))

        def f(x, gain, bias):
            return weighted_sum(ad.layer_norm(x, gain, bias), w)

        report = ad.grad_check(f, [x, gain, bias], tol=1e-5)
        assert report.passed, report.max_rel_err


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_gradient_closed_form(self):
        x = Tensor(0.0)
        report = ad.grad_check(scalar(ad.sigmoid), [x])
        assert report.passed
        x.reset_grad()
        with Tape() as tape:
            out = weighted_sum(ad.sigmoid(x), 1.0)
        tape.backward(out)
        np.testing.assert_allclose(x.grad, 0.25, atol=1e-12)

    def test_sigmoid_saturates_without_overflow_warning(self):
        x = Tensor([-800.0, 800.0], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = ad.sigmoid(x)
                loss = weighted_sum(out, 1.0)
            tape.backward(loss)
        assert out.data.tolist() == [0.0, 1.0]
        assert np.isfinite(x.grad).all()

    def test_concat_shape(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 5)))
        assert ad.concat([a, b], axis=1).shape == (2, 8)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(4)
        x = rng_tensor(rng, 5, 3)
        b = rng_tensor(rng, 3)
        report = ad.grad_check(scalar(ad.add), [x, b])
        assert report.passed

    @pytest.mark.parametrize("op", [lambda x: ad.scale(x, 2.5)])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.2, 2.0, size=(4, 3)))
        assert ad.grad_check(scalar(op), [x]).passed

    def test_slice_and_gather_gradients(self):
        rng = np.random.default_rng(7)
        x = rng_tensor(rng, 5, 4)
        assert ad.grad_check(lambda x: weighted_sum(ad.slice_axis(x, 1, 1, 3), 1.0), [x]).passed
        # repeated index exercises scatter-add
        w = rng.standard_normal((4, 4))
        assert ad.grad_check(lambda x: weighted_sum(ad.gather_rows(x, [0, 2, 2, 4]), w), [x]).passed


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

        def f(a, b, c):
            h = ad.linear(a, b, c)
            return weighted_sum(ad.sigmoid(ad.attention(h, *norm, proj, 2)), 1.0)

        assert ad.grad_check(f, [a, b, c], tol=1e-4).passed

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.scale(x, 2.0)
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

    def test_reuse_accumulates_sum_of_uses(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal(4), requires_grad=True)

        with Tape() as tape:
            loss = ad.add(weighted_sum(square(x), 1.0), weighted_sum(ad.scale(x, 3.0), 1.0))
        tape.backward(loss)
        both = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = weighted_sum(square(x), 1.0)
        tape.backward(loss)
        first = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = weighted_sum(ad.scale(x, 3.0), 1.0)
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
            proj = [x, b] * 4
            with Tape() as tape:
                loss = weighted_sum(ad.attention(ad.linear(x, x, b), b, b, proj, 2, memory=x), 1.0)
            tape.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestGradCheck:
    def test_linear_function_near_exact(self):
        x = Tensor(np.arange(5.0))
        report = ad.grad_check(lambda x: weighted_sum(ad.scale(x, 4.0), 1.0), [x])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_corrupted_backward_rule_is_caught(self):
        def bad_square(x):
            def pull(g):
                if x.requires_grad:
                    x._accumulate(g * 3.0 * x.data)  # wrong factor on purpose
            return ad.custom_op(x.data**2, (x,), pull)

        x = Tensor(np.array([1.0, -2.0]))
        report = ad.grad_check(lambda x: weighted_sum(bad_square(x), 1.0), [x])
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_strided_leaf_is_perturbed_where_f_reads_it(self):
        # the op claims a zero gradient; a transposed leaf views its base array
        def zero_grad_square(x):
            def pull(g):
                if x.requires_grad:
                    x._accumulate(np.zeros_like(x.data))
            return ad.custom_op(np.sum(x.data**2), (x,), pull)

        a = np.random.default_rng(15).uniform(0.5, 2.0, size=(3, 4))
        before = a.copy()
        for leaf in (Tensor(a.T), Tensor(np.ascontiguousarray(a.T))):
            report = ad.grad_check(zero_grad_square, [leaf])
            assert not report.passed and report.max_rel_err > 0.5, leaf.data.flags.c_contiguous
        np.testing.assert_array_equal(a, before)

    def test_eps_bounds_enforced(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda x: weighted_sum(x, 1.0), [Tensor([1.0])], eps=1e-8)


def test_randomized_gradient_sweep():
    """Every differentiable op, random shapes and seeds."""
    rng = np.random.default_rng(12)
    cases = 0
    for trial in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        a = Tensor(rng.standard_normal((n, m)))
        b = Tensor(rng.standard_normal((n, m)))
        c = Tensor(rng.standard_normal((m, k)))
        bias = Tensor(rng.standard_normal(k))
        w2 = Tensor(rng.standard_normal((k, m)))
        b2 = Tensor(rng.standard_normal(m))
        pred, target = Tensor(rng.standard_normal((n, 4))), Tensor(rng.standard_normal((n, 4)))
        targets = (rng.random((n, m)) < 0.3).astype(float)
        proj = random_proj(rng, m)
        gain, shift = Tensor(rng.standard_normal(m)), Tensor(rng.standard_normal(m))
        for f, args in [
            (scalar(ad.add), [a, b]),
            (scalar(ad.linear), [a, c, bias]),
            (scalar(ad.mlp), [a, c, bias, w2, b2]),
            (scalar(box_l1_rows), [pred, target]),
            (scalar(ad.sigmoid), [a]),
            (lambda x: focal_loss(x, targets), [a]),
            (lambda x, g, s, mem, *proj: weighted_sum(ad.attention(x, g, s, proj, 1, memory=mem), 1.0),
             [a, gain, shift, b, *proj]),
            (lambda x, g, s, pos, *proj: weighted_sum(ad.attention(x, g, s, proj, 1, positions=pos), 1.0),
             [a, gain, shift, b, *proj]),
            (scalar(ad.feed_forward), [a, gain, shift, c, bias, w2, b2]),
            (lambda x: weighted_sum(ad.concat([x, x], axis=0), 1.0), [a]),
        ]:
            report = ad.grad_check(f, args)
            assert report.passed, (trial, f, report.max_rel_err)
            cases += 1
    assert cases >= 100
