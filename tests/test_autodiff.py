import gc
import warnings
import weakref

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor


def scalar(f):
    """Wrap a tensor function so grad_check sees sum(f(...))."""
    return lambda *xs: f(*xs).sum()


def rng_tensor(rng, *shape):
    return Tensor(rng.standard_normal(shape))


class TestMatmul:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ad.matmul(eye, x)
        np.testing.assert_allclose(out.data, x.data)

    def test_column_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng_tensor(rng, 3, 4)
        b = rng_tensor(rng, 4, 2)
        report = ad.grad_check(scalar(ad.matmul), [a, b])
        assert report.passed, report.max_rel_err
        assert report.max_rel_err < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = ad.softmax(Tensor([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5))
        a = ad.softmax(Tensor(x), axis=-1).data
        b = ad.softmax(Tensor(x + 173.25), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = Tensor(rng.standard_normal((3, 7)) * 10)
            s = ad.softmax(x, axis=-1).data
            assert np.all(s >= 0) and np.all(s <= 1)
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)


class TestAttentionOp:
    """`ad.attention`: batched-head softmax(Q Kᵀ / sqrt(dh)) V as one tape op."""

    @staticmethod
    def weighted(q, k, v, n_heads, w):
        return ad.mul(ad.attention(q, k, v, n_heads), w).sum()

    @pytest.mark.parametrize("n,m,d,n_heads", [(3, 5, 4, 1), (2, 4, 6, 2), (4, 3, 8, 4)])
    def test_grad_check(self, n, m, d, n_heads):
        rng = np.random.default_rng(n * 100 + m * 10 + n_heads)
        q, k, v = rng_tensor(rng, n, d), rng_tensor(rng, m, d), rng_tensor(rng, m, d)
        w = rng_tensor(rng, n, d)
        report = ad.grad_check(lambda q, k, v: self.weighted(q, k, v, n_heads, w), [q, k, v])
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_grad_check_shared_query_key(self, n_heads):
        # q is k: both gradient terms accumulate into one tensor
        rng = np.random.default_rng(20 + n_heads)
        x, v, w = rng_tensor(rng, 4, 6), rng_tensor(rng, 4, 6), rng_tensor(rng, 4, 6)
        report = ad.grad_check(lambda x, v: self.weighted(x, x, v, n_heads, w), [x, v])
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize(
        "q_shape,k_shape,v_shape,n_heads",
        [
            ((2, 4), (3, 4), (3, 4), 3),  # width not divisible by heads
            ((2, 4), (3, 4), (2, 4), 1),  # key and value rows differ
            ((2, 4), (3, 2), (3, 2), 1),  # key width differs
            ((2, 4), (0, 4), (0, 4), 1),  # no key rows
            ((4,), (3, 4), (3, 4), 1),  # not 2-d
        ],
    )
    def test_bad_shapes_rejected(self, q_shape, k_shape, v_shape, n_heads):
        q, k, v = Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape))
        with pytest.raises(ad.ShapeError):
            ad.attention(q, k, v, n_heads)


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

        def f(x, gain, bias):
            return ad.mul(ad.layer_norm(x, gain, bias), x).sum()

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
            out = ad.sigmoid(x).sum()
        tape.backward(out)
        np.testing.assert_allclose(x.grad, 0.25, atol=1e-12)

    def test_sigmoid_saturates_without_overflow_warning(self):
        x = Tensor([-800.0, 800.0], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = ad.sigmoid(x)
                loss = out.sum()
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

    @pytest.mark.parametrize(
        "op", [ad.relu, ad.gelu, ad.absolute, lambda x: ad.pow_scalar(x, 2.5)]
    )
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(5)
        # keep away from the relu/abs kink and in pow's positive domain
        x = Tensor(rng.uniform(0.2, 2.0, size=(4, 3)))
        assert ad.grad_check(scalar(op), [x]).passed

    def test_log_clamps_small_inputs(self):
        out = ad.log(Tensor([0.0, 1.0]))
        np.testing.assert_allclose(out.data[0], np.log(ad.EPS_GUARD))
        assert out.data[1] == 0.0

    def test_divide_by_tensor_rejected(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a / 4).data, [0.25, 0.5])
        with pytest.raises(TypeError, match="divides only by a number, got Tensor"):
            a / Tensor([1.0, 1.0])

    def test_slice_and_gather_gradients(self):
        rng = np.random.default_rng(7)
        x = rng_tensor(rng, 5, 4)
        assert ad.grad_check(lambda x: ad.slice_axis(x, 1, 1, 3).sum(), [x]).passed
        # repeated index exercises scatter-add
        assert ad.grad_check(
            lambda x: ad.mul(ad.gather_rows(x, [0, 2, 2]), ad.gather_rows(x, [1, 3, 4])).sum(),
            [x],
        ).passed

    def test_extract_patches_roundtrip_gradient(self):
        rng = np.random.default_rng(8)
        img = Tensor(rng.standard_normal((6, 6, 2)))
        out = ad.extract_patches(img, 3)
        assert out.shape == (4, 18)
        assert ad.grad_check(
            lambda im: ad.mul(ad.extract_patches(im, 3), ad.extract_patches(im, 3)).sum(),
            [img],
        ).passed


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.mul(x, x).sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        a = rng_tensor(rng, 3, 4)
        b = rng_tensor(rng, 4, 3)

        def f(a, b):
            return ad.log(ad.softmax(ad.matmul(a, b), axis=-1)).sum()

        assert ad.grad_check(f, [a, b], tol=1e-4).passed

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.scale(x, 2.0)
        with pytest.raises(ad.GradientError, match="scalar"):
            tape.backward(out)

    def test_detached_loss_rejected(self):
        x = Tensor(np.ones(3))  # no grad
        with Tape() as tape:
            out = x.sum()
        with pytest.raises(ad.GradientError):
            out.backward()

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        with pytest.raises(ad.GradientError, match="already"):
            tape.backward(loss)

    def test_backward_frees_graph_without_cyclic_gc(self):
        x = Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = ad.mul(x, x)
                loss = ad.mul(hidden, hidden).sum()
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
            loss = ad.add(ad.mul(x, x).sum(), ad.scale(x, 3.0).sum())
        tape.backward(loss)
        both = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = ad.mul(x, x).sum()
        tape.backward(loss)
        first = x.grad.copy()

        x.reset_grad()
        with Tape() as tape:
            loss = ad.scale(x, 3.0).sum()
        tape.backward(loss)
        second = x.grad.copy()

        np.testing.assert_allclose(both, first + second, atol=1e-12)

    def test_determinism_same_seed_same_bits(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            with Tape() as tape:
                loss = ad.log(ad.softmax(ad.matmul(x, x), axis=-1)).sum()
            tape.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestGradCheck:
    def test_linear_function_near_exact(self):
        x = Tensor(np.arange(5.0))
        report = ad.grad_check(lambda x: ad.scale(x, 4.0).sum(), [x])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_corrupted_backward_rule_is_caught(self):
        def bad_square(x):
            def pull(g):
                if x.requires_grad:
                    x._accumulate(g * 3.0 * x.data)  # wrong factor on purpose
            return ad.custom_op(x.data**2, (x,), pull)

        x = Tensor(np.array([1.0, -2.0]))
        report = ad.grad_check(lambda x: bad_square(x).sum(), [x])
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_eps_bounds_enforced(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda x: x.sum(), [Tensor([1.0])], eps=1e-8)


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
        pos = Tensor(rng.uniform(0.1, 2.0, size=(n, m)))
        for f, args in [
            (scalar(ad.add), [a, b]),
            (scalar(ad.mul), [a, b]),
            (scalar(ad.sub), [a, b]),
            (scalar(ad.matmul), [a, c]),
            (scalar(ad.sigmoid), [a]),
            (lambda x: ad.softmax(x, axis=-1).sum(), [a]),
            (scalar(ad.log), [pos]),
            (scalar(ad.transpose), [a]),
            (lambda x: ad.concat([x, x], axis=0).sum(), [a]),
        ]:
            report = ad.grad_check(f, args)
            assert report.passed, (trial, f, report.max_rel_err)
            cases += 1
    assert cases >= 100
