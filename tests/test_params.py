"""The model's parameters live in one vector θ, handed out as module groups.

`TrackingModel.parameters()` returns one group leaf per module, each a
contiguous slice of θ whose views are the named parameters. These tests
pin the layout, the optimizer's equivalence over groups and over names,
gradient resets, object lifetime and the unchanged checkpoint format.
"""

import dataclasses
import gc
import struct
import weakref

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.model import PATCH_SIZE, ModelConfig, TrackingModel, load_checkpoint, save_checkpoint

import clips
import drivers
from tiny import TINY


class TestLayout:
    def test_default_model_has_eleven_module_groups(self):
        groups = TrackingModel(ModelConfig()).parameters()
        assert list(groups) == [
            "decoder.0", "decoder.1", "decoder.2", "decoder.norm_out", "detect_queries",
            "encoder.0", "encoder.1", "head.box", "head.class", "patch_embed", "temporal",
        ]
        assert max(g.data.size for g in groups.values()) == 50_240

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_groups_tile_theta_in_sorted_name_order(self, dtype):
        model = TrackingModel(ModelConfig(dtype=dtype), seed=4)
        theta, groups = model.theta, list(model.parameters().values())
        assert list(model.params) == sorted(model.params)
        assert theta.dtype == dtype and theta.ndim == 1
        # the groups, and the named views inside them, tile θ with no gap or overlap
        offset = 0
        for g in groups:
            assert g.data.base is theta and g.data.ndim == 1
            assert g.data.__array_interface__["data"][0] == (
                theta.__array_interface__["data"][0] + offset * theta.itemsize
            )
            offset += g.data.size
        assert offset == theta.size
        offset = 0
        for name, p in model.params.items():
            assert p.data.base is theta, name
            assert p.data.__array_interface__["data"][0] == (
                theta.__array_interface__["data"][0] + offset * theta.itemsize
            ), name
            owners = [g for g in groups if np.shares_memory(p.data, g.data)]
            assert len(owners) == 1, name
            offset += p.data.size
        assert offset == theta.size

    def test_view_writes_reach_theta_and_the_layer_structs(self):
        model = TrackingModel(TINY, seed=2)
        model.parameters()["temporal"].data[:] = 0.5
        assert (model.temporal[0].w_in.data == 0.5).all()  # the temporal attention's w_in
        assert (model.params["temporal.norm_ffn.bias"].data == 0.5).all()


def separate_qkv_draws(cfg, seed):
    """Initial values by name of the layout with separate `q`, `k` and `v`
    projections in every attention, drawn in its declaration order:
    Xavier-uniform weights, constant biases and normal detect queries."""
    rng, d, values = np.random.default_rng(seed), cfg.d_model, {}

    def linear(name, fan_in, fan_out, bias=0.0):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values[f"{name}.w"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        values[f"{name}.b"] = np.full(fan_out, bias)

    def layer(name, *attentions):
        for attn in attentions:
            for proj in ("q", "k", "v", "out"):
                linear(f"{name}.{attn}.{proj}", d, d)
        linear(f"{name}.ffn.inner", d, cfg.ffn_dim)
        linear(f"{name}.ffn.outer", cfg.ffn_dim, d)

    linear("patch_embed", PATCH_SIZE * PATCH_SIZE, d)
    for i in range(cfg.n_encoder_layers):
        layer(f"encoder.{i}", "attn")
    for i in range(cfg.n_decoder_layers):
        layer(f"decoder.{i}", "self_attn", "cross_attn")
    values["detect_queries"] = rng.normal(0.0, 0.02, size=(cfg.n_detect_queries, d))
    linear("head.class", d, 1, bias=-2.0)
    linear("head.box.inner", d, d)
    linear("head.box.outer", d, 4)
    layer("temporal", "attn")
    return values


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_packed_in_projection_is_the_separate_draws_side_by_side(dtype):
    # each attention's in.w is [q.w|k.w|v.w] and in.b is [q.b|k.b|v.b] of
    # the separate layout drawn with the same seed, and every other
    # parameter equals its separate-layout draw, so θ at init is the same
    # values block for block
    cfg = ModelConfig(dtype=dtype)
    model, draws = TrackingModel(cfg, seed=11), separate_qkv_draws(cfg, 11)
    expected = {}
    for name, value in draws.items():
        stem, proj, part = name.rsplit(".", 2) if name.count(".") >= 2 else (None, None, None)
        if proj in ("q", "k", "v"):
            if proj == "q":
                blocks = [draws[f"{stem}.{p}.{part}"] for p in ("q", "k", "v")]
                expected[f"{stem}.in.{part}"] = np.concatenate(blocks, axis=-1)
        else:
            expected[name] = value
    norms = {n for n in model.params if n.rsplit(".", 1)[-1] in ("gain", "bias")}
    assert set(model.params) - norms == set(expected)
    assert len(model.params) == 101 and model.theta.size == 260_933
    for name, value in expected.items():
        assert np.array_equal(model.params[name].data, value.astype(dtype)), name


def empty_clip(clip):
    return clips.Clip(clip.images, [[] for _ in clip.annotations])


class NamedParameters:
    """The model as an optimizer saw it before groups: one tensor per name."""

    def __init__(self, model):
        self.model = model

    def parameters(self):
        return self.model.params

    def __getattr__(self, name):
        return getattr(self.model, name)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_group_adam_equals_per_parameter_adam(dtype):
    cfg = dataclasses.replace(TINY, dtype=dtype)
    grouped, named = TrackingModel(cfg, seed=9), TrackingModel(cfg, seed=9)
    grouped_opt = drivers.Adam(grouped.parameters())
    named_opt = drivers.Adam(named.params)
    wrapper = NamedParameters(named)
    for k in range(5):
        clip = clips.make_clip(40 + k, 4, 3, cfg.image_size)
        if k % 2 == 0:
            clip = empty_clip(clip)
        a = drivers.train_step(grouped, clip, grouped_opt)
        b = drivers.train_step(wrapper, clip, named_opt)
        assert a.loss.hex() == b.loss.hex(), k
        assert drivers.check_train_step(grouped, a) == []
        without = sorted(n for n, g in grouped.parameters().items() if g.grad is None)
        if k % 2 == 0:
            # no object: no track block reaches the temporal layer, no row the box head
            assert without == ["head.box", "temporal"]
            assert sum(p.grad is None for p in grouped.params.values()) == 16
            assert sorted(n for n, p in named.params.items() if p.grad is None) == sorted(
                n for n in grouped.params if n.startswith(("head.box.", "temporal."))
            )
        else:
            assert without == []
        assert grouped.theta.tobytes() == named.theta.tobytes(), k


class TestReset:
    def backward(self, model, seed):
        clip = clips.make_clip(seed, 3, 2, TINY.image_size)
        drivers.train_step(model, clip, drivers.Adam({}))

    def test_reset_grads_on_groups_clears_every_view(self):
        model = TrackingModel(TINY, seed=5)
        self.backward(model, 1)
        assert all(p.grad is not None for p in model.params.values())
        ad.reset_grads(model.parameters())
        assert all(g.grad is None for g in model.parameters().values())
        assert all(p.grad is None for p in model.params.values())

    def test_resetting_one_view_zeroes_its_slice(self, monkeypatch):
        model = TrackingModel(TINY, seed=5)
        self.backward(model, 1)
        fresh = {n: p.grad.copy() for n, p in model.params.items()}
        view, neighbour = model.params["decoder.0.ffn.inner.w"], model.params["decoder.0.ffn.outer.w"]
        view.reset_grad()
        assert view.grad is None
        # the same backward again without the driver's reset: the view reset
        # by hand gets a fresh gradient, its neighbour in the group adds up
        monkeypatch.setattr(ad, "reset_grads", lambda tensors: None)
        self.backward(model, 1)
        assert np.array_equal(view.grad, fresh["decoder.0.ffn.inner.w"])
        assert np.shares_memory(view.grad, model.parameters()["decoder.0"].grad)
        assert not np.array_equal(neighbour.grad, fresh["decoder.0.ffn.outer.w"])


def test_model_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        model = TrackingModel(TINY, seed=6)
        drivers.train_step(model, clips.make_clip(2, 3, 2, TINY.image_size),
                           drivers.Adam(model.parameters()))
        model_ref = weakref.ref(model)
        group_ref = weakref.ref(model.parameters()["temporal"])
        del model
        assert model_ref() is None
        assert group_ref() is None
    finally:
        gc.enable()


def views(*shapes):
    return [ad.view_leaf(shape) for shape in shapes]


def test_view_refuses_a_gradient_in_another_dtype():
    # adding float64 into a float32 slice in place would cast it down unseen
    group = ad.leaf_group(np.zeros(5, dtype=np.float32), views((2,), (3,)))
    a, b = group._views
    message = r"a float64 gradient term of shape \(2,\) for a float32 tensor of shape \(2,\)"
    with pytest.raises(ad.GradientError, match=message):
        a._accumulate(np.ones(2))
    assert group.grad is None and a.grad is None
    a._accumulate(np.ones(2, dtype=np.float32))
    with pytest.raises(ad.GradientError, match=message):
        a._accumulate(np.ones(2))
    assert group.grad.dtype == np.float32 and b.grad is None


def test_view_refuses_a_gradient_of_another_shape():
    # adding a scalar or a row into the slice in place would broadcast it unseen
    group = ad.leaf_group(np.zeros(6), views((2, 3)))
    (a,) = group._views
    with pytest.raises(ad.GradientError, match=r"term of shape \(\) for a float64 tensor of shape \(2, 3\)"):
        a._accumulate(np.ones(()))
    assert group.grad is None and a.grad is None
    a._accumulate(np.ones((2, 3)))
    with pytest.raises(ad.GradientError, match=r"term of shape \(3,\) for a float64 tensor of shape \(2, 3\)"):
        a._accumulate(np.ones(3))
    assert np.array_equal(group.grad, np.ones(6))


def test_view_without_a_live_group_raises():
    (a,) = views((2,))
    with pytest.raises(ad.GradientError, match="not in a live leaf group"):
        a._accumulate(np.ones(2))
    group = ad.leaf_group(np.zeros(2), [a])
    del group
    with pytest.raises(ad.GradientError, match="not in a live leaf group"):
        a._accumulate(np.ones(2))


def test_leaf_group_rejects_views_that_do_not_tile():
    with pytest.raises(ad.ShapeError, match="do not tile"):
        ad.leaf_group(np.zeros(5), views((2,), (2,)))
    with pytest.raises(ad.ShapeError, match="1-d"):
        ad.leaf_group(np.zeros((2, 2)), views((4,)))


class TestCheckpointPayload:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_payload_is_the_named_values_in_sorted_order(self, tmp_path, dtype):
        model = TrackingModel(dataclasses.replace(TINY, dtype=dtype), seed=7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        version, header_len = struct.unpack("<II", raw[4:12])
        assert version == 3
        expected = b"".join(
            model.params[name].data.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
            for name in sorted(model.params)
        )
        assert raw[12 + header_len :] == expected

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        model = TrackingModel(TINY, seed=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = load_checkpoint(path)
        assert loaded.theta.tobytes() == model.theta.tobytes()
        for name, p in loaded.params.items():
            assert np.shares_memory(p.data, loaded.theta), name
