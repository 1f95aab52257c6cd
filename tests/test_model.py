import dataclasses
import json
import re
import struct

import numpy as np
import pytest

import querytrack.autodiff as ad
from querytrack.autodiff import Tape, Tensor
from querytrack.model import (
    AttentionParams,
    ModelConfig,
    NormParams,
    QueryRecord,
    QuerySet,
    TrackingModel,
    load_checkpoint,
    multi_head_attention,
    save_checkpoint,
    sine_positions_2d,
)

TINY = ModelConfig(
    image_size=16,
    patch_size=8,
    d_model=8,
    n_heads=2,
    n_encoder_layers=1,
    n_decoder_layers=1,
    n_detect_queries=4,
    ffn_dim=16,
)


def random_image(rng, cfg):
    return Tensor(rng.uniform(0, 1, size=(cfg.image_size, cfg.image_size, cfg.n_channels)))


def track_set_of(model, n, start_id=1):
    rng = np.random.default_rng(99)
    return QuerySet(
        Tensor(rng.standard_normal((n, model.cfg.d_model))),
        [QueryRecord("track", track_id=start_id + i) for i in range(n)],
    )


class TestEncode:
    def test_token_count(self):
        model = TrackingModel(ModelConfig())
        img = random_image(np.random.default_rng(0), model.cfg)
        assert model.encode(img).shape == (64, 64)

    def test_zero_encoder_layers_is_pure_projection(self):
        cfg = ModelConfig(
            image_size=16, patch_size=8, d_model=8, n_heads=2,
            n_encoder_layers=0, n_decoder_layers=1, n_detect_queries=2,
            ffn_dim=16, positional_encoding=False,
        )
        model = TrackingModel(cfg)
        img = random_image(np.random.default_rng(1), cfg)
        tokens = model.encode(img)
        # the [16,16,1] image's two-by-two grid of 8x8 patches, row-major
        patches = np.stack([img.data[r:r + 8, c:c + 8].reshape(-1) for r in (0, 8) for c in (0, 8)])
        manual = patches @ model.patch_w.data + model.patch_b.data
        np.testing.assert_allclose(tokens.data, manual, atol=1e-12)

    def test_patch_permutation_equivariance_without_positions(self):
        cfg = ModelConfig(
            image_size=16, patch_size=8, d_model=8, n_heads=2,
            n_encoder_layers=2, n_decoder_layers=1, n_detect_queries=2,
            ffn_dim=16, positional_encoding=False,
        )
        model = TrackingModel(cfg, seed=3)
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(16, 16, 1))
        # swap the two top patches (each 8x8)
        swapped = img.copy()
        swapped[:8, :8], swapped[:8, 8:] = img[:8, 8:].copy(), img[:8, :8].copy()
        base = model.encode(Tensor(img)).data
        perm = model.encode(Tensor(swapped)).data
        np.testing.assert_allclose(perm[[1, 0, 2, 3]], base, atol=1e-10)

    def test_indivisible_image_rejected(self):
        model = TrackingModel(TINY)
        with pytest.raises(ad.ShapeError):
            model.encode(Tensor(np.zeros((15, 16, 1))))

    def test_positional_code_shape_and_determinism(self):
        a = sine_positions_2d(3, 4, 8)
        b = sine_positions_2d(3, 4, 8)
        assert a.shape == (12, 8)
        assert np.array_equal(a, b)


def identity_attention(d):
    eye, zero = Tensor(np.eye(d)), Tensor(np.zeros(d))
    return AttentionParams(eye, zero, eye, zero, eye, zero, eye, zero)


def unit_norm(d):
    return NormParams(Tensor(np.ones(d)), Tensor(np.zeros(d)))


def numpy_layer_norm(x):
    """Layer norm rows of x with unit gain and zero bias, eps 1e-5, in numpy."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)


def weighted_sum(x, w):
    """sum(x * w) for a constant array (or number) w, as one test-local tape op."""
    w = np.asarray(w, dtype=np.float64)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * w)

    return ad.custom_op(np.sum(x.data * w), (x,), pull)


def per_head_attention(x, norm, p, n_heads, weight, memory=None):
    """Reference in numpy, one head at a time with 2-d products.

    Returns the sublayer output x + attend(LN(x)) and the gradients of
    sum(output * weight) w.r.t. x, the norm's gain and bias, the memory
    (when given) and the eight projection parameters, in the order
    `attention_grads` uses.
    """
    gain, bias = norm.gain.data, norm.bias.data
    wq, bq, wk, bk, wv, bv, wo, bo = (getattr(p, f.name).data for f in dataclasses.fields(p))
    d = x.shape[1]
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(((xd - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
    y = (xd - mu) * inv
    xn = y * gain + bias
    kv = xn if memory is None else memory.data
    qp, kp, vp = xn @ wq + bq, kv @ wk + bk, kv @ wv + bv
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)
    cols = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    weights, heads = [], []
    for hc in cols:
        z = qp[:, hc] @ kp[:, hc].T * c
        e = np.exp(z - z.max(axis=1, keepdims=True))
        weights.append(e / e.sum(axis=1, keepdims=True))
        heads.append(weights[-1] @ vp[:, hc])
    merged = np.concatenate(heads, axis=1)
    out = xd + merged @ wo + bo

    g = weight.data
    g_merged = g @ wo.T
    dqp, dkp, dvp = np.zeros_like(qp), np.zeros_like(kp), np.zeros_like(vp)
    for hc, s in zip(cols, weights):
        g_head = g_merged[:, hc]
        dvp[:, hc] = s.T @ g_head
        ds = g_head @ vp[:, hc].T
        dz = s * (ds - (ds * s).sum(axis=1, keepdims=True)) * c
        dqp[:, hc] = dz @ kp[:, hc]
        dkp[:, hc] = dz.T @ qp[:, hc]
    dxn = dqp @ wq.T
    dkv = dkp @ wk.T + dvp @ wv.T
    if memory is None:
        dxn = dxn + dkv
    gy = dxn * gain
    dx = g + inv * (gy - gy.mean(axis=1, keepdims=True) - y * (gy * y).mean(axis=1, keepdims=True))
    return out, [
        dx, (dxn * y).sum(axis=0), dxn.sum(axis=0), *([] if memory is None else [dkv]),
        xn.T @ dqp, dqp.sum(axis=0), kv.T @ dkp, dkp.sum(axis=0),
        kv.T @ dvp, dvp.sum(axis=0), merged.T @ g, g.sum(axis=0),
    ]


def random_attention(rng, d):
    return AttentionParams(
        *(
            Tensor(rng.standard_normal((d, d) if i % 2 == 0 else d) / np.sqrt(d), requires_grad=True)
            for i in range(8)
        )
    )


def random_norm(rng, d):
    gain, bias = 1.0 + 0.3 * rng.standard_normal(d), 0.3 * rng.standard_normal(d)
    return NormParams(Tensor(gain), Tensor(bias))


def attention_grads(x, norm, p, n_heads, weight, memory=None):
    """Forward value and tape gradients of sum(sublayer * weight) w.r.t. inputs and params."""
    leaves = [x, norm.gain, norm.bias, *([] if memory is None else [memory])]
    leaves += [getattr(p, f.name) for f in dataclasses.fields(p)]
    for t in leaves:
        t.requires_grad = True
        t.reset_grad()
    with Tape() as tape:
        out = multi_head_attention(x, norm, p, n_heads, memory=memory)
        loss = weighted_sum(out, weight.data)
    tape.backward(loss)
    return out.data, [t.grad.copy() for t in leaves]


class TestAttention:
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
            memory = None if shared_query_key else Tensor(rng.standard_normal((m, d)))
            norm, p = random_norm(rng, d), random_attention(rng, d)
            weight = Tensor(rng.standard_normal((n, d)))
            fused = attention_grads(x, norm, p, n_heads, weight, memory)
            ref = per_head_attention(x, norm, p, n_heads, weight, memory)
            np.testing.assert_allclose(fused[0], ref[0], rtol=0, atol=1e-12)
            assert len(fused[1]) == len(ref[1]) == (11 if shared_query_key else 12)
            for a, b in zip(fused[1], ref[1]):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_one_call_records_one_attention_node(self):
        rng = np.random.default_rng(7)
        x, memory = Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((5, 8)))
        p = random_attention(rng, 8)
        with Tape() as tape:
            multi_head_attention(x, unit_norm(8), p, 4, memory=memory)
            kinds = [pull.__qualname__.split(".")[0] for _, pull in tape.nodes]
        # the layer norm, the projections and the residual add are part of
        # the one attention node
        assert kinds == ["attention"]

    def test_zero_key_rows_rejected(self):
        p = identity_attention(4)
        x, empty = Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4)))
        with pytest.raises(ad.ShapeError, match="at least one key row"):
            multi_head_attention(x, unit_norm(4), p, 2, memory=empty)

    def test_single_zero_query(self):
        p = identity_attention(1)
        out = multi_head_attention(Tensor([[0.0]]), unit_norm(1), p, 1)
        np.testing.assert_allclose(out.data, [[0.0]])

    def test_reduces_to_softmax_formula(self):
        rng = np.random.default_rng(4)
        x, memory = (Tensor(rng.standard_normal((3, 4))) for _ in range(2))
        out = multi_head_attention(x, unit_norm(4), identity_attention(4), 1, memory=memory)
        logits = numpy_layer_norm(x.data) @ memory.data.T / 2.0
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, x.data + weights @ memory.data, atol=1e-12)

    def test_rows_of_attention_sum_to_one_via_constant_values(self):
        # all-ones values (zero value weight, unit value bias) and identity
        # output projection: each row adds exactly one to its residual
        rng = np.random.default_rng(5)
        x, memory = Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((7, 4)))
        p = identity_attention(4)
        p.wv, p.bv = Tensor(np.zeros((4, 4))), Tensor(np.ones(4))
        out = multi_head_attention(x, unit_norm(4), p, 2, memory=memory)
        np.testing.assert_allclose(out.data - x.data, 1.0, atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x, memory, positions = (Tensor(rng.standard_normal((3, 4))) for _ in range(3))
        norm = random_norm(rng, 4)

        def cross(x, gain, bias, memory):
            out = multi_head_attention(x, NormParams(gain, bias), identity_attention(4), 2, memory=memory)
            return weighted_sum(out, 1.0)

        def temporal(x, positions):
            p = identity_attention(4)
            return weighted_sum(multi_head_attention(x, norm, p, 2, positions=positions), 1.0)

        assert ad.grad_check(cross, [x, norm.gain, norm.bias, memory]).passed
        assert ad.grad_check(temporal, [x, positions]).passed


class TestDecode:
    def test_detect_only_prediction_count(self):
        model = TrackingModel(ModelConfig())
        img = random_image(np.random.default_rng(7), model.cfg)
        preds = model.forward_frame(img)
        assert len(preds) == 16
        assert preds.n_track == 0

    def test_track_block_prepends_in_order(self):
        model = TrackingModel(ModelConfig())
        img = random_image(np.random.default_rng(8), model.cfg)
        ts = track_set_of(model, 3)
        preds = model.forward_frame(img, ts)
        assert len(preds) == 19
        assert preds.n_track == 3
        queries = model.frame_queries(ts)
        assert [r.kind for r in queries.records[:3]] == ["track"] * 3
        assert [r.track_id for r in queries.records[:3]] == [1, 2, 3]

    def test_outputs_strictly_inside_unit_interval(self):
        model = TrackingModel(ModelConfig(), seed=9)
        img = random_image(np.random.default_rng(9), model.cfg)
        preds = model.forward_frame(img, track_set_of(model, 2))
        for arr in (preds.class_probs.data, preds.boxes.data):
            assert np.all(arr > 0) and np.all(arr < 1)

    def test_slot_identity_under_track_embedding_swap(self):
        # output row follows its input slot: swapping two track embeddings
        # swaps the two output rows, and the detect block is untouched
        model = TrackingModel(TINY, seed=10)
        img = random_image(np.random.default_rng(10), TINY)
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((2, TINY.d_model))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
        a = model.forward_frame(img, QuerySet(Tensor(emb), records))
        b = model.forward_frame(img, QuerySet(Tensor(emb[[1, 0]]), records))
        np.testing.assert_allclose(a.hidden.data[0], b.hidden.data[1], atol=1e-12)
        np.testing.assert_allclose(a.hidden.data[1], b.hidden.data[0], atol=1e-12)
        np.testing.assert_allclose(a.hidden.data[2:], b.hidden.data[2:], atol=1e-12)

    def test_empty_query_set_rejected(self):
        model = TrackingModel(TINY)
        memory = Tensor(np.zeros((4, TINY.d_model)))
        with pytest.raises(ValueError, match="empty"):
            model.decode(QuerySet(Tensor(np.zeros((0, TINY.d_model))), []), memory)

    def test_empty_memory_rejected(self):
        model = TrackingModel(TINY)
        with pytest.raises(ad.ShapeError, match="at least one key row"):
            model.decode(model.frame_queries(), Tensor(np.zeros((0, TINY.d_model))))

    def test_memory_width_mismatch_rejected(self):
        model = TrackingModel(TINY)
        with pytest.raises(ad.ShapeError):
            model.decode(model.frame_queries(), Tensor(np.zeros((4, 6))))

    def test_gradient_through_query_embeddings(self):
        model = TrackingModel(TINY, seed=12)
        rng = np.random.default_rng(12)
        img = random_image(rng, TINY)
        memory = model.encode(img)
        emb = Tensor(rng.standard_normal((2, TINY.d_model)))
        box_weights = rng.standard_normal((2 + TINY.n_detect_queries, 4))

        def f(emb):
            qs = QuerySet(
                ad.concat([emb, model.detect_queries], axis=0),
                [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
                + [QueryRecord("detect") for _ in range(TINY.n_detect_queries)],
            )
            preds = model.decode(qs, memory)
            return ad.add(weighted_sum(ad.sigmoid(preds.class_logits), 1.0), weighted_sum(preds.boxes, box_weights))

        report = ad.grad_check(f, [emb], tol=1e-4)
        assert report.passed, report.max_rel_err


class TestTemporalAggregation:
    def test_gradient_through_track_block_and_positions(self):
        model = TrackingModel(TINY, seed=17)
        rng = np.random.default_rng(17)
        img = random_image(rng, TINY)
        emb = Tensor(rng.standard_normal((2, TINY.d_model)))
        pos = Tensor(rng.standard_normal((2, TINY.d_model)))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
        box_weights = rng.standard_normal((2 + TINY.n_detect_queries, 4))

        def f(emb, pos, wq):  # wq is read through the model
            preds = model.forward_frame(img, QuerySet(emb, records, positions=pos))
            return ad.add(weighted_sum(ad.sigmoid(preds.class_logits), 1.0), weighted_sum(preds.boxes, box_weights))

        report = ad.grad_check(f, [emb, pos, model.temporal.attn.wq], tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_positions_are_wired_and_follow_their_rows(self):
        model = TrackingModel(TINY, seed=18)
        img = random_image(np.random.default_rng(18), TINY)
        rng = np.random.default_rng(19)
        emb = rng.standard_normal((2, TINY.d_model))
        pos = rng.standard_normal((2, TINY.d_model))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]

        def hidden(e, p=None):
            ts = QuerySet(Tensor(e), records, None if p is None else Tensor(p))
            return model.forward_frame(img, ts).hidden.data

        plain = hidden(emb)
        with_pos = hidden(emb, pos)
        assert not np.allclose(plain[:2], with_pos[:2])
        # zero positions are no positional term at all
        assert np.array_equal(hidden(emb, np.zeros_like(pos)), plain)
        # positions belong to their rows: swapping them alone changes the rows
        assert not np.allclose(hidden(emb, pos[[1, 0]])[:2], with_pos[:2])
        # swapping slots together with their positions swaps exactly those rows
        swapped = hidden(emb[[1, 0]], pos[[1, 0]])
        np.testing.assert_allclose(swapped[0], with_pos[1], atol=1e-12)
        np.testing.assert_allclose(swapped[1], with_pos[0], atol=1e-12)
        np.testing.assert_allclose(swapped[2:], with_pos[2:], atol=1e-12)

    def test_positions_enter_query_and_key_only(self):
        # one track row attends only to itself with weight 1, so its output
        # depends on the value alone; positions must then change nothing
        model = TrackingModel(TINY, seed=21)
        rng = np.random.default_rng(21)
        emb = Tensor(rng.standard_normal((1, TINY.d_model)))
        pos = Tensor(rng.standard_normal((1, TINY.d_model)))
        records = [QueryRecord("track", track_id=1)]
        plain = model.aggregate(QuerySet(emb, records)).data
        with_pos = model.aggregate(QuerySet(emb, records, positions=pos)).data
        np.testing.assert_allclose(with_pos, plain, atol=1e-12)

    def test_decoder_input_rows_exposed(self):
        model = TrackingModel(TINY, seed=20)
        img = random_image(np.random.default_rng(20), TINY)
        ts = track_set_of(model, 2)
        preds = model.forward_frame(img, ts)
        assert np.array_equal(preds.queries.data, model.frame_queries(ts).embeddings.data)
        assert np.array_equal(preds.queries.data[2:], model.detect_queries.data)
        # the track rows went through the temporal layer, not straight in
        assert not np.allclose(preds.queries.data[:2], ts.embeddings.data)


class TestClipGraph:
    def test_five_frame_forward_backward_shapes(self):
        model = TrackingModel(TINY, seed=13)
        rng = np.random.default_rng(13)
        with Tape() as tape:
            track = None
            total = None
            for _ in range(5):
                preds = model.forward_frame(random_image(rng, TINY), track)
                frame_sum = ad.add(weighted_sum(preds.class_logits, 1.0), weighted_sum(preds.boxes, 1.0))
                total = frame_sum if total is None else ad.add(total, frame_sum)
                # feed hidden states back as next-frame track queries
                track = QuerySet(
                    ad.slice_axis(preds.hidden, 0, 0, 2),
                    [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)],
                )
            loss = weighted_sum(total, 1.0)
        tape.backward(loss)
        for name, p in model.params.items():
            assert p.grad is not None, name
            assert p.grad.shape == p.data.shape
            assert np.isfinite(p.grad).all()


class TestQuerySet:
    def test_track_id_uniqueness(self):
        emb = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="duplicate"):
            QuerySet(emb, [QueryRecord("track", 1), QueryRecord("track", 1)])

    def test_block_order_enforced(self):
        emb = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="precede"):
            QuerySet(emb, [QueryRecord("detect"), QueryRecord("track", 1)])

    def test_positions_shape_must_match_embeddings(self):
        emb, pos = Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="positions"):
            QuerySet(emb, [QueryRecord("track", 1), QueryRecord("track", 2)], pos)

    def test_record_kind_invariants(self):
        with pytest.raises(ValueError):
            QueryRecord("track")
        with pytest.raises(ValueError):
            QueryRecord("detect", track_id=3)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = TrackingModel(TINY, seed=14)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"iteration": 7})
        loaded, extra = load_checkpoint(path)
        assert extra == {"iteration": 7}
        assert loaded.cfg == model.cfg
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data), name

    def test_double_save_byte_identical(self, tmp_path):
        model = TrackingModel(TINY, seed=15)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_same_forward(self, tmp_path):
        model = TrackingModel(TINY, seed=16)
        img = random_image(np.random.default_rng(16), TINY)
        save_checkpoint(tmp_path / "m.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        a = model.forward_frame(img)
        b = loaded.forward_frame(img)
        assert np.array_equal(a.class_probs.data, b.class_probs.data)
        assert np.array_equal(a.boxes.data, b.boxes.data)
        # a track block with positions runs every temporal.* parameter
        carried = track_set_of(model, 2)
        pos = Tensor(np.random.default_rng(17).standard_normal(carried.embeddings.shape))
        ts = QuerySet(carried.embeddings, carried.records, positions=pos)
        a = model.forward_frame(img, ts)
        b = loaded.forward_frame(img, ts)
        assert np.array_equal(a.class_probs.data, b.class_probs.data)
        assert np.array_equal(a.boxes.data, b.boxes.data)
        assert np.array_equal(a.hidden.data, b.hidden.data)


class TestCheckpointCorruption:
    """Each damaged file fails loudly with an error naming the file."""

    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrackingModel(TINY, seed=18))
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match=r"model\.ckpt: 8 trailing bytes"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(ValueError, match=r"model\.ckpt: truncated payload"):
            load_checkpoint(path)

    def test_manifest_missing_parameter_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        version, header_len = struct.unpack("<II", raw[4:12])
        header = json.loads(raw[12 : 12 + header_len])
        # drop the first parameter's manifest entry and its payload, so the
        # byte count still matches and only the manifest is wrong
        dropped = header["params"].pop(0)
        n_dropped = int(np.prod(dropped["shape"])) * 8
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = raw[12 + header_len + n_dropped :]
        path.write_bytes(raw[:4] + struct.pack("<II", version, len(body)) + body + payload)
        with pytest.raises(ValueError, match=rf"model\.ckpt: manifest omits .*{re.escape(dropped['name'])}"):
            load_checkpoint(path)


    def rewrite_config(self, path, **changes):
        raw = path.read_bytes()
        version, header_len = struct.unpack("<II", raw[4:12])
        header = json.loads(raw[12 : 12 + header_len])
        header["config"].update(changes)
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<II", version, len(body)) + body + raw[12 + header_len :])

    def test_truncated_header_prefix_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=r"model\.ckpt: truncated header prefix"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match=r"model\.ckpt: truncated header"):
            load_checkpoint(path)

    def test_header_not_json_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        header_len = struct.unpack("<II", raw[4:12])[1]
        path.write_bytes(raw[:12] + b"x" * header_len + raw[12 + header_len :])
        with pytest.raises(ValueError, match=r"model\.ckpt: header is not valid JSON"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_config(path, n_wings=2)
        with pytest.raises(ValueError, match=r"model\.ckpt: invalid config.*n_wings"):
            load_checkpoint(path)

    def test_invalid_config_value_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_config(path, d_model=7)
        with pytest.raises(ValueError, match=r"model\.ckpt: invalid config.*d_model 7"):
            load_checkpoint(path)

    def test_zero_heads_in_config_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_config(path, n_heads=0)
        with pytest.raises(ValueError, match=r"model\.ckpt: invalid config.*n_heads must be"):
            load_checkpoint(path)

    def rewrite_header(self, path, edit):
        """Apply edit(header) and write the header back, payload unchanged."""
        raw = path.read_bytes()
        version, header_len = struct.unpack("<II", raw[4:12])
        header = json.loads(raw[12 : 12 + header_len])
        edit(header)
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<II", version, len(body)) + body + raw[12 + header_len :])

    def test_missing_params_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.pop("params"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header has no 'params' entry"):
            load_checkpoint(path)

    def test_manifest_entry_without_shape_rejected(self, tmp_path):
        # a missing shape, then shapes that are no list of nonnegative integers
        for edit in (
            lambda entry: entry.pop("shape"),
            lambda entry: entry.update(shape="ab"),
            lambda entry: entry.update(shape=[-1, 8]),
            lambda entry: entry.update(shape=[2.5]),
            lambda entry: entry.update(shape=None),
        ):
            path = self.saved(tmp_path)
            self.rewrite_header(path, lambda h: edit(h["params"][0]))
            with pytest.raises(ValueError, match=r"model\.ckpt: manifest entry .* needs a name and a shape"):
                load_checkpoint(path)

    def test_params_not_a_list_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.update(params="weights"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header 'params' is a str, not a list"):
            load_checkpoint(path)

    def test_missing_extra_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.pop("extra"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header has no 'extra' entry"):
            load_checkpoint(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"model\.ckpt: payload checksum .* != header crc32"):
            load_checkpoint(path)

    def test_missing_or_non_integer_crc32_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.pop("crc32"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header has no 'crc32' entry"):
            load_checkpoint(path)
        for bad in ("12", 1.5, True, None):
            path = self.saved(tmp_path)
            self.rewrite_header(path, lambda h: h.update(crc32=bad))
            with pytest.raises(ValueError, match=r"model\.ckpt: header 'crc32' is a \w+, not an integer"):
                load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        # version 1 files carry no checksum and older parameter names
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(ValueError, match=r"model\.ckpt: unsupported checkpoint version 1"):
            load_checkpoint(path)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(image_size=60, patch_size=8)
    # sizes are checked before any divisibility check divides by them
    for field, value in [
        ("n_heads", 0), ("patch_size", 0), ("image_size", -64), ("d_model", -8),
        ("n_decoder_layers", -2), ("ffn_dim", 0), ("n_detect_queries", 0), ("n_classes", 0),
        ("n_channels", 0), ("d_model", 64.0), ("n_heads", True), ("n_encoder_layers", "2"),
    ]:
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= [01], got"):
            ModelConfig(**{field: value})
    # a truthy string would switch the positional code on
    for value in ("no", 0, None):
        with pytest.raises(ValueError, match="positional_encoding must be a bool"):
            ModelConfig(positional_encoding=value)
    # layer counts may be 0
    assert ModelConfig(n_encoder_layers=0, n_decoder_layers=0).n_encoder_layers == 0
