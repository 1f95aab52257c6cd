import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import querytrack.autodiff as ad
import querytrack.model
from querytrack.autodiff import Tape, Tensor
from querytrack.model import (
    ModelConfig,
    QueryRecord,
    QuerySet,
    TrackingModel,
    load_checkpoint,
    save_checkpoint,
    sine_positions_2d,
)

from chain_ops import slice_axis, weighted_sum
from gradcheck import grad_check
from tiny import TINY, TINY64


def random_image(rng, cfg):
    return Tensor(rng.uniform(0, 1, size=(cfg.image_size, cfg.image_size, 1)))


def track_set_of(model, n, start_id=1):
    rng = np.random.default_rng(99)
    return QuerySet(
        Tensor(rng.standard_normal((n, model.cfg.d_model)).astype(model.cfg.dtype)),
        [QueryRecord("track", track_id=start_id + i) for i in range(n)],
    )


class TestEncode:
    def test_token_count(self):
        model = TrackingModel(ModelConfig())
        img = random_image(np.random.default_rng(0), model.cfg)
        assert model.encode(img).shape == (64, 64)

    def test_image_must_be_a_tensor(self):
        # unchecked, a numpy image failed inside the patch cut with an
        # AttributeError on a memoryview
        model = TrackingModel(TINY)
        img = random_image(np.random.default_rng(0), TINY).data
        for call in (model.encode, model.forward_frame):
            with pytest.raises(TypeError, match="encode needs the image as a Tensor, got a ndarray"):
                call(img)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected_with_their_count(self, value):
        # unchecked, one NaN or infinite pixel turned every box and logit
        # into NaN, with at most a warning
        model = TrackingModel(TINY)
        img = random_image(np.random.default_rng(0), TINY)
        img.data[3, 4, 0] = value
        with pytest.raises(ValueError, match="image has 1 NaN or infinite pixels in float32"):
            model.forward_frame(img)
        img.data[:2, :, 0] = value
        with pytest.raises(ValueError, match="image has 33 NaN or infinite pixels in float32"):
            model.encode(img)

    def test_pixel_past_float32_range_rejected_in_float32(self):
        # finite in float64, 1e39 is infinite in float32: numpy warns of the
        # cast's overflow, then the check names the pixel
        img = random_image(np.random.default_rng(0), TINY)
        img.data[3, 4, 0] = 1e39
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="image has 1 NaN or infinite pixels in float32"):
                TrackingModel(TINY).encode(img)
        assert np.isfinite(TrackingModel(TINY64).encode(img).data).all()

    def test_zero_encoder_layers_is_pure_projection(self):
        cfg = ModelConfig(
            image_size=16, d_model=8, n_heads=2,
            n_encoder_layers=0, n_decoder_layers=1, n_detect_queries=2,
            ffn_dim=16, dtype="float64",
        )
        model = TrackingModel(cfg)
        img = random_image(np.random.default_rng(1), cfg)
        tokens = model.encode(img)
        # the [16,16,1] image's two-by-two grid of 8x8 patches, row-major
        patches = np.stack([img.data[r:r + 8, c:c + 8].reshape(-1) for r in (0, 8) for c in (0, 8)])
        manual = patches @ model.patch_w.data + model.patch_b.data + sine_positions_2d(2, 8)
        np.testing.assert_allclose(tokens.data, manual, atol=1e-12)

    def test_patch_permutation_equivariance_without_positions(self):
        cfg = ModelConfig(
            image_size=16, d_model=8, n_heads=2,
            n_encoder_layers=2, n_decoder_layers=1, n_detect_queries=2,
            ffn_dim=16, dtype="float64",
        )
        model = TrackingModel(cfg, seed=3)
        # the encoder layers alone, without the positional code: swapping
        # two token rows swaps the two output rows
        tokens = np.random.default_rng(2).standard_normal((4, 8))

        def encoder_layers(x):
            x = Tensor(x)
            for attention, ffn in model.encoder_layers:
                x = ad.feed_forward(ad.attention(x, attention), ffn)
            return x.data

        perm = [1, 0, 2, 3]
        np.testing.assert_allclose(encoder_layers(tokens[perm]), encoder_layers(tokens)[perm], atol=1e-10)

    def test_indivisible_image_rejected(self):
        model = TrackingModel(TINY64)
        with pytest.raises(ad.ShapeError):
            model.encode(Tensor(np.zeros((15, 16, 1))))

    def test_image_is_cast_to_the_model_dtype(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, size=(16, 16, 1))
        for dtype in ("float32", "float64"):
            model = TrackingModel(dataclasses.replace(TINY, dtype=dtype), seed=3)
            tokens = [model.encode(Tensor(img.astype(t))).data for t in ("float32", "float64")]
            assert tokens[0].dtype == tokens[1].dtype == dtype
            if dtype == "float32":  # the cast comes first, so the two images are one
                assert np.array_equal(tokens[0], tokens[1])
            else:  # a float32 image is float32 data, widened exactly
                ref = model.encode(Tensor(img.astype(np.float32).astype(np.float64))).data
                assert np.array_equal(tokens[0], ref)

    def test_positional_code_shape_and_determinism(self):
        a = sine_positions_2d(3, 8)
        b = sine_positions_2d(3, 8)
        assert a.shape == (9, 8)
        assert np.array_equal(a, b)


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
        # the aggregated track rows, in their order, then the detect block
        assert np.array_equal(preds.queries.data[:3], model.aggregate(ts).data)
        assert np.array_equal(preds.queries.data[3:], model.detect_queries.data)

    def test_outputs_strictly_inside_unit_interval(self):
        model = TrackingModel(ModelConfig(), seed=9)
        img = random_image(np.random.default_rng(9), model.cfg)
        preds = model.forward_frame(img, track_set_of(model, 2))
        for arr in (preds.class_probs.data, preds.boxes.data):
            assert np.all(arr > 0) and np.all(arr < 1)

    @pytest.mark.parametrize(
        "dtype, inside, past",
        [("float32", (-88.5, 16.5), (-88.8, 16.7)), ("float64", (-709.5, 36.6), (-709.9, 36.8))],
    )
    def test_box_sigmoid_saturates_where_documented(self, dtype, inside, past):
        # with head.box.outer.w zero each box logit is its bias exactly: inside
        # the documented range the box stays strictly inside (0, 1), past it
        # the sigmoid gives exactly 0 or 1
        model = TrackingModel(dataclasses.replace(TINY, dtype=dtype), seed=9)
        model.params["head.box.outer.w"].data[...] = 0.0
        model.params["head.box.outer.b"].data[...] = [inside[0], inside[1], past[0], past[1]]
        img = random_image(np.random.default_rng(9), model.cfg)
        boxes = model.forward_frame(img, track_set_of(model, 2)).boxes.data
        assert boxes.dtype == dtype
        assert np.all(boxes[:, :2] > 0) and np.all(boxes[:, :2] < 1)
        assert np.all(boxes[:, 2] == 0) and np.all(boxes[:, 3] == 1)

    def test_box_list_is_float64_rows_of_the_boxes(self):
        model = TrackingModel(dataclasses.replace(TINY, dtype="float32"), seed=9)
        preds = model.forward_frame(random_image(np.random.default_rng(9), model.cfg))
        rows = preds.box_list()
        assert rows.dtype == np.float64 and rows.shape == (len(preds), 4)
        assert np.array_equal(rows, preds.boxes.data) and not np.shares_memory(rows, preds.boxes.data)

    def test_scores_are_the_one_class_probability_per_query(self):
        model = TrackingModel(dataclasses.replace(TINY, dtype="float32"), seed=9)
        preds = model.forward_frame(random_image(np.random.default_rng(9), model.cfg), track_set_of(model, 2))
        scores = preds.scores()
        assert scores.shape == (len(preds),) and scores.dtype == np.float32
        assert np.array_equal(scores, 1.0 / (1.0 + np.exp(-preds.class_logits.data[:, 0])))

    def test_slot_identity_under_track_embedding_swap(self):
        # output row follows its input slot: swapping two track embeddings
        # swaps the two output rows, and the detect block is untouched
        model = TrackingModel(TINY64, seed=10)
        img = random_image(np.random.default_rng(10), TINY64)
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((2, TINY64.d_model))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
        a = model.forward_frame(img, QuerySet(Tensor(emb), records))
        b = model.forward_frame(img, QuerySet(Tensor(emb[[1, 0]]), records))
        np.testing.assert_allclose(a.hidden.data[0], b.hidden.data[1], atol=1e-12)
        np.testing.assert_allclose(a.hidden.data[1], b.hidden.data[0], atol=1e-12)
        np.testing.assert_allclose(a.hidden.data[2:], b.hidden.data[2:], atol=1e-12)

    def test_empty_track_rows_decode_the_detect_block_alone(self):
        # the detect block is always there: no track rows, or an empty
        # block of them, give the same detect-only frame
        model = TrackingModel(TINY64, seed=5)
        memory = model.encode(random_image(np.random.default_rng(5), TINY64))
        alone = model.decode(memory)
        empty = model.decode(memory, Tensor(np.zeros((0, TINY64.d_model))))
        for preds in (alone, empty):
            assert preds.n_track == 0 and len(preds) == TINY64.n_detect_queries
            assert np.array_equal(preds.queries.data, model.detect_queries.data)
        assert np.array_equal(empty.hidden.data, alone.hidden.data)
        # an empty carried block is no carried block
        img = random_image(np.random.default_rng(6), TINY64)
        carried = QuerySet(Tensor(np.zeros((0, TINY64.d_model))), [])
        assert np.array_equal(model.forward_frame(img, carried).hidden.data, model.forward_frame(img).hidden.data)

    def test_empty_memory_rejected(self):
        model = TrackingModel(TINY64)
        with pytest.raises(ad.ShapeError, match="at least one key row"):
            model.decode(Tensor(np.zeros((0, TINY64.d_model))))

    def test_memory_width_mismatch_rejected(self):
        model = TrackingModel(TINY64)
        with pytest.raises(ad.ShapeError):
            model.decode(Tensor(np.zeros((4, 6))))

    def test_one_dimensional_memory_rejected(self):
        model = TrackingModel(TINY64)
        with pytest.raises(ad.ShapeError, match=r"memory tokens need \[n, 8\] rows, got \(8,\)"):
            model.decode(Tensor(np.zeros(TINY64.d_model)))

    @pytest.mark.parametrize("model_dtype, memory_dtype", [("float32", "float64"), ("float64", "float32")])
    def test_memory_in_another_dtype_rejected(self, model_dtype, memory_dtype):
        # a float64 memory would make a float32 model's outputs float64
        model = TrackingModel(dataclasses.replace(TINY, dtype=model_dtype))
        memory = Tensor(np.zeros((4, TINY64.d_model), dtype=memory_dtype))
        with pytest.raises(ValueError, match=f"memory tokens are {memory_dtype}, the model computes in {model_dtype}"):
            model.decode(memory)

    def test_query_width_mismatch_rejected(self):
        # a width of 6 on d_model 8 used to fail inside the first attention
        model = TrackingModel(TINY64)
        for shape in [(2, 6), (TINY64.d_model,), (1, 2, TINY64.d_model)]:
            message = rf"track queries need \[n, 8\] rows, got {re.escape(str(shape))}"
            with pytest.raises(ad.ShapeError, match=message):
                model.decode(Tensor(np.zeros((4, TINY64.d_model))), Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("model_dtype, query_dtype", [("float32", "float64"), ("float64", "float32")])
    def test_queries_in_another_dtype_rejected(self, model_dtype, query_dtype):
        # float64 track rows would make a float32 model's hidden and boxes float64
        model = TrackingModel(dataclasses.replace(TINY, dtype=model_dtype))
        track_queries = Tensor(np.zeros((2, TINY64.d_model), dtype=query_dtype))
        memory = Tensor(np.zeros((4, TINY64.d_model), dtype=model_dtype))
        message = f"track queries are {query_dtype}, the model computes in {model_dtype}"
        with pytest.raises(ValueError, match=message):
            model.decode(memory, track_queries)

    def test_forward_frame_builds_no_query_records(self, monkeypatch):
        # the detect block is the model's own: a frame, with or without a
        # carried block, constructs no QueryRecord and no QuerySet
        built = Counter()
        for cls in (QueryRecord, QuerySet):
            init = cls.__init__

            def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        model = TrackingModel(TINY64, seed=4)
        img = random_image(np.random.default_rng(4), TINY64)
        carried = track_set_of(model, 2)
        assert built == {"QueryRecord": 2, "QuerySet": 1}
        built.clear()
        model.forward_frame(img)
        model.forward_frame(img, carried)
        with Tape():
            model.forward_frame(img, carried)
        assert built == {}

    def test_gradient_through_query_embeddings(self):
        model = TrackingModel(TINY64, seed=12)
        rng = np.random.default_rng(12)
        img = random_image(rng, TINY64)
        memory = model.encode(img)
        emb = Tensor(rng.standard_normal((2, TINY64.d_model)))
        box_weights = rng.standard_normal((2 + TINY64.n_detect_queries, 4))

        def f(emb):
            preds = model.decode(memory, emb)
            return ad.add(weighted_sum(ad.sigmoid(preds.class_logits), 1.0), weighted_sum(preds.boxes, box_weights))

        report = grad_check(f, [emb], tol=1e-4)
        assert report.passed, report.max_rel_err


class TestTemporalAggregation:
    def test_gradient_through_track_block_and_positions(self):
        model = TrackingModel(TINY64, seed=17)
        rng = np.random.default_rng(17)
        img = random_image(rng, TINY64)
        emb = Tensor(rng.standard_normal((2, TINY64.d_model)))
        pos = Tensor(rng.standard_normal((2, TINY64.d_model)))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
        box_weights = rng.standard_normal((2 + TINY64.n_detect_queries, 4))

        def f(emb, pos, w_in):  # w_in is read through the model
            preds = model.forward_frame(img, QuerySet(emb, records, positions=pos))
            return ad.add(weighted_sum(ad.sigmoid(preds.class_logits), 1.0), weighted_sum(preds.boxes, box_weights))

        w_in = model.temporal[0].w_in  # the temporal layer's attention's in-projection
        report = grad_check(f, [emb, pos, w_in], tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_positions_are_wired_and_follow_their_rows(self):
        model = TrackingModel(TINY64, seed=18)
        img = random_image(np.random.default_rng(18), TINY64)
        rng = np.random.default_rng(19)
        emb = rng.standard_normal((2, TINY64.d_model))
        pos = rng.standard_normal((2, TINY64.d_model))
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
        model = TrackingModel(TINY64, seed=21)
        rng = np.random.default_rng(21)
        emb = Tensor(rng.standard_normal((1, TINY64.d_model)))
        pos = Tensor(rng.standard_normal((1, TINY64.d_model)))
        records = [QueryRecord("track", track_id=1)]
        plain = model.aggregate(QuerySet(emb, records)).data
        with_pos = model.aggregate(QuerySet(emb, records, positions=pos)).data
        np.testing.assert_allclose(with_pos, plain, atol=1e-12)

    @pytest.mark.parametrize("model_dtype, block_dtype", [("float32", "float64"), ("float64", "float32")])
    def test_track_block_in_another_dtype_rejected(self, model_dtype, block_dtype):
        # a carried block is model state: mixing dtypes would run in mixed precision
        model = TrackingModel(dataclasses.replace(TINY, dtype=model_dtype), seed=22)
        rng = np.random.default_rng(22)
        emb = rng.standard_normal((2, TINY64.d_model))
        records = [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)]
        good, bad = Tensor(emb.astype(model_dtype)), Tensor(emb.astype(block_dtype))
        message = f"are {block_dtype}, the model computes in {model_dtype}"
        with pytest.raises(ValueError, match=f"track block embeddings {message}"):
            model.aggregate(QuerySet(bad, records))
        with pytest.raises(ValueError, match=f"track block positions {message}"):
            model.aggregate(QuerySet(good, records, positions=bad))
        with pytest.raises(ValueError, match=f"track block positions {message}"):
            model.forward_frame(random_image(rng, model.cfg), QuerySet(good, records, positions=bad))
        assert model.aggregate(QuerySet(good, records, positions=good)).data.dtype == model_dtype

    def test_decoder_input_rows_exposed(self):
        model = TrackingModel(TINY64, seed=20)
        img = random_image(np.random.default_rng(20), TINY64)
        ts = track_set_of(model, 2)
        preds = model.forward_frame(img, ts)
        assert np.array_equal(preds.queries.data[:2], model.aggregate(ts).data)
        assert np.array_equal(preds.queries.data[2:], model.detect_queries.data)
        # the track rows went through the temporal layer, not straight in
        assert not np.allclose(preds.queries.data[:2], ts.embeddings.data)


class TestClipGraph:
    def test_five_frame_forward_backward_shapes(self):
        model = TrackingModel(TINY64, seed=13)
        rng = np.random.default_rng(13)
        with Tape() as tape:
            track = None
            total = None
            for _ in range(5):
                preds = model.forward_frame(random_image(rng, TINY64), track)
                frame_sum = ad.add(weighted_sum(preds.class_logits, 1.0), weighted_sum(preds.boxes, 1.0))
                total = frame_sum if total is None else ad.add(total, frame_sum)
                # feed hidden states back as next-frame track queries
                track = QuerySet(
                    slice_axis(preds.hidden, 0, 0, 2),
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

    @pytest.mark.parametrize("shape", [(), (2,), (2, 4, 1)])
    def test_embeddings_must_be_rows(self, shape):
        # unchecked, a 0-d block raised a bare IndexError and a 1-d one was
        # taken until the temporal layer met it
        records = [QueryRecord("track", 1), QueryRecord("track", 2)]
        message = rf"track block embeddings need \[n, d\] rows, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            QuerySet(Tensor(np.zeros(shape)), records)

    @pytest.mark.parametrize("field", ["embeddings", "positions"])
    def test_numpy_rows_rejected(self, field):
        # unchecked, numpy rows passed the shape checks (an array has `.data`
        # and `.shape` too) and failed in the temporal layer as an AttributeError
        rows = {"embeddings": Tensor(np.zeros((2, 8), np.float32)), "positions": None}
        rows[field] = np.zeros((2, 8), np.float32)
        with pytest.raises(TypeError, match=rf"^track block {field} must be a Tensor, got a ndarray$"):
            QuerySet(records=[QueryRecord("track", 1), QueryRecord("track", 2)], **rows)

    def test_records_must_be_query_records(self):
        # unchecked, ints failed in the duplicate-id check as a bare AttributeError
        with pytest.raises(TypeError, match=r"^track block records must be QueryRecords, got a int$"):
            QuerySet(Tensor(np.zeros((2, 8), np.float32)), [1, 2])

    def test_positions_shape_must_match_embeddings(self):
        emb = Tensor(np.zeros((2, 4)))
        for shape in [(1, 4), (2, 3), (8,)]:
            message = rf"positions shape {re.escape(str(shape))} != embeddings shape \(2, 4\)"
            with pytest.raises(ValueError, match=message):
                QuerySet(emb, [QueryRecord("track", 1), QueryRecord("track", 2)], Tensor(np.zeros(shape)))

    def test_record_kind_invariants(self):
        # a record is a track query's identity: it needs an id and the kind "track"
        with pytest.raises(TypeError):
            QueryRecord("track")
        with pytest.raises(ValueError, match="unknown query kind 'detect'"):
            QueryRecord("detect", track_id=3)
        record = QueryRecord("track", 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.track_id = 4

    @pytest.mark.parametrize("track_id", ["x", True, False, 1.0, None, np.float64(2.0)])
    def test_track_id_must_be_an_integer(self, track_id):
        with pytest.raises(ValueError, match=f"track_id must be an integer, got {re.escape(repr(track_id))}"):
            QueryRecord("track", track_id=track_id)

    def test_numpy_integer_track_ids_are_accepted(self):
        records = [QueryRecord("track", track_id=i) for i in (np.int64(1), np.uint8(2), 3)]
        assert [r.track_id for r in records] == [1, 2, 3]
        with pytest.raises(ValueError, match="duplicate"):
            QuerySet(Tensor(np.zeros((2, 4))), [QueryRecord("track", np.int32(5)), QueryRecord("track", 5)])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = TrackingModel(TINY64, seed=14)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"iteration": 7})
        loaded, extra = load_checkpoint(path)
        assert extra == {"iteration": 7}
        assert loaded.cfg == model.cfg
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data), name

    def test_double_save_byte_identical(self, tmp_path):
        # the loaded model and extra save back byte for byte
        model = TrackingModel(TINY64, seed=15)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, extra={"iteration": 7})
        loaded, extra = load_checkpoint(p1)
        save_checkpoint(p2, loaded, extra=extra)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({1: "a"}, r"would load back as \{'1': 'a'\}$"),
            ({True: 1}, r"would load back as \{'true': 1\}$"),
            ({"a": (1, 2)}, r"would load back as \{'a': \[1, 2\]\}$"),
            ({1: "a", "b": 2}, r"would load back as \{'1': 'a', 'b': 2\}$"),
            ({"n": np.int64(3)}, r"^extra is not JSON: Object of type int64 is not JSON serializable$"),
        ],
        ids=["int_key", "bool_key", "tuple", "mixed_keys", "numpy_int"],
    )
    def test_extra_that_would_not_load_back_equal_rejected(self, tmp_path, extra, message):
        # unchecked, the first three loaded back changed, and the mixed keys
        # and the numpy integer raised a bare TypeError from json
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "m.ckpt", TrackingModel(TINY64), extra=extra)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrackingModel(TINY64, seed=15))
        old = path.read_bytes()

        class PayloadWriteFails:
            """A file whose payload write stops after 100 bytes and raises."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if isinstance(data, np.ndarray):
                    self.fh.write(data.tobytes()[:100])
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(
            querytrack.model, "open", lambda *args: PayloadWriteFails(open(*args)), raising=False
        )
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, TrackingModel(TINY64, seed=16))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("dtype, itemsize", [("float32", 4), ("float64", 8)])
    def test_roundtrip_in_each_dtype(self, tmp_path, dtype, itemsize):
        model = TrackingModel(dataclasses.replace(TINY, dtype=dtype), seed=23)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        version, header_len = struct.unpack("<II", raw[4:12])
        assert version == 3 and json.loads(raw[12 : 12 + header_len])["config"]["dtype"] == dtype
        n_values = sum(p.data.size for p in model.params.values())
        assert len(raw) == 12 + header_len + itemsize * n_values
        loaded, _ = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == dtype
            assert np.array_equal(p.data, loaded.params[name].data), name
        rng = np.random.default_rng(23)
        img = random_image(rng, TINY64)
        emb, pos = (Tensor(rng.standard_normal((2, TINY64.d_model)).astype(dtype)) for _ in range(2))
        ts = QuerySet(emb, [QueryRecord("track", track_id=1), QueryRecord("track", track_id=2)], pos)
        a, b = model.forward_frame(img, ts), loaded.forward_frame(img, ts)
        for x, y in ((a.class_logits, b.class_logits), (a.boxes, b.boxes), (a.hidden, b.hidden)):
            assert x.data.dtype == dtype and np.array_equal(x.data, y.data)


def rewrite_header(path, edit):
    """Rewrite the JSON header of the checkpoint at `path`, keeping its
    version and payload: edit(header) changes the decoded header in place,
    and an `edit` that is not callable is written as the whole header."""
    raw = path.read_bytes()
    version, header_len = struct.unpack("<II", raw[4:12])
    header = json.loads(raw[12 : 12 + header_len])
    if callable(edit):
        edit(header)
    else:
        header = edit
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<II", version, len(body)) + body + raw[12 + header_len :])


class TestCheckpointCorruption:
    """Each damaged file fails loudly with an error naming the file."""

    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrackingModel(TINY64, seed=18))
        return path

    @pytest.mark.parametrize("start", [b"", b"QTC", b"qtck", b"PK\x03\x04"])
    def test_file_without_the_magic_rejected(self, tmp_path, start):
        path = self.saved(tmp_path)
        path.write_bytes(start + path.read_bytes()[4:])
        with pytest.raises(ValueError, match=r"model\.ckpt: not a checkpoint file"):
            load_checkpoint(path)

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

    def test_header_nested_past_the_decoder_depth_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        header_len = struct.unpack("<II", raw[4:12])[1]
        deep = b"[" * 200_000
        path.write_bytes(raw[:4] + struct.pack("<II", 3, len(deep)) + deep + raw[12 + header_len :])
        with pytest.raises(ValueError, match=r"model\.ckpt: header is not valid JSON"):
            load_checkpoint(path)

    @staticmethod
    def load_in_child(path):
        """The ValueError message of `load_checkpoint(path)`, or "loaded" and
        the model's image size, run in a child whose address space is capped
        at 1.5 GB: a load that allocates more than the file can hold raises
        MemoryError there, and the child fails."""
        child = f"""
import resource, sys
sys.path.insert(0, {str(Path(querytrack.__file__).parents[1])!r})
from querytrack.model import load_checkpoint
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    model, _ = load_checkpoint({str(path)!r})
except ValueError as e:
    print(e)
else:
    print("loaded", model.cfg.image_size)
"""
        # one BLAS thread, so the child's imports stay far below the cap
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stdout

    def test_header_length_past_the_file_allocates_nothing(self, tmp_path):
        # a 3.75 GiB header length in a small file: the length must be
        # checked against the file before the header is read
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<II", 3, 0xF0000000) + raw[12:])
        message = self.load_in_child(path)
        assert re.fullmatch(rf".*model\.ckpt: truncated header: {len(raw) - 12} of {0xF0000000} bytes\n", message)

    def test_theta_past_the_file_allocates_nothing(self, tmp_path):
        # a config and manifest that agree on d_model 4096: θ would take
        # 2.13 GiB, so its size must be checked against the file before θ
        # is allocated
        path, sizes = self.saved(tmp_path), []
        wide = {TINY64.d_model: 4096, 3 * TINY64.d_model: 3 * 4096}  # d and the packed q|k|v width

        def widen(header):
            header["config"]["d_model"] = 4096
            for entry in header["params"]:
                entry["shape"] = [wide.get(n, n) for n in entry["shape"]]
                sizes.append(int(np.prod(entry["shape"])))

        rewrite_header(path, widen)
        payload = TrackingModel(TINY64).theta.nbytes
        message = self.load_in_child(path)
        assert re.fullmatch(rf".*model\.ckpt: truncated payload: {payload} of {8 * sum(sizes)} bytes\n", message)

    def test_layers_past_the_manifest_declare_nothing(self, tmp_path):
        # every layer declares a parameter, so 4000 decoder layers cannot
        # match a 53-entry manifest; laying them out first took 0.6 s
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h["config"].update(n_decoder_layers=4000))
        message = self.load_in_child(path)
        assert re.fullmatch(r".*model\.ckpt: manifest has 53 entries, fewer than the config's 4001 layers\n", message)

    def test_a_large_image_size_allocates_no_positional_code_at_load(self, tmp_path):
        # θ does not depend on the image size, so this file is valid; its
        # positional code would take 1 GiB ((32768 / 8)² rows of 8 values),
        # and the first `encode` makes it, not the load
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h["config"].update(image_size=32768))
        assert self.load_in_child(path) == "loaded 32768\n"

    @pytest.mark.parametrize("header", [[1, 2], "x", 7, None])
    def test_header_not_an_object_rejected(self, tmp_path, header):
        path = self.saved(tmp_path)
        rewrite_header(path, header)
        with pytest.raises(ValueError, match=rf"model\.ckpt: header is a {type(header).__name__}, not a JSON object"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h["config"].update(n_wings=2))
        with pytest.raises(ValueError, match=r"model\.ckpt: invalid config in header.*n_wings"):
            load_checkpoint(path)

    def test_invalid_config_value_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h["config"].update(d_model=7))
        with pytest.raises(ValueError, match=r"model\.ckpt: invalid config.*d_model 7"):
            load_checkpoint(path)

    def test_missing_params_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h.pop("params"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header has no 'params' entry"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.insert(0, m.pop(1)), r"manifest entry 0 is \{'name': '[\w.]+', 'shape': \[\d+(, \d+)*\]\}, the layout's is"),
            (lambda m: m.append(dict(m[0])), r"manifest has 54 entries, longer than the layout's 53"),
            (lambda m: m[0].update(shape=[1]), r"manifest entry 0 is \{'name': '[\w.]+', 'shape': \[1\]\}, the layout's is"),
            (lambda m: m.append({"name": "extra.w", "shape": [1]}), r"manifest has 54 entries, longer than the layout's 53"),
            (lambda m: m.pop(), r"manifest has 52 entries, shorter than the layout's 53"),
            (lambda m: m[0].update(dtype="float32"), r"manifest entry 0 is \{.*'dtype': 'float32'.*\}, the layout's is"),
            (lambda m: m[0].update(shape=[float(n) for n in m[0]["shape"]]), r"manifest entry 0 is .*\.0\]"),
        ],
        ids=["reordered", "listed_twice", "other_shape", "unknown_name", "dropped_last", "extra_key", "float_shape"],
    )
    def test_manifest_must_match_the_layout(self, tmp_path, edit, message):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: edit(h["params"]))
        with pytest.raises(ValueError, match=rf"model\.ckpt: {message}"):
            load_checkpoint(path)

    def test_params_not_a_list_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h.update(params="weights"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header 'params' is a str, not a list"):
            load_checkpoint(path)

    def test_missing_extra_key_rejected(self, tmp_path):
        # and the config, the header's other JSON object
        for key in ("config", "extra"):
            path = self.saved(tmp_path)
            rewrite_header(path, lambda h: h.pop(key))
            with pytest.raises(ValueError, match=rf"model\.ckpt: header has no '{key}' entry"):
                load_checkpoint(path)

    @pytest.mark.parametrize("extra", [[1, 2], "x", 7, None])
    def test_extra_not_an_object_rejected(self, tmp_path, extra):
        # and the config, the header's other JSON object
        for key in ("config", "extra"):
            path = self.saved(tmp_path)
            rewrite_header(path, lambda h: h.update({key: extra}))
            with pytest.raises(
                ValueError, match=rf"model\.ckpt: header '{key}' is a {type(extra).__name__}, not a JSON object"
            ):
                load_checkpoint(path)
        # nor does a save write one
        if extra is not None:
            with pytest.raises(ValueError, match=rf"^extra must be a dict, got a {type(extra).__name__}$"):
                save_checkpoint(tmp_path / "other.ckpt", TrackingModel(TINY64), extra=extra)
            assert not (tmp_path / "other.ckpt").exists()

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"model\.ckpt: payload checksum .* != header crc32"):
            load_checkpoint(path)

    def test_missing_or_non_integer_crc32_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h.pop("crc32"))
        with pytest.raises(ValueError, match=r"model\.ckpt: header has no 'crc32' entry"):
            load_checkpoint(path)
        for bad in ("12", 1.5, True, None):
            path = self.saved(tmp_path)
            rewrite_header(path, lambda h: h.update(crc32=bad))
            with pytest.raises(ValueError, match=r"model\.ckpt: header 'crc32' is a \w+, not an integer"):
                load_checkpoint(path)

    @pytest.mark.parametrize("saved, claimed, message", [
        ("float32", "float64", "truncated payload"),
        ("float64", "float32", "payload checksum"),
        ("float32", "float16", "invalid config.*dtype must be"),
        ("float64", None, "invalid config.*dtype must be"),
    ])
    def test_rewritten_dtype_rejected(self, tmp_path, saved, claimed, message):
        # the payload is sized by the header's dtype: a wrong one misreads every byte
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrackingModel(dataclasses.replace(TINY, dtype=saved), seed=18))
        rewrite_header(path, lambda h: h["config"].update(dtype=claimed))
        with pytest.raises(ValueError, match=rf"model\.ckpt: {message}"):
            load_checkpoint(path)

    def test_version_2_file_rejected(self, tmp_path):
        # version 2 payloads are float64 whatever the model computes in
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        with pytest.raises(ValueError, match=r"model\.ckpt: unsupported checkpoint version 2"):
            load_checkpoint(path)

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    # 6 splits into 2 heads but not into the sine code's 4 blocks
    with pytest.raises(ValueError, match="d_model must be a multiple of 4 for the 2-d sine code"):
        ModelConfig(d_model=6, n_heads=2)
    with pytest.raises(ValueError, match="image_size 60 not divisible by PATCH_SIZE 8"):
        ModelConfig(image_size=60)
    # sizes are checked before any divisibility check divides by them
    for field, value in [
        ("n_heads", 0), ("image_size", -64), ("d_model", -8), ("n_decoder_layers", -2),
        ("ffn_dim", 0), ("n_detect_queries", 0), ("d_model", 64.0), ("n_heads", True), ("n_encoder_layers", "2"),
    ]:
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= [01], got"):
            ModelConfig(**{field: value})
    # layer counts may be 0
    assert ModelConfig(n_encoder_layers=0, n_decoder_layers=0).n_encoder_layers == 0


def test_config_dtype_validation():
    assert ModelConfig().dtype == "float32"
    for value in ("float16", "f4", "float", np.float32, np.dtype("float64"), None, 32):
        with pytest.raises(ValueError, match=r'dtype must be "float32" or "float64", got'):
            ModelConfig(dtype=value)


def test_parameters_are_float64_draws_cast_once():
    # the draws do not depend on the dtype, so a float32 model is the
    # float64 model rounded
    wide = TrackingModel(dataclasses.replace(TINY, dtype="float64"), seed=24)
    narrow = TrackingModel(dataclasses.replace(TINY, dtype="float32"), seed=24)
    assert wide.params.keys() == narrow.params.keys()
    for name, p in narrow.params.items():
        assert p.data.dtype == np.float32 and p.requires_grad, name
        assert np.array_equal(p.data, wide.params[name].data.astype(np.float32)), name
