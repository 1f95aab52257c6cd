"""Toy-scale encoder/decoder producing per-query scores, boxes and states.

A frame image is cut into non-overlapping patches, linearly embedded with a
2-d sine positional code and refined by standard self-attention; the frame's
queries (the track queries, a variable block, first; the fixed learnable
detect block, which the decoder appends itself, second) run through pre-norm
decoder layers of self-attention, cross-attention to the frame tokens and a
feed-forward net. Every layer is a stack of pre-norm residual sublayers
x + f(LN(x)), and each sublayer, its layer norm and residual add included,
is one tape op: `ad.attention` (through
`multi_head_attention`) or `ad.feed_forward`. A sublayer's parameters are
one record, `ad.AttentionParams` (gain, bias, w_in, b_in, wo, bo, n_heads)
or `ad.FeedForwardParams` (gain, bias, w1, b1, w2, b2), and a layer is a
tuple of records: (attention, ffn) for an encoder layer, so two ops, and
(self-attention, cross-attention, ffn) for a decoder layer, so three. As
in DETR's `in_proj_weight`, an attention's one in-projection `<attn>.in.w`
[d,3d] and `<attn>.in.b` [3d] packs the query, key and value projections
as column blocks in that order, so self-attention projects all three rows
with one product and its backward takes their weight and input gradients
as one product each. The records check every parameter shape and the head
count once, when the model lays out its parameters (a checkpoint load
too); on each call an op checks only its inputs: the rows' width, the
memory and the positions.
The class head emits logits, which the loss takes on the tape; class
probabilities are their sigmoid, derived off the tape for matching and
scoring. The box head's sigmoid keeps box coordinates in [0, 1], strictly
inside (0, 1) for box logits in about (-709.7, 36.7) in float64 and
(-88.7, 16.6) in float32: past those the sigmoid rounds to exactly 0 or 1.
Query order is slot identity: output row i always belongs to input query i.

The model computes in one dtype, `ModelConfig.dtype`: float32 (the
default) or float64. Parameters, the positional code and the image patches
are cast to it, so every op on the tape runs in it; a carried track block
must already be in it. float64 is for gradient checks and exact
references.

Between frames, the kept decoder states of frame t come back as the track
block of frame t+1 and first pass through the temporal aggregation layer
(TAN, MOTR's query interaction module): an encoder layer of its own over
the track rows, whose attention query and key add each row's previous query
as a positional term. Its output rows are the track queries that enter the
decoder. A `QuerySet` is that carried block and nothing else, one
`QueryRecord` (track id) per row; which decoder rows are track rows is one
count, `FramePredictions.n_track`, as the track rows come first.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import ShapeError, Tensor

__all__ = [
    "FramePredictions",
    "ModelConfig",
    "QueryRecord",
    "QuerySet",
    "TrackingModel",
    "load_checkpoint",
    "multi_head_attention",
    "save_checkpoint",
    "sine_positions_2d",
]


_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    patch_size: int = 8
    n_channels: int = 1
    d_model: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 3
    n_detect_queries: int = 16
    n_classes: int = 1
    ffn_dim: int = 128
    dtype: str = "float32"  # or "float64": the dtype of every parameter and op output

    def __post_init__(self):
        # every size is checked before the divisibility checks divide by it;
        # layer counts may be 0 (no encoder layers: the tokens are the embedded,
        # position-coded patches)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "dtype":
                ok, want = type(value) is str and value in _DTYPES, '"float32" or "float64"'
            else:
                least = 0 if f.name.endswith("_layers") else 1
                ok, want = type(value) is int and value >= least, f"an integer >= {least}"
            if not ok:
                raise ValueError(f"{f.name} must be {want}, got {value!r}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model % 4:
            raise ValueError("d_model must be a multiple of 4 for the 2-d sine code")
        if self.image_size % self.patch_size:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )


@dataclass(frozen=True)
class QueryRecord:
    """The identity of one track query: kind "track", the only kind, and
    its integer track id (a numpy integer too, but not a bool)."""

    kind: str
    track_id: int

    def __post_init__(self):
        if self.kind != "track":
            raise ValueError(f"unknown query kind {self.kind!r}; a record names a track query")
        if not ad._is_integer(self.track_id):
            raise ValueError(f"track_id must be an integer, got {self.track_id!r}")


@dataclass
class QuerySet:
    """A carried track block: the kept decoder states of the previous frame.

    Embedding row i belongs to record i, and track ids are unique within a
    set. `positions`, optional and row-aligned with `embeddings`, are the
    decoder input rows that produced them: the temporal aggregation layer
    adds them to its query and key, and a block without positions gets no
    positional term. The model appends its own detect block. Embeddings
    and positions that are not `Tensor`s, and records that are not
    `QueryRecord`s, raise a TypeError naming them.
    """

    embeddings: Tensor
    records: list[QueryRecord]
    positions: Tensor | None = None

    def __post_init__(self):
        for name in ("embeddings", "positions"):
            t = getattr(self, name)
            if not (isinstance(t, Tensor) or name == "positions" and t is None):
                raise TypeError(f"track block {name} must be a Tensor, got a {type(t).__name__}")
        for r in self.records:
            if not isinstance(r, QueryRecord):
                raise TypeError(f"track block records must be QueryRecords, got a {type(r).__name__}")
        if self.embeddings.data.ndim != 2:
            raise ValueError(f"track block embeddings need [n, d] rows, got shape {self.embeddings.shape}")
        if self.embeddings.shape[0] != len(self.records):
            raise ValueError(
                f"{self.embeddings.shape[0]} embedding rows for {len(self.records)} records"
            )
        if self.positions is not None and self.positions.shape != self.embeddings.shape:
            raise ValueError(
                f"positions shape {self.positions.shape} != embeddings shape "
                f"{self.embeddings.shape}"
            )
        ids = [r.track_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in query set: {ids}")

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class FramePredictions:
    """Per-query outputs of one decoded frame.

    Row i of every tensor belongs to query slot i: the first `n_track` rows
    are the track queries, the rest the detect block. `queries` holds the
    decoder's input rows, the aggregated track rows then the detect block,
    so a caller can gather the next track block's states (`hidden`) and
    positions (`queries`) with one row index.
    """

    class_logits: Tensor  # [n, n_classes]
    boxes: Tensor  # [n, 4], (cx, cy, w, h)
    hidden: Tensor  # [n, d_model]
    queries: Tensor  # [n, d_model], decoder input rows
    n_track: int

    @property
    def class_probs(self) -> Tensor:
        """Sigmoid of the class logits, computed off the tape."""
        return ad.sigmoid(Tensor(self.class_logits.data))

    def scores(self) -> np.ndarray:
        """Best class probability per query."""
        return self.class_probs.data.max(axis=1)

    def box_list(self) -> np.ndarray:
        """The predicted boxes as float64 [n, 4] rows, the form the matcher
        takes; a copy, off the tape."""
        return self.boxes.data.astype(np.float64)

    def __len__(self) -> int:
        return self.class_logits.shape[0]


# ---------------------------------------------------------------------------
# parameter declaration
# ---------------------------------------------------------------------------


class _ParamFactory:
    """Declares named leaf tensors: each one's shape and initialiser.

    Declaring draws nothing: each leaf is an `autodiff.view_leaf` until
    `TrackingModel` lays θ out under it. `inits` keeps the declaration
    order, which is the RNG order; an initialiser returns float64 draws (or
    a constant), so the draws do not depend on the dtype, and they are cast
    once into the view.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.inits: dict[str, object] = {}

    def add(self, name: str, shape: tuple[int, ...], init) -> Tensor:
        """Declare `name`; init(rng, shape) gives its initial values."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        self.params[name] = t = ad.view_leaf(shape)
        self.inits[name] = init
        return t

    def linear(self, name: str, fan_in: int, fan_out: int, blocks: int = 1, bias: float = 0.0):
        """`name.w` [fan_in, blocks * fan_out] and `name.b`, each column block
        of the weight a Xavier-uniform [fan_in, fan_out] draw, in block order,
        and every bias entry `bias`."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))

        def init(rng, shape):
            return np.hstack([rng.uniform(-limit, limit, size=(fan_in, fan_out)) for _ in range(blocks)])

        w = self.add(f"{name}.w", (fan_in, blocks * fan_out), init)
        b = self.add(f"{name}.b", (blocks * fan_out,), lambda rng, shape: bias)
        return w, b

    def norm(self, name: str, d: int) -> tuple[Tensor, Tensor]:
        gain = self.add(f"{name}.gain", (d,), lambda rng, shape: 1.0)
        return gain, self.add(f"{name}.bias", (d,), lambda rng, shape: 0.0)

    def layer(self, name: str, d: int, hidden: int, n_heads: int, *attentions) -> tuple:
        """A layer's sublayer records: an `ad.AttentionParams` with `n_heads`
        heads for each (attention, norm) name pair, then the feed-forward
        net's `ad.FeedForwardParams`. Each record's leaves are declared in
        its field order, its layer norm's first; a norm draws nothing, so
        the draws are its linears' in order. An attention's `in` linear
        packs its query, key and value projections as three [d,d] column
        blocks, drawn in that order."""
        sublayers = [
            ad.AttentionParams(
                *self.norm(f"{name}.{norm}", d),
                *self.linear(f"{name}.{attn}.in", d, d, 3), *self.linear(f"{name}.{attn}.out", d, d), n_heads,
            )
            for attn, norm in attentions
        ]
        ffn = ad.FeedForwardParams(
            *self.norm(f"{name}.norm_ffn", d),
            *self.linear(f"{name}.ffn.inner", d, hidden), *self.linear(f"{name}.ffn.outer", hidden, d),
        )
        return (*sublayers, ffn)


def _group_of(name: str) -> str:
    """The module a parameter belongs to: `encoder.<i>`, `decoder.<i>`,
    `decoder.norm_out`, `head.class` and `head.box` in the stacked modules,
    the first name component (`patch_embed`, `temporal`, ...) otherwise."""
    parts = name.split(".")
    return ".".join(parts[:2] if parts[0] in ("encoder", "decoder", "head") else parts[:1])


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def multi_head_attention(
    x: Tensor, p: ad.AttentionParams, memory: Tensor | None = None, positions: Tensor | None = None,
) -> Tensor:
    """One pre-norm residual attention sublayer, x + attend(LN(x)), as the one
    op `ad.attention`, which checks the inputs' shapes. `p` is the
    sublayer's record, its parameters checked when it was made: its layer
    norm's affine, the packed in-projection w_in [d,3d] and b_in [3d], whose
    column blocks project the query, key and value rows in that order, the
    out-projection wo [d,d], bo [d], and the head count. Rows that share an
    input share one product with w_in: [Q|K|V] in self-attention, [Q|K] and
    V with positions, Q and [K|V] with memory; the backward takes each
    product's weight, bias and input gradient as one product each
    (`ad.attention`).

    Self-attention by default (query, key and value are the normalised x,
    the query and key plus `positions` when given); with `memory`, the
    normalised x attends to the memory rows instead. Rows of the attention
    weights are a softmax, hence row-stochastic.
    """
    return ad.attention(x, p, memory=memory, positions=positions)


def _encoder_layer(x: Tensor, layer: tuple, positions: Tensor | None = None) -> Tensor:
    """One pre-norm self-attention sublayer, then one pre-norm FFN sublayer.

    `layer` is their (attention, ffn) parameter records. The attention's
    query and key are the normalised x plus `positions` (when given), its
    value is the normalised x alone. The encoder layers run it without
    positions; the temporal aggregation layer passes the carried block's
    previous queries. MOTR's temporal layer is post-norm; pre-norm keeps one
    convention across the model.
    """
    attention, ffn = layer
    return ad.feed_forward(multi_head_attention(x, attention, positions=positions), ffn)


def sine_positions_2d(n_rows: int, n_cols: int, d: int) -> np.ndarray:
    """Fixed 2-d sine/cosine code: half the channels per grid axis."""
    half = d // 2

    def axis_code(n: int) -> np.ndarray:
        pos = np.arange(n, dtype=np.float64)[:, None]
        freq = np.exp(np.arange(0, half, 2, dtype=np.float64) * (-np.log(10000.0) / half))
        code = np.zeros((n, half))
        code[:, 0::2] = np.sin(pos * freq)
        code[:, 1::2] = np.cos(pos * freq)
        return code

    rows = np.repeat(axis_code(n_rows), n_cols, axis=0)
    cols = np.tile(axis_code(n_cols), (n_rows, 1))
    return np.concatenate([rows, cols], axis=1)


def _cut_patches(image: np.ndarray, patch: int) -> np.ndarray:
    """[H,W,C] image -> [T, patch*patch*C] rows, one per non-overlapping patch.

    Patches scan row-major over the patch grid; T = (H/patch)*(W/patch). The
    cut is plain numpy: nothing differentiates with respect to an image.
    """
    h, w, c = image.shape
    hp, wp = h // patch, w // patch
    return (
        image.reshape(hp, patch, wp, patch, c)
        .transpose(0, 2, 1, 3, 4)
        .reshape(hp * wp, patch * patch * c)
    )


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class TrackingModel:
    """Owns all learnable parameters, including the temporal aggregation layer.

    Every parameter value lives in one vector `theta` (θ), in the model's
    dtype, laid out in sorted-name order: the checkpoint manifest's order.
    `params` maps each parameter name, in that order, to a view leaf of θ
    (`autodiff.leaf_group`); the layers' sublayer records (`encoder_layers`,
    `decoder_layers`, `temporal`) and the head attributes hold the same
    tensors. `parameters()` groups the views by module. Update parameters
    in place: rebinding a view's `.data` detaches it from θ.

    Parameters are read-shared during inference; training updates them from a
    single worker.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        inits = self._build(cfg)
        self._lay_out()
        rng = np.random.default_rng(seed)
        for name, init in inits.items():
            p = self.params[name]
            p.data[...] = init(rng, p.shape)

    def _build(self, cfg: ModelConfig) -> dict:
        """Declare every parameter as a view leaf with no memory behind it
        yet, and return the initialisers; `_lay_out` allocates θ under them."""
        self.cfg = cfg
        f = _ParamFactory()
        d, ffn = cfg.d_model, cfg.ffn_dim
        in_dim = cfg.patch_size * cfg.patch_size * cfg.n_channels

        self.patch_w, self.patch_b = f.linear("patch_embed", in_dim, d)
        encoder_attn = ("attn", "norm_attn")
        self.encoder_layers = [
            f.layer(f"encoder.{i}", d, ffn, cfg.n_heads, encoder_attn) for i in range(cfg.n_encoder_layers)
        ]
        self.decoder_layers = [
            f.layer(
                f"decoder.{i}", d, ffn, cfg.n_heads, ("self_attn", "norm_self"), ("cross_attn", "norm_cross")
            )
            for i in range(cfg.n_decoder_layers)
        ]
        self.norm_out = f.norm("decoder.norm_out", d)
        self.detect_queries = f.add(
            "detect_queries", (cfg.n_detect_queries, d),
            lambda rng, shape: rng.normal(0.0, 0.02, size=shape),
        )
        # negative class bias starts scores low so background dominates early
        self.cls_w, self.cls_b = f.linear("head.class", d, cfg.n_classes, bias=-2.0)
        self.box_w1, self.box_b1 = f.linear("head.box.inner", d, d)
        self.box_w2, self.box_b2 = f.linear("head.box.outer", d, 4)
        self.temporal = f.layer("temporal", d, ffn, cfg.n_heads, encoder_attn)

        self.params: dict[str, Tensor] = {name: f.params[name] for name in sorted(f.params)}
        return f.inits

    def _lay_out(self) -> None:
        """Allocate θ, uninitialised, under the declared views, group them
        by module, and make the patches' positional code."""
        cfg = self.cfg
        self.theta = np.empty(sum(p.data.size for p in self.params.values()), dtype=cfg.dtype)
        self._groups: dict[str, Tensor] = {}
        start = 0
        for group_name, members in groupby(self.params, key=_group_of):
            assert group_name not in self._groups, f"group {group_name} is not contiguous"
            views = [self.params[name] for name in members]
            stop = start + sum(v.data.size for v in views)
            self._groups[group_name] = ad.leaf_group(self.theta[start:stop], views)
            start = stop
        side = cfg.image_size // cfg.patch_size
        self._pos = Tensor(sine_positions_2d(side, side, cfg.d_model).astype(cfg.dtype))

    def parameters(self) -> dict[str, Tensor]:
        """One 1-d leaf per module, by module name, in θ's order; each is a
        contiguous slice of θ, and its gradient gathers its parameters'.

        A group is a module the forward reaches as a whole: `patch_embed`,
        `encoder.<i>`, `temporal`, `decoder.<i>`, `decoder.norm_out`,
        `detect_queries`, `head.class` and `head.box`. Each runs as one op or
        a chain of ops that a backward pass either reaches or not (the
        temporal layer runs only on a carried track block, the box head
        gets a gradient only when a row is matched), so after a backward a
        group's `.grad` is None exactly when none of its parameters was
        reached, and an optimizer that skips gradient-less tensors skips
        the same parameters over groups as over `params`.
        """
        return self._groups

    # -- encoding ----------------------------------------------------------

    def encode(self, image: Tensor) -> Tensor:
        """Image [H,W,C] -> frame tokens [T, d_model]; no gradient reaches the image.

        The image, a `Tensor`, is data, not state: its patches are cast to
        the model's dtype. An image with a pixel that is NaN or infinite in
        that dtype (a float64 pixel past float32's range is infinite in
        float32) raises a ValueError that counts them, before any op runs:
        one such pixel would turn every token, and so every box and logit,
        into NaN.
        """
        cfg = self.cfg
        if not isinstance(image, Tensor):
            raise TypeError(f"encode needs the image as a Tensor, got a {type(image).__name__}")
        if image.shape != (cfg.image_size, cfg.image_size, cfg.n_channels):
            raise ShapeError(
                f"image shape {image.shape} != configured "
                f"({cfg.image_size}, {cfg.image_size}, {cfg.n_channels})"
            )
        pixels = image.data.astype(cfg.dtype, copy=False)
        if not np.isfinite(pixels).all():
            n_bad = pixels.size - np.count_nonzero(np.isfinite(pixels))
            raise ValueError(f"image has {n_bad} NaN or infinite pixels in {cfg.dtype}")
        patches = _cut_patches(pixels, cfg.patch_size)
        x = ad.add(ad.linear(Tensor(patches), self.patch_w, self.patch_b), self._pos)
        for layer in self.encoder_layers:
            x = _encoder_layer(x, layer)
        return x

    # -- decoding ----------------------------------------------------------

    def _check_rows(self, name: str, t: Tensor) -> None:
        """The model's one rule for the rows it is handed: `t` must be
        [n, d_model] rows, else a ShapeError, in the model's dtype, else a
        ValueError, each naming `name`. It holds for the memory and the
        track queries `decode` takes and for a carried block's embeddings
        and positions."""
        cfg = self.cfg
        if t.data.ndim != 2 or t.shape[1] != cfg.d_model:
            raise ShapeError(f"{name} need [n, {cfg.d_model}] rows, got {t.shape}")
        if t.data.dtype != cfg.dtype:
            raise ValueError(f"{name} are {t.data.dtype}, the model computes in {cfg.dtype}")

    def aggregate(self, track_set: QuerySet) -> Tensor:
        """Temporal aggregation: carried track block -> this frame's track queries.

        Self-attention over the track rows only, with no slot-index term, so
        output row i belongs to input row i and swapping two rows (with
        their positions) swaps the two outputs. The carried block is model
        state: its embeddings and positions must be [n, d_model] rows in the
        model's dtype (`_check_rows`).
        """
        self._check_rows("track block embeddings", track_set.embeddings)
        if track_set.positions is not None:
            self._check_rows("track block positions", track_set.positions)
        return _encoder_layer(track_set.embeddings, self.temporal, track_set.positions)

    def decode(self, memory: Tensor, track_queries: Tensor | None = None) -> FramePredictions:
        """Refine the frame's queries against its tokens; emit class logits and boxes.

        The queries are the `track_queries` rows, when given, followed by the
        learnable detect block, joined by one `ad.concat`. `memory` is the
        frame's tokens, [T, d_model], and the track queries are [n, d_model]
        rows; both in the model's dtype (`_check_rows`).
        """
        self._check_rows("memory tokens", memory)
        queries = self.detect_queries
        if track_queries is not None:
            self._check_rows("track queries", track_queries)
            queries = ad.concat([track_queries, queries])
        x = queries
        for self_attn, cross_attn, ffn in self.decoder_layers:
            x = multi_head_attention(x, self_attn)
            x = multi_head_attention(x, cross_attn, memory=memory)
            x = ad.feed_forward(x, ffn)
        hidden = ad.layer_norm(x, *self.norm_out)
        class_logits = ad.linear(hidden, self.cls_w, self.cls_b)
        boxes = ad.sigmoid(ad.mlp(hidden, self.box_w1, self.box_b1, self.box_w2, self.box_b2))
        n_track = queries.shape[0] - self.cfg.n_detect_queries
        return FramePredictions(class_logits, boxes, hidden, queries, n_track)

    def forward_frame(self, image: Tensor, track_set: QuerySet | None = None) -> FramePredictions:
        """One frame: aggregate a non-empty carried track block, encode the
        image, then decode the track queries and the detect block."""
        track_queries = None if track_set is None or len(track_set) == 0 else self.aggregate(track_set)
        return self.decode(self.encode(image), track_queries)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"QTCK"
_VERSION = 3
# the header's entries besides its config, in the order they are checked:
# (key, the one Python type `json.loads` gives a valid value, its wording
# in the error); `type(...) is int` refuses true and 1.0 as a crc32
_HEADER_ENTRIES = (("params", list, "a list"), ("extra", dict, "a JSON object"), ("crc32", int, "an integer"))


def _payload_dtype(cfg: ModelConfig) -> np.dtype:
    """Little-endian payload dtype of a checkpoint: `<f4` or `<f8`, the model's."""
    return np.dtype(cfg.dtype).newbyteorder("<")


def _manifest(model: TrackingModel) -> list[dict]:
    """The header's parameter manifest: every parameter's name and shape, in θ's order."""
    return [{"name": name, "shape": list(p.shape)} for name, p in model.params.items()]


def save_checkpoint(path, model: TrackingModel, extra: dict | None = None) -> None:
    """Write config + named parameters to a deterministic binary container.

    Layout (version 3): magic `QTCK`, then `<II` version and header length,
    then the JSON header (config with its `dtype`, extra metadata,
    parameter manifest in sorted name order, `zlib.crc32` of the payload),
    then the payload: θ (`model.theta`, every parameter's values in
    manifest order) as raw little-endian values in the model's dtype,
    `<f4` for float32, `<f8` for float64. Saving the same model twice
    yields byte-identical files.

    The file is written under a temporary name in the same directory and
    then renamed onto `path`, so a write that fails midway leaves a file
    already at `path` as it was, and no temporary file behind. `extra`
    must be a dict, as the loader requires of the header's `extra`.
    """
    if extra is not None and not isinstance(extra, dict):
        raise ValueError(f"extra must be a dict, got a {type(extra).__name__}")
    payload = np.ascontiguousarray(model.theta, dtype=_payload_dtype(model.cfg))
    header = json.dumps(
        {
            "config": {f.name: getattr(model.cfg, f.name) for f in fields(model.cfg)},
            "crc32": zlib.crc32(payload),
            "extra": extra or {},
            "params": _manifest(model),
        },
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")  # a new name: a failure below removes only what this call made
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _VERSION, len(header)))
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[TrackingModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata).

    The header must be a JSON object with a valid config and the entries
    of `_HEADER_ENTRIES`, each of its type; the first that is missing or of
    another type raises a ValueError naming it. The model's layout is built
    without drawing initial values; the header's manifest must equal that
    layout's, entry for entry and as JSON (so a shape of 8.0 or true is not
    8 or 1), and the payload is read into θ, whose checksum must be the
    header's crc32. Nothing is allocated past what the file can hold: the
    header length and θ's size are each checked against the bytes left in
    the file before they are read, and a config with more layers than the
    manifest has entries (every layer declares a parameter) is rejected
    before a layer is declared.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: truncated header prefix: {len(prefix)} of 8 bytes")
        version, header_len = struct.unpack("<II", prefix)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(fh.fileno()).st_size
        if header_len > size - fh.tell():
            raise ValueError(f"{path}: truncated header: {size - fh.tell()} of {header_len} bytes")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, deep nesting
            raise ValueError(f"{path}: header is not valid JSON: {e}") from e
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is a {type(header).__name__}, not a JSON object")
        try:
            cfg = ModelConfig(**header["config"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: invalid config in header: {e!r}") from e
        for key, kind, wording in _HEADER_ENTRIES:
            if key not in header:
                raise ValueError(f"{path}: header has no {key!r} entry")
            if type(header[key]) is not kind:
                raise ValueError(f"{path}: header {key!r} is a {type(header[key]).__name__}, not {wording}")
        manifest = header["params"]
        n_layers = cfg.n_encoder_layers + cfg.n_decoder_layers
        if n_layers > len(manifest):
            raise ValueError(
                f"{path}: manifest has {len(manifest)} entries, fewer than the config's {n_layers} layers"
            )
        model = TrackingModel.__new__(TrackingModel)
        model._build(cfg)
        layout = _manifest(model)
        for i, (entry, want) in enumerate(zip(manifest, layout)):
            if json.dumps(entry, sort_keys=True) != json.dumps(want, sort_keys=True):
                raise ValueError(f"{path}: manifest entry {i} is {entry!r}, the layout's is {want!r}")
        if len(manifest) != len(layout):
            longer = "longer" if len(manifest) > len(layout) else "shorter"
            raise ValueError(
                f"{path}: manifest has {len(manifest)} entries, {longer} than the layout's {len(layout)}"
            )
        left = size - fh.tell()
        n_bytes = sum(p.data.size for p in model.params.values()) * _payload_dtype(cfg).itemsize
        if n_bytes > left:
            raise ValueError(f"{path}: truncated payload: {left} of {n_bytes} bytes")
        model._lay_out()
        # read straight into θ's bytes: the views keep pointing at it
        fh.readinto(model.theta)
        crc = zlib.crc32(model.theta)
        if crc != header["crc32"]:
            raise ValueError(
                f"{path}: payload checksum {crc:#010x} != header crc32 {header['crc32']:#010x}"
            )
        if left > n_bytes:
            raise ValueError(f"{path}: {left - n_bytes} trailing bytes after the last payload")
    if not _payload_dtype(cfg).isnative:
        model.theta.byteswap(inplace=True)
    return model, header["extra"]
