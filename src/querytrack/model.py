"""Toy-scale encoder/decoder producing per-query scores, boxes and states.

A frame image is cut into non-overlapping patches, linearly embedded with a
2-d sine positional code and refined by standard self-attention; the frame's
query set (variable track block first, fixed learnable detect block second)
runs through pre-norm decoder layers of self-attention, cross-attention to
the frame tokens and a feed-forward net. Every layer is a stack of pre-norm
residual sublayers x + f(LN(x)), and each sublayer, its layer norm and
residual add included, is one tape op: `ad.attention` (through
`multi_head_attention`) or `ad.feed_forward`. So an encoder layer is two
ops and a decoder layer three. The class head emits logits, which
the loss takes on the tape; class probabilities are their sigmoid, derived
off the tape for matching and scoring. The box head's sigmoid keeps box
coordinates strictly inside (0, 1). Query order is slot identity: output
row i always belongs to input query i.

Between frames, the kept decoder states of frame t come back as the track
block of frame t+1 and first pass through the temporal aggregation layer
(TAN, MOTR's query interaction module): an encoder layer of its own over
the track rows, whose attention query and key add each row's previous query
as a positional term. Its output rows are the track queries that enter the
decoder.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

import querytrack.autodiff as ad
from querytrack.autodiff import ShapeError, Tensor
from querytrack.boxes import Box

__all__ = [
    "AttentionParams",
    "FramePredictions",
    "ModelConfig",
    "NormParams",
    "QueryRecord",
    "QuerySet",
    "TrackingModel",
    "load_checkpoint",
    "multi_head_attention",
    "save_checkpoint",
    "sine_positions_2d",
]


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
    positional_encoding: bool = True

    def __post_init__(self):
        # every size is checked before the divisibility checks divide by it;
        # layer counts may be 0 (no encoder layers: the tokens are the patch embedding)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "positional_encoding":
                ok, want = type(value) is bool, "a bool"
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

    @property
    def tokens_per_side(self) -> int:
        return self.image_size // self.patch_size


@dataclass
class QueryRecord:
    """Bookkeeping for one query slot."""

    kind: str  # "detect" or "track"
    track_id: int | None = None
    disappear_count: int = 0

    def __post_init__(self):
        if self.kind not in ("detect", "track"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if (self.track_id is not None) != (self.kind == "track"):
            raise ValueError("track_id must be present exactly for track queries")
        if self.disappear_count < 0:
            raise ValueError("disappear_count must be nonnegative")


@dataclass
class QuerySet:
    """Ordered query slots: the track block (variable) then the detect block.

    Embedding row i belongs to record i. Track ids are unique within a set.
    A carried track block holds the kept decoder states of the previous
    frame as `embeddings` and, optionally, the decoder input rows that
    produced them as `positions`, row-aligned with `embeddings`. The
    temporal aggregation layer adds the positions to its query and key; a
    block without positions gets no positional term.
    """

    embeddings: Tensor
    records: list[QueryRecord]
    positions: Tensor | None = None

    def __post_init__(self):
        if self.embeddings.shape[0] != len(self.records):
            raise ValueError(
                f"{self.embeddings.shape[0]} embedding rows for {len(self.records)} records"
            )
        if self.positions is not None and self.positions.shape != self.embeddings.shape:
            raise ValueError(
                f"positions shape {self.positions.shape} != embeddings shape "
                f"{self.embeddings.shape}"
            )
        seen_detect = False
        ids = []
        for r in self.records:
            if r.kind == "detect":
                seen_detect = True
            elif seen_detect:
                raise ValueError("track queries must precede the detect block")
            if r.track_id is not None:
                ids.append(r.track_id)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in query set: {ids}")

    @property
    def n_track(self) -> int:
        return sum(1 for r in self.records if r.kind == "track")

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class FramePredictions:
    """Per-query outputs of one decoded frame.

    Row i of every tensor belongs to query slot i. `queries` holds the
    decoder's input rows, so a caller can gather the next track block's
    states (`hidden`) and positions (`queries`) with one row index.
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

    def box_list(self) -> list[Box]:
        return [Box(*row) for row in self.boxes.data.tolist()]

    def __len__(self) -> int:
        return self.class_logits.shape[0]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    norm_attn: NormParams
    ffn: FfnParams
    norm_ffn: NormParams


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    norm_self: NormParams
    cross_attn: AttentionParams
    norm_cross: NormParams
    ffn: FfnParams
    norm_ffn: NormParams


class _ParamFactory:
    """Creates named leaf tensors and collects them into a flat dict."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def linear(self, name: str, fan_in: int, fan_out: int, bias: float = 0.0):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = self.add(f"{name}.w", self.rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        b = self.add(f"{name}.b", np.full(fan_out, bias))
        return w, b

    def norm(self, name: str, d: int) -> NormParams:
        return NormParams(
            gain=self.add(f"{name}.gain", np.ones(d)),
            bias=self.add(f"{name}.bias", np.zeros(d)),
        )

    def attention(self, name: str, d: int) -> AttentionParams:
        wq, bq = self.linear(f"{name}.q", d, d)
        wk, bk = self.linear(f"{name}.k", d, d)
        wv, bv = self.linear(f"{name}.v", d, d)
        wo, bo = self.linear(f"{name}.out", d, d)
        return AttentionParams(wq, bq, wk, bk, wv, bv, wo, bo)

    def ffn(self, name: str, d: int, hidden: int) -> FfnParams:
        w1, b1 = self.linear(f"{name}.inner", d, hidden)
        w2, b2 = self.linear(f"{name}.outer", hidden, d)
        return FfnParams(w1, b1, w2, b2)

    def encoder_layer(self, name: str, d: int, hidden: int) -> EncoderLayerParams:
        return EncoderLayerParams(
            attn=self.attention(f"{name}.attn", d),
            norm_attn=self.norm(f"{name}.norm_attn", d),
            ffn=self.ffn(f"{name}.ffn", d, hidden),
            norm_ffn=self.norm(f"{name}.norm_ffn", d),
        )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def multi_head_attention(
    x: Tensor, norm: NormParams, p: AttentionParams, n_heads: int,
    memory: Tensor | None = None, positions: Tensor | None = None,
) -> Tensor:
    """One pre-norm residual attention sublayer, x + attend(LN(x)), as the one
    op `ad.attention`, which also checks the shapes.

    Self-attention by default (query, key and value are the normalised x,
    the query and key plus `positions` when given); with `memory`, the
    normalised x attends to the memory rows instead. Rows of the attention
    weights are a softmax, hence row-stochastic.
    """
    return ad.attention(
        x, norm.gain, norm.bias, (p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo), n_heads,
        memory=memory, positions=positions,
    )


def _encoder_layer(
    x: Tensor, p: EncoderLayerParams, n_heads: int, positions: Tensor | None = None
) -> Tensor:
    """One pre-norm self-attention sublayer, then one pre-norm FFN sublayer.

    The attention's query and key are the `norm_attn`-normalised x plus
    `positions` (when given), its value is the normalised x alone. The
    encoder layers run it without positions; the temporal aggregation layer
    passes the carried block's previous queries. MOTR's temporal layer is
    post-norm; pre-norm keeps one convention across the model.
    """
    x = multi_head_attention(x, p.norm_attn, p.attn, n_heads, positions=positions)
    f = p.ffn
    return ad.feed_forward(x, p.norm_ffn.gain, p.norm_ffn.bias, f.w1, f.b1, f.w2, f.b2)


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

    Parameters are read-shared during inference; training updates them from a
    single worker.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        f = _ParamFactory(np.random.default_rng(seed))
        d, ffn = cfg.d_model, cfg.ffn_dim
        in_dim = cfg.patch_size * cfg.patch_size * cfg.n_channels

        self.patch_w, self.patch_b = f.linear("patch_embed", in_dim, d)
        self.encoder_layers = [
            f.encoder_layer(f"encoder.{i}", d, ffn) for i in range(cfg.n_encoder_layers)
        ]
        self.decoder_layers = [
            DecoderLayerParams(
                self_attn=f.attention(f"decoder.{i}.self_attn", d),
                norm_self=f.norm(f"decoder.{i}.norm_self", d),
                cross_attn=f.attention(f"decoder.{i}.cross_attn", d),
                norm_cross=f.norm(f"decoder.{i}.norm_cross", d),
                ffn=f.ffn(f"decoder.{i}.ffn", d, ffn),
                norm_ffn=f.norm(f"decoder.{i}.norm_ffn", d),
            )
            for i in range(cfg.n_decoder_layers)
        ]
        self.norm_out = f.norm("decoder.norm_out", d)
        self.detect_queries = f.add(
            "detect_queries", f.rng.normal(0.0, 0.02, size=(cfg.n_detect_queries, d))
        )
        # negative class bias starts scores low so background dominates early
        self.cls_w, self.cls_b = f.linear("head.class", d, cfg.n_classes, bias=-2.0)
        self.box_w1, self.box_b1 = f.linear("head.box.inner", d, d)
        self.box_w2, self.box_b2 = f.linear("head.box.outer", d, 4)
        self.temporal = f.encoder_layer("temporal", d, ffn)
        self.params = f.params
        side = cfg.tokens_per_side
        self._pos = sine_positions_2d(side, side, d) if cfg.positional_encoding else None

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    # -- encoding ----------------------------------------------------------

    def encode(self, image: Tensor) -> Tensor:
        """Image [H,W,C] -> frame tokens [T, d_model]; no gradient reaches the image."""
        cfg = self.cfg
        if image.shape != (cfg.image_size, cfg.image_size, cfg.n_channels):
            raise ShapeError(
                f"image shape {image.shape} != configured "
                f"({cfg.image_size}, {cfg.image_size}, {cfg.n_channels})"
            )
        x = ad.linear(Tensor(_cut_patches(image.data, cfg.patch_size)), self.patch_w, self.patch_b)
        if self._pos is not None:
            x = ad.add(x, Tensor(self._pos))
        for layer in self.encoder_layers:
            x = _encoder_layer(x, layer, cfg.n_heads)
        return x

    # -- decoding ----------------------------------------------------------

    def aggregate(self, track_set: QuerySet) -> Tensor:
        """Temporal aggregation: carried track block -> this frame's track queries.

        Self-attention over the track rows only, with no slot-index term, so
        output row i belongs to input row i and swapping two rows (with
        their positions) swaps the two outputs.
        """
        return _encoder_layer(
            track_set.embeddings, self.temporal, self.cfg.n_heads, track_set.positions
        )

    def frame_queries(self, track_set: QuerySet | None = None) -> QuerySet:
        """Build the decoder's query set: aggregated track block, then detect block.

        A non-empty carried track block passes through `aggregate` and is
        concatenated in front of the learnable detect block. The result has
        no positions: the decoder uses none.
        """
        detect_records = [QueryRecord("detect") for _ in range(self.cfg.n_detect_queries)]
        if track_set is None or len(track_set) == 0:
            return QuerySet(self.detect_queries, detect_records)
        return QuerySet(
            ad.concat([self.aggregate(track_set), self.detect_queries], axis=0),
            list(track_set.records) + detect_records,
        )

    def decode(self, queries: QuerySet, memory: Tensor) -> FramePredictions:
        """Refine queries against frame tokens; emit class logits and boxes."""
        cfg = self.cfg
        if len(queries) == 0:
            raise ValueError("query set is empty; the detect block is mandatory")
        if memory.shape[1] != cfg.d_model:
            raise ShapeError(f"memory width {memory.shape[1]} != d_model {cfg.d_model}")
        x = queries.embeddings
        for layer in self.decoder_layers:
            x = multi_head_attention(x, layer.norm_self, layer.self_attn, cfg.n_heads)
            x = multi_head_attention(
                x, layer.norm_cross, layer.cross_attn, cfg.n_heads, memory=memory
            )
            f = layer.ffn
            x = ad.feed_forward(x, layer.norm_ffn.gain, layer.norm_ffn.bias, f.w1, f.b1, f.w2, f.b2)
        hidden = ad.layer_norm(x, self.norm_out.gain, self.norm_out.bias)
        class_logits = ad.linear(hidden, self.cls_w, self.cls_b)
        boxes = ad.sigmoid(ad.mlp(hidden, self.box_w1, self.box_b1, self.box_w2, self.box_b2))
        return FramePredictions(class_logits, boxes, hidden, queries.embeddings, queries.n_track)

    def forward_frame(self, image: Tensor, track_set: QuerySet | None = None) -> FramePredictions:
        return self.decode(self.frame_queries(track_set), self.encode(image))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"QTCK"
_VERSION = 2


def save_checkpoint(path, model: TrackingModel, extra: dict | None = None) -> None:
    """Write config + named parameters to a deterministic binary container.

    Layout: magic, version, length-prefixed JSON header (config, extra
    metadata, parameter manifest in sorted name order, `zlib.crc32` of the
    payloads), then raw float64 little-endian parameter payloads in manifest
    order. Saving the same model twice yields byte-identical files.
    """
    manifest = []
    payloads = []
    crc = 0
    for name in sorted(model.params):
        data = model.params[name].data
        manifest.append({"name": name, "shape": list(data.shape)})
        payloads.append(np.ascontiguousarray(data, dtype="<f8").tobytes())
        crc = zlib.crc32(payloads[-1], crc)
    header = json.dumps(
        {
            "config": {f.name: getattr(model.cfg, f.name) for f in fields(model.cfg)},
            "crc32": crc,
            "extra": extra or {},
            "params": manifest,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_checkpoint(path) -> tuple[TrackingModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: truncated header prefix: {len(prefix)} of 8 bytes")
        version, header_len = struct.unpack("<II", prefix)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        raw = fh.read(header_len)
        if len(raw) != header_len:
            raise ValueError(f"{path}: truncated header: {len(raw)} of {header_len} bytes")
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: header is not valid JSON: {e}") from e
        try:
            cfg = ModelConfig(**header["config"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: invalid config in header: {e!r}") from e
        for key in ("params", "extra", "crc32"):
            if key not in header:
                raise ValueError(f"{path}: header has no {key!r} entry")
        if type(header["crc32"]) is not int:
            raise ValueError(
                f"{path}: header 'crc32' is a {type(header['crc32']).__name__}, not an integer"
            )
        manifest = header["params"]
        if not isinstance(manifest, list):
            raise ValueError(f"{path}: header 'params' is a {type(manifest).__name__}, not a list")
        for entry in manifest:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])
            ):
                raise ValueError(
                    f"{path}: manifest entry {entry!r} needs a name and a shape "
                    "of nonnegative integers"
                )
        model = TrackingModel(cfg)
        missing = sorted(set(model.params) - {entry["name"] for entry in manifest})
        if missing:
            raise ValueError(f"{path}: manifest omits parameters {missing}")
        crc = 0
        for entry in manifest:
            name, shape = entry["name"], tuple(entry["shape"])
            if name not in model.params:
                raise ValueError(f"{path}: unknown parameter {name}")
            n_bytes = int(np.prod(shape)) * 8
            blob = fh.read(n_bytes)
            if len(blob) != n_bytes:
                raise ValueError(
                    f"{path}: truncated payload for {name}: {len(blob)} of {n_bytes} bytes"
                )
            crc = zlib.crc32(blob, crc)
            data = np.frombuffer(blob, dtype="<f8").reshape(shape)
            if model.params[name].data.shape != data.shape:
                raise ValueError(f"{path}: shape mismatch for {name}")
            # layer structs reference the same Tensor objects, so assigning
            # .data here updates the whole model
            model.params[name].data = data.astype(np.float64).copy()
        if crc != header["crc32"]:
            raise ValueError(
                f"{path}: payload checksum {crc:#010x} != header crc32 {header['crc32']:#010x}"
            )
        trailing = len(fh.read())
        if trailing:
            raise ValueError(f"{path}: {trailing} trailing bytes after the last payload")
    return model, header["extra"]
