"""The tests' one small model configuration: 16×16 one-channel images cut
into four patches, width 8, one encoder and one decoder layer, and four
detect queries. It computes in float32, the model's default; a float64
user takes `dataclasses.replace(TINY, dtype="float64")`."""

from querytrack.model import ModelConfig

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
