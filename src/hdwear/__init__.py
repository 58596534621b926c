"""hdwear: hyperdimensional-computing classification for wearable-style
time-series data — bit-packed bipolar hypervectors, adaptive single-pass
online training, iterative retraining, 1-bit model quantization, and a
bit-flip robustness harness."""

from .hv import (
    AccumHV,
    BipolarHV,
    LevelMemory,
    bind,
    bundle,
    cosine,
    dot,
    hamming,
    make_level_memory,
    random_hv,
    sign_quantize,
)

__version__ = "0.1.0"

__all__ = [
    "AccumHV",
    "BipolarHV",
    "LevelMemory",
    "bind",
    "bundle",
    "cosine",
    "dot",
    "hamming",
    "make_level_memory",
    "random_hv",
    "sign_quantize",
    "__version__",
]
