"""hdwear: hyperdimensional-computing classification for wearable-style
time-series data — hypervectors as numpy arrays (+-1 int8 bipolar vectors,
integer or float bundles, (N, D) encoded batches), adaptive single-pass
online training, iterative retraining, a 1-bit model packed into (K, W)
uint64 words, and a bit-flip robustness harness."""

from .hv import make_level_memory, pack, random_hv, sign_quantize

__version__ = "0.1.0"

__all__ = [
    "make_level_memory",
    "pack",
    "random_hv",
    "sign_quantize",
    "__version__",
]
