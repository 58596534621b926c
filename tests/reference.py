"""Per-component and per-window reference implementations.

These operate on plain lists of +-1 ints, one list slot per component, and
on single scalars, with explicit scalar loops, or on one window at a time.
They exist as the correctness oracle for the array fast paths in
:mod:`hdwear.hv`, :mod:`hdwear.encoding`, :mod:`hdwear.robustness` and
:mod:`hdwear.datapipe`, and share no code with them.  Slow on purpose:
obviously correct beats fast here.  The window statistics use numpy's 1-D
reductions, because the batched features must match their summation order
bit for bit.  Only the tests import it, so it lives beside them and not in
the package.
"""

import math
from collections import Counter

import numpy as np

from hdwear.errors import InvalidArgumentError, InvalidSampleError


def random_components(rng_bytes: bytes, dim: int) -> list[int]:
    """Map a little-endian byte string to +-1 components, bit i -> slot i."""
    out = []
    for i in range(dim):
        bit = (rng_bytes[i // 8] >> (i % 8)) & 1
        out.append(1 if bit else -1)
    return out


def bind(a: list[int], b: list[int]) -> list[int]:
    assert len(a) == len(b)
    out = []
    for i in range(len(a)):
        out.append(a[i] * b[i])
    return out


def bundle(acc: list[float], a: list[int], weight: float) -> list[float]:
    assert len(acc) == len(a)
    out = []
    for i in range(len(a)):
        out.append(acc[i] + weight * a[i])
    return out


def dot(a, b) -> float:
    assert len(a) == len(b)
    total = 0.0
    for i in range(len(a)):
        total += a[i] * b[i]
    return total


def cosine(a, b) -> float:
    na = sum(x * x for x in a) ** 0.5
    nb = sum(x * x for x in b) ** 0.5
    return dot(a, b) / (na * nb)


def hamming(a: list[int], b: list[int]) -> int:
    assert len(a) == len(b)
    count = 0
    for i in range(len(a)):
        if a[i] != b[i]:
            count += 1
    return count


def sign_quantize(acc: list[float], coin: list[int]) -> list[int]:
    """coin supplies the +-1 used where acc is exactly zero."""
    out = []
    for i in range(len(acc)):
        if acc[i] > 0:
            out.append(1)
        elif acc[i] < 0:
            out.append(-1)
        else:
            out.append(coin[i])
    return out


def quantize_scalar(x: float, v_min: float, v_max: float, q: int) -> int:
    """Clamp x to [v_min, v_max] and map to a level index in [0, q-1].

    A degenerate range (v_min == v_max) maps everything to level 0.
    """
    if not math.isfinite(x):
        raise InvalidSampleError(f"non-finite sample value: {x!r}")
    if v_max <= v_min:
        return 0
    t = (x - v_min) / (v_max - v_min)
    t = min(max(t, 0.0), 1.0)
    return min(int(t * q), q - 1)


def channel_features(x) -> np.ndarray:
    """The seven statistics of one window of one channel, in
    datapipe.FEATURE_STATS order, with numpy's own 1-D reductions."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise InvalidArgumentError("cannot extract features from an empty window")
    signs = np.sign(x - float(np.mean(x)))
    mad = np.mean(np.abs(np.diff(x))) if x.size > 1 else 0.0
    zcross = np.sum(signs[:-1] * signs[1:] < 0)
    rms = np.sqrt(np.mean(x * x))
    return np.array([np.mean(x), np.std(x), np.min(x), np.max(x), rms, mad, zcross])


def window_majority(labels) -> str:
    """The most frequent label of one window; a tie goes to the lowest
    label in sorted order."""
    counts = Counter(labels)
    best = max(counts.values())
    return min(label for label, c in counts.items() if c == best)
