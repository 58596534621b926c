"""Per-component reference implementations.

These operate on plain lists of +-1 ints, one list slot per component, and
on single scalars, with explicit scalar loops.  They exist as the
correctness oracle for the array fast paths in :mod:`hdwear.hv`,
:mod:`hdwear.encoding` and :mod:`hdwear.robustness`, and share no code with
them.  Slow on purpose: obviously correct beats fast here.
"""

import math

from .errors import InvalidSampleError


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
