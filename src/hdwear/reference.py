"""Unpacked per-component reference implementations.

These operate on plain lists of +-1 ints, one list slot per component,
with explicit scalar loops.  They exist as the correctness oracle for the
packed fast paths in :mod:`hdwear.hv` and as the baseline side of the
packed-vs-unpacked throughput comparison; they share no code with the
packed implementations.  Slow on purpose: obviously correct beats fast
here.
"""


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
