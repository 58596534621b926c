"""Hypervectors as numpy arrays: random and level hypervectors, sign
quantization, the bit layout of the 1-bit model, and the package's one
random generator.

A bipolar hypervector is a +-1 ``int8`` array of shape (D,), or (N, D) for
a batch of N.  The HDC algebra is plain numpy arithmetic on these arrays;
bundling leaves the bipolar domain, so a bundle is a plain integer or float
array of the same shape:

    bind      component-wise product  a * b
    dot       sum of products         np.dot (cast int8 operands up first)
    bundle    a + b

:mod:`hdwear.reference` holds per-component oracles for each of these.  The
1-bit model stores bipolar vectors packed by :func:`pack`, 64 components
per uint64 word, so that for packed operands

    dot(a, b) = D - 2 * popcount(pack(a) XOR pack(b)).

:func:`pack_sign` packs the majority sign of bundles straight into words.

All randomness in hdwear comes from :func:`rng`, a counter-based Philox
stream keyed by (seed, stream): what it draws depends only on those two
integers, never on platform, thread count, or call order.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError


def check_int(n, what: str, low: int = 0, high: int | float = np.inf) -> int:
    """Return `n` if it is an integer in [low, high), Python or numpy but not
    bool; raise InvalidArgumentError otherwise.  Seeds, counts and window
    sizes all pass through here."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not low <= n < high:
        raise InvalidArgumentError(f"{what} must be an integer in [{low}, {high}), got {n!r}")
    return n


def check_seed(seed, what: str = "seed") -> int:
    """Return `seed` if it is an integer in [0, 2**64), the range of one
    Philox key word; raise InvalidArgumentError otherwise."""
    return check_int(seed, what, 0, 2**64)


def rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); both must lie in [0, 2**64)."""
    key = np.array([check_seed(seed), check_seed(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_hv(seed: int, stream_id: int, dim: int) -> np.ndarray:
    """Deterministic i.i.d. uniform +-1 int8 vector keyed by (seed, stream_id):
    component i is +1 iff bit i of the stream's first bytes (little-endian)
    is set."""
    return random_hvs(seed, [stream_id], dim)[0]


def random_hvs(seed: int, streams, dim: int) -> np.ndarray:
    """(len(streams), D) int8 batch whose row j is random_hv(seed, streams[j], dim).

    One Philox generator is re-keyed per stream instead of building
    rng(seed, stream) each time (which gathers OS entropy it then ignores):
    a fresh generator's 64-bit words, little-endian, are the bytes
    Generator.bytes draws."""
    if dim <= 0:
        raise InvalidDimensionError(f"dim must be positive, got {dim}")
    bits = rng(seed, 0).bit_generator
    state = bits.state
    words = np.empty((len(streams), (dim + 63) // 64), dtype="<u8")
    for row, stream in zip(words, streams):
        state["state"]["key"] = np.array([seed, check_seed(stream, "stream")], dtype=np.uint64)
        bits.state = state
        row[:] = bits.random_raw(len(row))
    return _bipolar(np.unpackbits(words.view(np.uint8), axis=1, count=dim, bitorder="little"))


def _bipolar(ones: np.ndarray) -> np.ndarray:
    """0/1 (bool or uint8) array -> -1/+1 int8 array of the same shape."""
    return (ones.view(np.int8) << 1) - 1


def pack(hvs) -> np.ndarray:
    """Pack (..., D) bipolar vectors into (..., W) uint64 words, W = ceil(D/64).

    Component i is bit i % 64 of word i // 64 (set <=> component > 0, so a
    bool array packs its True components); the W*64 - D padding bits are
    always zero.  This is the only place that knows the layout.
    """
    hvs = np.asarray(hvs)
    ones = np.packbits(hvs if hvs.dtype == bool else hvs > 0, axis=-1, bitorder="little")
    words = np.zeros(hvs.shape[:-1] + (8 * ((hvs.shape[-1] + 63) // 64),), dtype=np.uint8)
    words[..., : ones.shape[-1]] = ones
    return words.view("<u8")


_TIE_STREAM = 0


def _sign_bits(acc: np.ndarray, tie_seed: int) -> np.ndarray:
    """acc > 0, except that exact zeros take the tie coin of their component
    index, drawn once and only if acc has a zero."""
    ones = acc > 0
    zero = acc == 0
    if zero.any():
        ones |= zero & (random_hv(tie_seed, _TIE_STREAM, acc.shape[-1]) > 0)
    return ones


def sign_quantize(acc, tie_seed: int) -> np.ndarray:
    """Majority sign of (..., D) accumulators as +-1 int8; exact zeros take a
    deterministic coin that depends only on (tie_seed, component index)."""
    return _bipolar(_sign_bits(np.asarray(acc), tie_seed))


def pack_sign(acc, tie_seed: int) -> np.ndarray:
    """pack(sign_quantize(acc, tie_seed)), bit for bit, packed straight from
    the sign bits: no +-1 array in between and no second compare over one."""
    return pack(_sign_bits(np.asarray(acc), tie_seed))


_LEVEL_BASE_STREAM = 0
_LEVEL_ORDER_STREAM = 1


def level_flips(seed: int, dim: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws that define the level memory: (base, order, k).

    base is L_0, a (D,) +-1 int8 vector; order is a random permutation of
    range(D), the flip order; k is the (Q,) nondecreasing int array
    k_i = round(i * floor(D/2) / (Q-1)), from k_0 = 0 to k_{Q-1} = floor(D/2).
    L_i is base negated at the components order[:k_i].
    """
    if q < 2:
        raise InvalidArgumentError(f"need at least 2 levels, got {q}")
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    base = random_hv(seed, _LEVEL_BASE_STREAM, dim)
    order = rng(seed, _LEVEL_ORDER_STREAM).permutation(dim)
    k = np.array([round(i * (dim // 2) / (q - 1)) for i in range(q)])
    return base, order, k


def make_level_memory(seed: int, dim: int, q: int) -> np.ndarray:
    """Q level vectors L_0..L_{Q-1} as a (Q, D) int8 array, with similarity
    decaying in level distance.

    L_i is L_0 negated at the first k_i = round(i * floor(D/2) / (Q-1))
    indices of a fixed random flip order (the draws of :func:`level_flips`),
    so flips are nested: Hamming(L_i, L_j) = |k_i - k_j|, monotone in
    |i - j|, and the endpoints differ in exactly floor(D/2) components
    (near-orthogonal rather than anti-correlated).
    """
    base, order, k = level_flips(seed, dim, q)
    rank = np.empty(dim, dtype=np.int64)
    rank[order] = np.arange(dim)
    return base * _bipolar(rank >= k[:, None])
