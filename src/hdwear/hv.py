"""Hypervectors as numpy arrays: random hypervectors, the draws that define
the level memory, the bit layout of the 1-bit model and its sign packing,
and the package's one random generator.

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

:func:`pack_sign` packs the majority sign of bundles straight into words
(its per-component oracle is :func:`hdwear.reference.sign_quantize`).

All randomness in hdwear comes from :func:`rng`, a counter-based Philox
stream keyed by (seed, stream): what it draws depends only on those two
integers, never on platform, thread count, or call order.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError


def check_int(
    n, what: str, low: int = 0, high: int | float = np.inf, error=InvalidArgumentError
) -> int:
    """Return `n` if it is an integer in [low, high), Python or numpy but not
    bool; raise `error` (InvalidArgumentError by default) otherwise.  Seeds,
    counts, dimensions and window sizes all pass through here."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not low <= n < high:
        raise error(f"{what} must be an integer in [{low}, {high}), got {n!r}")
    return n


def check_seed(seed, what: str = "seed") -> int:
    """Return `seed` if it is an integer in [0, 2**64), the range of one
    Philox key word; raise InvalidArgumentError otherwise."""
    return check_int(seed, what, 0, 2**64)


def rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); both must lie in [0, 2**64)."""
    return next(rngs([(seed, stream)]))


def rngs(keys) -> Iterator[np.random.Generator]:
    """rng(seed, stream) for each (seed, stream) of keys in turn, as one
    Philox generator re-keyed in place; each is valid until the next is
    drawn.  Building a generator gathers OS entropy that the key then
    overrides (about 20 us on a 2-core VM); a re-key sets the key in a fresh
    generator's state (about 3 us), so it draws what a generator built with
    that key draws."""
    gen = np.random.Generator(np.random.Philox(key=0))
    fresh = gen.bit_generator.state
    for seed, stream in keys:
        key = [check_seed(seed), check_seed(stream, "stream")]
        fresh["state"]["key"] = np.array(key, dtype=np.uint64)
        gen.bit_generator.state = fresh
        yield gen


def random_hv(seed: int, stream_id: int, dim: int) -> np.ndarray:
    """Deterministic i.i.d. uniform +-1 int8 vector keyed by (seed, stream_id):
    component i is +1 iff bit i of the stream's first bytes (little-endian)
    is set."""
    return random_hvs(seed, [stream_id], dim)[0]


def random_hvs(seed: int, streams, dim: int) -> np.ndarray:
    """(len(streams), D) int8 batch whose row j is random_hv(seed, streams[j], dim).

    The streams are drawn through :func:`rngs`: a fresh generator's 64-bit
    words, little-endian, are the bytes Generator.bytes draws."""
    check_int(dim, "dim", 1, error=InvalidDimensionError)
    check_seed(seed)
    words = np.empty((len(streams), (dim + 63) // 64), dtype="<u8")
    for row, gen in zip(words, rngs((seed, stream) for stream in streams)):
        row[:] = gen.bit_generator.random_raw(len(row))
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


def pack_sign(acc, tie_seed: int) -> np.ndarray:
    """Pack the majority sign of (..., D) accumulators as :func:`pack` packs
    +-1 vectors: component i is set iff it is > 0, and an exact zero takes
    the tie coin of its index, random_hv(tie_seed, 0, D)[i] > 0, looked up
    only if acc has a zero.  No +-1 array is built in between."""
    acc = np.asarray(acc)
    ones = acc > 0
    zero = acc == 0
    if zero.any():
        ones |= zero & _tie_coin(check_seed(tie_seed, "tie_seed"), acc.shape[-1])
    return pack(ones)


# The robustness sweep packs its queries block by block, and at D = 10000
# nearly every block has an exact zero; a draw costs about 21 us (2-core VM).
@functools.lru_cache(maxsize=8)
def _tie_coin(tie_seed: int, dim: int) -> np.ndarray:
    """random_hv(tie_seed, 0, dim) > 0, drawn once per (tie_seed, dim) and
    read-only, since every caller shares it."""
    coin = random_hv(tie_seed, _TIE_STREAM, dim) > 0
    coin.flags.writeable = False
    return coin


_LEVEL_BASE_STREAM = 0
_LEVEL_ORDER_STREAM = 1


def level_flips(seed: int, dim: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws that define the level memory: (base, order, k).

    base is L_0, a (D,) +-1 int8 vector; order is a random permutation of
    range(D), the flip order; k is the (Q,) nondecreasing int array
    k_i = round(i * floor(D/2) / (Q-1)), from k_0 = 0 to k_{Q-1} = floor(D/2).
    L_i is base negated at the components order[:k_i], so flips are nested:
    Hamming(L_i, L_j) = |k_i - k_j|, monotone in |i - j|, and the endpoints
    differ in exactly floor(D/2) components (near-orthogonal rather than
    anti-correlated).
    """
    check_int(q, "q", 2)
    check_int(dim, "dim", 2, error=InvalidDimensionError)
    base = random_hv(seed, _LEVEL_BASE_STREAM, dim)
    order = rng(seed, _LEVEL_ORDER_STREAM).permutation(dim)
    k = np.array([round(i * (dim // 2) / (q - 1)) for i in range(q)])
    return base, order, k
