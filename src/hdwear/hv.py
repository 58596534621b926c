"""Bit-packed bipolar hypervectors, the HDC algebra the feature-record
pipeline uses, level memories, and the package's one random generator.

A hypervector is a D-dimensional vector with components in {-1, +1}.  We
store it packed, one bit per component, inside a single Python integer
(bit i set <=> component i is +1); CPython big ints are arrays of machine
words, so the bitwise ops below run word-parallel in C:

    bind(a, b)     component-wise product  = XNOR of the bit arrays
    dot(a, b)      sum of products         = D - 2 * popcount(a XOR b)

Bundling (addition) leaves the bipolar domain, so accumulators are plain
numpy arrays wrapped in :class:`AccumHV`.

All randomness in hdwear comes from :func:`rng`, a counter-based Philox
stream keyed by (seed, stream): what it draws depends only on those two
integers, never on platform, thread count, or call order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidDimensionError,
    ZeroNormError,
)


def check_seed(seed, what: str = "seed") -> int:
    """Return `seed` if it is an integer in [0, 2**64), the range of one
    Philox key word; raise InvalidArgumentError otherwise."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise InvalidArgumentError(f"{what} must be an integer in [0, 2**64), got {seed!r}")
    return seed


def rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); both must lie in [0, 2**64)."""
    key = np.array([check_seed(seed), check_seed(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class BipolarHV:
    """Immutable D-dimensional {-1,+1} vector, packed one bit per component.

    ``bits`` is canonical: every bit at index >= dim is zero.
    """

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if dim <= 0:
            raise InvalidDimensionError(f"dim must be positive, got {dim}")
        if bits < 0 or bits >> dim:
            raise InvalidArgumentError("bits outside the valid component range")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BipolarHV is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BipolarHV)
            and self.dim == other.dim
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.dim, self.bits))

    def __repr__(self):
        return f"BipolarHV(dim={self.dim}, bits=0x...{self.bits & 0xFFFF:04x})"

    @property
    def n_bytes(self) -> int:
        return (self.dim + 7) // 8

    def to_array(self) -> np.ndarray:
        """Unpack to a +-1 int8 array of length dim."""
        raw = np.frombuffer(self.bits.to_bytes(self.n_bytes, "little"), dtype=np.uint8)
        ones = np.unpackbits(raw, bitorder="little", count=self.dim)
        return (ones.astype(np.int8) << 1) - 1

    @classmethod
    def all_ones(cls, dim: int) -> "BipolarHV":
        if dim <= 0:
            raise InvalidDimensionError(f"dim must be positive, got {dim}")
        return cls(dim, (1 << dim) - 1)

    def negate(self) -> "BipolarHV":
        return BipolarHV(self.dim, self.bits ^ ((1 << self.dim) - 1))


@dataclass
class AccumHV:
    """Bundling accumulator: D signed components (ints, or reals once a
    fractional learning rate has touched them)."""

    dim: int
    comps: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidDimensionError(f"dim must be positive, got {self.dim}")
        if self.comps is None:
            self.comps = np.zeros(self.dim, dtype=np.float64)
        else:
            self.comps = np.asarray(self.comps)
            if self.comps.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"comps shape {self.comps.shape} != ({self.dim},)"
                )

    def copy(self) -> "AccumHV":
        return AccumHV(self.dim, self.comps.copy())


def random_hv(seed: int, stream_id: int, dim: int) -> BipolarHV:
    """Deterministic i.i.d. uniform {-1,+1} vector keyed by (seed, stream_id)."""
    if dim <= 0:
        raise InvalidDimensionError(f"dim must be positive, got {dim}")
    raw = rng(seed, stream_id).bytes((dim + 7) // 8)
    bits = int.from_bytes(raw, "little") & ((1 << dim) - 1)
    return BipolarHV(dim, bits)


def bind(a: BipolarHV, b: BipolarHV) -> BipolarHV:
    """Component-wise product.  Packed form: XNOR within the valid bits."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} != {b.dim}")
    # For canonical operands, (a ^ b) ^ mask == ~(a ^ b) & mask.
    return BipolarHV(a.dim, (a.bits ^ b.bits) ^ ((1 << a.dim) - 1))


def bundle(acc: AccumHV, hv: BipolarHV, weight: float = 1.0) -> AccumHV:
    """acc + weight * hv, component-wise; returns a new accumulator."""
    if acc.dim != hv.dim:
        raise DimensionMismatchError(f"dim {acc.dim} != {hv.dim}")
    return AccumHV(acc.dim, acc.comps + weight * hv.to_array())


def bundle_all(hvs, dim: int) -> AccumHV:
    """Sum a sequence of BipolarHVs into a fresh integer accumulator.

    Equivalent to folding :func:`bundle` with weight 1 but unpacks all
    operands in one batch, which is what the encoding hot path needs.
    """
    hvs = list(hvs)
    if not hvs:
        return AccumHV(dim, np.zeros(dim, dtype=np.int32))
    for hv in hvs:
        if hv.dim != dim:
            raise DimensionMismatchError(f"dim {hv.dim} != {dim}")
    nb = (dim + 7) // 8
    if dim % 8 == 0:
        raw = b"".join(hv.bits.to_bytes(nb, "little") for hv in hvs)
        ones = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), bitorder="little"
        ).reshape(len(hvs), dim)
        counts = ones.sum(axis=0, dtype=np.int32)
    else:
        counts = np.zeros(dim, dtype=np.int32)
        for hv in hvs:
            raw = np.frombuffer(hv.bits.to_bytes(nb, "little"), dtype=np.uint8)
            counts += np.unpackbits(raw, bitorder="little", count=dim)
    return AccumHV(dim, 2 * counts - len(hvs))


def hamming(a: BipolarHV, b: BipolarHV) -> int:
    """Number of components where a and b differ."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} != {b.dim}")
    return (a.bits ^ b.bits).bit_count()


def dot(a, b) -> float:
    """Inner product; exact for bipolar operands via one popcount."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} != {b.dim}")
    if isinstance(a, BipolarHV) and isinstance(b, BipolarHV):
        return float(a.dim - 2 * (a.bits ^ b.bits).bit_count())
    av = a.comps if isinstance(a, AccumHV) else a.to_array().astype(np.float64)
    bv = b.comps if isinstance(b, AccumHV) else b.to_array().astype(np.float64)
    return float(np.dot(np.asarray(av, dtype=np.float64), np.asarray(bv, dtype=np.float64)))


def _norm(v) -> float:
    if isinstance(v, BipolarHV):
        return float(np.sqrt(v.dim))
    return float(np.linalg.norm(np.asarray(v.comps, dtype=np.float64)))


def cosine(a, b) -> float:
    """dot(a, b) / (|a| |b|); raises ZeroNormError on an all-zero operand."""
    na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for a zero-norm vector")
    return dot(a, b) / (na * nb)


_TIE_STREAM = 0


def sign_quantize(acc: AccumHV, tie_seed: int) -> BipolarHV:
    """Majority sign of the accumulator; exact zeros resolved by a
    deterministic coin that depends only on (tie_seed, component index)."""
    comps = acc.comps
    pos = comps > 0
    zero = comps == 0
    if zero.any():
        coin = random_hv(tie_seed, _TIE_STREAM, acc.dim).to_array() > 0
        pos = pos | (zero & coin)
    packed = np.packbits(pos, bitorder="little")
    return BipolarHV(acc.dim, int.from_bytes(packed.tobytes(), "little"))


_LEVEL_BASE_STREAM = 0
_LEVEL_ORDER_STREAM = 1


class LevelMemory:
    """Q level vectors L_0..L_{Q-1} with similarity decaying in level distance.

    L_i is L_0 with the first k_i = round(i * floor(D/2) / (Q-1)) indices of
    a fixed random flip order negated, so flips are nested: Hamming(L_i, L_j)
    = |k_i - k_j|, monotone in |i - j|, and the endpoints differ in exactly
    floor(D/2) components (near-orthogonal rather than anti-correlated).
    """

    def __init__(self, dim: int, levels: list[BipolarHV]):
        self.dim = dim
        self.levels = levels

    @property
    def q(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> BipolarHV:
        return self.levels[i]

    def __len__(self) -> int:
        return len(self.levels)


def make_level_memory(seed: int, dim: int, q: int) -> LevelMemory:
    if q < 2:
        raise InvalidArgumentError(f"need at least 2 levels, got {q}")
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    base = random_hv(seed, _LEVEL_BASE_STREAM, dim)
    flip_order = rng(seed, _LEVEL_ORDER_STREAM).permutation(dim)
    half = dim // 2
    levels = [base]
    flip_bool = np.zeros(dim, dtype=bool)
    prev_k = 0
    mask_bits = 0
    for i in range(1, q):
        k = round(i * half / (q - 1))
        if k > prev_k:
            flip_bool[:] = False
            flip_bool[flip_order[prev_k:k]] = True
            packed = np.packbits(flip_bool, bitorder="little")
            mask_bits ^= int.from_bytes(packed.tobytes(), "little")
            prev_k = k
        levels.append(BipolarHV(dim, base.bits ^ mask_bits))
    return LevelMemory(dim, levels)
