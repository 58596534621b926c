"""Feature-record encoding: each window's feature vector becomes one
hypervector.

Feature f is quantized against its own training-split bounds to a level
L_q, bound with the feature's random signature S_f, and the F bound
vectors are bundled:  H = sum_f S_f * L_{q_f}.  A batch of N records
encodes to one (N, D) integer matrix, in the smallest signed integer type
that holds +-F.

The levels are nested (:func:`hdwear.hv.level_flips`): L_q is the base
vector B negated at the first k_q components of one flip order, k_0 = 0
<= k_1 <= ... <= k_{Q-1} = floor(D/2).  With U_f = S_f * B,

    H = sum_f U_f - 2 G,    G = sum_f U_f * [component flipped in L_{q_f}].

Flip-order segment s = [k_{s-1}, k_s) (s = 1..Q-1) is flipped in L_q
exactly when q >= s, so on the components of that segment G = (lv >= s) @
U_seg for the (N, F) level indices lv; the other half of the components
never flips, and there H is the constant sum_f U_f.  The encoder builds
one table W = [-2 U[:, flipped]^T | sum_f U_f[flipped]] of shape
(floor(D/2), F + 1), in flip order, so each segment of a block of records
is one product W[seg] @ [(lv >= s)^T ; 1] that folds in the -2 and the
constant: Q - 1 small matrix products over half the components, instead
of one gather per feature over all of them.

The products run in float32 and are exact.  Every term is 0, +-2 or a
column sum of size at most F, so every partial sum is an integer of size
at most 3F; float32 holds every integer of size up to 2**24, so the
result does not depend on BLAS's summation order while 3F < 2**24.  A
wider record is rejected with InvalidArgumentError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError, InvalidSampleError
from .hv import check_int, check_seed, level_flips, random_hvs

# float32 holds every integer of size up to this
_FLOAT32_EXACT = 2**24
# Bytes of the transposed (D, rows) block of records the encoder fills at a
# time, in the record dtype.  On the benchmark's record sets (2-core VM),
# 256 KiB blocks encoded the wide-highdim test set 1.5x slower than 1 MiB
# blocks, and 2 MiB blocks the dense-stream training set 1.5x slower.
_BLOCK_BYTES = 1 << 20
# Columns of the output that the transposed copy of a block fills at a time.
# numpy's strided copy of a whole (D, rows) block reads one cache line per
# component for every output row; a power-of-two row count makes those
# lines fall in a few cache sets, which evicts them before the next output
# row reuses them.  On the benchmark's blocks (2-core VM, best of 7) 64
# columns copied a (1024, 1024) int8 block in 0.41 ms against 0.96 ms whole
# (128 or 256 columns: 0.94-0.96 ms), a (4096, 256) int8 block in 0.32 ms
# against 0.90 ms and a (1024, 521) one in 0.12 ms against 0.21 ms.  A
# (10000, 52) int16 block took 0.21 ms either way: there the loop's 157
# steps cost what the tiles save.
_COPY_COLUMNS = 64


def _check_real(a: np.ndarray, what: str, error=InvalidSampleError) -> None:
    """Raise error, naming a as what, unless every value of a is a finite
    real.  Only the dtype kinds b, i, u and f are real (complex, str and
    object arrays are not); integer arrays are finite by type and skip the
    scan."""
    kind = a.dtype.kind
    if kind not in "biuf" or (kind == "f" and not np.isfinite(a).all()):
        raise error(f"{what} holds a value that is not a finite real (dtype {a.dtype})")


def quantize(X, bounds, q: int) -> np.ndarray:
    """Clamp each column j of (N, F) values X to bounds[j] = (v_min, v_max)
    and map it to a level index in [0, q-1]; a degenerate range
    (v_min >= v_max) maps everything to level 0.  X must hold finite reals
    (:func:`_check_real`)."""
    X = np.asarray(X)
    _check_real(X, "feature matrix")
    X = X.astype(np.float64, copy=False)
    lo, hi = np.asarray(bounds, dtype=np.float64).reshape(-1, 2).T
    span = hi > lo
    with np.errstate(over="ignore"):  # an overflow to +-inf clamps like the scalar form
        t = np.clip((X - lo) / np.where(span, hi - lo, 1.0), 0.0, 1.0)
    return np.where(span, np.minimum((t * q).astype(np.int64), q - 1), 0)


def record_tables(flips, signatures) -> tuple:
    """The tables :func:`encode_records` reads, for the levels of `flips` =
    (base, order, k) from :func:`hdwear.hv.level_flips` and (F, D) +-1
    signatures, named as in the module docstring: (order, segments, q, W,
    fixed).

    segments holds (s, k_{s-1}, k_s) for every nonempty segment, q is the
    number of levels, W is (floor(D/2), F + 1) and fixed is sum_f U_f at
    order[floor(D/2):].  W and fixed are held in the record dtype, the
    smallest signed integer type that holds +-F; it also holds the +-2
    entries of W."""
    base, order, k = flips
    n_feat, dim = signatures.shape
    if 3 * n_feat >= _FLOAT32_EXACT:
        raise InvalidArgumentError(
            f"{n_feat} features: the float32 products are exact only for 3F < {_FLOAT32_EXACT}"
        )
    # a signed type holds +F iff it holds -(F + 1)
    dtype = np.min_scalar_type(-n_feat - 1)
    flipped = order[: dim // 2]
    W = np.empty((len(flipped), n_feat + 1), dtype=dtype)
    np.multiply(signatures.T[flipped], -2 * base[flipped, None], out=W[:, :n_feat])
    total = signatures.sum(axis=0, dtype=dtype) * base
    W[:, n_feat] = total[flipped]
    segments = tuple((s, a, b) for s, (a, b) in enumerate(zip(k[:-1], k[1:]), 1) if a < b)
    return order, segments, len(k), W, total[order[dim // 2 :]]


def encode_records(X, bounds, tables: tuple) -> np.ndarray:
    """Encode (N, F) feature records: H[n] = sum_f S_f * L_{quantize(X)[n, f]},
    as an (N, D) array in the tables' record dtype.

    Row blocks of the output are filled transposed, one segment at a time,
    with one float32 product each (see the module docstring), and copied
    out _COPY_COLUMNS columns at a time."""
    order, segments, q, W, fixed = tables
    n_feat, dim = W.shape[1] - 1, len(order)
    try:
        X = np.asarray(X)
    except ValueError:  # numpy refuses ragged features
        raise InvalidArgumentError(f"ragged features, not one (N, {n_feat}) array") from None
    if X.size == 0:
        X = X.reshape(0, n_feat)
    if X.ndim != 2 or X.shape[1] != n_feat:
        raise InvalidArgumentError(f"expected (N, {n_feat}) features, got shape {X.shape}")
    if len(bounds) != n_feat:
        raise InvalidArgumentError("one (v_min, v_max) pair per feature required")
    lv = quantize(X, bounds, q)
    H = np.empty((len(lv), dim), dtype=W.dtype)
    rows = max(1, min(len(lv), _BLOCK_BYTES // (dim * W.itemsize)))
    Ht = np.empty((dim, rows), dtype=W.dtype)
    Ht[order[len(W) :]] = fixed[:, None]  # never flipped: the same in every block
    M = np.ones((n_feat + 1, rows), dtype=np.float32)  # the last row stays 1
    for r0 in range(0, len(lv), rows):
        lvT = lv[r0 : r0 + rows].T
        ht, m = Ht[:, : lvT.shape[1]], M[:, : lvT.shape[1]]
        for s, a, b in segments:
            np.greater_equal(lvT, s, out=m[:n_feat])
            ht[order[a:b]] = W[a:b].astype(np.float32) @ m
        out = H[r0 : r0 + rows]
        for c in range(0, dim, _COPY_COLUMNS):
            out[:, c : c + _COPY_COLUMNS] = ht[c : c + _COPY_COLUMNS].T
    return H


def _is_float64(x) -> bool:
    """Whether x is a real, Python or numpy but not bool, whose float64 value
    is finite and equal to x: what a f64 field of the model file holds and
    gives back unchanged."""
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    try:
        return real and math.isfinite(f := float(x)) and f == x
    except OverflowError:  # an int or a Fraction beyond the float64 range
        return False


@dataclass(frozen=True)
class EncoderConfig:
    """Everything needed to re-create bit-identical encodings: geometry,
    the three seeds (level memory, feature signatures, sign-quantization
    ties), and the per-feature quantization bounds frozen from the training
    split.  The fields are checked once, here, and cannot be rebound; each
    bound is a finite real that float64 holds exactly, so the config
    round-trips through the model file."""

    dim: int = 4096
    q_levels: int = 16
    level_seed: int = 1
    sensor_seed: int = 2
    tie_seed: int = 3
    feature_bounds: list = field(default_factory=list)  # [(v_min, v_max), ...]

    def __post_init__(self):
        # u32 fields of the model file
        check_int(self.dim, "dim", 2, 2**32, error=InvalidDimensionError)
        check_int(self.q_levels, "q_levels", 2, 2**32)
        for name in ("level_seed", "sensor_seed", "tie_seed"):
            check_seed(getattr(self, name), name)
        if not isinstance(self.feature_bounds, (list, tuple)):
            raise InvalidArgumentError(
                f"feature_bounds must be a list or tuple, got {self.feature_bounds!r}"
            )
        for bound in self.feature_bounds:
            if not (
                isinstance(bound, (tuple, list))
                and len(bound) == 2
                and all(_is_float64(v) for v in bound)
            ):
                raise InvalidArgumentError(f"bound {bound!r} is not a finite (v_min, v_max) pair")

    @property
    def n_features(self) -> int:
        return len(self.feature_bounds)


class FeatureEncoder:
    """The encoding tables of one EncoderConfig: its level memory and one
    signature per feature, signature i = random_hv(sensor_seed, i, dim)."""

    def __init__(self, config: EncoderConfig):
        if config.n_features == 0:
            raise InvalidArgumentError("encoder config carries no feature bounds")
        self.config = config
        flips = level_flips(config.level_seed, config.dim, config.q_levels)
        self.tables = record_tables(flips, self.signatures)

    @property
    def signatures(self) -> np.ndarray:
        """The (F, D) int8 signatures, drawn afresh on each access: the
        encoder keeps only its tables."""
        config = self.config
        return random_hvs(config.sensor_seed, range(config.n_features), config.dim)

    def encode_matrix(self, X) -> np.ndarray:
        return encode_records(X, self.config.feature_bounds, self.tables)
