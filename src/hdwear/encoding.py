"""Feature-record encoding: each window's feature vector becomes one
hypervector.

Feature i is quantized against its own training-split bounds to a level
L_q, bound with the feature's random signature S_i, and the F bound
vectors are bundled:  H = sum_i S_i * L_{q_i}.  A batch of N records
encodes to one (N, D) integer matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError, InvalidSampleError
from .hv import check_seed, make_level_memory, random_hv


def quantize(X, bounds, q: int) -> np.ndarray:
    """Clamp each column j of (N, F) values X to bounds[j] = (v_min, v_max)
    and map it to a level index in [0, q-1]; a degenerate range
    (v_min >= v_max) maps everything to level 0."""
    X = np.asarray(X, dtype=np.float64)
    bad = ~np.isfinite(X)
    if bad.any():
        raise InvalidSampleError(f"non-finite sample value: {float(X[bad][0])!r}")
    lo, hi = np.asarray(bounds, dtype=np.float64).reshape(-1, 2).T
    span = hi > lo
    with np.errstate(over="ignore"):  # an overflow to +-inf clamps like the scalar form
        t = np.clip((X - lo) / np.where(span, hi - lo, 1.0), 0.0, 1.0)
    return np.where(span, np.minimum((t * q).astype(np.int64), q - 1), 0)


def encode_records(X, bounds, levels, signatures) -> np.ndarray:
    """Encode (N, F) feature records against (Q, D) levels and (F, D)
    signatures: H[n] = sum_f signatures[f] * levels[quantize(X)[n, f]].

    The sum is held in the smallest signed integer type that holds +-F.
    """
    n_feat, dim = signatures.shape
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        X = X.reshape(0, n_feat)
    if X.ndim != 2 or X.shape[1] != n_feat:
        raise InvalidArgumentError(f"expected (N, {n_feat}) features, got shape {X.shape}")
    if len(bounds) != n_feat:
        raise InvalidArgumentError("one (v_min, v_max) pair per feature required")
    lv = quantize(X, bounds, len(levels))
    # a signed type holds +F iff it holds -(F + 1)
    H = np.zeros((len(X), dim), dtype=np.min_scalar_type(-n_feat - 1))
    for f in range(n_feat):
        H += (signatures[f] * levels)[lv[:, f]]
    return H


@dataclass(frozen=True)
class EncoderConfig:
    """Everything needed to re-create bit-identical encodings: geometry,
    the three seeds (level memory, feature signatures, sign-quantization
    ties), and the per-feature quantization bounds frozen from the training
    split.  The fields are checked once, here, and cannot be rebound."""

    dim: int = 4096
    q_levels: int = 16
    level_seed: int = 1
    sensor_seed: int = 2
    tie_seed: int = 3
    feature_bounds: list = field(default_factory=list)  # [(v_min, v_max), ...]

    def __post_init__(self):
        if not _in_range(self.dim):
            raise InvalidDimensionError(f"dim must be an integer in [2, 2**32), got {self.dim!r}")
        if not _in_range(self.q_levels):
            raise InvalidArgumentError(
                f"q_levels must be an integer in [2, 2**32), got {self.q_levels!r}"
            )
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
                and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in bound)
            ):
                raise InvalidArgumentError(f"bound {bound!r} is not a finite (v_min, v_max) pair")

    @property
    def n_features(self) -> int:
        return len(self.feature_bounds)


def _in_range(n) -> bool:
    """n is an integer in [2, 2**32), the range of a u32 field of the model file."""
    return isinstance(n, (int, np.integer)) and 2 <= n < 2**32


class FeatureEncoder:
    """Level memory and one signature per feature for the feature-record
    pipeline; signature i is random_hv(sensor_seed, i, dim)."""

    def __init__(self, config: EncoderConfig):
        if config.n_features == 0:
            raise InvalidArgumentError("encoder config carries no feature bounds")
        self.config = config
        self.levels = make_level_memory(config.level_seed, config.dim, config.q_levels)
        self.signatures = np.stack(
            [random_hv(config.sensor_seed, i, config.dim) for i in range(config.n_features)]
        )

    def encode_matrix(self, X) -> np.ndarray:
        return encode_records(X, self.config.feature_bounds, self.levels, self.signatures)
