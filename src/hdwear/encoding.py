"""Feature-record encoding: each window's feature vector becomes one
hypervector.

Feature i is quantized against its own training-split bounds to a level
L_q, bound with the feature's random signature S_i, and the F bound
vectors are bundled:  H = sum_i S_i * L_{q_i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidSampleError
from .hv import (
    AccumHV,
    BipolarHV,
    LevelMemory,
    bind,
    bundle_all,
    check_seed,
    make_level_memory,
    random_hv,
)


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


def encode_feature_record(features, bounds, lm: LevelMemory, signatures: list[BipolarHV]) -> AccumHV:
    """Encode a fixed-arity feature vector: each feature is quantized against
    its own (v_min, v_max), looked up in the level memory, bound with the
    feature's signature vector, and the results are bundled."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (len(signatures),):
        raise InvalidArgumentError(
            f"expected {len(signatures)} features, got shape {features.shape}"
        )
    if len(bounds) != len(signatures):
        raise InvalidArgumentError("one (v_min, v_max) pair per feature required")
    bound = []
    for i, x in enumerate(features):
        lo, hi = bounds[i]
        lv = quantize_scalar(float(x), lo, hi, lm.q)
        bound.append(bind(signatures[i], lm[lv]))
    return bundle_all(bound, lm.dim)


@dataclass
class EncoderConfig:
    """Everything needed to re-create bit-identical encodings: geometry,
    the three seeds (level memory, feature signatures, sign-quantization
    ties), and the per-feature quantization bounds frozen from the training
    split."""

    dim: int = 4096
    q_levels: int = 16
    level_seed: int = 1
    sensor_seed: int = 2
    tie_seed: int = 3
    feature_bounds: list = field(default_factory=list)  # [(v_min, v_max), ...]

    def __post_init__(self):
        for name in ("level_seed", "sensor_seed", "tie_seed"):
            check_seed(getattr(self, name), name)

    @property
    def n_features(self) -> int:
        return len(self.feature_bounds)


class FeatureEncoder:
    """Level memory and one signature per feature for the feature-record
    pipeline; signature i is random_hv(sensor_seed, i, dim)."""

    def __init__(self, config: EncoderConfig):
        if config.n_features == 0:
            raise InvalidArgumentError("encoder config carries no feature bounds")
        self.config = config
        self.level_memory = make_level_memory(config.level_seed, config.dim, config.q_levels)
        self.signatures = [
            random_hv(config.sensor_seed, i, config.dim) for i in range(config.n_features)
        ]

    def encode_record(self, features) -> AccumHV:
        return encode_feature_record(
            features, self.config.feature_bounds, self.level_memory, self.signatures
        )

    def encode_matrix(self, X) -> list:
        X = np.asarray(X, dtype=np.float64)
        return [self.encode_record(row) for row in X]
