"""Feature-record encoding: quantization, record encoding, FeatureEncoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwear.datapipe import Recording, build_dataset
from hdwear.encoding import (
    EncoderConfig,
    FeatureEncoder,
    encode_feature_record,
    quantize_scalar,
)
from hdwear.errors import InvalidArgumentError, InvalidSampleError
from hdwear.hv import (
    BipolarHV,
    bind,
    cosine,
    make_level_memory,
    random_hv,
    sign_quantize,
)

D = 4096


@pytest.fixture(scope="module")
def lm():
    return make_level_memory(21, D, 16)


def signatures(seed, count):
    return [random_hv(seed, i, D) for i in range(count)]


def record_at_levels(levels, lm, sigs):
    """Encode a record whose feature i falls in level levels[i] of lm."""
    q = lm.q
    return encode_feature_record(
        [lv + 0.5 for lv in levels], [(0.0, float(q))] * len(levels), lm, sigs
    )


# ---------------------------------------------------------------- quantize


def test_quantize_bounds():
    assert quantize_scalar(-2.0, -2.0, 3.0, 10) == 0
    assert quantize_scalar(3.0, -2.0, 3.0, 10) == 9


def test_quantize_interior():
    assert quantize_scalar(0.49, 0.0, 1.0, 4) == 1  # floor(0.49 * 4)


def test_quantize_clamps():
    assert quantize_scalar(-5.0, 0.0, 1.0, 4) == 0
    assert quantize_scalar(7.0, 0.0, 1.0, 4) == 3


def test_quantize_degenerate_range():
    assert quantize_scalar(0.7, 0.5, 0.5, 16) == 0


def test_quantize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidSampleError):
            quantize_scalar(bad, 0.0, 1.0, 16)


@given(st.floats(-100, 100), st.integers(2, 64))
@settings(max_examples=100, deadline=None)
def test_quantize_in_range(x, q):
    lv = quantize_scalar(x, -10.0, 10.0, q)
    assert 0 <= lv <= q - 1


# ---------------------------------------------------- encode_feature_record


def test_feature_record_single(lm):
    sigs = signatures(32, 1)
    bounds = [(0.0, 1.0)]
    acc = encode_feature_record([0.3], bounds, lm, sigs)
    lv = quantize_scalar(0.3, 0.0, 1.0, 16)
    assert sign_quantize(acc, 0) == bind(sigs[0], lm[lv])


def test_feature_record_deterministic(lm):
    sigs = signatures(32, 7)
    bounds = [(0.0, 1.0)] * 7
    rec = [0.1, 0.9, 0.4, 0.2, 0.8, 0.55, 0.0]
    a = encode_feature_record(rec, bounds, lm, sigs)
    b = encode_feature_record(rec, bounds, lm, sigs)
    assert np.array_equal(a.comps, b.comps)


def test_feature_record_full_range_change(lm):
    sigs = signatures(32, 7)
    bounds = [(0.0, 1.0)] * 7
    rec = [0.1, 0.9, 0.4, 0.2, 0.8, 0.55, 0.0]
    moved = list(rec)
    moved[3] = 1.0  # full quantization range away
    a = encode_feature_record(rec, bounds, lm, sigs)
    b = encode_feature_record(moved, bounds, lm, sigs)
    assert cosine(a, b) < 0.9


def test_feature_record_arity_mismatch(lm):
    with pytest.raises(InvalidArgumentError):
        encode_feature_record([0.1, 0.2], [(0, 1)] * 3, lm, signatures(32, 3))


def test_window_n1_is_level(lm):
    # a one-feature window bound with the identity signature is its level
    acc = record_at_levels([5], lm, [BipolarHV.all_ones(D)])
    assert sign_quantize(acc, 0) == lm[5]


def test_window_changed_level_decorrelates(lm):
    # binding preserves similarity, so the cosine is cos(L_0, L_15) = 0 at even D
    sigs = signatures(33, 1)
    base = record_at_levels([0], lm, sigs)
    changed = record_at_levels([15], lm, sigs)
    assert abs(cosine(base, changed)) < 0.1


def test_window_level_locality(lm):
    # moving the feature's level further away never increases similarity
    sigs = signatures(33, 1)
    base = record_at_levels([3], lm, sigs)
    cosines = [cosine(base, record_at_levels([lv], lm, sigs)) for lv in range(3, 16)]
    for earlier, later in zip(cosines, cosines[1:]):
        assert later <= earlier + 1e-12


# ------------------------------------------ records from several sensors


def test_multisensor_member_cosine(lm):
    # each bound member of a 2-feature bundle has cosine ~ 1/sqrt(2)
    sigs = signatures(31, 2)
    acc = record_at_levels([2, 11], lm, sigs)
    assert cosine(acc, bind(sigs[0], lm[2])) > 0.4
    assert cosine(acc, bind(sigs[1], lm[11])) > 0.4


def test_multisensor_position_sensitive(lm):
    # swapping two sensors' values yields a dissimilar record
    sigs = signatures(31, 2)
    orig = record_at_levels([0, 15], lm, sigs)
    swapped = record_at_levels([15, 0], lm, sigs)
    assert cosine(orig, swapped) < 0.2


# ---------------------------------------- time series -> encoded windows


def encode_series(values, window, stride):
    """One-channel recording -> windows -> 7 features -> encoded records."""
    rec = Recording(subject_id="s", channels={"x": np.asarray(values, dtype=np.float64)})
    ds = build_dataset([rec], ["x"], window_samples=window, stride=stride)
    if len(ds) == 0:
        return ds, []
    cfg = EncoderConfig(dim=128, q_levels=8, feature_bounds=[(0.0, 1.0)] * 7)
    return ds, FeatureEncoder(cfg).encode_matrix(ds.X)


def test_timeseries_count():
    ds, enc = encode_series([0.1, 0.5, 0.9, 0.3, 0.7], window=3, stride=1)
    assert len(enc) == 3 and ds.skipped_recordings == 0


def test_timeseries_count_formula():
    for length in range(2, 12):
        for n in range(1, 5):
            for stride in (1, 2, 3):
                ds, enc = encode_series(np.linspace(0, 1, length), n, stride)
                if length < n:
                    assert len(enc) == 0 and ds.skipped_recordings == 1
                else:
                    assert len(enc) == (length - n) // stride + 1


def test_timeseries_constant_signal():
    _, enc = encode_series([0.4] * 6, window=3, stride=1)
    assert len(enc) == 4
    assert all(np.array_equal(hv.comps, enc[0].comps) for hv in enc)


def test_timeseries_exact_length():
    _, enc = encode_series([0.1, 0.2, 0.3, 0.4], window=4, stride=1)
    assert len(enc) == 1


# ------------------------------------------------------------ FeatureEncoder


def test_feature_encoder_roundtrip_config():
    cfg = EncoderConfig(dim=512, q_levels=8, feature_bounds=[(0.0, 1.0)] * 4)
    enc = FeatureEncoder(cfg)
    a = enc.encode_record([0.1, 0.2, 0.3, 0.4])
    b = FeatureEncoder(cfg).encode_record([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(a.comps, b.comps)


def test_feature_encoder_requires_bounds():
    with pytest.raises(InvalidArgumentError):
        FeatureEncoder(EncoderConfig())


def test_feature_encoder_signature_streams():
    # signature i is stream i of sensor_seed, so saved models keep encoding
    # the same way
    cfg = EncoderConfig(dim=256, sensor_seed=7, feature_bounds=[(0.0, 1.0)] * 3)
    assert FeatureEncoder(cfg).signatures == [random_hv(7, i, 256) for i in range(3)]


@pytest.mark.parametrize("field", ["level_seed", "sensor_seed", "tie_seed"])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_encoder_config_rejects_bad_seed(field, seed):
    with pytest.raises(InvalidArgumentError):
        EncoderConfig(feature_bounds=[(0.0, 1.0)], **{field: seed})
