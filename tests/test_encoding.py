"""Feature-record encoding: quantization, record encoding, FeatureEncoder."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hdwear import encoding
from hdwear.datapipe import Recording, build_dataset
from hdwear.encoding import EncoderConfig, FeatureEncoder, encode_records, quantize, record_tables
from hdwear.errors import InvalidArgumentError, InvalidDimensionError, InvalidSampleError
from hdwear.hv import level_flips, random_hv, rng
from oracles import gather_encode, make_level_memory, sign_quantize

D = 4096
LEVEL_SEED, Q = 21, 16


def cosine(a, b) -> float:
    return ref.cosine(a.tolist(), b.tolist())


@pytest.fixture(scope="module")
def lm():
    return make_level_memory(LEVEL_SEED, D, Q)


def signatures(seed, count, dim=D):
    return np.stack([random_hv(seed, i, dim) for i in range(count)])


def encode(X, bounds, sigs, q=Q, seed=LEVEL_SEED):
    """encode_records against make_level_memory(seed, dim, q) and sigs."""
    return encode_records(X, bounds, record_tables(level_flips(seed, sigs.shape[1], q), sigs))


def encode_one(features, bounds, sigs):
    """Encode a single record through the batch path."""
    return encode([features], bounds, sigs)[0]


def record_at_levels(levels, sigs):
    """Encode a record whose feature i falls in level levels[i] of the lm
    fixture's levels."""
    return encode_one([lv + 0.5 for lv in levels], [(0.0, float(Q))] * len(levels), sigs)


def quantize_one(x, v_min, v_max, q):
    return int(quantize([[x]], [(v_min, v_max)], q)[0, 0])


# ---------------------------------------------------------------- quantize


def test_quantize_bounds():
    assert quantize_one(-2.0, -2.0, 3.0, 10) == 0
    assert quantize_one(3.0, -2.0, 3.0, 10) == 9


def test_quantize_interior():
    assert quantize_one(0.49, 0.0, 1.0, 4) == 1  # floor(0.49 * 4)


def test_quantize_clamps():
    assert quantize_one(-5.0, 0.0, 1.0, 4) == 0
    assert quantize_one(7.0, 0.0, 1.0, 4) == 3


def test_quantize_degenerate_range():
    assert quantize_one(0.7, 0.5, 0.5, 16) == 0


def test_quantize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidSampleError):
            quantize_one(bad, 0.0, 1.0, 16)
        with pytest.raises(InvalidSampleError):
            ref.quantize_scalar(bad, 0.0, 1.0, 16)


@given(st.floats(-100, 100), st.integers(2, 64))
@settings(max_examples=100, deadline=None)
def test_quantize_in_range(x, q):
    lv = quantize_one(x, -10.0, 10.0, q)
    assert 0 <= lv <= q - 1


finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
    st.integers(1, 5),
    st.integers(2, 64),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_quantize_matches_reference(bounds, n, q, data):
    # bounds may be degenerate (v_min == v_max) or reversed; values reach
    # past both bounds, so clamping on either side is covered
    bounds = [(lo, lo) if data.draw(st.booleans()) else (lo, hi) for lo, hi in bounds]
    X = [[data.draw(st.floats(-2e6, 2e6)) for _ in bounds] for _ in range(n)]
    got = quantize(X, bounds, q)
    expect = [[ref.quantize_scalar(x, lo, hi, q) for x, (lo, hi) in zip(row, bounds)] for row in X]
    assert got.tolist() == expect


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_quantize_rejects_non_finite_anywhere_in_batch(bad):
    X = np.zeros((4, 3))
    X[2, 1] = bad
    with pytest.raises(InvalidSampleError):
        quantize(X, [(0.0, 1.0)] * 3, 8)
    with pytest.raises(InvalidSampleError):
        encode(X, [(0.0, 1.0)] * 3, signatures(2, 3, 64), q=8, seed=1)


# ----------------------------------------------------------- encode_records


def test_feature_record_single(lm):
    sigs = signatures(32, 1)
    bounds = [(0.0, 1.0)]
    acc = encode_one([0.3], bounds, sigs)
    lv = quantize_one(0.3, 0.0, 1.0, 16)
    assert np.array_equal(sign_quantize(acc, 0), sigs[0] * lm[lv])


def test_feature_record_deterministic():
    sigs = signatures(32, 7)
    bounds = [(0.0, 1.0)] * 7
    rec = [0.1, 0.9, 0.4, 0.2, 0.8, 0.55, 0.0]
    a = encode_one(rec, bounds, sigs)
    b = encode_one(rec, bounds, sigs)
    assert np.array_equal(a, b)


def test_feature_record_full_range_change():
    sigs = signatures(32, 7)
    bounds = [(0.0, 1.0)] * 7
    rec = [0.1, 0.9, 0.4, 0.2, 0.8, 0.55, 0.0]
    moved = list(rec)
    moved[3] = 1.0  # full quantization range away
    a = encode_one(rec, bounds, sigs)
    b = encode_one(moved, bounds, sigs)
    assert cosine(a, b) < 0.9


def test_feature_record_arity_mismatch():
    with pytest.raises(InvalidArgumentError):
        encode_one([0.1, 0.2], [(0, 1)] * 3, signatures(32, 3))
    with pytest.raises(InvalidArgumentError):
        encode_one([0.1, 0.2, 0.3], [(0, 1)] * 2, signatures(32, 3))


@given(st.sampled_from([3, 77, 131]), st.integers(1, 9), st.integers(2, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_encode_records_rows_match_reference(d, n_feat, q, data):
    lm = make_level_memory(5, d, q)
    sigs = signatures(6, n_feat, d)
    bounds = [(0.0, 1.0)] * n_feat
    X = [[data.draw(st.floats(-0.5, 1.5)) for _ in range(n_feat)] for _ in range(3)]
    H = encode(X, bounds, sigs, q=q, seed=5)
    assert H.shape == (3, d)
    for row, feats in zip(H, X):
        expect = [0.0] * d
        for f, x in enumerate(feats):
            level = lm[ref.quantize_scalar(x, 0.0, 1.0, q)].tolist()
            expect = ref.bundle(expect, ref.bind(sigs[f].tolist(), level), 1.0)
        assert row.tolist() == expect


@pytest.mark.parametrize("n_feat, dtype", [(127, np.int8), (128, np.int16)])
def test_encode_records_saturated_sum_is_exact(n_feat, dtype):
    # one signature repeated F times and every feature at level 0: each
    # component sums F equal terms, the largest |H| the accumulator can see
    d = 77
    lm = make_level_memory(3, d, 4)
    sigs = np.ones((n_feat, d), dtype=np.int8)
    H = encode(np.zeros((2, n_feat)), [(0.0, 1.0)] * n_feat, sigs, q=4, seed=3)
    assert H.dtype == dtype
    assert np.array_equal(H, np.broadcast_to(n_feat * lm[0].astype(np.int64), (2, d)))
    neg = encode(np.zeros((1, n_feat)), [(0.0, 1.0)] * n_feat, -sigs, q=4, seed=3)
    assert np.array_equal(neg[0], -n_feat * lm[0].astype(np.int64))


def test_encode_records_empty_batch():
    assert encode(np.empty((0,)), [(0.0, 1.0)] * 2, signatures(1, 2)).shape == (0, D)


@given(
    st.one_of(st.integers(2, 12), st.integers(13, 300)),
    st.integers(2, 64),
    st.sampled_from([1, 2, 7, 21, 127, 128, 140]),
    st.sampled_from([0, 1, 2, 17, 40]),
    st.integers(1, 4096),
    st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_feature_encoder_equals_gather_loop(d, q, n_feat, n, block_bytes, seed):
    # small D with many levels repeats k_q, so some segments are empty; F =
    # 127/128 crosses the int8/int16 record dtype; a small row-block budget
    # makes N span several blocks, and a partial last block
    cfg = EncoderConfig(
        dim=d, q_levels=q, level_seed=seed, sensor_seed=seed + 1,
        feature_bounds=[(0.0, 1.0)] * n_feat,
    )
    X = rng(seed, 9).uniform(-0.2, 1.2, size=(n, n_feat))
    expect = gather_encode(
        X, cfg.feature_bounds, make_level_memory(seed, d, q), signatures(seed + 1, n_feat, d)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoding, "_BLOCK_BYTES", block_bytes)
        got = FeatureEncoder(cfg).encode_matrix(X)
    assert got.dtype == expect.dtype and got.shape == (n, d)
    assert np.array_equal(got, expect)


# sha256 of encode_matrix (as little-endian int64) on fixed records,
# recorded from the gather loop the nested tables replaced
GOLDEN = {
    (10000, 140, 300): (
        np.int16,
        "b1b8e9f08d0821a6688aa705291177081051ceabf4c2398c5597bb7ca4bc4a23",
    ),
    (1024, 21, 1100): (
        np.int8,
        "7351cdfb66edc17d644e3805861c4ec51309001043d1b4d00f384aac5d23b24b",
    ),
}


@pytest.mark.parametrize("dim, n_feat, n", list(GOLDEN))
def test_encode_matrix_golden_digest(dim, n_feat, n):
    # integer arithmetic throughout, so the digest is the same on every platform
    X = rng(0, n_feat).uniform(-0.25, 1.25, size=(n, n_feat))
    cfg = EncoderConfig(dim=dim, q_levels=16, feature_bounds=[(0.0, 1.0)] * n_feat)
    H = FeatureEncoder(cfg).encode_matrix(X)
    dtype, digest = GOLDEN[dim, n_feat, n]
    assert H.dtype == dtype
    assert hashlib.sha256(H.astype("<i8").tobytes()).hexdigest() == digest


def test_encoder_rejects_features_past_float32_exactness(monkeypatch):
    # the products stay exact while 3F < 2**24, the first integer after
    # which float32 skips one; a lowered bound shows the check without
    # building millions of signatures
    assert encoding._FLOAT32_EXACT == 2**24
    assert np.float32(2**24 - 1) + np.float32(1) == 2**24
    assert np.float32(2**24) + np.float32(1) == 2**24
    monkeypatch.setattr(encoding, "_FLOAT32_EXACT", 30)
    with pytest.raises(InvalidArgumentError, match="3F < 30"):
        FeatureEncoder(EncoderConfig(dim=64, feature_bounds=[(0.0, 1.0)] * 10))
    FeatureEncoder(EncoderConfig(dim=64, feature_bounds=[(0.0, 1.0)] * 9))


def test_window_n1_is_level(lm):
    # a one-feature window bound with the identity signature is its level
    acc = record_at_levels([5], np.ones((1, D), dtype=np.int8))
    assert np.array_equal(sign_quantize(acc, 0), lm[5])


def test_window_changed_level_decorrelates():
    # binding preserves similarity, so the cosine is cos(L_0, L_15) = 0 at even D
    sigs = signatures(33, 1)
    base = record_at_levels([0], sigs)
    changed = record_at_levels([15], sigs)
    assert abs(cosine(base, changed)) < 0.1


def test_window_level_locality():
    # moving the feature's level further away never increases similarity
    sigs = signatures(33, 1)
    base = record_at_levels([3], sigs)
    cosines = [cosine(base, record_at_levels([lv], sigs)) for lv in range(3, 16)]
    for earlier, later in zip(cosines, cosines[1:]):
        assert later <= earlier + 1e-12


# ------------------------------------------ records from several sensors


def test_multisensor_member_cosine(lm):
    # each bound member of a 2-feature bundle has cosine ~ 1/sqrt(2)
    sigs = signatures(31, 2)
    acc = record_at_levels([2, 11], sigs)
    assert cosine(acc, sigs[0] * lm[2]) > 0.4
    assert cosine(acc, sigs[1] * lm[11]) > 0.4


def test_multisensor_position_sensitive():
    # swapping two sensors' values yields a dissimilar record
    sigs = signatures(31, 2)
    orig = record_at_levels([0, 15], sigs)
    swapped = record_at_levels([15, 0], sigs)
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
    assert all(np.array_equal(hv, enc[0]) for hv in enc)


def test_timeseries_exact_length():
    _, enc = encode_series([0.1, 0.2, 0.3, 0.4], window=4, stride=1)
    assert len(enc) == 1


# ------------------------------------------------------------ FeatureEncoder


def test_feature_encoder_roundtrip_config():
    cfg = EncoderConfig(dim=512, q_levels=8, feature_bounds=[(0.0, 1.0)] * 4)
    enc = FeatureEncoder(cfg)
    a = enc.encode_matrix([[0.1, 0.2, 0.3, 0.4]])
    b = FeatureEncoder(cfg).encode_matrix([[0.1, 0.2, 0.3, 0.4]])
    assert a.shape == (1, 512)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "X, error",
    [
        (np.full((2, 4), 0.5 + 0.5j), InvalidSampleError),
        ([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4j]], InvalidSampleError),
        ([["0.1", "0.2", "0.3", "0.4"]], InvalidSampleError),
        ([[0.1, 0.2, 0.3, None]], InvalidSampleError),
        ([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3]], InvalidArgumentError),
    ],
    ids=["complex", "one-complex", "str", "object", "ragged"],
)
def test_feature_encoder_rejects_features_that_are_not_real(X, error):
    # complex features would lose their imaginary part in the float64 cast
    enc = FeatureEncoder(EncoderConfig(dim=256, feature_bounds=[(0.0, 1.0)] * 4))
    with pytest.raises(error):
        enc.encode_matrix(X)


def test_feature_encoder_requires_bounds():
    with pytest.raises(InvalidArgumentError):
        FeatureEncoder(EncoderConfig())


def test_feature_encoder_signature_streams():
    # signature i is stream i of sensor_seed, so saved models keep encoding
    # the same way
    cfg = EncoderConfig(dim=256, sensor_seed=7, feature_bounds=[(0.0, 1.0)] * 3)
    assert np.array_equal(FeatureEncoder(cfg).signatures, signatures(7, 3, 256))


@pytest.mark.parametrize("field", ["level_seed", "sensor_seed", "tie_seed"])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, False])
def test_encoder_config_rejects_bad_seed(field, seed):
    with pytest.raises(InvalidArgumentError):
        EncoderConfig(feature_bounds=[(0.0, 1.0)], **{field: seed})


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"dim": -5}, InvalidDimensionError),
        ({"dim": 0}, InvalidDimensionError),
        ({"dim": 1}, InvalidDimensionError),
        ({"dim": 2**32}, InvalidDimensionError),
        ({"dim": 64.0}, InvalidDimensionError),
        ({"q_levels": -1}, InvalidArgumentError),
        ({"q_levels": 1}, InvalidArgumentError),
        ({"q_levels": 2**32}, InvalidArgumentError),
        ({"q_levels": "16"}, InvalidArgumentError),
    ],
)
def test_encoder_config_rejects_bad_geometry(kwargs, error):
    with pytest.raises(error):
        EncoderConfig(feature_bounds=[(0.0, 1.0)], **kwargs)


def test_encoder_config_accepts_geometry_edges():
    EncoderConfig(dim=2, q_levels=2)
    EncoderConfig(dim=2**32 - 1, q_levels=2**32 - 1)


@pytest.mark.parametrize(
    "bounds",
    [
        [(-math.inf, math.inf)],
        [(0.0, math.nan)],
        [(0.0, 1.0), (math.inf, 1.0)],
        [(1.0,)],
        [(0.0, 1.0, 2.0)],
        [("a", "b")],
        ["ab"],
        [None],
        [1.0],
        # reals that a f64 bound of the model file would not give back
        [(True, 1.0)],
        [(0, 2**1100)],
        [(0, 10**400)],
        [(0, 2**53 + 1)],
        [(np.longdouble("1e-4000"), 1.0)],
        [(Fraction(1, 10**400), 1.0)],
    ],
)
def test_encoder_config_rejects_bad_bounds(bounds):
    with pytest.raises(InvalidArgumentError):
        EncoderConfig(dim=64, feature_bounds=bounds)


@pytest.mark.parametrize("bounds", [None, 3, "ab", {(0.0, 1.0)}])
def test_encoder_config_requires_list_or_tuple_of_bounds(bounds):
    with pytest.raises(InvalidArgumentError):
        EncoderConfig(dim=64, feature_bounds=bounds)
    assert EncoderConfig(dim=64, feature_bounds=((0.0, 1.0),)).n_features == 1


def test_encoder_config_keeps_bounds_as_given():
    # reversed and degenerate ranges are valid (they quantize to level 0)
    bounds = [(0.0, 1.0), (np.float64(2.0), np.int64(-3)), [5, 5]]
    cfg = EncoderConfig(dim=64, feature_bounds=bounds)
    assert cfg.feature_bounds is bounds
    assert cfg.feature_bounds == [(0.0, 1.0), (2.0, -3), [5, 5]]
    assert FeatureEncoder(cfg).encode_matrix([[0.5, 0.0, 5.0]]).shape == (1, 64)
