"""Training rules, prediction, evaluation, and model serialization."""

import math
import os
import stat
import struct
import zlib
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hdwear import learning
from hdwear.encoding import EncoderConfig
from hdwear.errors import (
    BadMagicError,
    ChecksumError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidArgumentError,
    InvalidSampleError,
    ModelIOError,
    ModelNotTrainedError,
    TruncatedModelError,
    UnknownClassError,
    UnsupportedVersionError,
)
from hdwear.hv import random_hv
from hdwear.learning import (
    Model,
    _block_rows,
    _float_blocks,
    evaluate,
    labelled_blocks,
    load_model,
    model_from_bytes,
    model_to_bytes,
    predict,
    save_model,
    train_iterative,
    train_online,
)
from hdwear.robustness import robustness_sweep
from oracles import float32_block_path, naive_training, oracle_cosines

D = 4096


def make_model(n_classes=2, dim=D, eta=0.5, n_features=4):
    enc = EncoderConfig(
        dim=dim,
        level_seed=11,
        sensor_seed=12,
        tie_seed=13,
        feature_bounds=[(0.0, 1.0)] * n_features,
    )
    return Model(classes=[f"c{i}" for i in range(n_classes)], encoder=enc, eta=eta)


def hv_accum(seed, stream, dim=D):
    return random_hv(seed, stream, dim).astype(np.float64)


def predict_one(model, H):
    """The predicted label of one query."""
    return model.classes[predict(model, H[None])[0]]


def similarities(model, H):
    """Cosine of H against every class row by reference.cosine; a zero-norm
    row or query scores 0."""
    h = np.asarray(H, dtype=np.float64).tolist()
    return np.array(
        [
            ref.cosine(h, row) if any(row) and any(h) else 0.0
            for row in model.class_matrix.astype(np.float64).tolist()
        ]
    )


# ------------------------------------------------------------- similarities


def test_similarity_of_own_bundle_is_one():
    m = make_model(dim=64)
    H = hv_accum(1, 0, 64)
    train_online(m, [(H, "c0")])
    assert similarities(m, H)[0] == pytest.approx(1.0)


def test_similarity_zero_model_convention():
    m = make_model()
    assert np.all(similarities(m, hv_accum(1, 1)) == 0.0)


def test_similarity_orthogonal_prototypes():
    m = make_model()
    h0, h1 = hv_accum(2, 0), hv_accum(2, 1)
    train_online(m, [(h0, "c0"), (h1, "c1")])
    sims = similarities(m, h0)
    assert sims[0] > 0.9
    assert abs(sims[1]) < 0.1


# ------------------------------------------------------------------ predict


def test_predict_single_class_model():
    enc = EncoderConfig(dim=128, feature_bounds=[(0, 1)])
    m = Model(classes=["only"], encoder=enc)
    train_online(m, [(hv_accum(3, 0, 128), "only")])
    assert predict_one(m, hv_accum(3, 1, 128)) == "only"


def test_predict_recovers_training_sample():
    m = make_model()
    h0, h1 = hv_accum(4, 0), hv_accum(4, 1)
    train_online(m, [(h0, "c0"), (h1, "c1")])
    assert predict(m, np.stack([h0, h1, h0])).tolist() == [0, 1, 0]


def test_predict_untrained_raises():
    with pytest.raises(ModelNotTrainedError):
        predict(make_model(), hv_accum(4, 2)[None])


def test_predict_scale_invariant():
    m = make_model()
    train_online(m, [(hv_accum(5, 0), "c0"), (hv_accum(5, 1), "c1")])
    q = hv_accum(5, 0)
    before = predict_one(m, q)
    m.class_matrix[:] *= 7.0
    assert predict_one(m, q) == before


# -------------------------------------------------------------- Eq.1 online


def test_online_saturated_sample_is_noop():
    # after absorbing H from zero, C is exactly parallel: delta == 1.0
    m = make_model(dim=64, eta=0.5)
    H = hv_accum(6, 0, 64)
    train_online(m, [(H, "c0")])
    assert similarities(m, H)[0] == 1.0
    before = m.class_matrix.copy()
    train_online(m, [(H, "c0")])
    assert np.array_equal(m.class_matrix, before)


def test_online_empty_class_absorbs_h():
    m = make_model(eta=1.0)
    H = hv_accum(6, 1)
    train_online(m, [(H, "c0")])
    assert np.array_equal(m.class_matrix[0], H.astype(np.float32))


def test_online_update_only_touches_own_class():
    m = make_model(n_classes=3)
    before = m.class_matrix.copy()
    train_online(m, [(hv_accum(6, 2), "c1")])
    changed = [i for i in range(3) if not np.array_equal(m.class_matrix[i], before[i])]
    assert changed == [1]


def test_online_repeated_update_magnitude_decreases():
    m = make_model()
    train_online(m, [(hv_accum(7, 0), "c0")])  # non-parallel starting content
    H = hv_accum(7, 1)
    norms = []
    for _ in range(5):
        before = m.class_matrix[0].copy()
        train_online(m, [(H, "c0")])
        norms.append(float(np.linalg.norm(m.class_matrix[0] - before)))
    for a, b in zip(norms, norms[1:]):
        assert b < a


def test_online_unknown_label():
    with pytest.raises(UnknownClassError):
        train_online(make_model(), [(hv_accum(7, 2), "mystery")])


# the four calls that take (H, label) pairs through labelled_blocks
ON_PAIRS = pytest.mark.parametrize(
    "call",
    [
        train_online,
        lambda m, pairs: train_iterative(m, pairs, max_epochs=1),
        evaluate,
        lambda m, pairs: robustness_sweep(m, pairs, rates=[0.1], trials=1),
    ],
    ids=["train_online", "train_iterative", "evaluate", "robustness_sweep"],
)


@ON_PAIRS
@pytest.mark.parametrize("label", [["c0"], {"c0": 0}, np.array(["c0"])], ids=repr)
def test_unhashable_label_is_an_unknown_class(call, label):
    m = train_online(make_model(dim=256), [(hv_accum(7, i, 256), f"c{i}") for i in range(2)])
    before = m.class_matrix.copy()
    with pytest.raises(UnknownClassError, match="unknown class"):
        call(m, [(hv_accum(7, 0, 256), "c0"), (hv_accum(7, 1, 256), label)])
    assert np.array_equal(m.class_matrix, before)


@ON_PAIRS
@pytest.mark.parametrize(
    "bad",
    [None, 5, np.array(0.5), "single", "triple", "bare", "ragged"],
    ids=["None", "int", "0-d-array", "single", "triple", "bare", "ragged"],
)
def test_malformed_labelled_data_is_typed(call, bad):
    m = train_online(make_model(dim=256), [(hv_accum(7, i, 256), f"c{i}") for i in range(2)])
    before = m.class_matrix.copy()
    h = hv_accum(7, 1, 256)
    # a stream that is not iterable, or good pairs (each a miss) then a bad element
    elements = {
        "single": (h,),
        "triple": (h, "c0", 1),
        "bare": h,  # a query without its label
        "ragged": ([[1.0, 2.0], [3.0]], "c0"),
    }
    stream = [(h, "c0")] * 3 + [elements[bad]] if isinstance(bad, str) else bad
    with pytest.raises(InvalidArgumentError):
        call(m, stream)
    assert np.array_equal(m.class_matrix, before)


def test_train_online_empty_stream_noop():
    m = make_model()
    before = m.class_matrix.copy()
    train_online(m, [])
    assert np.array_equal(m.class_matrix, before)
    assert m.retrain_curve == []


def test_train_online_order_dependent():
    # a sample sees the updates of every earlier 16-row block, so the same
    # 17 samples in another order across the block edge train another model
    a, b = hv_accum(8, 0), hv_accum(8, 1)
    m1 = train_online(make_model(), [(a, "c0")] * 16 + [(b, "c0")])
    m2 = train_online(make_model(), [(b, "c0")] + [(a, "c0")] * 16)
    assert not np.array_equal(m1.class_matrix, m2.class_matrix)


# ------------------------------------------------------------- Eq.2 retrain


def exact_misprediction_model(eta=0.5):
    """Dyadic construction: H labelled l has cosine exactly 0 with row l
    and 1/2 with row lp, and eta is a power of two, so every float
    operation in the update is exact."""
    enc = EncoderConfig(dim=8, feature_bounds=[(0, 1)])
    m = Model(classes=["l", "lp"], encoder=enc, eta=eta)
    m.class_matrix[0] = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.float32)
    m.class_matrix[1] = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.float32)
    H = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
    return m, H


def test_retrain_exact_onlinehd_increments():
    # a miss moves its true row by eta (1 - delta_l) H and its predicted row
    # by -eta (1 - delta_l') H: here by H / 2 and by -H / 4
    m, H = exact_misprediction_model()
    before = m.class_matrix.astype(np.float64)
    misses = train_iterative(m, [(H, "l")], max_epochs=1).retrain_curve[0]
    after = m.class_matrix.astype(np.float64)
    assert misses == 1
    assert np.array_equal(after[0] - before[0], H / 2)
    assert np.array_equal(after[1] - before[1], -H / 4)


def test_retrain_margin_moves_both_ways():
    m, H = exact_misprediction_model(eta=1.0)
    s_before = similarities(m, H)
    train_iterative(m, [(H, "l")], max_epochs=1)
    s_after = similarities(m, H)
    assert s_after[0] > s_before[0]
    assert s_after[1] < s_before[1]


def test_retrain_correct_predictions_leave_model_untouched():
    m = make_model()
    h0, h1 = hv_accum(9, 0), hv_accum(9, 1)
    data = [(h0, "c0"), (h1, "c1")]
    train_online(m, data)
    before = m.class_matrix.copy()
    misses = train_iterative(m, data, max_epochs=1).retrain_curve[0]
    assert misses == 0
    assert np.array_equal(m.class_matrix, before)


def test_retrain_equal_similarity_miss_moves_both_rows_oppositely():
    # both classes have similarity 1/2; argmax tie-break picks index 0 =
    # "a", so label "b" is a (marginal) misprediction, and its equal cosines
    # give equal and opposite weights, eta (1 - 1/2) = 1/4: the rows move
    # apart by exact negatives of each other
    enc = EncoderConfig(dim=4, feature_bounds=[(0, 1)])
    m = Model(classes=["a", "b"], encoder=enc, eta=0.5)
    m.class_matrix[:] = np.ones(4, dtype=np.float32)
    H = np.array([2.0, 0, 0, 0])
    before = m.class_matrix.astype(np.float64)
    misses = train_iterative(m, [(H, "b")], max_epochs=1).retrain_curve[0]
    d_a, d_b = m.class_matrix.astype(np.float64) - before
    assert misses == 1
    assert np.array_equal(d_b, H / 4) and np.array_equal(d_a, -H / 4)


def test_retrain_changes_exactly_two_rows():
    m = make_model(n_classes=4)
    for i in range(4):
        train_online(m, [(hv_accum(10, i), f"c{i}")])
    before = m.class_matrix.copy()
    # mislabel the c1 prototype, blurred by half of c0's so that its cosine
    # with neither row is 1, as c3 to force a misprediction
    victim = hv_accum(10, 1) + hv_accum(10, 0) / 2
    misses = train_iterative(m, [(victim, "c3")], max_epochs=1).retrain_curve[0]
    assert misses == 1
    changed = [i for i in range(4) if not np.array_equal(m.class_matrix[i], before[i])]
    assert changed == [1, 3]


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_retrain_monotone_local_correction(seed):
    """One Eq.2 step strictly shrinks the margin delta_l' - delta_l."""
    m = make_model(n_classes=3, dim=256)
    for i in range(3):
        train_online(m, [(hv_accum(seed, 100 + i, 256), f"c{i}")])
    H = hv_accum(seed, 200, 256)
    sims = similarities(m, H)
    pi = int(np.argmax(sims))
    li = (pi + 1) % 3  # claim a different true label -> guaranteed miss
    if sims[pi] <= sims[li]:  # needs a strict margin to shrink
        return
    margin_before = sims[pi] - sims[li]
    train_iterative(m, [(H, f"c{li}")], max_epochs=1)
    sims_after = similarities(m, H)
    assert sims_after[pi] - sims_after[li] < margin_before


def overlapping_int16_set(seed):
    """300 int16 queries (as the encoder gives) of 5 overlapping classes at
    D = 257, so retraining misses often and moves two rows per miss."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(-1, 2, (5, 257))
    labels = rng.integers(0, 5, 300)
    H = (protos[labels] + rng.integers(-30, 31, (300, 257))).astype(np.int16)
    return [(h, f"c{c}") for h, c in zip(H, labels)]


def test_block_size_cannot_change_learning(monkeypatch):
    # budgets of 1 row, 16 rows and the whole set: training's blocks are
    # _TRAIN_ROWS rows whatever the budget, and prediction, whose float32
    # products may round otherwise at another block width, takes the same
    # decisions on this set
    data = overlapping_int16_set(5)
    H = np.array([h for h, _ in data])
    results = []
    for rows in [1, 16, len(data)]:
        monkeypatch.setattr(learning, "_BLOCK_BYTES", rows * 8 * 257)
        assert _block_rows(257) == rows
        m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
        train_iterative(m, data, max_epochs=3)
        results.append((m.class_matrix.view(np.uint32).tobytes(), m.retrain_curve, predict(m, H)))
    (matrix, curve, labels), *others = results
    assert curve[0] > 20
    for other in others:
        assert other[0] == matrix and other[1] == curve
        assert np.array_equal(other[2], labels)


def test_cached_class_rows_match_per_sample_recompute_bit_for_bit():
    data = overlapping_int16_set(5)
    expect = make_model(n_classes=5, dim=257, eta=0.25)
    missed, _ = naive_training(expect, data)
    got = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    misses = train_iterative(got, data, max_epochs=1).retrain_curve[0]
    assert misses == len(missed[0]) > 20
    assert np.array_equal(got.class_matrix.view(np.uint32), expect.class_matrix.view(np.uint32))


# Retraining scores each 16-row block with one matrix product against the
# class rows at the block's start and moves the rows its misses name with
# one more.  Each case below returns a model ready to retrain, its
# retraining pairs, and the rows the oracle must miss in the first epoch.
SCREEN_DIM = 256


def _screen_block_edges(dtype):
    # +-1 rows around three prototypes; rows 15, 16 and 17 (either side of
    # the first block edge at 16-row blocks) and 31 (the end of the second
    # block) carry the wrong label, so the first epoch misses exactly there
    rng = np.random.default_rng(31)
    protos = rng.choice(np.array([-1, 1]), (3, SCREEN_DIM))
    labels = np.arange(48) % 3
    flips = rng.random((48, SCREEN_DIM)) < 0.2
    H = np.where(flips, -protos[labels], protos[labels]).astype(dtype)
    wrong = [15, 16, 17, 31]
    names = [f"c{(c + 1) % 3 if i in wrong else c}" for i, c in enumerate(labels)]
    m = make_model(n_classes=3, dim=SCREEN_DIM, eta=0.25)
    data = list(zip(H, names))
    train_online(m, data)
    return m, data, wrong


def _screen_exact_ties():
    # rows c0 and c1 are identical, so every query of the first block scores
    # them equally and argmax must pick c0: each "c1" query there is a miss
    # whose two weights are equal and opposite, and together they pull the
    # two rows apart for the later blocks
    rng = np.random.default_rng(32)
    m = make_model(n_classes=3, dim=SCREEN_DIM, eta=0.5)
    row = rng.integers(-4, 5, SCREEN_DIM)
    m.class_matrix[:] = [row, row, rng.integers(-4, 5, SCREEN_DIM)]
    H = (row + rng.integers(-2, 3, (40, SCREEN_DIM))).astype(np.int16)
    names = ["c1"] * 20 + ["c0"] * 10 + ["c2"] * 10
    data = list(zip(H, names))
    return m, data, list(range(16)) + list(range(20, 40))


def _screen_near_ties():
    # float64 queries with non-integer components, constant over each run of
    # 8 components, against two rows that rotate every such run by one: the
    # two cosines are equal in exact arithmetic, so which one wins rests on
    # rounding alone, and a blocked product may round it the other way
    rng = np.random.default_rng(33)
    m = make_model(n_classes=3, dim=SCREEN_DIM, eta=0.5)
    row = rng.normal(0, 1, SCREEN_DIM)
    rotated = np.roll(row.reshape(-1, 8), 1, axis=1).ravel()
    m.class_matrix[:] = [row, rotated, rng.normal(0, 1, SCREEN_DIM)]
    runs = m.class_matrix[0].reshape(-1, 8).mean(axis=1) + rng.normal(0, 1, (64, SCREEN_DIM // 8))
    H = np.repeat(runs, 8, axis=1)
    data = list(zip(H, ["c0", "c1"] * 32))
    return m, data, None


def _screen_zero_norms():
    # class c3 is never trained (a zero-norm row, scoring 0); row 5 is the
    # zero query (every class scores 0, so argmax picks c0); rows 7 and 20
    # point away from every trained class, so the zero row wins them
    rng = np.random.default_rng(34)
    protos = rng.normal(0, 1, (3, SCREEN_DIM))
    labels = np.arange(36) % 3
    H = protos[labels] + rng.normal(0, 0.8, (36, SCREEN_DIM))
    m = make_model(n_classes=4, dim=SCREEN_DIM, eta=0.5)
    train_online(m, list(zip(H, [f"c{c}" for c in labels])))
    assert not m.class_matrix[3].any()
    H[5] = 0.0
    H[7] = H[20] = -protos.sum(axis=0)
    data = list(zip(H, [f"c{c}" for c in labels]))
    return m, data, None


SCREEN_CASES = {
    "block-edges-int8": lambda: _screen_block_edges(np.int8),
    "block-edges-int16": lambda: _screen_block_edges(np.int16),
    "exact-ties-int16": _screen_exact_ties,
    "near-ties-float64": _screen_near_ties,
    "zero-norms-float64": _screen_zero_norms,
}
SCREEN_EPOCHS = 4


@pytest.mark.parametrize("case", list(SCREEN_CASES))
def test_screened_retraining_equals_per_sample_oracle(case):
    # the kernel equals the plain per-block float32 loop bit for bit, on
    # every epoch, across the block edges each case was built around
    model, data, first_misses = SCREEN_CASES[case]()
    expect = model.copy()
    missed, snapshots = naive_training(expect, data, SCREEN_EPOCHS, online=False)
    curve = [len(rows) for rows in missed]
    if first_misses is not None:
        assert missed[0] == first_misses
    assert curve[0] > 0

    got = model.copy()
    for misses, snapshot in zip(curve, snapshots):
        assert train_iterative(got, data, max_epochs=1).retrain_curve == [misses]
        assert np.array_equal(got.class_matrix.view(np.uint32), snapshot.view(np.uint32))

    out = train_iterative(model, data, max_epochs=SCREEN_EPOCHS, patience=SCREEN_EPOCHS)
    best = snapshots[curve.index(min(curve))]
    assert out.retrain_curve == curve
    assert np.array_equal(out.class_matrix.view(np.uint32), best.view(np.uint32))


@given(
    st.sampled_from([np.int8, np.int16, np.int64, np.bool_, np.float32, np.float64]),
    st.integers(1, 5),
    st.sampled_from([3, 64, 130]),
    st.integers(0, 40),
    st.integers(1, 8),
    st.sampled_from(["separated", "exact-tie", "zero-class"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_predict_equals_the_float32_block_path(dtype, k, dim, n, rows, case, seed):
    # predict is the float32 argmax of each block, bit for bit the plain
    # per-block oracle's: on blocks of 1 to 8 rows, on one-class models, on
    # exact two-class ties (the lowest index wins), on a zero class row (it
    # scores 0) and on zero queries (every class scores 0, so class 0 wins)
    r = np.random.default_rng(seed)
    C = r.normal(0, 1, (k, dim)).astype(np.float32)
    if case == "exact-tie" and k > 1:
        C[1] = C[0]
    if case == "zero-class" and k > 1:
        C[r.integers(k)] = 0
    H = C[r.integers(k, size=n)] + r.normal(0, 0.7, (n, dim))
    m = make_model(n_classes=k, dim=dim)
    m.class_matrix[:] = C

    if dtype == np.bool_:
        H = H > 0
    elif dtype == np.int64:  # past 2**24, where the float32 cast rounds
        H = np.rint(H * 2.0**30)
    elif np.dtype(dtype).kind == "i":
        H = np.rint(np.clip(H * 20, -127, 127))
    H = H.astype(dtype)
    zero = r.random(n) < 0.1
    H[zero] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "_BLOCK_BYTES", rows * 8 * dim)
        got, want = predict(m, H), float32_block_path(m, H)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert not got[zero].any()
    if case == "exact-tie" and k > 1:
        assert 1 not in got


@pytest.mark.parametrize(
    "value",
    [1e300, -1e300, 1e150, -1e150, 2.0**70, -1e-300],
    ids=["1e300", "-1e300", "1e150", "-1e150", "2**70", "-1e-300"],
)
def test_predict_and_evaluate_take_exactly_the_queries_training_takes(value):
    # +-1e300 and +-1e150 cast to float32 as inf, and 2**70 casts but scores
    # 64 * 2**130 against the 2**60 row: predict, evaluate and training
    # refuse each of them alike, evaluate before any count, with no numpy
    # warning (warnings are errors here).  -1e-300 casts to zero: though it
    # points at c1, it is the zero query, which scores 0 everywhere and
    # takes class 0
    m = make_model(n_classes=2, dim=64)
    m.class_matrix[:] = [np.full(64, 2.0**60), -np.ones(64)]
    H = np.full((1, 64), value)
    if value == -1e-300:
        assert predict(m, H).tolist() == [0]
        assert evaluate(m, [(H[0], "c1")]).confusion[1, 0] == 1
        assert np.array_equal(train_online(m.copy(), [(H[0], "c1")]).class_matrix, m.class_matrix)
        return
    calls = [
        lambda: predict(m, np.concatenate([np.ones((20, 64)), H])),
        lambda: evaluate(m, [(np.ones(64), "c0")] * 20 + [(H[0], "c0")]),
        lambda: train_online(m.copy(), [(H[0], "c0")]),
    ]
    for call in calls:
        with pytest.raises(InvalidSampleError, match="overflow"):
            call()


def test_one_class_retraining_raises_no_invalid_value():
    # a one-class model never misses; a zero query and one whose squares
    # pass the float32 range (summed in float64) raise no floating-point
    # error under the caller's errstate, and a query whose float32 cast is
    # inf is refused as an overflow
    m = make_model(n_classes=1, dim=64)
    m.class_matrix[:] = 1.0
    H = np.ones((3, 64)) * np.array([[0.0], [1.0], [2.0**100]])
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        out = train_iterative(m, zip(H, ["c0"] * 3), max_epochs=2)
        assert out.retrain_curve == [0]
        with pytest.raises(InvalidSampleError, match="overflow"):
            train_iterative(m, [(np.full(64, 2.0**420), "c0")], max_epochs=2)
    assert (out.class_matrix == 1.0).all()


def test_training_that_overflows_raises_and_leaves_the_model():
    # no update may leave a class component outside the float32 range (its
    # model file could not be loaded back), and no query is learned whose
    # float32 cast or score is not finite; numpy's warnings stay inside the
    # kernel (they are errors here), and the class matrix stays as received
    enc = EncoderConfig(dim=64)
    H = np.full(64, 3e38, np.float32)
    fresh = Model(classes=["a", "b"], encoder=enc)
    for big in (1e100, 1e300):  # both cast to float32 as inf
        with pytest.raises(InvalidSampleError, match="overflow"):
            train_online(fresh, [(np.full(64, big), "a"), (np.ones(64), "b")])
        assert not fresh.class_matrix.any()

    m = Model(classes=["a", "b"], encoder=enc, eta=1.0)
    # two queries of one block add 2 * 3e38 to row a
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(m, [(H, "a"), (H, "a"), (H, "b")])
    assert not m.class_matrix.any()
    # one component just past the float32 range: its cast is inf
    edge = np.zeros(64)
    edge[0] = 2.0**128 * (1 - 2.0**-26)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(m, [(edge, "a")])
    assert not m.class_matrix.any()

    # a trained model whose one miss moves row b by 2 * 3e38
    m.class_matrix[:] = [np.ones(64), -np.ones(64)]
    m.retrain_curve[:] = [7]
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_iterative(m, [(H, "b")], max_epochs=3)
    assert np.array_equal(m.class_matrix, [np.ones(64), -np.ones(64)])
    assert m.retrain_curve == [7]
    # a finite query whose score passes the float32 range: 64 * 2**60 * 2**70
    m.class_matrix[0] = 2.0**60
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(m, [(np.full(64, 2.0**70), "b")])
    assert np.array_equal(m.class_matrix, [np.full(64, 2.0**60), -np.ones(64)])
    # a finite update still lands, also on a row whose squares pass the
    # float32 range (norm 2**127): they are summed in float64
    m.class_matrix[0] = 1.0
    train_online(m, [(np.ones(64), "b")])
    assert np.array_equal(m.class_matrix, np.ones((2, 64)))
    m.class_matrix[1] = 2.0**124
    train_online(m, [(np.eye(64)[0], "b")])
    assert np.array_equal(m.class_matrix[1], np.full(64, 2.0**124))


def test_overflow_in_a_later_epoch_restores_the_model_as_received():
    # one query of class b lies along a's row (cosine 1) and almost
    # orthogonal to b's huge row, so it stays a miss in every epoch: each
    # one adds eta (1 - delta_b), about 1e38, to b's first component, and a,
    # at cosine 1, takes a zero weight.  Epochs 1-3 land and epoch 1 is the
    # best of equals; epoch 4 takes b past the float32 range, and the call
    # leaves the class matrix and retrain_curve as it received them, not
    # epoch 1's.  No score overflows: q's one component is 1
    m = Model(classes=["a", "b"], encoder=EncoderConfig(dim=64), eta=1e38)
    m.class_matrix[0, 0] = 3e38
    m.class_matrix[1, 1:] = 3e38
    m.retrain_curve[:] = [7]
    received = m.class_matrix.copy()
    q = np.eye(64)[0]
    three = train_iterative(m.copy(), [(q, "b")], max_epochs=3, patience=3)
    assert three.retrain_curve == [1, 1, 1]
    assert three.class_matrix[1, 0] == np.float32(1e38)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_iterative(m, [(q, "b")], max_epochs=4, patience=4)
    assert np.array_equal(m.class_matrix.view(np.uint32), received.view(np.uint32))
    assert m.retrain_curve == [7]


def offset_copy(H, offset):
    """A copy of H whose data starts `offset` bytes past a 64-byte boundary."""
    raw = np.empty(H.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + H.nbytes].view(H.dtype).reshape(H.shape)
    out[...] = H
    assert out.ctypes.data % 64 == offset
    return out


ALIGN_DIM = 203  # not a multiple of 8, so block rows start at every offset


def alignment_case(dtype):
    """Overlapping queries around three prototypes, for four classes: c3 is
    never a label, so its row has norm 0 (the den == 0 path) until row 7,
    which points away from every prototype, is predicted as c3; rows 3 and
    21 are zero queries.  Float components are quarters, so every query's
    sum of squares is exact in any order."""
    rng = np.random.default_rng(41)
    protos = rng.integers(-1, 2, (3, ALIGN_DIM))
    labels = rng.integers(0, 3, 96)
    H = protos[labels] + rng.integers(-12, 13, (96, ALIGN_DIM))
    H[[3, 21]] = 0
    H[7] = -3 * protos.sum(axis=0)
    H = (H / 4 if np.dtype(dtype).kind == "f" else H).astype(dtype)
    return H, [f"c{c}" for c in labels]


@pytest.mark.parametrize("offset", [2, 8, 16])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.float32, np.float64])
def test_query_alignment_cannot_change_results(dtype, offset):
    H, names = alignment_case(dtype)
    view = offset_copy(H, offset)
    data = list(zip(view, names))

    expect = make_model(n_classes=4, dim=ALIGN_DIM, eta=0.25)
    naive_training(expect, data, epochs=0)
    got = train_online(make_model(n_classes=4, dim=ALIGN_DIM, eta=0.25), data)
    assert np.array_equal(got.class_matrix.view(np.uint32), expect.class_matrix.view(np.uint32))
    assert not got.class_matrix[3].any()

    missed, snapshots = naive_training(expect, data, epochs=3, online=False)
    assert len(missed[0]) > 0
    for rows, snapshot in zip(missed, snapshots):
        assert train_iterative(got, data, max_epochs=1).retrain_curve == [len(rows)]
        assert np.array_equal(got.class_matrix.view(np.uint32), snapshot.view(np.uint32))

    want = [int(np.argmax(oracle_cosines(got, h.astype(np.float64)))) for h in view]
    assert predict(got, view).tolist() == want
    confusion = np.zeros((4, 4), dtype=np.int64)
    for label, p in zip(names, want):
        confusion[got.class_index(label), p] += 1
    assert np.array_equal(evaluate(got, data).confusion, confusion)


def test_class_matrix_is_64_byte_aligned_and_the_models_own():
    # the float32 products of training and of prediction multiply by the
    # class matrix, so every model keeps it on a 64-byte boundary:
    # after construction, copy() and model_from_bytes; it copies a caller's
    # float32 array rather than aliasing it
    given = offset_copy(np.ones((3, ALIGN_DIM), np.float32), 16)
    m = Model(classes=["a", "b", "c"], encoder=EncoderConfig(dim=ALIGN_DIM), class_matrix=given)
    given[0, 0] = 5.0
    fresh, loaded = make_model(n_classes=3, dim=ALIGN_DIM), model_from_bytes(model_to_bytes(m))
    for model in (m, fresh, m.copy(), loaded):
        M = model.class_matrix
        assert M.ctypes.data % 64 == 0 and M.flags.c_contiguous and M.flags.writeable
        assert M.dtype == np.float32 and M.shape == (3, ALIGN_DIM)
    assert (m.class_matrix == 1.0).all() and m == m.copy()
    assert not np.shares_memory(m.class_matrix, m.copy().class_matrix)


def test_retrain_untrained_model_rejected():
    with pytest.raises(ModelNotTrainedError):
        train_iterative(make_model(), [(hv_accum(11, 0), "c0")], max_epochs=1)


# ----------------------------------------------------------- train_iterative


def linearly_separable(seed, n=40, dim=512):
    protos = [hv_accum(seed, 0, dim), hv_accum(seed, 1, dim)]
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        c = i % 2
        noise = rng.normal(0, 0.3, dim)
        data.append((protos[c] + noise, f"c{c}"))
    return data


def test_iterative_single_epoch():
    m = make_model(dim=512)
    data = linearly_separable(12)
    train_online(m, data)
    out = train_iterative(m.copy(), data, max_epochs=1, patience=0)
    assert len(out.retrain_curve) == 1


def test_iterative_reaches_zero_misses():
    m = make_model(dim=512)
    data = linearly_separable(13)
    train_online(m, data)
    out = train_iterative(m, data, max_epochs=20, patience=5)
    assert min(out.retrain_curve) == 0
    assert len(out.retrain_curve) <= 20


def test_iterative_patience_zero_stops_at_first_non_improvement():
    m = make_model(dim=512)
    data = linearly_separable(14)
    train_online(m, data)
    out = train_iterative(m, data, max_epochs=50, patience=0)
    curve = out.retrain_curve
    if curve[-1] != 0:
        # stopped because the last epoch failed to improve on the best
        assert curve[-1] >= min(curve[:-1])


def test_iterative_restores_its_best_epoch_into_the_model_it_was_given():
    # on this set the curve rises in its last epoch, so the best epoch (the
    # earliest of the fewest misses) is not the last one
    data = overlapping_int16_set(2)
    m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    missed, snapshots = naive_training(m.copy(), data, epochs=6, online=False)
    curve = [len(rows) for rows in missed]
    best = curve.index(min(curve))
    assert len(curve) == 6 and best < 5
    assert not np.array_equal(snapshots[best], snapshots[-1])
    assert train_iterative(m, data, max_epochs=6, patience=6) is m
    assert m.retrain_curve == curve
    assert np.array_equal(m.class_matrix.view(np.uint32), snapshots[best].view(np.uint32))


def test_iterative_keeps_best_epoch():
    m = make_model(dim=512)
    data = linearly_separable(15)
    train_online(m, data)
    out = train_iterative(m, data, max_epochs=10, patience=9)
    misses_now = train_iterative(out.copy(), data, max_epochs=1).retrain_curve[0]
    assert misses_now <= max(out.retrain_curve)


def correlated_set(seed, k=4, n=200, dim=256):
    """n int16 queries of k classes whose prototypes share most of their
    mass (a common +-4 vector plus a +-1 vector per class), plus uniform
    integer noise in [-8, 8], so the class rows come out highly
    correlated."""
    rng = np.random.default_rng(seed)
    protos = 4 * random_hv(seed, 99, dim).astype(np.int64)
    protos = protos + np.stack([random_hv(seed, c, dim) for c in range(k)])
    labels = np.arange(n) % k
    H = protos[labels] + rng.integers(-8, 9, (n, dim))
    return [(h.astype(np.int16), f"c{c}") for h, c in zip(H, labels)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_retraining_lowers_misses_on_correlated_separable_classes(seed):
    # the online pass leaves misses on these sets, and retraining reaches
    # 0 (so each set is separable by some class matrix); an update of
    # eta (delta_l' - delta_l) H on both rows, tiny when the rows are
    # correlated, kept the same misses in every epoch here
    data = correlated_set(seed)
    m = train_online(make_model(n_classes=4, dim=256), data)
    curve = train_iterative(m, data, max_epochs=8, patience=8).retrain_curve
    assert curve[0] > 0 and min(curve) < curve[0]
    assert all(later <= earlier for earlier, later in zip(curve, curve[1:]))


# ------------------------------------------------------------------ evaluate


def test_evaluate_perfect_fit():
    m = make_model()
    data = [(hv_accum(17, 0), "c0"), (hv_accum(17, 1), "c1")]
    train_online(m, data)
    rep = evaluate(m, data)
    assert rep.accuracy == 1.0
    assert rep.n_samples == 2
    assert int(rep.confusion.sum()) == 2


def test_evaluate_single_wrong_sample():
    m = make_model()
    h0, h1 = hv_accum(18, 0), hv_accum(18, 1)
    train_online(m, [(h0, "c0"), (h1, "c1")])
    rep = evaluate(m, [(h0, "c1")])
    assert rep.accuracy == 0.0
    assert rep.per_class_recall[1] == 0.0


def test_evaluate_confusion_row_sums():
    m = make_model(n_classes=3)
    data = [(hv_accum(19, i), f"c{i % 3}") for i in range(9)]
    train_online(m, data)
    rep = evaluate(m, data)
    counts = {c: 0 for c in m.classes}
    for _, label in data:
        counts[label] += 1
    assert [int(x) for x in rep.confusion.sum(axis=1)] == [counts[c] for c in m.classes]


def block_edge_model():
    """Four classes at D=256, one of them never trained (a zero-norm row)."""
    m = make_model(n_classes=4, dim=256)
    train_online(m, [(hv_accum(21, i, 256), f"c{i}") for i in range(3)])
    assert not m.class_matrix[3].any()
    return m


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
def test_predict_matches_per_row_similarities_at_block_edges(n, monkeypatch):
    monkeypatch.setattr(learning, "_BLOCK_BYTES", 16 * 8 * 256)  # 16-row blocks
    m = block_edge_model()
    H = np.array([hv_accum(22, i, 256) + hv_accum(23, i, 256) for i in range(n)]).reshape(n, 256)
    if n:
        H[n // 2] = 0.0  # an all-zero query scores 0 against every class
    got = predict(m, H)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == [int(np.argmax(similarities(m, h))) for h in H]
    if n:
        labels = [f"c{i % 4}" for i in range(n)]
        expect = np.zeros((4, 4), dtype=np.int64)
        for h, label in zip(H, labels):
            expect[m.class_index(label), int(np.argmax(similarities(m, h)))] += 1
        assert np.array_equal(evaluate(m, list(zip(H, labels))).confusion, expect)


def test_float_blocks_cut_labelled_rows_at_most_16_rows_in_order(monkeypatch):
    # a block holds as many float64 rows as fit in the byte budget, at least one
    assert [_block_rows(d) for d in (1024, 4096, 10000, 2**20)] == [64, 16, 6, 1]
    m = make_model(n_classes=3, dim=8)
    H = [np.full(8, i, dtype=np.int8) for i in range(33)]
    for budget, lengths in [
        (16 * 8 * 8, [16, 16, 1]),
        (17 * 8 * 8 - 1, [16, 16, 1]),
        (11 * 8 * 8, [11, 11, 11]),
        (7, [1] * 33),
    ]:
        monkeypatch.setattr(learning, "_BLOCK_BYTES", budget)
        truth, rows = labelled_blocks(m, iter([(h, f"c{i % 3}") for i, h in enumerate(H)]))
        assert truth.tolist() == [i % 3 for i in range(33)]
        assert all(r is h for r, h in zip(rows, H)) and len(rows) == 33
        blocks = [(start, block.copy()) for start, block in _float_blocks(8, rows, _block_rows(8))]
        assert [len(b) for _, b in blocks] == lengths
        assert [start for start, _ in blocks] == np.cumsum([0, *lengths[:-1]]).tolist()
        assert np.array_equal(np.concatenate([b for _, b in blocks]), np.stack(H))


@pytest.mark.parametrize(
    "rows_of_step",
    [lambda s: 0, lambda s: 1, lambda s: s - 1, lambda s: s, lambda s: s + 1],
    ids=["0", "1", "step-1", "step", "step+1"],
)
def test_float_blocks_cut_row_lists_and_arrays_alike(rows_of_step):
    # the same (start, block) sequence from a list of rows and from their
    # (N, D) array, on every block edge; blocks are float32 buffers that the
    # next block overwrites, so they are copied as they come
    dim = 1024
    step = _block_rows(dim)
    n = rows_of_step(step)
    rng = np.random.default_rng(5)
    A = rng.integers(-100, 100, (n, dim)).astype(np.int16)

    def cut(rows):
        return [(start, block.copy()) for start, block in _float_blocks(dim, rows, step)]

    from_list, from_array = cut(list(A)), cut(A)
    assert [s for s, _ in from_list] == [s for s, _ in from_array] == list(range(0, n, step))
    for (_, a), (_, b) in zip(from_list, from_array):
        assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)
    assert np.array_equal(np.concatenate([b for _, b in from_list] or [np.empty((0, dim))]), A)


def test_float_blocks_cast_mixed_rows_as_their_stack():
    # each row is cast to float32 on its own, so the block is the stack of
    # the rows' own casts bit for bit, also for 2**60 + 2**36 + 1, which a
    # float64 stack of the rows would round twice (to 2**60 + 2**36, then
    # to even)
    rows = [
        np.array([True, False, True, False]),
        np.array([-128, 127, 0, -1], dtype=np.int8),
        np.array([2**62 + 1, -(2**53) - 1, 2**63 - 1, 2**60 + 2**36 + 1], dtype=np.int64),
        np.array([1.5, 1e-40, -3.4e38, 0.1], dtype=np.float32),
        np.array([0.1, 1e-50, 3e38, -1e300]),
    ]
    with np.errstate(over="ignore"):  # -1e300 casts to -inf, as the callers allow
        ((start, block),) = _float_blocks(4, rows, 8)
        expect = np.stack([row.astype(np.float32) for row in rows])
    assert start == 0
    assert np.array_equal(block.view(np.uint32), expect.view(np.uint32))
    assert block[2, 3] != np.float32(np.float64(2**60 + 2**36 + 1))


@pytest.mark.parametrize(
    "dims", [[255] * 18, [256] * 17 + [257, 256]], ids=["wrong-length", "ragged"]
)
def test_evaluate_rejects_wrong_query_dim(dims):
    m = block_edge_model()
    with pytest.raises(DimensionMismatchError):
        evaluate(m, [(np.ones(d), "c0") for d in dims])


@pytest.mark.parametrize(
    "batch",
    [np.ones((2, 255)), np.ones(256), [[1.0] * 256, [1.0] * 255]],
    ids=["shape0", "shape1", "ragged"],
)
def test_predict_rejects_wrong_batch_shape(batch):
    with pytest.raises(DimensionMismatchError):
        predict(block_edge_model(), batch)


def test_evaluate_empty_dataset():
    m = make_model()
    train_online(m, [(hv_accum(19, 0), "c0")])
    with pytest.raises(EmptyInputError):
        evaluate(m, [])


# ------------------------------------------------------------- serialization


def trained_model(dim=256):
    enc = EncoderConfig(
        dim=dim,
        q_levels=8,
        level_seed=102,
        sensor_seed=103,
        tie_seed=104,
        feature_bounds=[(0.0, 1.5), (-2.25, 7.0), (0.5, 0.5)],
    )
    m = Model(classes=["walk", "run", "idle"], encoder=enc, eta=0.25)
    for i, c in enumerate(m.classes):
        train_online(m, [(hv_accum(20 + i, i, dim), c)])
    return m


def test_save_load_roundtrip(tmp_path):
    m = trained_model()
    path = tmp_path / "model.hdwm"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded == m
    q = np.stack([hv_accum(30, i, 256) for i in range(5)])
    assert np.array_equal(predict(loaded, q), predict(m, q))
    # byte-level: serialize(load(x)) == x
    assert model_to_bytes(loaded) == path.read_bytes()


@pytest.mark.parametrize(
    "name, cause",
    [("missing.hdwm", OSError), (".", OSError), ("bad\0name.hdwm", ValueError)],
    ids=["missing", "directory", "nul-byte"],
)
def test_load_model_unreadable_path_is_typed(tmp_path, name, cause):
    path = tmp_path / name
    with pytest.raises(ModelIOError, match="cannot read") as info:
        load_model(path)
    assert str(path) in str(info.value)
    assert isinstance(info.value.__cause__, cause)


def test_corrupt_payload_byte_rejected(tmp_path):
    m = trained_model()
    path = tmp_path / "model.hdwm"
    save_model(m, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ChecksumError):
        model_from_bytes(bytes(blob))


def test_higher_version_rejected(tmp_path):
    blob = bytearray(model_to_bytes(trained_model()))
    blob[4:6] = (2).to_bytes(2, "little")
    with pytest.raises(UnsupportedVersionError):
        model_from_bytes(bytes(blob))


def test_bad_magic_rejected():
    blob = b"NOPE" + model_to_bytes(trained_model())[4:]
    with pytest.raises(BadMagicError):
        model_from_bytes(blob)


def test_truncated_file_rejected():
    blob = model_to_bytes(trained_model())
    with pytest.raises(TruncatedModelError):
        model_from_bytes(blob[: len(blob) - 30])


def test_save_is_atomic_no_temp_left(tmp_path):
    m = trained_model()
    save_model(m, tmp_path / "m.hdwm")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.hdwm"]


def test_save_fsyncs_file_before_rename_and_directory_after(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_model(trained_model(), tmp_path / "m.hdwm")
    assert events == ["fsync file", "replace", "fsync dir"]


# a NUL byte in the file name fails at the rename, one in the directory
# name at the temp file; both are a ValueError, not an OSError
@pytest.mark.parametrize(
    "target, error",
    [
        ("no_such_dir/m.hdwm", FileNotFoundError),
        ("a_dir", IsADirectoryError),
        ("bad\0name.hdwm", ValueError),
        ("bad\0dir/m.hdwm", ValueError),
    ],
    ids=["missing-directory", "directory", "nul-byte-name", "nul-byte-directory"],
)
def test_save_os_error_is_typed_and_leaves_no_temp(tmp_path, target, error):
    (tmp_path / "a_dir").mkdir()
    path = tmp_path / target
    with pytest.raises(ModelIOError, match="cannot write") as info:
        save_model(trained_model(), path)
    assert str(info.value).startswith(f"{path}: ")
    assert ".tmp" not in str(info.value)
    assert isinstance(info.value.__cause__, error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir"]
    assert not any((tmp_path / "a_dir").iterdir())


def with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def test_trailing_bytes_rejected():
    with pytest.raises(ModelIOError):
        model_from_bytes(model_to_bytes(trained_model()) + b"\0")


def test_reserved_slots_ignored_on_read():
    # u32 at offset 18 and u64 at offset 30 are the reserved slots
    blob = bytearray(model_to_bytes(trained_model()))
    blob[18:22] = struct.pack("<I", 7)
    blob[30:38] = struct.pack("<Q", 2**64 - 1)
    assert model_from_bytes(with_crc(bytes(blob[:-4]))) == trained_model()


@pytest.mark.parametrize(
    "old, new", [(b"walk", b"\xffalk"), (b"idle", b"walk")], ids=["bad-utf8", "duplicate"]
)
def test_bad_labels_with_valid_crc_rejected(old, new):
    payload = model_to_bytes(trained_model())[:-4]
    with pytest.raises(ModelIOError):
        model_from_bytes(with_crc(payload.replace(old, new, 1)))


def test_model_file_without_classes_rejected():
    head = struct.pack("<4sHIIIId4QI", b"HDWM", 1, 8, 0, 16, 3, 0.5, 0, 1, 2, 3, 0)
    with pytest.raises(ModelIOError):
        model_from_bytes(with_crc(head))


def test_non_str_labels_rejected():
    with pytest.raises(InvalidArgumentError):
        Model(classes=[0, 1], encoder=EncoderConfig(dim=64))


def test_str_classes_rejected():
    # a str is a sequence of one-character labels, never a class list
    for classes in ("walk", "w"):
        with pytest.raises(InvalidArgumentError, match="list of labels"):
            Model(classes=classes, encoder=EncoderConfig(dim=64))
    assert Model(classes=["walk"], encoder=EncoderConfig(dim=64)).classes == ("walk",)


def test_labels_utf8_cannot_encode_rejected():
    # a lone surrogate is a str that has no UTF-8 encoding, so it could
    # never be saved
    with pytest.raises(InvalidArgumentError):
        Model(classes=["\udc80"], encoder=EncoderConfig(dim=64))
    with pytest.raises(InvalidArgumentError):
        Model(classes=["walk", "r\ud800n"], encoder=EncoderConfig(dim=64))


def one_class_blob(dim, q, bound=(0.0, 1.0), eta=0.5, component=1.0):
    """A model file with one feature and one class "a" whose components all
    equal `component`, CRC recomputed."""
    head = struct.pack("<4sHIIIId4QI", b"HDWM", 1, dim, 1, q, 3, eta, 0, 1, 2, 3, 1)
    body = struct.pack("<dd", *bound) + struct.pack("<I", 1) + b"a"
    return with_crc(head + body + np.full(dim, component, dtype="<f4").tobytes())


@pytest.mark.parametrize("dim, q", [(0, 16), (1, 16), (8, 0), (8, 1)])
def test_model_file_with_bad_geometry_rejected(dim, q):
    assert model_from_bytes(one_class_blob(8, 16)).dim == 8
    with pytest.raises(ModelIOError):
        model_from_bytes(one_class_blob(dim, q))


@pytest.mark.parametrize(
    "bound", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)]
)
def test_model_file_with_non_finite_bound_rejected(bound):
    with pytest.raises(ModelIOError):
        model_from_bytes(one_class_blob(8, 16, bound))


def test_every_prefix_raises_by_where_it_ends():
    blob = model_to_bytes(trained_model(dim=8))
    for n in range(len(blob)):
        error = BadMagicError if n < 4 else TruncatedModelError
        with pytest.raises(error):
            model_from_bytes(blob[:n])
    # the version is checked as soon as its two bytes exist
    wrong = blob[:4] + (2).to_bytes(2, "little") + blob[6:]
    for n in range(6, len(wrong) + 1):
        with pytest.raises(UnsupportedVersionError):
            model_from_bytes(wrong[:n])


@given(
    st.sampled_from(["truncate", "flip", "append"]),
    st.integers(0, 2**10),
    st.binary(min_size=1, max_size=64),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_damaged_blob_loads_or_raises_model_io_error(op, where, data, fix_crc):
    # D=8 keeps most of the blob in the header and labels
    blob = bytearray(model_to_bytes(trained_model(dim=8)))
    if op == "truncate":
        del blob[where % len(blob):]
    elif op == "flip":
        blob[where % len(blob)] ^= data[0] or 0xFF
    else:
        blob += data
    if fix_crc and len(blob) >= 4:
        blob = bytearray(with_crc(bytes(blob[:-4])))
    try:
        model_from_bytes(bytes(blob))
    except ModelIOError:
        pass


@pytest.mark.parametrize("component", [math.nan, -math.inf])
def test_model_rejects_non_finite_class_matrix(component):
    # 1e300 is finite as float64 but overflows the float32 the model stores
    for bad in (component, 1e300):
        with pytest.raises(InvalidArgumentError):
            Model(classes=["a"], encoder=EncoderConfig(dim=64), class_matrix=np.full((1, 64), bad))
    assert model_from_bytes(one_class_blob(8, 16, component=-2.5)).class_matrix[0, 0] == -2.5
    with pytest.raises(ModelIOError):
        model_from_bytes(one_class_blob(8, 16, component=component))


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"classes": None}, InvalidArgumentError),
        ({"classes": 5}, InvalidArgumentError),
        ({"encoder": None}, InvalidArgumentError),
        ({"encoder": {"dim": 64}}, InvalidArgumentError),
        ({"class_matrix": [[1.0] * 64, [1.0] * 63]}, DimensionMismatchError),
        ({"class_matrix": [["a"] * 64] * 2}, InvalidArgumentError),
        ({"class_matrix": np.ones((2, 64), dtype=complex)}, InvalidArgumentError),
        ({"class_matrix": [[None] * 64] * 2}, InvalidArgumentError),
    ],
    ids=[
        "classes-None", "classes-int", "encoder-None", "encoder-dict",
        "ragged-matrix", "str-matrix", "complex-matrix", "object-matrix",
    ],
)
def test_model_fields_of_the_wrong_kind_are_typed(kwargs, error):
    fields = {"classes": ["a", "b"], "encoder": EncoderConfig(dim=64), **kwargs}
    with pytest.raises(error):
        Model(**fields)


def test_model_classes_cannot_change_in_place():
    m = Model(classes=["a", "b"], encoder=EncoderConfig(dim=64), class_matrix=np.ones((2, 64)))
    assert m.classes == ("a", "b")
    with pytest.raises(AttributeError):
        m.classes.append("c")
    assert model_from_bytes(model_to_bytes(m)) == m


@pytest.mark.parametrize(
    "eta",
    [
        0.0,
        -0.5,
        math.nan,
        math.inf,
        "x",
        None,
        # finite, but not in float32, the dtype of training's weights
        pytest.param(1e39, id="1e39"),
        # each below is a real the f64 eta field would not give back
        True,
        pytest.param(10**400, id="10**400"),
        pytest.param(2**53 + 1, id="2**53+1"),
        pytest.param(np.longdouble("1e-4000"), id="longdouble-1e-4000"),
        pytest.param(Fraction(1, 10**400), id="1/10**400"),
        pytest.param(Fraction(1, 3), id="1/3"),
    ],
)
def test_model_rejects_bad_eta(eta):
    with pytest.raises(InvalidArgumentError):
        make_model(eta=eta)


def test_eta_at_the_float32_edge_trains_a_zero_model():
    # 2e38 is finite in float32, so a sample lands: on a zero row delta is
    # 0, and the row becomes eta * H
    m = Model(classes=["a"], encoder=EncoderConfig(dim=64), eta=2e38)
    train_online(m, [(np.eye(64)[0], "a")])
    assert m.class_matrix[0, 0] == np.float32(2e38) and not m.class_matrix[0, 1:].any()


def test_retrain_curve_is_output_not_an_argument():
    # train_iterative fills the model's own list in place, after its epochs
    # have run, so no caller can hand it a tuple; copy() copies the list
    with pytest.raises(TypeError):
        Model(classes=["a"], encoder=EncoderConfig(dim=8), retrain_curve=[])
    data = overlapping_int16_set(0)
    m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    train_iterative(m, data, max_epochs=2, patience=2)
    twin = m.copy()
    assert twin.retrain_curve == m.retrain_curve and len(m.retrain_curve) == 2
    assert twin.retrain_curve is not m.retrain_curve


def test_exact_reals_of_other_types_round_trip():
    enc = EncoderConfig(dim=8, feature_bounds=[(Fraction(1, 2), np.float32(0.25)), (2**53, -3)])
    m = Model(classes=["a"], encoder=enc, eta=np.longdouble(0.125), class_matrix=np.ones((1, 8)))
    assert model_from_bytes(model_to_bytes(m)) == m


# "retrain_epoch" is one retraining epoch: train_iterative(max_epochs=1)
@pytest.mark.parametrize("call", ["train_online", "retrain_epoch", "model_to_bytes"])
@pytest.mark.parametrize("eta", [math.nan, 0.0, -1.0])
def test_eta_set_after_construction_rejected(eta, call):
    m, untouched = trained_model(), trained_model()
    before = m.class_matrix.copy()
    with pytest.raises(FrozenInstanceError):
        m.eta = eta
    assert m.eta == 0.25
    assert np.array_equal(m.class_matrix.view(np.uint32), before.view(np.uint32))
    # the rejected value reaches neither training nor the model file; the
    # "walk" prototype labelled "run" is a miss for one retraining epoch
    data = [(hv_accum(20, 0, 256), "run")]
    run = {
        "train_online": lambda m: train_online(m, data).class_matrix.tobytes(),
        "retrain_epoch": lambda m: train_iterative(m, data, max_epochs=1).class_matrix.tobytes(),
        "model_to_bytes": model_to_bytes,
    }[call]
    assert run(m) == run(untouched) != before.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [("class_matrix", np.zeros((3, 257))), ("classes", ["a", "b", "c"]), ("retrain_curve", [1])],
)
def test_model_fields_cannot_be_rebound(field, value):
    m = trained_model()
    before = m.class_matrix
    with pytest.raises(FrozenInstanceError):
        setattr(m, field, value)
    assert m.class_matrix is before and m.classes == ("walk", "run", "idle")
    assert m.retrain_curve == []


def test_encoder_config_fields_cannot_be_rebound():
    enc = EncoderConfig(dim=64, feature_bounds=[(0.0, 1.0)])
    with pytest.raises(FrozenInstanceError):
        enc.dim = 0
    with pytest.raises(FrozenInstanceError):
        enc.feature_bounds = [(math.nan, 1.0)]
    assert enc.dim == 64 and enc.feature_bounds == [(0.0, 1.0)]


# one pair the labelled-pairs boundary rejects at D = 256, and its error
BAD_PAIRS = {
    "nan": ((np.full(256, np.nan), "walk"), InvalidSampleError),
    "inf": ((np.r_[np.ones(255), np.inf], "walk"), InvalidSampleError),
    "object": ((np.array([None] * 256), "walk"), InvalidSampleError),
    "label": ((np.ones(256), "swim"), UnknownClassError),
    "shape": ((np.ones(257), "walk"), DimensionMismatchError),
}


# "retrain_epoch" is one retraining epoch: train_iterative(max_epochs=1)
@pytest.mark.parametrize("call", ["train_online", "retrain_epoch", "train_iterative"])
@pytest.mark.parametrize("kind", list(BAD_PAIRS))
@pytest.mark.parametrize("at", [0, 17, 40])
def test_bad_pair_in_training_stream_leaves_model_unchanged(call, kind, at):
    m = trained_model()
    before = m.class_matrix.copy()
    # every good pair is a miss that retraining would act on: the "walk"
    # prototype labelled "run"
    pair, error = BAD_PAIRS[kind]
    data = [(hv_accum(20, 0, 256), "run")] * 40
    data.insert(at, pair)
    run = {
        "train_online": lambda: train_online(m, iter(data)),
        "retrain_epoch": lambda: train_iterative(m, data, max_epochs=1),
        "train_iterative": lambda: train_iterative(m, data, max_epochs=3),
    }[call]
    with pytest.raises(error):
        run()
    assert np.array_equal(m.class_matrix.view(np.uint32), before.view(np.uint32))


@pytest.mark.parametrize("eta", [math.nan, 0.0, 1e39])
def test_model_file_with_bad_eta_rejected(eta):
    assert model_from_bytes(one_class_blob(8, 16, eta=0.25)).eta == 0.25
    with pytest.raises(ModelIOError):
        model_from_bytes(one_class_blob(8, 16, eta=eta))
