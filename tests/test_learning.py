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
    _class_rows,
    _float_blocks,
    _Rows,
    _margin,
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
    a, b = hv_accum(8, 0), hv_accum(8, 1)
    m1 = train_online(make_model(), [(a, "c0"), (b, "c0")])
    m2 = train_online(make_model(), [(b, "c0"), (a, "c0")])
    assert not np.array_equal(m1.class_matrix, m2.class_matrix)


# ------------------------------------------------------------- Eq.2 retrain


def exact_misprediction_model(eta=0.5):
    """Dyadic construction: cosines are exactly 0 and 1 and eta is a power
    of two, so every float operation in the update is exact."""
    enc = EncoderConfig(dim=8, feature_bounds=[(0, 1)])
    m = Model(classes=["l", "lp"], encoder=enc, eta=eta)
    m.class_matrix[0] = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.float32)
    m.class_matrix[1] = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.float32)
    H = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
    return m, H


def test_retrain_exact_equal_and_opposite_increments():
    m, H = exact_misprediction_model()
    before = m.class_matrix.copy().astype(np.float64)
    misses = train_iterative(m, [(H, "l")], max_epochs=1).retrain_curve[0]
    after = m.class_matrix.astype(np.float64)
    assert misses == 1
    d_l = after[0] - before[0]
    d_lp = after[1] - before[1]
    assert np.array_equal(d_l, -d_lp)
    assert np.array_equal(d_l, np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.float64))


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


def test_retrain_equal_similarity_miss_is_zero_magnitude():
    # delta_l' == delta_l makes the update factor exactly zero
    enc = EncoderConfig(dim=4, feature_bounds=[(0, 1)])
    m = Model(classes=["a", "b"], encoder=enc, eta=0.5)
    m.class_matrix[0] = np.array([0, 1, 0, 0], dtype=np.float32)
    m.class_matrix[1] = np.array([0, 1, 0, 0], dtype=np.float32)
    H = np.array([0.0, 2.0, 0, 0])
    before = m.class_matrix.copy()
    # both classes have similarity 1; argmax tie-break picks index 0 = "a",
    # so label "b" is a (marginal) misprediction
    misses = train_iterative(m, [(H, "b")], max_epochs=1).retrain_curve[0]
    assert misses == 1
    assert np.array_equal(m.class_matrix, before)


def test_retrain_changes_exactly_two_rows():
    m = make_model(n_classes=4)
    for i in range(4):
        train_online(m, [(hv_accum(10, i), f"c{i}")])
    before = m.class_matrix.copy()
    victim = hv_accum(10, 1)
    # mislabel the c1 prototype as c3 to force a misprediction
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


def oracle_cosines(model, h):
    """Cosine of a float64 query against every class row, from a fresh cast
    of the float32 class matrix and fresh norms; 0 where a norm is 0.

    Every norm is the square root of the pairwise add.reduce of the squares,
    as the package takes it, for the query too: np.linalg.norm(h) without an
    axis is sqrt(h @ h), a BLAS dot whose last bit can differ, which would
    make the float64 near-tie cases agree only by luck."""
    M = model.class_matrix.astype(np.float64)
    norms = np.sqrt(np.add.reduce(M * M, axis=1))
    hn = np.sqrt(np.add.reduce(h * h))
    out = np.zeros(len(M))
    ok = (norms > 0) & (hn > 0)
    out[ok] = (M @ h)[ok] / (norms[ok] * hn)
    return out


def naive_training(model, data, epochs=1, online=True):
    """train_online (unless online is False), then up to `epochs` retraining
    epochs, stopping after one without a miss as train_iterative does;
    re-casts the whole float32 class matrix and re-takes every norm per
    sample.  Returns the rows missed in each epoch and the class matrix
    after it."""

    for H, label in data if online else []:
        li, h = model.class_index(label), H.astype(np.float64)
        delta = oracle_cosines(model, h)[li]
        if delta != 1.0:
            model.class_matrix[li] += (model.eta * (1.0 - delta) * h).astype(np.float32)
    missed, snapshots = [], []
    for _ in range(epochs):
        missed.append([])
        for row, (H, label) in enumerate(data):
            li, h = model.class_index(label), H.astype(np.float64)
            s = oracle_cosines(model, h)
            pi = int(np.argmax(s))
            if pi != li:
                missed[-1].append(row)
                inc = (model.eta * (s[pi] - s[li]) * h).astype(np.float32)
                model.class_matrix[li] += inc
                model.class_matrix[pi] -= inc
        snapshots.append(model.class_matrix.copy())
        if not missed[-1]:
            break
    return missed, snapshots


def overlapping_int16_set(seed):
    """300 int16 queries (as the encoder gives) of 5 overlapping classes at
    D = 257, so retraining misses often and moves two rows per miss."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(-1, 2, (5, 257))
    labels = rng.integers(0, 5, 300)
    H = (protos[labels] + rng.integers(-30, 31, (300, 257))).astype(np.int16)
    return [(h, f"c{c}") for h, c in zip(H, labels)]


def test_block_size_cannot_change_learning(monkeypatch):
    # budgets of 1 row, 16 rows and the whole set: the screen, the exact
    # steps and prediction must not see where the blocks end
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


# Retraining screens each block with one matrix product and runs the exact
# per-sample step only on the rows the screen does not settle.  Each case
# below returns a model ready to retrain, its retraining pairs, and the
# rows the oracle must miss in the first epoch.
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
    # rows c0 and c1 are identical, so every query scores them equally and
    # argmax must pick c0: a "c1" query is a miss with a zero increment,
    # until a "c2" query predicted as c0 pulls the two rows apart
    rng = np.random.default_rng(32)
    m = make_model(n_classes=3, dim=SCREEN_DIM, eta=0.5)
    row = rng.integers(-4, 5, SCREEN_DIM)
    m.class_matrix[:] = [row, row, rng.integers(-4, 5, SCREEN_DIM)]
    H = (row + rng.integers(-2, 3, (40, SCREEN_DIM))).astype(np.int16)
    names = ["c1"] * 20 + ["c0"] * 10 + ["c2"] * 10
    data = list(zip(H, names))
    return m, data, list(range(20)) + list(range(30, 40))


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
def test_screened_retraining_equals_per_sample_oracle(case, monkeypatch):
    # 16-row blocks, so that every case crosses the block edges it was built
    # around (the byte budget alone gives one block at D = 256)
    monkeypatch.setattr(learning, "_BLOCK_BYTES", 16 * 8 * SCREEN_DIM)
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


def test_screen_settles_no_query_outside_its_norm_range(monkeypatch):
    # five hits far from any tie; the three whose norm lies inside
    # _SCREEN_NORMS (two of them at 2**-39 and 2**39, by its edges) are
    # settled, and the two just outside it (2**-41, 2**41) must take the
    # exact step
    m = make_model(n_classes=2, dim=64)
    m.class_matrix[:] = [np.ones(64), -np.ones(64)]
    norms = 2.0 ** np.array([3, -39, 39, -41, 41])
    H = np.ones((5, 64)) * (norms / 8)[:, None]
    exact, screens = [], []
    dots, screened, settled = _Rows.dots, learning._screened, learning._settled

    def counted(self, h):
        exact.append(float(h[0] * 8))  # the norm of the row it scores
        return dots(self, h)

    def screen_spy(M32, inv, B, scales=None):
        C, scales = screened(M32, inv, B, scales)
        screens.append(scales.copy())
        return C, scales

    def settled_spy(C, own, margin):
        screens.append(own.copy())
        return settled(C, own, margin)

    monkeypatch.setattr(_Rows, "dots", counted)
    monkeypatch.setattr(learning, "_screened", screen_spy)
    monkeypatch.setattr(learning, "_settled", settled_spy)
    # one block and one epoch: the first epoch takes the query scales and
    # the one-hot of the true classes once for the whole set
    assert train_iterative(m, zip(H, ["c0"] * 5), max_epochs=1).retrain_curve == [0]
    scales, own = screens[0], screens[1]
    assert own.tolist() == [[True] * 5, [False] * 5]
    assert np.array_equal(scales[:3], 1 / norms[:3]) and np.isnan(scales[3:]).all()
    assert exact == norms[3:].tolist()


def test_margin_is_nan_where_its_bound_fails():
    # 8 (D + 2) eps32, until 4 D eps32 reaches 1 (D = 2**21): past it the
    # screen settles nothing
    eps = float(np.finfo(np.float32).eps)
    assert _margin(64) == 8 * 66 * eps
    assert _margin(2**21 - 1) == 8 * (2**21 + 1) * eps
    assert np.isnan(_margin(2**21)) and np.isnan(_margin(2**32 - 1))


@pytest.mark.parametrize("value, expect", [(-1e300, 1), (-1e-300, 1), (1e150, 0), (-1e150, 1)])
def test_predict_scores_a_finite_query_by_its_direction(value, expect):
    # the squares of +-1e300 pass the float64 range and those of 1e-300
    # vanish; either way the query points at a class row, and it is scored
    # by its direction, without a warning (warnings are errors here)
    m = make_model(n_classes=2, dim=64)
    m.class_matrix[:] = [np.ones(64), -np.ones(64)]
    H = np.full((1, 64), value)
    assert predict(m, H).tolist() == [expect]
    assert evaluate(m, [(H[0], "c0")]).confusion[0, expect] == 1


def float64_block_path(model, H):
    """Class indices of the rows of H as the float64 block path scores
    them: each block of _block_rows(D) rows cast to float64, one product
    with the float64 class rows, divided by the norms (0 where their
    product is 0), argmax."""
    M = model.class_matrix.astype(np.float64)
    norms = np.sqrt(np.add.reduce(M * M, axis=1))
    step, out = _block_rows(model.dim), []
    for s in range(0, len(H), step):
        Hf = np.asarray(H[s : s + step], dtype=np.float64)
        den = np.multiply.outer(norms, np.sqrt(np.add.reduce(Hf * Hf, axis=1)))
        C = np.divide(M @ Hf.T, den, out=np.zeros(den.shape), where=den > 0)
        out.append(C.argmax(axis=0))
    return np.concatenate(out or [np.empty(0, np.int64)])


def _power_of_two_scale(rows, exponents):
    """rows scaled by powers of two so that each norm lies within a factor
    sqrt(2) of 2**exponent."""
    norms = np.sqrt(np.add.reduce(rows.astype(np.float64) ** 2, axis=-1))
    return rows * 2.0 ** (exponents - np.round(np.log2(np.where(norms > 0, norms, 1.0))))[:, None]


@given(
    st.sampled_from([np.int8, np.int16, np.int64, np.bool_, np.float32, np.float64]),
    st.integers(1, 5),
    st.sampled_from([3, 64, 130]),
    st.integers(0, 40),
    st.integers(1, 8),
    st.sampled_from(["separated", "exact-tie", "ulp-tie", "zero-class", "norm-edges"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_screened_predict_equals_the_float64_block_path(dtype, k, dim, n, rows, case, seed):
    # the float32 screen keeps only decisions the float64 block path takes
    # too, and leaves every other block to it, so predict equals that path
    # bit for bit: on exact two-class ties, on ties broken by one float32
    # ulp, on zero rows, on one-class models and on norms either side of
    # the screen's range (2**+-39 inside it, 2**+-41 outside)
    r = np.random.default_rng(seed)
    C = r.normal(0, 1, (k, dim)).astype(np.float32)
    if case in ("exact-tie", "ulp-tie") and k > 1:
        C[1] = C[0]
        if case == "ulp-tie":
            i = r.integers(dim)
            C[1, i] = np.nextafter(C[0, i], np.float32(np.inf))
    if case == "zero-class" and k > 1:
        C[r.integers(k)] = 0
    H = C[r.integers(k, size=n)] + r.normal(0, 0.7, (n, dim))
    if case == "norm-edges":
        C = _power_of_two_scale(C, r.choice([-41, -39, 0, 39, 41], k)).astype(np.float32)
    m = make_model(n_classes=k, dim=dim)
    m.class_matrix[:] = C

    if case == "norm-edges" and np.dtype(dtype).kind == "f":
        H = _power_of_two_scale(H, r.choice([-41, -39, 0, 39, 41], n))
    if dtype == np.bool_:
        H = H > 0
    elif dtype == np.int64:  # past 2**24, where the float32 cast rounds
        H = np.rint(H * 2.0**30)
    elif np.dtype(dtype).kind == "i":
        H = np.rint(np.clip(H * 20, -127, 127))
    H = H.astype(dtype)
    H[r.random(n) < 0.1] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "_BLOCK_BYTES", rows * 8 * dim)
        got, want = predict(m, H), float64_block_path(m, H)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_screen_settles_separated_blocks_and_leaves_ties_to_float64(monkeypatch):
    monkeypatch.setattr(learning, "_BLOCK_BYTES", 16 * 8 * 256)  # 16-row blocks
    m = block_edge_model()
    protos = [hv_accum(21, i, 256) for i in range(3)]
    rng = np.random.default_rng(7)
    H = np.array([protos[i % 3] + rng.normal(0, 0.5, 256) for i in range(48)])
    opened = []
    exact_best = learning._exact_best

    def spy(M, norms, Hf):
        opened.append(Hf.copy())
        return exact_best(M, norms, Hf)

    monkeypatch.setattr(learning, "_exact_best", spy)
    want = [int(np.argmax(similarities(m, h))) for h in H]
    assert predict(m, H).tolist() == want and opened == []
    # the rows of c0 and c1 are the prototypes scaled alike, so their sum
    # scores both exactly alike, and argmax picks c0
    H[20] = protos[0] + protos[1]
    assert similarities(m, H[20])[0] == similarities(m, H[20])[1]
    assert predict(m, H).tolist() == want[:20] + [0] + want[21:]
    assert len(opened) == 1 and np.array_equal(opened[0], H[16:32])


def test_one_class_retraining_raises_no_invalid_value():
    # a one-class model's only rival score is -inf; queries outside
    # _SCREEN_NORMS (a zero query, a huge one) still reach the exact step,
    # and adding their margin to -inf must not raise an invalid-value error
    m = make_model(n_classes=1, dim=64)
    m.class_matrix[:] = 1.0
    H = np.ones((3, 64)) * np.array([[0.0], [1.0], [2.0**420]])
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        out = train_iterative(m, zip(H, ["c0"] * 3), max_epochs=2)
    assert out.retrain_curve == [0]
    assert (out.class_matrix == 1.0).all()


def test_training_that_overflows_raises_and_leaves_the_model():
    # no update may leave a class component outside the float32 range (its
    # model file could not be loaded back); numpy's warnings about the
    # update's overflow stay inside (they are errors here), and the class
    # matrix stays as received
    enc = EncoderConfig(dim=64)
    H = np.full(64, 3e38, np.float32)
    fresh = Model(classes=["a", "b"], encoder=enc)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(fresh, [(np.full(64, 1e100), "a"), (np.ones(64), "b")])
    assert not fresh.class_matrix.any()
    # 1e300 also overflows the float64 squares of its norm: that warning is
    # scoring's and stays live; the update then raises all the same
    huge = np.full(64, 1e300)
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        with pytest.raises(InvalidSampleError, match="overflow"):
            train_online(fresh, [(huge, "a"), (huge, "b")])
    assert not fresh.class_matrix.any()

    m = Model(classes=["a", "b"], encoder=enc, eta=1.0)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(m, [(H, "a"), (-H, "a"), (H, "b")])
    assert not m.class_matrix.any()
    # one component just past the float32 range: the update's bound on its
    # components (_updating's reach) lies between 2**127 and 2**128
    edge = np.zeros(64)
    edge[0] = 2.0**128 * (1 - 2.0**-26)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_online(m, [(edge, "a")])
    assert not m.class_matrix.any()

    # a trained model whose one miss moves both rows by 2 * 3e38
    m.class_matrix[:] = [np.ones(64), -np.ones(64)]
    m.retrain_curve[:] = [7]
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_iterative(m, [(H, "b")], max_epochs=3)
    assert np.array_equal(m.class_matrix, [np.ones(64), -np.ones(64)])
    assert m.retrain_curve == [7]
    # a finite update still lands, also one whose bound passes 2**127
    train_online(m, [(np.ones(64), "b")])
    assert np.array_equal(m.class_matrix, np.ones((2, 64)))
    m.class_matrix[1] = 2.0**124  # norm 2**127
    train_online(m, [(np.eye(64)[0], "b")])
    assert np.array_equal(m.class_matrix[1], np.full(64, 2.0**124))


def test_overflow_in_a_later_epoch_restores_the_model_as_received():
    # one query of class b lies along a's row (cosine 1) and almost
    # orthogonal to b's huge row, so it stays a miss in every epoch: each
    # one adds about 1e38 to b's first component and takes it from a's.
    # Epochs 1-3 land and epoch 1 is the best of equals; epoch 4 takes b
    # past the float32 range, and the call leaves the class matrix and
    # retrain_curve as it received them, not epoch 1's
    m = Model(classes=["a", "b"], encoder=EncoderConfig(dim=64), eta=1.0)
    m.class_matrix[0, 0] = 3e38
    m.class_matrix[1, 1:] = 3e38
    m.retrain_curve[:] = [7]
    received = m.class_matrix.copy()
    q = np.eye(64)[0] * 1e38
    three = train_iterative(m.copy(), [(q, "b")], max_epochs=3, patience=3)
    assert three.retrain_curve == [1, 1, 1]
    assert three.class_matrix[1, 0] == np.float32(1e38)
    with pytest.raises(InvalidSampleError, match="overflow"):
        train_iterative(m, [(q, "b")], max_epochs=4, patience=4)
    assert np.array_equal(m.class_matrix.view(np.uint32), received.view(np.uint32))
    assert m.retrain_curve == [7]


def test_retraining_takes_the_class_rows_once_per_call(monkeypatch):
    # the float64 mirror and its norms are taken once, before the first
    # epoch, and every later epoch goes on from the rows the last one
    # refreshed
    data = overlapping_int16_set(0)
    m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    calls, class_rows = [], learning._class_rows

    def spy(model):
        calls.append(model.class_matrix.copy())
        return class_rows(model)

    monkeypatch.setattr(learning, "_class_rows", spy)
    received = m.class_matrix.copy()
    assert len(train_iterative(m, data, max_epochs=4, patience=4).retrain_curve) == 4
    assert len(calls) == 1 and np.array_equal(calls[0], received)


def test_row_refresh_equals_a_fresh_cast_bit_for_bit():
    # the invariant the training cache rests on: after each update the
    # float64 rows and norms equal a fresh cast of the float32 matrix, and
    # the buffered update moves its rows as the allocating
    # `row += (scale * h).astype(np.float32)` (and -= for a second row)
    # moves them, with the errstate of a large reach or without it
    m = make_model(n_classes=3, dim=1000)
    rng = np.random.default_rng(6)
    m.class_matrix[:] = rng.normal(0, 100, (3, 1000)).astype(np.float32)
    expect = m.class_matrix.copy()
    rows = _Rows(m)
    steps = [((0,), 0.0), ((2, 0), math.inf), ((1, 2), 1e3), ((0,), 2.0**127), ((1, 0), math.nan)]
    for moved, reach in steps:
        h, scale = rng.normal(0, 1, 1000), float(rng.normal(0, 0.5))
        inc = (scale * h).astype(np.float32)
        expect[moved[0]] += inc
        if len(moved) > 1:
            expect[moved[1]] -= inc
        rows.update(h, scale, reach, *moved)
        assert np.array_equal(m.class_matrix.view(np.uint32), expect.view(np.uint32))
        fresh_M, fresh_norms = _class_rows(m)
        assert np.array_equal(rows.M, fresh_M)
        assert np.array_equal(rows.norms.view(np.uint64), fresh_norms.view(np.uint64))
        assert np.array_equal(rows.dots(h).view(np.uint64), (fresh_M @ h).view(np.uint64))


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
    sum of squares is exact in any order and the oracle's dot-product norm
    equals _norms."""
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


def test_class_rows_are_64_byte_aligned():
    m = make_model(n_classes=3, dim=ALIGN_DIM)
    M, norms = _class_rows(m)
    assert M.ctypes.data % 64 == 0 and M.flags.c_contiguous and M.dtype == np.float64


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
    # on this set the curve rises after its first epoch, so the best epoch
    # (the earliest of the fewest misses) is not the last one
    data = overlapping_int16_set(0)
    m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    missed, snapshots = naive_training(m.copy(), data, epochs=6, online=False)
    curve = [len(rows) for rows in missed]
    assert curve == [50, 50, 50, 52, 52, 51]
    assert not np.array_equal(snapshots[0], snapshots[-1])
    assert train_iterative(m, data, max_epochs=6, patience=6) is m
    assert m.retrain_curve == curve
    assert np.array_equal(m.class_matrix.view(np.uint32), snapshots[0].view(np.uint32))


def test_iterative_keeps_best_epoch():
    m = make_model(dim=512)
    data = linearly_separable(15)
    train_online(m, data)
    out = train_iterative(m, data, max_epochs=10, patience=9)
    misses_now = train_iterative(out.copy(), data, max_epochs=1).retrain_curve[0]
    assert misses_now <= max(out.retrain_curve)


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
        blocks = [(start, block.copy()) for start, block in _float_blocks(8, rows)]
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
    # (N, D) array, on every block edge; blocks are float64 buffers that the
    # next block overwrites, so they are copied as they come
    dim = 1024
    step = _block_rows(dim)
    n = rows_of_step(step)
    rng = np.random.default_rng(5)
    A = rng.integers(-100, 100, (n, dim)).astype(np.int16)

    def cut(rows):
        return [(start, block.copy()) for start, block in _float_blocks(dim, rows)]

    from_list, from_array = cut(list(A)), cut(A)
    assert [s for s, _ in from_list] == [s for s, _ in from_array] == list(range(0, n, step))
    for (_, a), (_, b) in zip(from_list, from_array):
        assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b)
    assert np.array_equal(np.concatenate([b for _, b in from_list] or [np.empty((0, dim))]), A)


def test_float_blocks_cast_mixed_rows_as_their_stack():
    # each row is cast to float64 on its own; numpy stacks these rows as
    # float64 (int64 and float32 promote to it), whose cast of each value
    # is the row's own, so the values are the same bit for bit
    rows = [
        np.array([True, False, True, False]),
        np.array([-128, 127, 0, -1], dtype=np.int8),
        np.array([2**62 + 1, -(2**53) - 1, 2**63 - 1, -5], dtype=np.int64),
        np.array([1.5, 1e-40, -3.4e38, 0.1], dtype=np.float32),
    ]
    ((start, block),) = _float_blocks(4, rows)
    assert start == 0
    expect = np.array(rows).astype(np.float64)
    assert np.array_equal(block.view(np.uint64), expect.view(np.uint64))


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


def test_retrain_curve_is_output_not_an_argument():
    # train_iterative fills the model's own list in place, after its epochs
    # have run, so no caller can hand it a tuple; copy() copies the list
    with pytest.raises(TypeError):
        Model(classes=["a"], encoder=EncoderConfig(dim=8), retrain_curve=[])
    data = overlapping_int16_set(0)
    m = train_online(make_model(n_classes=5, dim=257, eta=0.25), data)
    train_iterative(m, data, max_epochs=2, patience=2)
    twin = m.copy()
    assert twin.retrain_curve == m.retrain_curve == [50, 50]
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


@pytest.mark.parametrize("eta", [math.nan, 0.0])
def test_model_file_with_bad_eta_rejected(eta):
    assert model_from_bytes(one_class_blob(8, 16, eta=0.25)).eta == 0.25
    with pytest.raises(ModelIOError):
        model_from_bytes(one_class_blob(8, 16, eta=eta))
