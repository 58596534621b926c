"""Model quantization and bit-flip injection."""

import numpy as np
import pytest

from hdwear import reference as ref
from hdwear.encoding import EncoderConfig
from hdwear.errors import DimensionMismatchError, InvalidArgumentError, ModelNotTrainedError
from hdwear.hv import pack, random_hv, sign_quantize
from hdwear.learning import Model, train_online
from hdwear.robustness import (
    TABLE4_RATES,
    count_differing_bits,
    inject_bitflips,
    quantize_model,
    robustness_sweep,
)

D = 4096


def trained_model(n_classes=4, dim=D, seed=60):
    enc = EncoderConfig(dim=dim, tie_seed=777, feature_bounds=[(0, 1)] * 3)
    m = Model(classes=[f"c{i}" for i in range(n_classes)], encoder=enc)
    data = []
    for i in range(n_classes):
        H = random_hv(seed, i, dim).astype(np.float64)
        data.append((H, f"c{i}"))
    train_online(m, data)
    return m, data


def test_quantize_identity_on_sign_valued_model():
    m, _ = trained_model(dim=256)
    m.class_matrix = np.sign(m.class_matrix) + (m.class_matrix == 0)
    bm = quantize_model(m)
    assert np.array_equal(bm.class_words, pack(m.class_matrix))


def test_quantize_idempotent():
    m, _ = trained_model(dim=256)
    a = quantize_model(m)
    b = quantize_model(m)
    assert np.array_equal(a.class_words, b.class_words)
    assert a.source_hash == b.source_hash


def test_quantize_untrained_rejected():
    enc = EncoderConfig(dim=64, feature_bounds=[(0, 1)])
    with pytest.raises(ModelNotTrainedError):
        quantize_model(Model(classes=["a"], encoder=enc))


def test_binary_predict_matches_prototypes():
    m, data = trained_model()
    bm = quantize_model(m)
    for H, label in data:
        assert bm.predict(H) == label


# ------------------------------------------------- packed words at odd D


@pytest.mark.parametrize("dim", [77, 130])
def test_similarities_match_reference_hamming_at_odd_dim(dim):
    m, data = trained_model(n_classes=3, dim=dim)
    bm = quantize_model(m)
    assert bm.class_words.shape == (3, (dim + 63) // 64)
    coin = random_hv(777, 0, dim).tolist()  # the tie coin of tie seed 777
    classes = [ref.sign_quantize(row.tolist(), coin) for row in m.class_matrix]
    for stream in range(5):
        H = random_hv(61, stream, dim) + random_hv(62, stream, dim)  # has ties
        q = ref.sign_quantize(H.tolist(), coin)
        expect = [dim - 2 * ref.hamming(q, c) for c in classes]
        assert bm.similarities(H).tolist() == expect


@pytest.mark.parametrize("dim", [77, 130])
def test_inject_rate_one_flips_every_bit_and_no_padding_at_odd_dim(dim):
    m, _ = trained_model(n_classes=3, dim=dim)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 1.0, trial_seed=4)
    assert count_differing_bits(bm, corrupted) == 3 * dim
    assert np.array_equal(corrupted.class_words, pack(-sign_quantize(m.class_matrix, 777)))
    # each valid bit is set in exactly one of the two models, so any set
    # padding bit would push the total past K * D
    ones = np.bitwise_count(corrupted.class_words).sum() + np.bitwise_count(bm.class_words).sum()
    assert ones == 3 * dim


def test_query_dim_mismatch_rejected():
    m, data = trained_model(n_classes=2, dim=130)
    bm = quantize_model(m)
    # 129 and 130 components pack to the same number of words
    short = random_hv(1, 0, 129)
    with pytest.raises(DimensionMismatchError):
        bm.similarities(short)
    with pytest.raises(DimensionMismatchError):
        robustness_sweep(m, data + [(short, "c0")], rates=[0.1], trials=1)


def test_inject_rate_zero_identical():
    m, _ = trained_model(dim=256)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 0.0, trial_seed=1)
    assert count_differing_bits(bm, corrupted) == 0


def test_inject_rate_one_negates_everything():
    m, data = trained_model()
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 1.0, trial_seed=1)
    assert count_differing_bits(bm, corrupted) == len(bm.classes) * D
    # fully negated model ranks classes in reverse: argmax becomes argmin
    H = data[0][0]
    assert np.array_equal(corrupted.similarities(H), -bm.similarities(H))


def test_inject_exact_flip_count():
    m, _ = trained_model(n_classes=4)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 0.1, trial_seed=5)
    assert count_differing_bits(bm, corrupted) == 1638  # round(0.1 * 4 * 4096)


def test_inject_exact_count_across_rates():
    m, _ = trained_model(n_classes=3, dim=512)
    bm = quantize_model(m)
    total = 3 * 512
    for rate in (0.01, 0.07, 0.33, 0.5, 0.999):
        corrupted = inject_bitflips(bm, rate, trial_seed=9)
        assert count_differing_bits(bm, corrupted) == round(rate * total)


def test_inject_deterministic():
    m, _ = trained_model(dim=512)
    bm = quantize_model(m)
    a = inject_bitflips(bm, 0.2, trial_seed=42)
    b = inject_bitflips(bm, 0.2, trial_seed=42)
    assert np.array_equal(a.class_words, b.class_words)
    c = inject_bitflips(bm, 0.2, trial_seed=43)
    assert not np.array_equal(a.class_words, c.class_words)


def test_inject_leaves_original_untouched():
    m, _ = trained_model(dim=512)
    bm = quantize_model(m)
    before = bm.class_words.copy()
    inject_bitflips(bm, 0.5, trial_seed=3)
    assert np.array_equal(bm.class_words, before)
    clean = inject_bitflips(bm, 0.0, trial_seed=3)
    clean.class_words[0, 0] ^= np.uint64(1)
    assert np.array_equal(bm.class_words, before)


def test_inject_rate_out_of_range():
    m, _ = trained_model(dim=256)
    bm = quantize_model(m)
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidArgumentError):
            inject_bitflips(bm, bad, trial_seed=0)


def test_inject_negative_trial_seed_rejected():
    bm = quantize_model(trained_model(dim=256)[0])
    with pytest.raises(InvalidArgumentError):
        inject_bitflips(bm, 0.1, trial_seed=-1)


def test_sweep_rate_zero_row_has_zero_loss():
    m, data = trained_model()
    rep = robustness_sweep(m, data, rates=[0.0], trials=3, seed=11)
    assert np.all(rep.mean_loss == 0.0)
    assert np.all(rep.sd_acc == 0.0)


def test_sweep_deterministic():
    m, data = trained_model()
    a = robustness_sweep(m, data, rates=[0.05, 0.1], trials=4, seed=7)
    b = robustness_sweep(m, data, rates=[0.05, 0.1], trials=4, seed=7)
    assert np.array_equal(a.mean_acc, b.mean_acc)
    assert np.array_equal(a.sd_acc, b.sd_acc)


def test_sweep_default_rates_match_protocol():
    assert TABLE4_RATES == (0.01, 0.02, 0.04, 0.06, 0.10, 0.12)


def test_sweep_report_rows_shape():
    m, data = trained_model(dim=512)
    rep = robustness_sweep(m, data, rates=[0.0, 0.1], trials=2, seed=1)
    rows = rep.rows()
    assert len(rows) == 2
    rate, mean_acc, sd, loss = rows[1]
    assert rate == 0.1
    assert loss == pytest.approx(rep.acc_clean - mean_acc)
