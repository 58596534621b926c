"""Model quantization and bit-flip injection."""

import numpy as np
import pytest

from hdwear import reference as ref
from hdwear.encoding import EncoderConfig
from hdwear.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidArgumentError,
    InvalidSampleError,
    ModelNotTrainedError,
    UnknownClassError,
)
from hdwear import hv, learning, robustness
from hdwear.hv import pack, random_hv, rng
from hdwear.learning import Model, evaluate, predict, train_iterative, train_online
from hdwear.robustness import TABLE4_RATES, RobustnessReport, quantize_model, robustness_sweep
from oracles import inject_bitflips, sign_quantize

D = 4096


def differing_bits(a, b) -> int:
    """Stored bits that differ between two binary models."""
    return int(np.bitwise_count(a.class_words ^ b.class_words).sum())


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
    m.class_matrix[:] = np.sign(m.class_matrix) + (m.class_matrix == 0)
    bm = quantize_model(m)
    assert np.array_equal(bm.class_words, pack(m.class_matrix))


def test_quantize_idempotent():
    m, _ = trained_model(dim=256)
    a = quantize_model(m)
    b = quantize_model(m)
    assert np.array_equal(a.class_words, b.class_words)


def test_quantize_untrained_rejected():
    enc = EncoderConfig(dim=64, feature_bounds=[(0, 1)])
    with pytest.raises(ModelNotTrainedError):
        quantize_model(Model(classes=["a"], encoder=enc))


def test_binary_predict_matches_prototypes():
    m, data = trained_model()
    assert robustness_sweep(m, data, rates=[0.0], trials=1).acc_clean == 1.0


# ------------------------------------------------- packed words at odd D


def reference_nearest(m, queries):
    """Label of the nearest class of the 1-bit model of m for each query,
    from per-component sign quantization and Hamming distance; ties go to
    the lowest class index."""
    coin = random_hv(m.encoder.tie_seed, 0, m.dim).tolist()
    classes = [ref.sign_quantize(row.tolist(), coin) for row in m.class_matrix]
    out = []
    for H in queries:
        q = ref.sign_quantize(H.tolist(), coin)
        dists = [ref.hamming(q, c) for c in classes]
        out.append(m.classes[dists.index(min(dists))])
    return out


def check_clean_accuracy_against_reference(m, n):
    """n queries with exact-zero components (ties for the coin): labelled
    with the reference's nearest class every query is a hit; labelled
    cyclically, acc_clean is the reference's hit fraction."""
    queries = [random_hv(61, i, m.dim) + random_hv(62, i, m.dim) for i in range(n)]
    nearest = reference_nearest(m, queries)

    def acc_clean(labels):
        return robustness_sweep(m, list(zip(queries, labels)), rates=[0.0], trials=1).acc_clean

    assert acc_clean(nearest) == 1.0
    cyclic = [m.classes[i % len(m.classes)] for i in range(n)]
    assert acc_clean(cyclic) == sum(a == b for a, b in zip(nearest, cyclic)) / n


@pytest.mark.parametrize("dim", [77, 130])
def test_similarities_match_reference_hamming_at_odd_dim(dim):
    m, _ = trained_model(n_classes=3, dim=dim)
    assert quantize_model(m).class_words.shape == (3, (dim + 63) // 64)
    check_clean_accuracy_against_reference(m, 17)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_sweep_acc_clean_matches_reference_at_block_edges(n, monkeypatch):
    monkeypatch.setattr(learning, "_BLOCK_BYTES", 16 * 8 * 77)  # 16-row blocks
    check_clean_accuracy_against_reference(trained_model(n_classes=3, dim=77)[0], n)


@pytest.mark.parametrize("dim", [77, 130])
def test_inject_rate_one_flips_every_bit_and_no_padding_at_odd_dim(dim):
    m, _ = trained_model(n_classes=3, dim=dim)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 1.0, trial_seed=4)
    assert differing_bits(bm, corrupted) == 3 * dim
    assert np.array_equal(corrupted.class_words, pack(-sign_quantize(m.class_matrix, 777)))
    # each valid bit is set in exactly one of the two models, so any set
    # padding bit would push the total past K * D
    ones = np.bitwise_count(corrupted.class_words).sum() + np.bitwise_count(bm.class_words).sum()
    assert ones == 3 * dim


def test_query_dim_mismatch_rejected():
    m, data = trained_model(n_classes=2, dim=130)
    # 129 and 130 components pack to the same number of words
    short = random_hv(1, 0, 129)
    with pytest.raises(DimensionMismatchError):
        robustness_sweep(m, [(short, "c0")] * 3, rates=[0.1], trials=1)
    # a ragged list, with the odd query past the first block of rows
    ragged = data * 9 + [(random_hv(1, 0, 131), "c0")]
    with pytest.raises(DimensionMismatchError):
        robustness_sweep(m, ragged, rates=[0.1], trials=1)


@pytest.mark.parametrize(
    "score",
    [evaluate, lambda m, pairs: robustness_sweep(m, pairs, rates=[0.0], trials=1)],
    ids=["evaluate", "robustness_sweep"],
)
def test_unknown_label_and_empty_set_rejected_alike(score):
    m, data = trained_model(n_classes=2, dim=130)
    with pytest.raises(UnknownClassError):
        score(m, data + [(data[0][0], "zzz")])
    with pytest.raises(EmptyInputError):
        score(m, [])


@pytest.mark.parametrize(
    "score",
    [
        evaluate,
        lambda m, pairs: robustness_sweep(m, pairs, rates=[0.0], trials=1),
        lambda m, pairs: predict(m, np.array([h for h, _ in pairs])),
    ],
    ids=["evaluate", "robustness_sweep", "predict"],
)
def test_non_finite_or_non_real_query_rejected_alike(score):
    m, data = trained_model(n_classes=2, dim=130)
    for bad in (np.full(130, np.nan), np.r_[np.zeros(129), -np.inf], np.array([None] * 130)):
        with pytest.raises(InvalidSampleError):
            score(m, data * 9 + [(bad, "c0")])


@pytest.mark.parametrize(
    "call, value",
    [
        ("trials", 2.5), ("trials", 0), ("trials", None), ("trials", "2"), ("trials", True),
        ("trials", np.True_),
        ("max_epochs", -1), ("max_epochs", 2.5), ("max_epochs", None), ("max_epochs", True),
        ("patience", -1), ("patience", 1.0), ("patience", "3"), ("patience", False),
    ],
)
def test_count_arguments_rejected(call, value):
    m, data = trained_model(n_classes=2, dim=130)
    before = m.class_matrix.copy()
    with pytest.raises(InvalidArgumentError):
        if call == "trials":
            robustness_sweep(m, data, rates=[0.1], trials=value)
        else:
            train_iterative(m, data, **{call: value})
    assert np.array_equal(m.class_matrix, before)


# ------------------------------------------------------- the sweep's flips
# inject_bitflips (tests/oracles.py) XORs the flip words of one sweep trial,
# robustness._flips on the trial seed's stream, into a copy of the model.


def test_inject_rate_zero_identical():
    m, _ = trained_model(dim=256)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 0.0, trial_seed=1)
    assert differing_bits(bm, corrupted) == 0


def test_inject_rate_one_negates_everything():
    m, data = trained_model()
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 1.0, trial_seed=1)
    assert differing_bits(bm, corrupted) == len(bm.class_words) * D
    # fully negated model ranks classes in reverse: each prototype's own
    # class becomes its farthest, so none is recognised
    assert robustness_sweep(m, data, rates=[1.0], trials=1).mean_acc[0] == 0.0


def test_inject_exact_flip_count():
    m, _ = trained_model(n_classes=4)
    bm = quantize_model(m)
    corrupted = inject_bitflips(bm, 0.1, trial_seed=5)
    assert differing_bits(bm, corrupted) == 1638  # round(0.1 * 4 * 4096)


def test_inject_exact_count_across_rates():
    m, _ = trained_model(n_classes=3, dim=512)
    bm = quantize_model(m)
    total = 3 * 512
    for rate in (0.01, 0.07, 0.33, 0.5, 0.999):
        corrupted = inject_bitflips(bm, rate, trial_seed=9)
        assert differing_bits(bm, corrupted) == round(rate * total)


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


def test_sweep_rate_out_of_range():
    m, data = trained_model(dim=256)
    before = m.class_matrix.copy()
    for bad in (-0.1, 1.1, float("nan"), "0.1", None, True):
        with pytest.raises(InvalidArgumentError):
            robustness_sweep(m, data, rates=[bad], trials=1)
    assert np.array_equal(m.class_matrix, before)
    # a real, None, a 0-d array (Iterable by type only), or a str or bytes
    # (a sequence, but not of rates)
    for rates in ([0.1, "x"], [True], 0.1, None, np.array(0.1), "0.1", b"\x00"):
        with pytest.raises(InvalidArgumentError):
            robustness_sweep(m, data, rates=rates, trials=1)
        # checked before any work: an empty test set is never looked at
        with pytest.raises(InvalidArgumentError):
            robustness_sweep(m, [], rates=rates, trials=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", None, True, False])
def test_sweep_seed_rejected(seed):
    m, data = trained_model(n_classes=2, dim=130)
    # rate 0.0 flips nothing but checks the seed all the same
    for rates in ([0.1], [0.0]):
        with pytest.raises(InvalidArgumentError):
            robustness_sweep(m, data, rates=rates, trials=1, seed=seed)
    # the largest Philox key word is a seed like any other
    robustness_sweep(m, data, rates=[0.1], trials=1, seed=2**64 - 1)


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


# ------------------------------------------------------- the sweep's oracle
# The plain path the sweep replaced, kept as its reference: one bool flip
# mask per trial, packed and XORed into the class words, then one int64
# popcount sum per class and the lowest-index argmin.


def oracle_trial_seed(seed, rate_idx, trial):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rate_idx, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def oracle_flip_mask(k, dim, rate, trial_seed):
    """(K, D) bool mask of round(rate * K * D) distinct positions drawn from
    the trial seed's flip stream."""
    total = k * dim
    positions = rng(trial_seed, 2**33).choice(total, size=round(rate * total), replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[positions] = True
    return mask.reshape(k, dim)


def oracle_accuracy(class_words, queries, truth):
    dist = np.empty((len(queries), len(class_words)), dtype=np.int64)
    for ci, words in enumerate(class_words):
        dist[:, ci] = np.bitwise_count(queries ^ words).sum(axis=1, dtype=np.int64)
    return int(np.count_nonzero(dist.argmin(axis=1) == truth)) / len(truth)


def oracle_sweep(m, pairs, rates, trials, seed):
    tie = m.encoder.tie_seed
    class_words = pack(sign_quantize(m.class_matrix, tie))
    queries = pack(sign_quantize(np.array([h for h, _ in pairs]), tie))
    truth = np.array([m.classes.index(label) for _, label in pairs])
    k = len(m.classes)
    mean_acc, sd_acc = np.zeros(len(rates)), np.zeros(len(rates))
    for ri, rate in enumerate(rates):
        accs = [
            oracle_accuracy(
                class_words ^ pack(oracle_flip_mask(k, m.dim, rate, oracle_trial_seed(seed, ri, t))),
                queries,
                truth,
            )
            for t in range(trials)
        ]
        mean_acc[ri], sd_acc[ri] = np.mean(accs), np.std(accs)
    acc_clean = oracle_accuracy(class_words, queries, truth)
    return RobustnessReport(list(rates), acc_clean, mean_acc, sd_acc, trials, seed)


def sweep_pairs(m, n, dtype):
    """Each class's prototype (at rate 1 its own class is at distance D),
    then n queries that are a prototype plus three +-1 vectors: exact
    zeros, ties for the coin, in about 3/8 of the components."""
    k = len(m.classes)
    protos = [random_hv(60, i, m.dim) for i in range(k)]  # trained_model's data
    noisy = [
        protos[i % k] + random_hv(63, i, m.dim) + random_hv(64, i, m.dim) + random_hv(65, i, m.dim)
        for i in range(n)
    ]
    labels = list(m.classes) + [m.classes[i % k] for i in range(n)]
    return [(h.astype(dtype), label) for h, label in zip(protos + noisy, labels)]


def check_sweep_against_oracle(m, pairs, rates, trials, seed=5):
    got = robustness_sweep(m, pairs, rates=rates, trials=trials, seed=seed)
    want = oracle_sweep(m, pairs, rates, trials, seed)
    assert repr(got.rows()) == repr(want.rows())
    assert got.acc_clean == want.acc_clean


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.float64])
@pytest.mark.parametrize("dim", [65, 130, 255, 256, 1000, 4096])
def test_sweep_rows_equal_oracle(dim, dtype):
    m, _ = trained_model(n_classes=3, dim=dim)
    check_sweep_against_oracle(m, sweep_pairs(m, 37, dtype), [0.0, 0.05, 0.3, 0.45, 1.0], trials=3)


def test_sweep_rows_equal_oracle_past_uint16_distances():
    # D > 2**16 - 1: at rate 1 each prototype is D bits from its own class
    m, _ = trained_model(n_classes=2, dim=2**16 + 1)
    check_sweep_against_oracle(m, sweep_pairs(m, 2, np.int8), [0.0, 0.5, 1.0], trials=2)


def test_sweep_identical_class_rows_go_to_lowest_index():
    m, data = trained_model(n_classes=3, dim=130)
    m.class_matrix[1] = m.class_matrix[0]
    # class 1's prototype is as near to class 0 as to its own class
    assert robustness_sweep(m, [(data[1][0], "c0")], rates=[0.0], trials=1).acc_clean == 1.0
    check_sweep_against_oracle(m, sweep_pairs(m, 20, np.int16), [0.0, 0.1, 1.0], trials=4)


@pytest.mark.parametrize("rate", [0.0, 0.12, 1.0])
def test_sweep_trials_draw_the_positions_of_fresh_generators(monkeypatch, rate):
    # the sweep re-keys one generator per trial; every trial must draw the
    # positions rng(trial_seed, flip stream) draws, in (rate, trial) order
    m, data = trained_model(n_classes=3, dim=130)
    keys, drawn = [], []

    class Recorder:
        def __init__(self, gen):
            self.gen = gen

        def choice(self, *args, **kwargs):
            drawn.append(self.gen.choice(*args, **kwargs))
            return drawn[-1]

    def recording_rngs(pairs):
        pairs = list(pairs)
        keys.extend(pairs)
        return (Recorder(gen) for gen in hv.rngs(pairs))

    monkeypatch.setattr(robustness, "rngs", recording_rngs)
    rates, trials, seed = [0.05, rate], 4, 9
    rep = robustness_sweep(m, data, rates=rates, trials=trials, seed=seed)
    want = [(oracle_trial_seed(seed, ri, t), 2**33) for ri in range(2) for t in range(trials)]
    assert keys == want
    total = 3 * 130
    for i, ((trial_seed, stream), got) in enumerate(zip(keys, drawn)):
        n = round(rates[i // trials] * total)
        assert got.tolist() == rng(trial_seed, stream).choice(total, n, replace=False).tolist()
    assert len(drawn) == len(keys)
    assert repr(rep.rows()) == repr(oracle_sweep(m, data, rates, trials, seed).rows())


@pytest.mark.parametrize("dim", [77, 130])
@pytest.mark.parametrize("rate", [0.0, 0.01, 0.33, 1.0])
def test_inject_flips_the_oracle_mask_and_no_padding(dim, rate):
    bm = quantize_model(trained_model(n_classes=3, dim=dim)[0])
    corrupted = inject_bitflips(bm, rate, trial_seed=12)
    flipped = np.unpackbits(
        (corrupted.class_words ^ bm.class_words).view(np.uint8), axis=1, bitorder="little"
    ).astype(bool)
    mask = oracle_flip_mask(3, dim, rate, 12)
    assert np.array_equal(flipped[:, :dim], mask)
    assert not flipped[:, dim:].any()
    assert np.count_nonzero(mask) == round(rate * 3 * dim)
