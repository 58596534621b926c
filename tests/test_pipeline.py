"""The whole pipeline on one tiny CSV, stage by stage against the oracles:

    CSV -> features -> split -> bounds -> encode -> online -> retrain
        -> save/load -> evaluate -> sweep

The package runs every stage once (the ``pipeline`` fixture); each test
then feeds one stage's package input to its oracle and asserts equal bytes.
Features and encodings involve no BLAS, so X and H are also pinned by
sha256; the learning stages are compared with their oracles on the same
machine only, since their bits follow the BLAS kernel's summation order.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
from hdwear import (
    CsvSchema,
    EncoderConfig,
    FeatureEncoder,
    Model,
    build_dataset,
    evaluate,
    fit_stats,
    load_csv,
    load_model,
    robustness_sweep,
    save_model,
    split,
    train_iterative,
    train_online,
)
from oracles import (
    gather_encode,
    make_level_memory,
    naive_training,
    oracle_cosines,
    oracle_sweep,
    per_cell_loop,
)
from test_datapipe import assert_same_recordings

# 14 features: an even count, so that H has exact zeros and the sweep draws tie coins
CHANNELS = ["ax", "ay"]
SCHEMA = CsvSchema(channels=CHANNELS, label="act", subject="subj")
ACTIVITIES = ("sit", "walk", "run")
WINDOW, STRIDE, DIM, Q = 32, 8, 512, 8
SEED, EPOCHS, RATES, TRIALS = 3, 4, (0.0, 0.05, 0.2), 2
# sha256 of the features' float64 bytes and of the train and test
# encodings as little-endian int64
X_SHA256 = "93b81e9523c8e475e7c7f9f56add5d74413ecb1805ec17e44294c3676bbf3e14"
H_SHA256 = "55bb4f5287275c7744e4b4f7e0b2e36ac0e7145c7d70ff0302fe793787e2059a"


def tiny_csv() -> bytes:
    """Two subjects of 480 samples, three classes in segments of 80 samples,
    each class a noisy sine with its own mean, amplitude and frequency per
    channel, so that the online pass leaves training misses to retrain."""
    rng = np.random.default_rng(2026)
    shape = (len(ACTIVITIES), len(CHANNELS))
    mean, amp = rng.uniform(-1, 1, shape), rng.uniform(0.2, 1, shape)
    freq = rng.uniform(0.02, 0.1, shape)
    lines = ["subj,act," + ",".join(CHANNELS)]
    for s in range(2):
        labels = np.repeat(rng.permutation(6) % 3, 80)
        t = np.arange(len(labels))[:, None]
        x = mean[labels] + amp[labels] * np.sin(2 * np.pi * freq[labels] * t)
        x += rng.normal(0, 1.2, x.shape)
        for label, row in zip(labels.tolist(), x.tolist()):
            lines.append(f"s{s},{ACTIVITIES[label]}," + ",".join(f"{v:.5f}" for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def sha256(a: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Every stage through the package, as the benchmark runs them."""
    root = tmp_path_factory.mktemp("pipeline")
    csv = root / "tiny.csv"
    csv.write_bytes(tiny_csv())
    recs = load_csv(csv, SCHEMA)
    ds = build_dataset(recs, CHANNELS, WINDOW, STRIDE)
    train, test = split(ds, "random", seed=SEED, fraction=0.5)
    bounds = fit_stats(train).bounds()
    enc = FeatureEncoder(EncoderConfig(dim=DIM, q_levels=Q, feature_bounds=bounds))
    H, Ht = enc.encode_matrix(train.X), enc.encode_matrix(test.X)
    pairs = list(zip(H, train.y))
    fresh = Model(classes=sorted(set(ds.y)), encoder=enc.config)
    online = train_online(fresh.copy(), pairs)
    model = train_iterative(online.copy(), pairs, max_epochs=EPOCHS, patience=EPOCHS)
    save_model(model, root / "model.hdw")
    loaded = load_model(root / "model.hdw")
    queries = list(zip(Ht, test.y))
    return SimpleNamespace(
        csv=csv, recs=recs, ds=ds, train=train, test=test, bounds=bounds, enc=enc, H=H, Ht=Ht,
        pairs=pairs, fresh=fresh, online=online, model=model, loaded=loaded, queries=queries,
        report=evaluate(loaded, queries),
        sweep=robustness_sweep(loaded, queries, rates=RATES, trials=TRIALS, seed=SEED),
    )


def test_csv_equals_the_per_cell_loop(pipeline):
    assert_same_recordings(pipeline.recs, per_cell_loop(pipeline.csv, SCHEMA))


def test_features_equal_the_per_window_reference(pipeline):
    rows, labels, subjects = [], [], []
    for r in pipeline.recs:
        n = len(r.labels)
        for start in range(0, n - WINDOW + 1, STRIDE):
            window = slice(start, start + WINDOW)
            features = [ref.channel_features(r.channels[c][window]) for c in CHANNELS]
            rows.append(np.concatenate(features))
            labels.append(ref.window_majority(r.labels[window].tolist()))
            subjects.append(r.subject_id)
    ds = pipeline.ds
    assert len(ds) == 2 * ((480 - WINDOW) // STRIDE + 1)
    assert np.array_equal(ds.X.view(np.uint64), np.array(rows).view(np.uint64))
    assert ds.y.tolist() == labels and ds.subjects.tolist() == subjects
    assert sha256(ds.X, "<f8") == X_SHA256


def test_split_and_bounds_partition_the_windows(pipeline):
    ds, train, test = pipeline.ds, pipeline.train, pipeline.test
    assert len(train) == len(ds) // 2 and len(train) + len(test) == len(ds)
    rows = sorted(map(bytes, np.concatenate([train.X, test.X]).view(np.uint8).reshape(len(ds), -1)))
    assert rows == sorted(map(bytes, ds.X.view(np.uint8).reshape(len(ds), -1)))
    columns = train.X.T.tolist()
    assert pipeline.bounds == [(min(c), max(c)) for c in columns]


def test_encodings_equal_the_gather_loop(pipeline):
    enc = pipeline.enc
    levels = make_level_memory(enc.config.level_seed, DIM, Q)
    for X, H in ((pipeline.train.X, pipeline.H), (pipeline.test.X, pipeline.Ht)):
        want = gather_encode(X, pipeline.bounds, levels, enc.signatures)
        assert H.dtype == want.dtype and np.array_equal(H, want)
    assert sha256(np.concatenate([pipeline.H, pipeline.Ht]), "<i8") == H_SHA256


def test_online_pass_equals_the_per_block_oracle(pipeline):
    expect = pipeline.fresh.copy()
    naive_training(expect, pipeline.pairs, epochs=0)
    got = pipeline.online.class_matrix
    assert np.array_equal(got.view(np.uint32), expect.class_matrix.view(np.uint32))


def test_retraining_equals_the_per_block_oracle(pipeline):
    missed, snapshots = naive_training(pipeline.online.copy(), pipeline.pairs, EPOCHS, online=False)
    curve = [len(rows) for rows in missed]
    assert curve[0] > 0
    assert pipeline.model.retrain_curve == curve
    best = snapshots[curve.index(min(curve))]
    assert np.array_equal(pipeline.model.class_matrix.view(np.uint32), best.view(np.uint32))


def test_saved_model_loads_back_equal(pipeline):
    model, loaded = pipeline.model, pipeline.loaded
    assert loaded == model and loaded.classes == model.classes
    assert np.array_equal(loaded.class_matrix.view(np.uint32), model.class_matrix.view(np.uint32))


def test_evaluate_equals_the_float64_cosines(pipeline):
    loaded, k = pipeline.loaded, pipeline.loaded.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for h, label in pipeline.queries:
        predicted = int(np.argmax(oracle_cosines(loaded, h.astype(np.float64))))
        confusion[loaded.class_index(label), predicted] += 1
    assert np.array_equal(pipeline.report.confusion, confusion)


def test_sweep_equals_the_plain_sweep(pipeline):
    want = oracle_sweep(pipeline.loaded, pipeline.queries, RATES, TRIALS, SEED)
    assert repr(pipeline.sweep.rows()) == repr(want.rows())
