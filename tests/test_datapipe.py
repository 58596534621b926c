"""CSV loading, filtering, window features and labels, and splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwear import reference as ref
from hdwear.datapipe import (
    CsvSchema,
    Recording,
    WindowedDataset,
    build_dataset,
    fit_stats,
    load_csv,
    moving_average,
    split,
    split_leave_one_subject_out,
    split_random,
    split_subject_half,
    window_features,
    window_labels,
)
from hdwear.encoding import EncoderConfig
from hdwear.errors import (
    CsvParseError,
    EmptyInputError,
    InvalidArgumentError,
    SchemaError,
    UnknownSubjectError,
)
from hdwear.learning import Model, model_from_bytes, model_to_bytes


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


SCHEMA = CsvSchema(channels=["ax", "ay"], label="act", subject="subj")


# ------------------------------------------------------------------ load_csv


def test_load_two_rows_one_channel(tmp_path):
    p = write(tmp_path, "v\n1.0\n2.5\n")
    recs = load_csv(p, CsvSchema(channels=["v"]))
    assert len(recs) == 1
    assert recs[0].n_samples == 2
    assert np.allclose(recs[0].channels["v"], [1.0, 2.5])


def test_load_collects_label_classes(tmp_path):
    p = write(tmp_path, "v,act\n1,walk\n2,run\n3,walk\n")
    recs = load_csv(p, CsvSchema(channels=["v"], label="act"))
    assert sorted(set(recs[0].labels)) == ["run", "walk"]


def test_load_groups_by_subject(tmp_path):
    p = write(tmp_path, "v,act,subj\n1,a,s1\n2,a,s2\n3,b,s1\n")
    recs = load_csv(p, CsvSchema(channels=["v"], label="act", subject="subj"))
    assert [r.subject_id for r in recs] == ["s1", "s2"]
    assert recs[0].n_samples == 2


def test_load_rejects_nan_with_row_number(tmp_path):
    p = write(tmp_path, "v\n1.0\nNaN\n")
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv(p, CsvSchema(channels=["v"]))


def test_load_rejects_garbage_with_location(tmp_path):
    p = write(tmp_path, "v,w\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvParseError, match="row 2.*'w'"):
        load_csv(p, CsvSchema(channels=["v", "w"]))


def test_load_missing_column(tmp_path):
    p = write(tmp_path, "v\n1.0\n")
    with pytest.raises(SchemaError, match="missing"):
        load_csv(p, CsvSchema(channels=["v", "missing_ch"]))


def test_load_empty_file(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(EmptyInputError):
        load_csv(p, CsvSchema(channels=["v"]))


def test_load_header_only(tmp_path):
    p = write(tmp_path, "v\n")
    with pytest.raises(EmptyInputError):
        load_csv(p, CsvSchema(channels=["v"]))


def test_load_rejects_short_row_with_row_number(tmp_path):
    p = write(tmp_path, "v,act,subj\n1.0,walk,s1\n2.0\n")
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv(p, CsvSchema(channels=["v"], label="act", subject="subj"))


def test_load_custom_delimiter(tmp_path):
    p = write(tmp_path, "v;w\n1;2\n")
    recs = load_csv(p, CsvSchema(channels=["v", "w"], delimiter=";"))
    assert recs[0].channels["w"][0] == 2.0


@pytest.mark.parametrize("delimiter", [";;", "", None, 44])
def test_schema_rejects_delimiter_not_one_character(delimiter):
    with pytest.raises(SchemaError, match="delimiter"):
        CsvSchema(channels=["v"], delimiter=delimiter)


# ------------------------------------------------------------ moving_average


def test_moving_average_identity():
    x = [3.0, 1.0, 4.0]
    assert np.array_equal(moving_average(x, 1), x)


def test_moving_average_constant():
    assert np.allclose(moving_average([2.0] * 7, 3), 2.0)


def test_moving_average_truncated_edges():
    assert np.allclose(moving_average([0.0, 3.0, 0.0], 3), [1.5, 1.0, 1.5])


def test_moving_average_zero_window():
    with pytest.raises(InvalidArgumentError):
        moving_average([1.0], 0)


def test_moving_average_preserves_length():
    for n in (1, 2, 5, 10):
        for w in (1, 2, 3, 4, 9):
            assert len(moving_average(np.arange(n, dtype=float), w)) == n


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_moving_average_matches_naive(xs, w):
    got = moving_average(xs, w)
    left, right = (w - 1) // 2, w // 2
    for i in range(len(xs)):
        lo, hi = max(0, i - left), min(len(xs), i + right + 1)
        assert got[i] == pytest.approx(np.mean(xs[lo:hi]), rel=1e-9, abs=1e-9)




# ---------------------------------------------------------------- windowing


def rec(labels=None, n=10):
    return Recording(
        subject_id="s1",
        channels={"a": np.arange(n, dtype=float), "b": np.ones(n)},
        labels=None if labels is None else np.array(labels),
    )


@pytest.mark.parametrize(
    "channels, labels",
    [
        ({"a": np.arange(10.0)}, ["x"] * 6),
        ({"a": np.arange(10.0)}, ["x"] * 11),
        ({"a": np.arange(10.0), "b": np.arange(7.0)}, None),
        ({}, None),
    ],
    ids=["labels-short", "labels-long", "ragged-channels", "no-channels"],
)
def test_recording_rejects_mismatched_lengths(channels, labels):
    # a mismatch would pair a window's features with another window's label
    with pytest.raises(SchemaError):
        Recording(subject_id="s", channels=channels, labels=labels)


def windows_of(seq, window, stride):
    return [seq[i : i + window] for i in range(0, len(seq) - window + 1, stride)]


def test_segment_count():
    assert len(build_dataset([rec(n=10)], ["a", "b"], window_samples=5, stride=5)) == 2


def test_segment_uniform_labels():
    assert window_labels(["x"] * 10, 4, 2).tolist() == ["x"] * 4


def test_segment_majority_policy():
    assert window_labels(["A", "A", "B"], 3, 1).tolist() == ["A"]


def test_segment_majority_tie_lowest():
    assert window_labels(["B", "A"], 2, 1).tolist() == ["A"]
    assert ref.window_majority(["B", "A"]) == "A"


def test_segment_window_longer_than_recording():
    assert window_features(np.arange(3.0), 5, 1).shape == (0, 7)
    assert window_labels(["x"] * 3, 5, 1).shape == (0,)
    assert len(build_dataset([rec(n=3)], ["a"], 5, 1)) == 0


@given(st.integers(1, 40), st.integers(1, 10), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_segment_count_closed_form(n, window, stride):
    expected = 0 if n < window else (n - window) // stride + 1
    assert window_features(np.arange(n, dtype=float), window, stride).shape == (expected, 7)
    assert window_labels(["x"] * n, window, stride).shape == (expected,)
    assert len(build_dataset([rec(labels=["x"] * n, n=n)], ["a", "b"], window, stride)) == expected


@pytest.mark.parametrize("window, stride", [(0, 1), (1, 0), (-1, 1)])
def test_window_geometry_rejected(window, stride):
    with pytest.raises(InvalidArgumentError):
        window_features(np.arange(5.0), window, stride)
    with pytest.raises(InvalidArgumentError):
        window_labels(["x"] * 5, window, stride)


@given(
    st.lists(st.sampled_from(["A", "B", "C", "idle", "walk"]), min_size=1, max_size=60),
    st.integers(1, 12),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_window_labels_match_reference(labels, window, stride):
    got = window_labels(labels, window, stride).tolist()
    assert got == [ref.window_majority(w) for w in windows_of(labels, window, stride)]


# ------------------------------------------------------------------ features


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_features(x, window, stride):
    rows = [ref.channel_features(w) for w in windows_of(x, window, stride)]
    return np.array(rows).reshape(-1, 7)


def test_features_constant_window():
    c = 3.5
    got = window_features([c] * 8, 8, 1)
    assert np.allclose(got, [[c, 0.0, c, c, abs(c), 0.0, 0.0]])


def test_features_alternating_window():
    got = window_features([1.0, -1.0, 1.0, -1.0], 4, 1)[0]
    assert got[0] == 0.0  # mean
    assert got[6] == 3.0  # zero crossings of the mean-removed window


def test_features_arity():
    r = Recording(subject_id="s", channels={"a": np.arange(5.0), "b": np.ones(5), "c": np.zeros(5)})
    assert build_dataset([r], ["a", "b", "c"], 5, 5).X.shape == (1, 21)


def test_features_empty_window():
    assert window_features([], 1, 1).shape == (0, 7)
    with pytest.raises(InvalidArgumentError):
        window_features([1.0, 2.0], 0, 1)
    with pytest.raises(InvalidArgumentError):
        ref.channel_features([])


@given(
    st.sampled_from([1, 2, 8, 9, 128, 129]),
    st.sampled_from(["1", "3", "w"]),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.integers(-3, 6),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_window_features_match_reference(window, stride, extra, seed, scale, constant):
    stride = window if stride == "w" else int(stride)
    g = np.random.default_rng(seed)
    n = window + extra
    x = np.full(n, g.normal() * 10.0**scale) if constant else g.normal(size=n) * 10.0**scale
    assert_bits_equal(window_features(x, window, stride), reference_features(x, window, stride))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.integers(1, 9), st.integers(1, 4)
)
@settings(max_examples=150, deadline=None)
def test_window_features_match_reference_on_any_floats(xs, window, stride):
    x = np.array(xs)
    assert_bits_equal(window_features(x, window, stride), reference_features(x, window, stride))


# ----------------------------------------------------------------- fit_stats


def make_ds(vectors, subjects=None, labels=None):
    n = len(vectors)
    return WindowedDataset(
        X=np.array(vectors, dtype=float),
        y=np.array(labels or ["x"] * n),
        subjects=np.array(subjects or ["s1"] * n),
        feature_names=[f"f{i}" for i in range(len(vectors[0]))],
    )


def test_fit_stats_single_window_degenerate():
    ds = make_ds([[1.0, 2.0]])
    stats = fit_stats(ds)
    assert np.array_equal(stats.mins, stats.maxs)


def test_fit_stats_elementwise_extremes():
    ds = make_ds([[1.0, 5.0], [3.0, 2.0]])
    stats = fit_stats(ds)
    assert np.array_equal(stats.mins, [1.0, 2.0])
    assert np.array_equal(stats.maxs, [3.0, 5.0])


def test_fit_stats_empty():
    with pytest.raises(EmptyInputError):
        fit_stats(make_ds([[1.0, 2.0]]).select([]))


def test_fit_stats_ignores_test_split():
    ds = make_ds([[float(i)] for i in range(10)])
    train, test = split_random(ds, seed=5, fraction=0.5)
    stats1 = fit_stats(train)
    # each split owns a copy: mutating the test split in place cannot
    # affect training statistics or the dataset it came from
    test.X *= 1e9
    stats2 = fit_stats(train)
    assert np.array_equal(stats1.mins, stats2.mins)
    assert np.array_equal(stats1.maxs, stats2.maxs)
    assert ds.X.max() == 9.0


# -------------------------------------------------------------------- splits


def subject_ds():
    vectors, subjects = [], []
    for s, count in (("s1", 10), ("s2", 6)):
        for i in range(count):
            vectors.append([float(i)])
            subjects.append(s)
    return make_ds(vectors, subjects=subjects)


def test_subject_half_split():
    train, test = split_subject_half(subject_ds())
    assert len(train) == 8 and len(test) == 8
    s1_train = train.X[train.subjects == "s1", 0]
    s1_test = test.X[test.subjects == "s1", 0]
    assert len(s1_train) == 5
    assert max(s1_train) < min(s1_test)  # train strictly precedes test


def test_subject_half_split_keeps_row_order():
    # interleaved subjects: each split keeps the dataset's row order
    subjects = ["s2", "s1", "s1", "s2", "s3", "s1", "s2", "s2", "s1"]
    ds = make_ds([[float(i)] for i in range(len(subjects))], subjects=subjects)
    train, test = split_subject_half(ds)
    assert train.X[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert test.X[:, 0].tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    assert ds.subject_ids() == ["s2", "s1", "s3"]


def test_loso_excludes_subject():
    train, test = split_leave_one_subject_out(subject_ds(), "s1", seed=3)
    assert (train.subjects != "s1").all()
    assert (test.subjects == "s1").all()
    assert len(test) == 5  # half of the held-out subject's 10 windows
    assert np.all(np.diff(test.X[:, 0]) > 0)  # picked rows keep their order


def test_loso_unknown_subject():
    with pytest.raises(UnknownSubjectError):
        split_leave_one_subject_out(subject_ds(), "nobody", seed=0)


def test_loso_single_subject():
    ds = make_ds([[1.0], [2.0]], subjects=["s1", "s1"])
    with pytest.raises(InvalidArgumentError):
        split_leave_one_subject_out(ds, "s1", seed=0)


def test_random_split_reproducible():
    ds = make_ds([[float(i)] for i in range(20)])
    a_train, a_test = split_random(ds, seed=9, fraction=0.7)
    b_train, b_test = split_random(ds, seed=9, fraction=0.7)
    assert a_train.X.tolist() == b_train.X.tolist()
    assert len(a_train) == 14
    got = sorted(a_train.X[:, 0].tolist() + a_test.X[:, 0].tolist())
    assert got == [float(i) for i in range(20)]  # disjoint and complete


def test_split_negative_seed_rejected():
    with pytest.raises(InvalidArgumentError):
        split_random(make_ds([[0.0], [1.0]]), -1)
    with pytest.raises(InvalidArgumentError):
        split_leave_one_subject_out(subject_ds(), "s1", seed=-1)


def test_split_dispatcher():
    ds = subject_ds()
    assert len(split(ds, "subject-half")[0]) == 8
    with pytest.raises(InvalidArgumentError):
        split(ds, "bogus")
    with pytest.raises(InvalidArgumentError):
        split(ds, "loso")  # subject required


# ------------------------------------------------------------- build_dataset


def test_build_dataset_end_to_end(tmp_path):
    rows = ["ax,ay,act,subj"]
    for i in range(12):
        rows.append(f"{i / 10},{1 - i / 10},walk,s1")
    p = tmp_path / "d.csv"
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    recs = load_csv(p, SCHEMA)
    ds = build_dataset(recs, SCHEMA.channels, window_samples=4, stride=2)
    assert len(ds) == 5  # (12 - 4) // 2 + 1
    assert ds.feature_names[0] == "ax_mean"
    assert len(ds.feature_names) == 14
    assert ds.X.shape == (5, 14) and ds.X.dtype == np.float64
    assert ds.y.tolist() == ["walk"] * 5
    assert ds.subjects.tolist() == ["s1"] * 5


def test_build_dataset_flags_short_recordings():
    short = Recording(subject_id="s", channels={"a": np.arange(3.0)}, labels=np.array(["x"] * 3))
    ds = build_dataset([short], ["a"], window_samples=5, stride=1)
    assert len(ds) == 0
    assert ds.X.shape == (0, 7)
    assert ds.skipped_recordings == 1


def test_build_dataset_smoothing_changes_features():
    r = rec(labels=["x"] * 10)
    raw = build_dataset([r], ["a", "b"], 5, 5)
    smooth = build_dataset([r], ["a", "b"], 5, 5, smooth=3)
    assert not np.allclose(raw.X, smooth.X)


@pytest.mark.parametrize("smooth", [1, 4])
def test_build_dataset_matches_reference(smooth):
    g = np.random.default_rng(7)
    recs = [
        Recording(
            subject_id=s,
            channels={"a": g.normal(size=n), "b": g.normal(size=n) * 100, "unused": np.zeros(n)},
            labels=g.choice(["run", "idle", "walk"], size=n),
        )
        for s, n in (("s1", 50), ("s2", 7), ("s3", 33))
    ]
    ds = build_dataset(recs, ["b", "a"], 9, 4, smooth=smooth)
    rows, labels, subjects = [], [], []
    for r in recs:
        b, a = (moving_average(r.channels[ch], smooth) for ch in ("b", "a"))
        for start in range(0, len(a) - 9 + 1, 4):
            stop = start + 9
            rows.append(np.concatenate([ref.channel_features(x[start:stop]) for x in (b, a)]))
            labels.append(ref.window_majority(r.labels[start:stop].tolist()))
            subjects.append(r.subject_id)
    assert_bits_equal(ds.X, np.array(rows))
    assert ds.y.tolist() == labels
    assert ds.subjects.tolist() == subjects
    assert ds.skipped_recordings == 1


def test_build_dataset_without_labels():
    ds = build_dataset([rec(n=10)], ["a"], 5, 5)
    assert ds.y.tolist() == [None, None]


def test_build_dataset_missing_channel():
    with pytest.raises(SchemaError, match="nope"):
        build_dataset([rec(n=10)], ["a", "nope"], 5, 5)


def test_build_dataset_rejects_empty_channel_order():
    with pytest.raises(SchemaError):
        build_dataset([Recording("s", {"a": np.arange(10.0)})], [], 4, 2)
    with pytest.raises(SchemaError):
        build_dataset([], [], 4, 2)


@pytest.mark.parametrize("window, stride", [(0, 1), (1, 0)])
def test_build_dataset_bad_geometry(window, stride):
    with pytest.raises(InvalidArgumentError):
        build_dataset([], ["a"], window, stride)
    with pytest.raises(InvalidArgumentError):
        build_dataset([rec(n=10)], ["a"], window, stride)


def test_build_dataset_labels_feed_model_round_trip():
    ds = build_dataset([rec(labels=["walk"] * 5 + ["run"] * 5)], ["a", "b"], 4, 2)
    model = Model(classes=sorted(set(ds.y)), encoder=EncoderConfig(dim=64))
    assert model.classes == ["run", "walk"]
    assert model_from_bytes(model_to_bytes(model)) == model


def test_build_dataset_rejects_bad_smooth():
    with pytest.raises(InvalidArgumentError):
        build_dataset([rec(n=10)], ["a"], 5, 5, smooth=0)
