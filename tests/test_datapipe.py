"""CSV loading, filtering, segmentation, features, and splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwear.datapipe import (
    CsvSchema,
    Recording,
    WindowedDataset,
    Window,
    build_dataset,
    channel_features,
    extract_features,
    fit_stats,
    load_csv,
    moving_average,
    segment,
    split,
    split_leave_one_subject_out,
    split_random,
    split_subject_half,
)
from hdwear.errors import (
    CsvParseError,
    EmptyInputError,
    InvalidArgumentError,
    SchemaError,
    UnknownSubjectError,
)


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


def test_load_custom_delimiter(tmp_path):
    p = write(tmp_path, "v;w\n1;2\n")
    recs = load_csv(p, CsvSchema(channels=["v", "w"], delimiter=";"))
    assert recs[0].channels["w"][0] == 2.0


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


# ------------------------------------------------------------------- segment


def rec(labels=None, n=10):
    return Recording(
        subject_id="s1",
        channels={"a": np.arange(n, dtype=float), "b": np.ones(n)},
        labels=None if labels is None else np.array(labels),
    )


def test_segment_count():
    out = segment(rec(n=10), window_samples=5, stride=5)
    assert len(out) == 2


def test_segment_uniform_labels():
    out = segment(rec(labels=["x"] * 10), 4, 2)
    assert all(w.label == "x" for w in out)


def test_segment_majority_policy():
    out = segment(rec(labels=["A", "A", "B"], n=3), 3, 1)
    assert out[0].label == "A"


def test_segment_majority_tie_lowest():
    out = segment(rec(labels=["B", "A"], n=2), 2, 1)
    assert out[0].label == "A"


def test_segment_last_policy():
    out = segment(rec(labels=["A", "A", "B"], n=3), 3, 1, label_policy="last")
    assert out[0].label == "B"


def test_segment_window_longer_than_recording():
    assert segment(rec(n=3), 5, 1) == []


@given(st.integers(1, 40), st.integers(1, 10), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_segment_count_closed_form(n, window, stride):
    out = segment(rec(labels=["x"] * n, n=n), window, stride)
    expected = 0 if n < window else (n - window) // stride + 1
    assert len(out) == expected


# ------------------------------------------------------------------ features


def test_features_constant_window():
    c = 3.5
    got = channel_features([c] * 8)
    assert np.allclose(got, [c, 0.0, c, c, abs(c), 0.0, 0.0])


def test_features_alternating_window():
    got = channel_features([1.0, -1.0, 1.0, -1.0])
    assert got[0] == 0.0  # mean
    assert got[6] == 3.0  # zero crossings of the mean-removed window


def test_features_arity():
    w = {"a": np.arange(5.0), "b": np.ones(5), "c": np.zeros(5)}
    assert extract_features(w, ["a", "b", "c"]).shape == (21,)


def test_features_empty_window():
    with pytest.raises(InvalidArgumentError):
        channel_features([])


# ----------------------------------------------------------------- fit_stats


def make_ds(vectors, subjects=None, labels=None):
    n = len(vectors)
    subjects = subjects or ["s1"] * n
    labels = labels or ["x"] * n
    return WindowedDataset(
        windows=[
            Window(data=np.asarray(v, dtype=float), label=l, subject_id=s)
            for v, l, s in zip(vectors, labels, subjects)
        ],
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
        fit_stats(make_ds([])) if False else fit_stats(WindowedDataset(windows=[]))


def test_fit_stats_ignores_test_split():
    ds = make_ds([[float(i)] for i in range(10)])
    train, test = split_random(ds, seed=5, fraction=0.5)
    stats1 = fit_stats(train)
    # mutating the test split cannot affect training statistics
    for w in test.windows:
        w.data = w.data * 1e9
    stats2 = fit_stats(train)
    assert np.array_equal(stats1.mins, stats2.mins)
    assert np.array_equal(stats1.maxs, stats2.maxs)


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
    s1_train = [w.data[0] for w in train.windows if w.subject_id == "s1"]
    s1_test = [w.data[0] for w in test.windows if w.subject_id == "s1"]
    assert len(s1_train) == 5
    assert max(s1_train) < min(s1_test)  # train strictly precedes test


def test_loso_excludes_subject():
    train, test = split_leave_one_subject_out(subject_ds(), "s1", seed=3)
    assert all(w.subject_id != "s1" for w in train.windows)
    assert all(w.subject_id == "s1" for w in test.windows)
    assert len(test) == 5  # half of the held-out subject's 10 windows


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
    assert [w.data[0] for w in a_train.windows] == [w.data[0] for w in b_train.windows]
    assert len(a_train) == 14
    got = sorted([w.data[0] for w in a_train.windows] + [w.data[0] for w in a_test.windows])
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
    assert ds.windows[0].data.shape == (14,)


def test_build_dataset_flags_short_recordings():
    short = Recording(subject_id="s", channels={"a": np.arange(3.0)}, labels=np.array(["x"] * 3))
    ds = build_dataset([short], ["a"], window_samples=5, stride=1)
    assert len(ds) == 0
    assert ds.skipped_recordings == 1


def test_build_dataset_smoothing_changes_features():
    r = rec(labels=["x"] * 10)
    raw = build_dataset([r], ["a", "b"], 5, 5)
    smooth = build_dataset([r], ["a", "b"], 5, 5, smooth=3)
    assert not np.allclose(raw.X, smooth.X)
