"""CSV loading, filtering, window features and labels, and splits."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwear import datapipe
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "v\n", "v", "v\r\n\r\n\n", "v\n,\n  \n"])
def test_load_without_data_rows_raises_no_warning(tmp_path, text):
    # numpy's "input contained no data" warning would fail the test as an error
    with pytest.raises(EmptyInputError):
        load_csv(write(tmp_path, text), CsvSchema(channels=["v"]))


def test_load_reads_clean_rows_without_the_cell_loop(tmp_path, monkeypatch):
    # quoted delimiters and line breaks, '#', padding and CRLF stay on numpy's reader
    def cell_loop(*args):
        raise AssertionError("the per-cell loop ran")

    monkeypatch.setattr(datapipe, "_read_cells", cell_loop)
    text = (
        'v,act,subj\r\n 1.5 ,"walk, fast",s2\r\n2, #x ,s1\r\n'
        '3,"two\r\nlines",s2\r\n4,"say ""hi""",s1\r\n\r\n'
    )
    recs = load_csv(write(tmp_path, text), CsvSchema(channels=["v"], label="act", subject="subj"))
    assert [r.subject_id for r in recs] == ["s2", "s1"]
    assert recs[0].channels["v"].tolist() == [1.5, 3.0]
    assert recs[0].labels.tolist() == ["walk, fast", "two\r\nlines"]
    assert recs[1].labels.tolist() == ["#x", 'say "hi"']


def test_load_interleaved_subjects_keep_row_order(tmp_path):
    # long enough that an unstable sort would reorder rows within a subject
    subjects = [f"s{(i * i) % 5}" for i in range(60)]
    p = write(tmp_path, "v,subj\n" + "".join(f"{i},{s}\n" for i, s in enumerate(subjects)))
    schema = CsvSchema(channels=["v"], subject="subj")
    for load in (load_csv, per_cell_loop):
        recs = load(p, schema)
        assert [r.subject_id for r in recs] == list(dict.fromkeys(subjects))
        for r in recs:
            rows = [i for i, s in enumerate(subjects) if s == r.subject_id]
            assert r.channels["v"].tolist() == rows


def per_cell_loop(path, schema):
    """load_csv with numpy's reader declining every file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datapipe, "_read_columns", lambda *args: None)
        return load_csv(path, schema)


def outcome(load, path, schema):
    try:
        return load(path, schema)
    except Exception as exc:  # compared by type and message below
        return exc


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


# cells numpy's reader takes as float() does, and cells it declines
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "-0.0", ".5", "5.", "+1e-3", " 2.5 ", "\t7", "1 ", '"4"']),
)
NOT_NUMBERS = st.sampled_from(
    ["1_0", "١", "nan", "-inf", "1e999", "0x10", "#3", "", " ", "oops", "1,5", ' "4"']
)
TEXTS = st.one_of(
    st.sampled_from(
        ["s1", "s2", " s1 ", "walk", "walk, fast", "#a", "", " ", 'a"b', "x\ny", "x\r\ny"]
    ),
    st.text(alphabet='ab ,;"#\t\r\n', max_size=5),
)


@st.composite
def csv_files(draw):
    """A schema and CSV text; half the files hold only rows numpy's reader
    takes, the rest any quirk load_csv handles."""
    clean = draw(st.booleans())
    n_ch = draw(st.integers(1, 3))
    channels = [f"c{j}" for j in range(n_ch)]
    label = draw(st.sampled_from([None, "act"]))
    subject = draw(st.sampled_from([None, "subj"]))
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", " ", "|", "#", '"']))
    columns = channels + [c for c in (label, subject) if c] + draw(st.sampled_from([[], ["extra"]]))
    columns = draw(st.permutations(columns))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    numbers = NUMBERS if clean else st.one_of(NUMBERS, NOT_NUMBERS)

    def cell(name):
        text = draw(numbers if name in channels else TEXTS)
        # a cell holding a delimiter, quote or line break is now and then left bare
        special = any(c in text for c in (delimiter, '"', "\n", "\r"))
        return quoted(text) if draw(st.integers(0, 9)) < (9 if special else 3) else text

    kinds = ["row"] * 6 + ["extra", "blank"] + ([] if clean else ["short", "spaces", "delims"])
    lines = [delimiter.join(columns)]
    # clean files run long enough for the subject grouping to sort more than a few rows
    for _ in range(draw(st.integers(0, 24 if clean else 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" \t ")
        elif kind == "delims":
            lines.append(delimiter * draw(st.integers(1, 4)))
        else:
            row = [cell(name) for name in columns]
            if kind == "short":
                row = row[: draw(st.integers(0, len(row) - 1))]
            elif kind == "extra":
                row += ["9", "z"]
            lines.append(delimiter.join(row))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    schema = CsvSchema(channels=channels, label=label, subject=subject, delimiter=delimiter)
    return schema, text


@given(csv_files())
@settings(max_examples=250, deadline=None)
def test_load_csv_equals_per_cell_loop(tmp_path_factory, case):
    schema, text = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = outcome(load_csv, path, schema), outcome(per_cell_loop, path, schema)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert isinstance(got, list), got
    assert [r.subject_id for r in got] == [r.subject_id for r in want]
    assert all(type(r.subject_id) is str for r in got)
    for g, w in zip(got, want):
        assert list(g.channels) == list(w.channels)
        for ch in w.channels:
            assert g.channels[ch].dtype == w.channels[ch].dtype == np.float64
            assert np.array_equal(g.channels[ch].view(np.uint64), w.channels[ch].view(np.uint64))
        if w.labels is None:
            assert g.labels is None
        else:
            assert g.labels.dtype == w.labels.dtype
            assert np.array_equal(g.labels, w.labels)


LONG = "a" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "text, where",
    [
        (f"v,act\n1,{LONG}\n", "row 1"),
        (f"v,act\n1,walk\n1,{LONG}\n2,oops\n", "row 2"),
        (f"v,act\n1,{LONG}\n2,oops\n", "row 1"),
        (f'v,act\n1,"{LONG}"\n', "row 1"),
        (f"v,{LONG}\n1,walk\n", "header"),
    ],
    ids=["label", "label-after-good-row", "label-before-bad-row", "quoted-label", "header"],
)
def test_load_rejects_cell_over_csv_field_limit(tmp_path, text, where):
    # both readers agree: numpy's declines, and the loop names the row
    schema = CsvSchema(channels=["v"], label="act")
    p = write(tmp_path, text)
    got, want = outcome(load_csv, p, schema), outcome(per_cell_loop, p, schema)
    assert isinstance(got, CsvParseError) and f"{where}: field larger than field limit" in str(got)
    assert (type(got), str(got)) == (type(want), str(want))


def test_load_takes_cell_at_csv_field_limit(tmp_path):
    label = "a" * csv.field_size_limit()
    p = write(tmp_path, f"v,act\n1,{label}\n")
    schema = CsvSchema(channels=["v"], label="act")
    for load in (load_csv, per_cell_loop):
        assert load(p, schema)[0].labels.tolist() == [label]


@pytest.mark.parametrize(
    "blob",
    [b"v,act\n1,\xff\n", b"v\xff,act\n1,walk\n", b"v,act\n" + b"1,walk\n" * 5000 + b"2,\xe9\n"],
    ids=["label", "header", "after-5000-rows"],
)
def test_load_rejects_bytes_that_are_not_utf8(tmp_path, blob):
    p = tmp_path / "data.csv"
    p.write_bytes(blob)
    with pytest.raises(CsvParseError, match="not UTF-8"):
        load_csv(p, CsvSchema(channels=["v"], label="act"))



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
    assert model.classes == ("run", "walk")
    assert model_from_bytes(model_to_bytes(model)) == model


def test_build_dataset_rejects_bad_smooth():
    with pytest.raises(InvalidArgumentError):
        build_dataset([rec(n=10)], ["a"], 5, 5, smooth=0)
