"""CSV loading, filtering, window features and labels, and splits."""

import csv
import itertools
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    split_personalize,
    split_random,
    window_labels,
)
from hdwear.encoding import EncoderConfig, FeatureEncoder
from hdwear.errors import (
    CsvParseError,
    DataError,
    EmptyInputError,
    InvalidArgumentError,
    SchemaError,
    UnknownSubjectError,
)
from hdwear.learning import (
    Model, evaluate, model_from_bytes, model_to_bytes, train_iterative, train_online,
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
    # a str would be read one character per column: "ab" as a and b
    for channels in ("ab", "acc", "v"):
        with pytest.raises(SchemaError, match="channels must be a list"):
            CsvSchema(channels=channels)


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

    passes, real_loadtxt = [], np.loadtxt

    def loadtxt(*args, **kwargs):  # counts numpy's passes over the file
        passes.append(kwargs.get("usecols"))
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(datapipe, "_read_cells", cell_loop)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    text = (
        'v,act,subj\r\n 1.5 ,"walk, fast",s2\r\n2, #x ,s1\r\n'
        '3,"two\r\nlines",s2\r\n4,"say ""hi""",s1\r\n\r\n'
    )
    recs = load_csv(write(tmp_path, text), CsvSchema(channels=["v"], label="act", subject="subj"))
    assert [r.subject_id for r in recs] == ["s2", "s1"]
    assert recs[0].channels["v"].tolist() == [1.5, 3.0]
    assert recs[0].labels.tolist() == ["walk, fast", "two\r\nlines"]
    assert recs[1].labels.tolist() == ["#x", 'say "hi"']
    # channels, label and subject cells come from one pass, not one per kind
    assert passes == [[0, 1, 2]]


@pytest.mark.parametrize(
    "label, subject",
    [("act", "act"), ("v", None), ("v", "v")],
    ids=["label-is-subject", "label-is-channel", "label-and-subject-are-channel"],
)
def test_load_overlapping_schema_columns(tmp_path, monkeypatch, label, subject):
    # numpy's one pass reads such a column twice; the per-cell loop reads its cell twice
    p = write(tmp_path, "v,act\n1, a\n2,b\n3,b\n1,a\n")
    schema = CsvSchema(channels=["v"], label=label, subject=subject)
    want = per_cell_loop(p, schema)
    monkeypatch.setattr(datapipe, "_read_cells", lambda *a: pytest.fail("the per-cell loop ran"))
    got = load_csv(p, schema)
    assert_same_recordings(got, want)
    assert sum(r.n_samples for r in got) == 4
    if subject == "v":
        assert [r.subject_id for r in got] == ["1", "2", "3"]
        assert [r.labels.tolist() for r in got] == [["1", "1"], ["2"], ["3"]]


@pytest.mark.parametrize(
    "name, cause",
    [("missing.csv", OSError), (".", OSError), ("bad\0name.csv", ValueError)],
    ids=["missing", "directory", "nul-byte"],
)
def test_load_unreadable_path_is_typed(tmp_path, name, cause):
    path = tmp_path / name
    with pytest.raises(DataError, match="cannot read") as info:
        load_csv(path, CsvSchema(channels=["v"]))
    assert str(path) in str(info.value)
    assert isinstance(info.value.__cause__, cause)


def test_load_file_gone_before_the_long_cell_scan_is_typed(tmp_path, monkeypatch):
    # the scan reopens the file by path; the open handle still reads it
    path = write(tmp_path, "v\n1\n")
    scan = datapipe._may_hold_long_cell

    def remove_then_scan(p):
        os.remove(p)
        return scan(p)

    monkeypatch.setattr(datapipe, "_may_hold_long_cell", remove_then_scan)
    with pytest.raises(DataError, match="cannot read") as info:
        load_csv(path, CsvSchema(channels=["v"]))
    assert isinstance(info.value.__cause__, FileNotFoundError)


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


def test_load_labels_sized_per_subject(tmp_path):
    # each subject's labels are as wide as its own longest label, not the
    # file's; padded subject cells name the same subject
    p = write(tmp_path, "v,act,subj\n1,a,s2\n2,walking, s1\n3, bb ,s2 \n4,run,s1\n")
    schema = CsvSchema(channels=["v"], label="act", subject="subj")
    for load in (load_csv, per_cell_loop):
        recs = load(p, schema)
        assert [r.subject_id for r in recs] == ["s2", "s1"]
        assert [r.channels["v"].tolist() for r in recs] == [[1.0, 3.0], [2.0, 4.0]]
        assert [r.labels.dtype for r in recs] == [np.dtype("<U2"), np.dtype("<U7")]
        assert [r.labels.tolist() for r in recs] == [["a", "bb"], ["walking", "run"]]


def sorting_oracle(values, text, schema):
    """The subject grouping before it went by runs: strip every cell, number
    the subjects with np.unique and a stable argsort, cast labels per row."""
    text = [np.array([s.strip() for s in cells], dtype=object) for cells in text]
    if schema.subject:
        names, first, codes = np.unique(text[-1], return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        codes = np.argsort(by_first)[codes]
        order = np.argsort(codes, kind="stable")
        names, rows = names[by_first], np.split(order, np.cumsum(np.bincount(codes))[:-1])
    else:
        names, rows = ["default"], [np.arange(len(values))]
    labels = text[0] if schema.label else None
    return [
        Recording(
            subject_id=name,
            channels={ch: values[own, j] for j, ch in enumerate(schema.channels)},
            labels=None if labels is None else labels[own].astype(str),
        )
        for name, own in zip(names, rows)
    ]


def assert_same_recordings(got, want):
    assert [r.subject_id for r in got] == [r.subject_id for r in want]
    assert all(type(r.subject_id) is str for r in got)
    for g, w in zip(got, want):
        assert list(g.channels) == list(w.channels)
        for ch in w.channels:
            assert g.channels[ch].dtype == w.channels[ch].dtype == np.float64
            assert g.channels[ch].flags.c_contiguous
            assert np.array_equal(g.channels[ch].view(np.uint64), w.channels[ch].view(np.uint64))
        if w.labels is None:
            assert g.labels is None
        else:
            assert g.labels.dtype == w.labels.dtype
            assert np.array_equal(g.labels, w.labels)


SUBJECT_CELLS = ["s01", " s01", "s01 ", "s02", "s10", "  s2", "A", "B"]
LABEL_CELLS = ["a", " a", "a ", "bb", "walking", "run", "", " "]


@st.composite
def grouped_rows(draw):
    """Which of the label and subject columns a file has, and its rows as
    (label cell, subject cell): runs of equal cells, interleaved subjects
    and cells that differ only by padding."""
    label, subject = draw(st.booleans()), draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = (draw(st.sampled_from(LABEL_CELLS)), draw(st.sampled_from(SUBJECT_CELLS)))
        rows += [cells] * draw(st.sampled_from([1, 1, 2, 7]))
    return label, subject, rows


@given(grouped_rows())
@example((True, True, [("a", "A"), ("bb", "B"), ("a", "A")]))
@example((True, True, [("a", " s01"), ("a", "s01"), (" a", "s01"), ("a ", "s02")]))
@example((True, False, [("a", "A"), ("bb", "B"), ("a", "A")]))
@example((False, True, [("a", "A"), ("bb", "B"), ("a", "A")]))
@example((False, False, [("a", "A"), ("a", "A")]))
@example((True, True, [("run", "s01")]))
@example((True, True, [("a", f"s{i}") for i in range(40)]))
@settings(max_examples=150, deadline=None)
def test_grouping_by_runs_equals_sorting_oracle(tmp_path_factory, case):
    label, subject, rows = case
    schema = CsvSchema(channels=["v", "w"], label="act" if label else None,
                       subject="subj" if subject else None)
    lines = ["v,w,act,subj"] + [f"{i},{-i / 3},{a},{s}" for i, (a, s) in enumerate(rows)]
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    recordings, seen = datapipe._recordings, []

    def spy(*columns):  # the oracle groups the very columns the reader returned
        seen.append(columns)
        return recordings(*columns)

    def cell_loop(*args):
        raise AssertionError("the per-cell loop ran")

    # numpy's reader takes these files; patched to decline, the loop reads them
    for reader, patched in (("_read_cells", cell_loop), ("_read_columns", lambda *args: None)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datapipe, reader, patched)
            mp.setattr(datapipe, "_recordings", spy)
            got = load_csv(path, schema)
        assert_same_recordings(got, sorting_oracle(*seen.pop()))
        assert sum(r.n_samples for r in got) == len(rows)


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
# cells longer than csv.field_size_limit(), which csv.reader refuses: a
# number numpy's reader takes, a long line, and a quoted cell of short lines
LIMIT = csv.field_size_limit()
LONG_NUMBER = "0" * LIMIT + "1"
LONG = "a" * (LIMIT + 1)
LONG_LINES = "ab\n" * (LIMIT // 3 + 1)


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

    # a quarter of the files hold one cell over csv.field_size_limit()
    long_at = draw(st.sampled_from([None, None, None, 0]))
    if long_at is not None:
        long_at = draw(st.integers(0, 20))
    n_cells = itertools.count()

    def cell(name):
        text = draw(numbers if name in channels else TEXTS)
        if next(n_cells) == long_at:
            text = LONG_NUMBER if name in channels else draw(st.sampled_from([LONG, LONG_LINES]))
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
    assert_same_recordings(got, want)


@pytest.mark.parametrize(
    "text, where",
    [
        (f"v,act\n1,{LONG}\n", "row 1"),
        (f"v,act\n1,walk\n1,{LONG}\n2,oops\n", "row 2"),
        (f"v,act\n1,{LONG}\n2,oops\n", "row 1"),
        (f'v,act\n1,"{LONG}"\n', "row 1"),
        (f'v,act\n1,"{LONG_LINES}"\n', "row 1"),
        (f"v,act\n{LONG_NUMBER},walk\n", "row 1"),
        (f"v,act,x\n1,walk,{LONG}\n", "row 1"),
        (f"v,act,x\n1,walk,z\n2,run,{LONG}\n", "row 2"),
        (f"v,{LONG}\n1,walk\n", "header"),
    ],
    ids=[
        "label", "label-after-good-row", "label-before-bad-row", "quoted-label",
        "quoted-label-of-short-lines", "channel", "outside-schema", "outside-schema-row-2",
        "header",
    ],
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


@pytest.mark.parametrize("shape", [(), (4, 3), (1, 5), (2, 2, 2)])
def test_moving_average_rejects_signal_not_1d(shape):
    x = np.arange(float(np.prod(shape))).reshape(shape)
    for window in (1, 3):
        with pytest.raises(InvalidArgumentError, match="1-D"):
            moving_average(x, window)


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
        ({"a": np.ones((5, 2))}, None),
        ({"a": np.arange(4.0)}, np.array([["x"]] * 4)),
        ({"a": np.arange(4.0), "b": np.float64(3.0)}, None),
        ({"a": 2.5}, None),
    ],
    ids=[
        "labels-short", "labels-long", "ragged-channels", "no-channels", "2-d-channel",
        "2-d-labels", "0-d-channel", "scalar-channel",
    ],
)
def test_recording_rejects_mismatched_lengths(channels, labels):
    # a mismatch would pair a window's features with another window's label;
    # a channel or label column that is not 1-D has no samples to window
    with pytest.raises(SchemaError):
        Recording(subject_id="s", channels=channels, labels=labels)


@pytest.mark.parametrize("seq", [np.ones((5, 2)), [[1, 2], [3, 4]], 3.0, np.ones((1, 1, 4))])
def test_windows_need_a_1d_sequence(seq):
    # window_labels([[1, 2], [3, 4]], 1, 1) once returned [1 2]; a channel
    # that is not 1-D is refused by Recording (see above)
    with pytest.raises(InvalidArgumentError, match="1-D"):
        window_labels(seq, 1, 1)


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


@pytest.mark.parametrize(
    "window, stride",
    [(0, 1), (1, 0), (-1, 1), (3.5, 1), (2, 2.0), (True, 1), (2, False), (None, 1), ("2", 1)],
)
def test_window_geometry_rejected(window, stride):
    with pytest.raises(InvalidArgumentError):
        build_dataset([rec(n=5)], ["a"], window, stride)
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


def window_features(x, window, stride):
    """The seven FEATURE_STATS of every window of one channel, (n_windows, 7):
    build_dataset's blocked pass over a single channel."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((max(0, (len(x) - window) // stride + 1), len(datapipe.FEATURE_STATS)))
    return datapipe._window_stats(x[None], window, stride, out)


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


@pytest.mark.parametrize(
    "window, stride, smooth, n, block_bytes",
    [
        # 16 windows of 20 x 100 samples per 256 KiB block: 41 windows are 16 + 16 + 9
        (100, 50, 1, 2100, None),
        (100, 50, 4, 2100, None),
        (1, 1, 1, 200, 20 * 8 * 48),  # blocks of 48 one-sample windows: 48 * 4 + 8
        (9, 4, 3, 333, 20 * 8 * 9 * 5),
    ],
)
def test_blocked_stats_match_reference_at_20_channels(
    window, stride, smooth, n, block_bytes, monkeypatch
):
    if block_bytes:
        monkeypatch.setattr(datapipe, "_BLOCK_BYTES", block_bytes)
    g = np.random.default_rng(window * 1000 + n)
    channels = {f"c{j}": g.normal(size=n) * 10.0 ** (j % 7 - 3) for j in range(20)}
    channels["c3"] = np.full(n, 2.5)  # a constant channel: std 0, no zero crossings
    channels["c4"] = np.zeros(n)
    ds = build_dataset([Recording("s", channels)], list(channels), window, stride, smooth=smooth)
    smoothed = [moving_average(x, smooth) for x in channels.values()]
    rows = [
        np.concatenate([ref.channel_features(x[start : start + window]) for x in smoothed])
        for start in range(0, n - window + 1, stride)
    ]
    assert_bits_equal(ds.X, np.array(rows))


def test_load_and_build_import_no_module(tmp_path):
    # a module imported lazily on the first call (np.unique on some inputs
    # imports numpy.ma) costs memory on every run; ingest must not need one
    rows = [
        f"{i % 7 - 3},{i % 5},{'walk' if i % 40 < 25 else 'run'},s{i // 30 % 3}" for i in range(200)
    ]
    path = write(tmp_path, "a,b,act,subj\n" + "\n".join(rows) + "\n")
    script = (
        "import sys\n"
        "from hdwear import datapipe as dp\n"
        "before = set(sys.modules)\n"
        "schema = dp.CsvSchema(channels=['a', 'b'], label='act', subject='subj')\n"
        f"recs = dp.load_csv({str(path)!r}, schema)\n"
        "ds = dp.build_dataset(recs, ['a', 'b'], 16, 4, smooth=3)\n"
        "assert len(recs) == 3 and len(ds) > 0\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(datapipe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------- fit_stats


def make_ds(vectors, subjects=None, labels=None):
    n = len(vectors)
    return WindowedDataset(
        X=np.array(vectors, dtype=float),
        y=np.array(labels or ["x"] * n),
        subjects=np.array(subjects or ["s1"] * n),
        feature_names=[f"f{i}" for i in range(len(vectors[0]))],
    )


# columns a dataset built by hand is refused, each named by how it breaks
# the (N, F) X with (N,) y and subjects
BAD_COLUMNS = {
    # fit_stats would return scalar bounds
    "X-1d": dict(X=np.zeros(4), y=np.array(["a"] * 4), subjects=np.array(["s"] * 4)),
    # split_random and split_personalize would raise a raw IndexError
    "y-short": dict(
        X=np.zeros((4, 1)), y=np.array(["a"]), subjects=np.array(["s1", "s1", "s2", "s2"])
    ),
    "subjects-long": dict(X=np.zeros((2, 1)), y=np.array(["a", "b"]), subjects=np.array(["s"] * 3)),
}


@pytest.mark.parametrize("case", list(BAD_COLUMNS))
def test_windowed_dataset_rejects_columns_of_other_shapes(case):
    with pytest.raises(SchemaError, match="N, F"):
        WindowedDataset(**BAD_COLUMNS[case])


def test_windowed_dataset_fields_cannot_be_rebound():
    # rebinding a field would skip the shape check above
    ds = make_ds([[1.0], [2.0]])
    for f in fields(ds):
        with pytest.raises(FrozenInstanceError):
            setattr(ds, f.name, getattr(ds, f.name))
    assert len(ds.select([1, 0, 1])) == 3


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
    test.X[...] *= 1e9
    stats2 = fit_stats(train)
    assert np.array_equal(stats1.mins, stats2.mins)
    assert np.array_equal(stats1.maxs, stats2.maxs)
    assert ds.X.max() == 9.0


# -------------------------------------------------------------------- splits


def ramp_ds(window, stride, lengths=(("s1", 600), ("s2", 500), ("s3", 700))):
    """Recordings of one ramp channel "t" that counts samples across the
    whole dataset, so a window's min and max features (columns 2 and 3) are
    the indices of its first and last sample."""
    recs, start = [], 0
    for subject, n in lengths:
        t = np.arange(start, start + n, dtype=float)
        recs.append(Recording(subject, {"t": t}, labels=np.array(["x"] * n)))
        start += n
    return build_dataset(recs, ["t"], window, stride)


@pytest.mark.parametrize(
    "window, stride", [(100, 50), (64, 8), (10, 10), (10, 3), (5, 7)]
)
def test_personalize_adapt_precedes_test_and_shares_no_sample(window, stride):
    ds = ramp_ds(window, stride)
    population, adapt, test = split_personalize(ds, "s2")
    held = ds.X[ds.subjects == "s2"]
    half = len(held) // 2
    # adapt is the first half of the subject's windows, in order, and every
    # adapt sample precedes every test sample
    assert np.array_equal(adapt.X, held[:half])
    assert adapt.X[:, 3].max() < test.X[:, 2].min()
    # exactly the ceil(window / stride) - 1 windows that share a sample with
    # adapt's last window are dropped; test is the rest, in order
    drop = math.ceil(window / stride) - 1
    assert np.array_equal(test.X, held[half + drop :])
    assert (held[half : half + drop, 2] <= adapt.X[-1, 3]).all()


def test_personalize_keeps_dataset_order():
    # interleaved subjects: adapt is the first half of the subject's rows in
    # dataset order, test the rest, and population keeps its order too
    subjects = ["s2", "s1", "s1", "s2", "s3", "s1", "s2", "s2", "s1"]
    ds = make_ds([[float(i)] for i in range(len(subjects))], subjects=subjects)
    population, adapt, test = split_personalize(ds, "s1")
    assert adapt.X[:, 0].tolist() == [1.0, 2.0]
    assert test.X[:, 0].tolist() == [5.0, 8.0]  # hand-built: no window overlaps
    assert population.X[:, 0].tolist() == [0.0, 3.0, 4.0, 6.0, 7.0]


def test_personalize_population_holds_no_held_out_window():
    ds = ramp_ds(10, 5)
    population, adapt, test = split_personalize(ds, "s1")
    assert (population.subjects != "s1").all()
    assert (adapt.subjects == "s1").all() and (test.subjects == "s1").all()
    assert np.array_equal(population.X, ds.X[ds.subjects != "s1"])


@pytest.mark.parametrize(
    "subject", ["nobody", "", ["s1"], None], ids=["nobody", "empty", "list", "None"]
)
def test_personalize_unknown_subject(subject):
    with pytest.raises(UnknownSubjectError):
        split_personalize(ramp_ds(10, 5), subject)


@pytest.mark.parametrize(
    "lengths, window, stride",
    [
        ((("s1", 100), ("s2", 10)), 10, 5),  # one window: adapt would be empty
        ((("s1", 100), ("s2", 13)), 10, 3),  # two windows: both overlap
        ((("s1", 100),), 10, 5),  # no other subject: population would be empty
    ],
    ids=["one-window", "overlapping", "single-subject"],
)
def test_personalize_subject_too_short(lengths, window, stride):
    ds = ramp_ds(window, stride, lengths)
    with pytest.raises(EmptyInputError):
        split_personalize(ds, lengths[-1][0])


def test_geometry_survives_select_and_splits():
    ds = ramp_ds(64, 8)
    parts = [ds.select([0, 1]), *split_random(ds, 1), *split_personalize(ds, "s1")]
    assert [(p.window_samples, p.stride) for p in parts] == [(64, 8)] * 6
    hand = make_ds([[0.0], [1.0]])
    assert (hand.window_samples, hand.stride) == (1, 1)
    assert (hand.select([1]).window_samples, hand.select([1]).stride) == (1, 1)


def test_personalization_protocol_end_to_end():
    # 3 subjects, 2 classes on channel a (b is noise); the held-out subject
    # s3 rests at a higher level than the population ever does
    gen = np.random.default_rng(7)
    recs = []
    for subject, rest_level in (("s1", 0.0), ("s2", 0.0), ("s3", 0.6)):
        labels = np.repeat(["rest", "walk"] * 6, 100)
        a = np.where(labels == "walk", 1.0, rest_level) + gen.normal(0, 0.3, len(labels))
        b = gen.normal(0, 0.3, len(labels))
        recs.append(Recording(subject, {"a": a, "b": b}, labels=labels))
    ds = build_dataset(recs, ["a", "b"], 20, 10)
    population, adapt, test = split_personalize(ds, "s3")
    # 1. bounds fit on the population only: the device gets a frozen encoder
    stats = fit_stats(population)
    enc = FeatureEncoder(EncoderConfig(dim=1024, feature_bounds=stats.bounds()))
    assert enc.config.feature_bounds == stats.bounds() != fit_stats(ds).bounds()
    # 2. train on the population
    model = Model(classes=sorted(set(ds.y.tolist())), encoder=enc.config)
    train_online(model, zip(enc.encode_matrix(population.X), population.y))
    model = train_iterative(model, list(zip(enc.encode_matrix(population.X), population.y)))
    # 3. evaluate on test, 4. adapt on the subject's first half, 5. evaluate again
    H_test = enc.encode_matrix(test.X)
    before = evaluate(model, zip(H_test, test.y))
    train_online(model, zip(enc.encode_matrix(adapt.X), adapt.y))
    after = evaluate(model, zip(H_test, test.y))
    assert before.n_samples == after.n_samples == len(test)
    assert after.accuracy > before.accuracy


def test_random_split_reproducible():
    ds = make_ds([[float(i)] for i in range(20)])
    a_train, a_test = split_random(ds, seed=9, fraction=0.7)
    b_train, b_test = split_random(ds, seed=9, fraction=0.7)
    assert a_train.X.tolist() == b_train.X.tolist()
    assert len(a_train) == 14
    got = sorted(a_train.X[:, 0].tolist() + a_test.X[:, 0].tolist())
    assert got == [float(i) for i in range(20)]  # disjoint and complete


def test_split_negative_seed_rejected():
    for seed in (-1, True, False):
        with pytest.raises(InvalidArgumentError):
            split_random(make_ds([[0.0], [1.0]]), seed)


@pytest.mark.parametrize(
    "fraction", ["0.5", None, True, False, [0.5], 0, 1, -0.5, 1.5, float("nan"), np.float64(1.0)],
    ids=repr,
)
def test_split_fraction_not_a_real_in_open_unit_interval_rejected(fraction):
    ds = make_ds([[float(i)] for i in range(10)])
    with pytest.raises(InvalidArgumentError, match="fraction"):
        split_random(ds, 0, fraction)
    with pytest.raises(InvalidArgumentError, match="fraction"):
        split(ds, "random", fraction=fraction)


def test_split_fraction_takes_numpy_reals():
    ds = make_ds([[float(i)] for i in range(10)])
    want = split_random(ds, 3, 0.3)
    for fraction in (np.float64(0.3), np.float32(0.3)):
        got = split_random(ds, 3, fraction)
        assert [part.X.tolist() for part in got] == [part.X.tolist() for part in want]


def test_split_dispatcher():
    ds = make_ds([[float(i)] for i in range(16)], subjects=["s1"] * 10 + ["s2"] * 6)
    want = split_random(ds, 4, 0.25)
    got = split(ds, "random", seed=4, fraction=0.25)
    assert [part.X.tolist() for part in got] == [part.X.tolist() for part in want]
    # "random" is the only strategy: the subject splits are gone
    for strategy in ("subject-half", "loso", "bogus"):
        with pytest.raises(InvalidArgumentError, match="strategy"):
            split(ds, strategy)
    with pytest.raises(TypeError):
        split(ds, "random", subject="s1")


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


def test_build_dataset_rejects_duplicate_channel_order():
    # as CsvSchema rejects duplicate channels; the features would repeat
    with pytest.raises(SchemaError, match="duplicate"):
        build_dataset([rec(n=10)], ["a", "a"], 4, 2)


def test_build_dataset_rejects_str_channel_order():
    # a str would split into one channel per character
    with pytest.raises(SchemaError, match="list of names"):
        build_dataset([rec(n=10)], "ab", 4, 2)


@pytest.mark.parametrize(
    "window, stride", [(0, 1), (1, 0), (3.5, 1), (4, 2.0), (True, 1), (4, False)]
)
def test_build_dataset_bad_geometry(window, stride):
    with pytest.raises(InvalidArgumentError):
        build_dataset([], ["a"], window, stride)
    with pytest.raises(InvalidArgumentError):
        build_dataset([rec(n=10)], ["a"], window, stride)
    # a dataset built by hand is checked too: split_personalize divides by the stride
    with pytest.raises(InvalidArgumentError):
        WindowedDataset(X=np.zeros((1, 1)), y=np.array(["x"]), subjects=np.array(["s"]),
                        window_samples=window, stride=stride)


def test_build_dataset_labels_feed_model_round_trip():
    ds = build_dataset([rec(labels=["walk"] * 5 + ["run"] * 5)], ["a", "b"], 4, 2)
    model = Model(classes=sorted(set(ds.y)), encoder=EncoderConfig(dim=64))
    assert model.classes == ("run", "walk")
    assert model_from_bytes(model_to_bytes(model)) == model


def test_build_dataset_rejects_bad_smooth():
    for smooth in (0, 2.5, True, None):
        with pytest.raises(InvalidArgumentError):
            build_dataset([rec(n=10)], ["a"], 5, 5, smooth=smooth)
        with pytest.raises(InvalidArgumentError):
            moving_average(np.arange(5.0), smooth)


def test_window_geometry_takes_numpy_integers():
    want = build_dataset([rec(n=10)], ["a"], 4, 2, smooth=3)
    got = build_dataset([rec(n=10)], ["a"], np.int64(4), np.int32(2), smooth=np.int64(3))
    assert np.array_equal(got.X, want.X)
    x = np.arange(5.0)
    assert np.array_equal(moving_average(x, np.int64(2)), moving_average(x, 2))
