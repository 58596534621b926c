"""CSV ingestion, preprocessing, sliding-window features, and train/test
splitting.

A dataset is columnar: one (N, F) float64 feature matrix X plus (N,)
arrays of window labels y and subject ids, one row per window, recordings
stacked in order.  Each channel is windowed with one sliding_window_view;
its seven statistics per window (mean, std, min, max, RMS, mean absolute
first difference, zero crossings of the mean-removed window) are
concatenated across channels in schema order.  A window's label is the
majority of its per-sample labels, ties going to the lowest label in
sorted order.  Quantization bounds are fit on the training split only and
frozen into the model; test-time values outside the bounds are clamped,
never rejected.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvParseError,
    EmptyInputError,
    InvalidArgumentError,
    SchemaError,
    UnknownSubjectError,
)
from .hv import rng

FEATURE_STATS = ("mean", "std", "min", "max", "rms", "mad", "zcross")


@dataclass
class CsvSchema:
    """Column mapping for the input CSV: which columns are signal channels,
    which carries the per-sample label, and which the subject id."""

    channels: list
    label: str | None = None
    subject: str | None = None
    delimiter: str = ","

    def __post_init__(self):
        if not self.channels:
            raise SchemaError("schema needs at least one channel column")
        if len(set(self.channels)) != len(self.channels):
            raise SchemaError("duplicate channel columns")
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise SchemaError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass
class Recording:
    """One subject's contiguous multi-channel stream."""

    subject_id: str
    channels: dict  # channel name -> np.ndarray
    labels: np.ndarray | None = None  # per-sample, parallel to the channels

    def __post_init__(self):
        # every window row pairs features and a label taken at the same samples
        lengths = {len(x) for x in self.channels.values()}
        lengths |= set() if self.labels is None else {len(self.labels)}
        if len(lengths) != 1:
            raise SchemaError(
                f"recording {self.subject_id!r}: channels and labels need one common "
                f"length, got {sorted(lengths)}"
            )

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))


@dataclass
class FeatureStats:
    mins: np.ndarray
    maxs: np.ndarray

    def bounds(self) -> list:
        return [(float(lo), float(hi)) for lo, hi in zip(self.mins, self.maxs)]


@dataclass
class WindowedDataset:
    """One row per window: X is (N, F) float64, y and subjects are (N,)."""

    X: np.ndarray
    y: np.ndarray
    subjects: np.ndarray
    feature_names: list = field(default_factory=list)
    skipped_recordings: int = 0

    def __len__(self):
        return len(self.X)

    def subject_ids(self) -> list:
        """Distinct subjects in order of first appearance."""
        return list(dict.fromkeys(self.subjects.tolist()))

    def select(self, indices) -> "WindowedDataset":
        """The given rows, in the given order, as a copy."""
        return replace(self, X=self.X[indices], y=self.y[indices], subjects=self.subjects[indices])


def load_csv(path, schema: CsvSchema) -> list:
    """Parse one CSV into per-subject Recordings (subjects keep the order of
    their first row, even when their rows interleave).

    The file is UTF-8 text in the csv module's default dialect with the
    schema's delimiter: a cell that starts with '"' is quoted up to the next
    lone '"' (a doubled '""' inside is one literal quote), and may hold the
    delimiter or a line break; a '"' anywhere else and a '#' are plain
    characters.  Every cell is stripped of surrounding whitespace.  The
    header must contain every schema column.  Empty rows and rows whose
    cells are all whitespace are skipped; any other row needs every schema
    column, and a channel cell that float() cannot parse or that is not
    finite fails with its data-row number (1-based, excluding the header).
    Labels are str arrays, one per subject.  A file that is not UTF-8, or a
    cell longer than csv.field_size_limit(), raises CsvParseError.

    The data rows are read by numpy's C reader (np.loadtxt) first.  It may
    only decline, never reject: a ValueError from numpy, a non-finite value
    or no data rows at all hand the file to the per-cell csv.reader + float()
    loop, which raises CsvParseError (row and column named), SchemaError or
    EmptyInputError, or accepts what float() accepts and numpy does not
    (such as "1_0" or non-ASCII digits).  Both read the same text from the
    same open file, and numpy's float parser gives float()'s values, so the
    result does not depend on which of them read the file.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _read(fh, path, schema)
    except UnicodeDecodeError as exc:
        # decoding runs ahead of the rows in chunks, so no row can be named
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read(fh, path, schema: CsvSchema) -> list:
    """load_csv on its open file."""
    # readline keeps fh.tell() usable, so both readers start after the header
    reader = csv.reader(iter(fh.readline, ""), delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise CsvParseError(f"{path}: header: {exc}") from None
    header = [h.strip() for h in header]
    wanted = [*schema.channels, *(c for c in (schema.label, schema.subject) if c)]
    missing = [c for c in wanted if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing columns {missing}; header {header}")
    col = {name: header.index(name) for name in wanted}
    first_row = fh.tell()
    recordings = _read_columns(fh, schema, col)
    if recordings is None:
        fh.seek(first_row)
        recordings = _read_cells(fh, path, schema, col)
    return recordings


def _read_columns(fh, schema: CsvSchema, col: dict) -> list | None:
    """load_csv's fast path: the Recordings of the rows from fh's position
    on, read with np.loadtxt, or None to leave the file to _read_cells."""
    if schema.delimiter in '"\r\n':  # delimiters numpy's reader does not take
        return None
    start = fh.tell()
    read = partial(
        np.loadtxt, fh, delimiter=schema.delimiter, comments=None, quotechar='"', ndmin=2
    )
    text_cols = [col[c] for c in (schema.label, schema.subject) if c]
    text = []  # the label and subject columns, in that order
    try:
        with warnings.catch_warnings():
            # no data rows is declined below; _read_cells raises EmptyInputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = read(usecols=[col[ch] for ch in schema.channels])
            if text_cols:
                fh.seek(start)
                text = read(usecols=text_cols, dtype=object).T
    except ValueError:
        return None
    if not len(values) or not np.isfinite(values).all():
        return None
    # csv.reader refuses a longer cell; the per-cell loop reports it
    if any(max(map(len, cells), default=0) > csv.field_size_limit() for cells in text):
        return None
    text = [np.array([s.strip() for s in cells], dtype=object) for cells in text]
    labels = text[0] if schema.label else None

    if schema.subject:
        names, first, codes = np.unique(text[-1], return_index=True, return_inverse=True)
        by_first = np.argsort(first)  # unique subjects in order of their first row
        codes = np.argsort(by_first)[codes]  # each row's subject, numbered in that order
        order = np.argsort(codes, kind="stable")
        names, counts = names[by_first], np.bincount(codes)
        values = values[order]
        labels = None if labels is None else labels[order]
    else:
        names, counts = ["default"], [len(values)]
    # one contiguous float64 array per channel, like np.array(list of floats)
    series = np.ascontiguousarray(values.T)
    recordings = []
    for name, end, n in zip(names, np.cumsum(counts), counts):
        span = slice(end - n, end)
        recordings.append(
            Recording(
                subject_id=name,
                channels={ch: series[j, span] for j, ch in enumerate(schema.channels)},
                labels=None if labels is None else labels[span].astype(str),
            )
        )
    return recordings


def _read_cells(fh, path, schema: CsvSchema, col: dict) -> list:
    """load_csv's per-cell loop and its only error path: the Recordings of
    the rows from fh's position on, or the error that names the bad row."""
    n_cells = max(col.values()) + 1
    per_subject: dict[str, dict] = {}
    n_rows = 0
    for row_no, row in _numbered_rows(fh, path, schema.delimiter):
        if not row or all(not cell.strip() for cell in row):
            continue
        n_rows += 1
        if len(row) < n_cells:
            raise CsvParseError(
                f"{path}: row {row_no}: {len(row)} cells, the schema needs {n_cells}"
            )
        subject = row[col[schema.subject]].strip() if schema.subject else "default"
        bucket = per_subject.setdefault(
            subject,
            {ch: [] for ch in schema.channels} | {"labels": []},
        )
        for ch in schema.channels:
            cell = row[col[ch]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"{path}: row {row_no}, column {ch!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise CsvParseError(
                    f"{path}: row {row_no}, column {ch!r}: non-finite value {cell!r}"
                )
            bucket[ch].append(value)
        bucket["labels"].append(
            row[col[schema.label]].strip() if schema.label else None
        )

    if n_rows == 0:
        raise EmptyInputError(f"{path}: no data rows")
    recordings = []
    for subject, bucket in per_subject.items():
        labels = bucket.pop("labels")
        recordings.append(
            Recording(
                subject_id=subject,
                channels={ch: np.array(vals) for ch, vals in bucket.items()},
                labels=None if labels and labels[0] is None else np.array(labels),
            )
        )
    return recordings


def _numbered_rows(fh, path, delimiter: str):
    """csv.reader's records from fh's position on, numbered from 1; a record
    the reader refuses (a cell longer than csv.field_size_limit()) raises
    CsvParseError naming it."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            yield row_no, row
    except csv.Error as exc:
        raise CsvParseError(f"{path}: row {row_no + 1}: {exc}") from None


def moving_average(signal, window_len: int) -> np.ndarray:
    """Centered moving average; windows truncate at the edges, so output
    length equals input length.  For even lengths the window extends one
    sample further to the right."""
    if window_len < 1:
        raise InvalidArgumentError(f"window_len must be >= 1, got {window_len}")
    x = np.asarray(signal, dtype=np.float64)
    if window_len == 1:
        return x.copy()
    n = len(x)
    left = (window_len - 1) // 2
    right = window_len // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    starts = np.maximum(idx - left, 0)
    ends = np.minimum(idx + right + 1, n)
    return (csum[ends] - csum[starts]) / (ends - starts)


def _check_window(window_samples: int, stride: int) -> None:
    if window_samples < 1 or stride < 1:
        raise InvalidArgumentError("window_samples and stride must be >= 1")


def window_features(x, window_samples: int, stride: int) -> np.ndarray:
    """The seven FEATURE_STATS of every window of one channel, (n_windows, 7);
    row i covers x[i * stride : i * stride + window_samples]."""
    _check_window(window_samples, stride)
    x = np.asarray(x, dtype=np.float64)
    if len(x) < window_samples:
        return np.empty((0, len(FEATURE_STATS)))
    V = sliding_window_view(x, window_samples)[::stride]
    mean = V.mean(axis=-1)
    signs = np.sign(V - mean[:, None])
    return np.column_stack(
        [
            mean,
            V.std(axis=-1),
            V.min(axis=-1),
            V.max(axis=-1),
            np.sqrt((V * V).mean(axis=-1)),
            np.abs(np.diff(V)).mean(axis=-1) if window_samples > 1 else np.zeros(len(V)),
            np.count_nonzero(signs[:, :-1] * signs[:, 1:] < 0, axis=-1),
        ]
    )


def window_labels(labels, window_samples: int, stride: int) -> np.ndarray:
    """Each window's majority label, windows placed as in window_features;
    ties go to the lowest label in sorted order."""
    _check_window(window_samples, stride)
    uniq, codes = np.unique(np.asarray(labels), return_inverse=True)
    if len(codes) < window_samples:
        return uniq[:0]
    starts = np.arange(0, len(codes) - window_samples + 1, stride)
    counts = np.empty((len(starts), len(uniq)), dtype=np.int64)
    for k in range(len(uniq)):
        csum = np.concatenate(([0], np.cumsum(codes == k)))
        counts[:, k] = csum[starts + window_samples] - csum[starts]
    return uniq[np.argmax(counts, axis=1)]  # argmax picks the first, lowest, label


def build_dataset(
    recordings,
    channel_order,
    window_samples: int,
    stride: int,
    smooth: int = 1,
) -> WindowedDataset:
    """recordings -> moving average over `smooth` samples (1: none) ->
    per-channel window features, concatenated in channel_order,
    recordings stacked in order."""
    _check_window(window_samples, stride)
    if len(channel_order) == 0:
        raise SchemaError("channel_order names no channels")
    X = [np.empty((0, len(FEATURE_STATS) * len(channel_order)))]
    y, subjects, skipped = [np.empty(0, dtype=str)], [np.empty(0, dtype=str)], 0
    for rec in recordings:
        missing = [ch for ch in channel_order if ch not in rec.channels]
        if missing:
            raise SchemaError(f"recording {rec.subject_id!r} has no channels {missing}")
        if rec.n_samples < window_samples:
            skipped += 1
            continue
        channels = [moving_average(rec.channels[ch], smooth) for ch in channel_order]
        X.append(np.hstack([window_features(x, window_samples, stride) for x in channels]))
        n = len(X[-1])
        labeled = rec.labels is not None
        y.append(window_labels(rec.labels, window_samples, stride) if labeled else np.full(n, None))
        subjects.append(np.full(n, rec.subject_id))
    return WindowedDataset(
        X=np.concatenate(X),
        y=np.concatenate(y),
        subjects=np.concatenate(subjects),
        feature_names=[f"{ch}_{stat}" for ch in channel_order for stat in FEATURE_STATS],
        skipped_recordings=skipped,
    )


def fit_stats(ds: WindowedDataset) -> FeatureStats:
    """Per-feature min/max over (training) windows only."""
    if len(ds) == 0:
        raise EmptyInputError("cannot fit statistics on an empty split")
    return FeatureStats(mins=ds.X.min(axis=0), maxs=ds.X.max(axis=0))


_SPLIT_STREAM = 2**32


def split_random(ds: WindowedDataset, seed: int, fraction: float = 0.5):
    """Seeded shuffle, first `fraction` of windows to train."""
    if not 0 < fraction < 1:
        raise InvalidArgumentError(f"fraction must be in (0, 1), got {fraction}")
    n = len(ds)
    order = rng(seed, _SPLIT_STREAM).permutation(n)
    n_train = int(n * fraction)
    return ds.select(order[:n_train]), ds.select(order[n_train:])


def split_subject_half(ds: WindowedDataset):
    """First half of each subject's windows (temporal order preserved) to
    train, the rest to test."""
    in_train = np.zeros(len(ds), dtype=bool)
    for subject in ds.subject_ids():
        idx = np.flatnonzero(ds.subjects == subject)
        in_train[idx[: len(idx) // 2]] = True
    return ds.select(np.flatnonzero(in_train)), ds.select(np.flatnonzero(~in_train))


def split_leave_one_subject_out(ds: WindowedDataset, subject: str, seed: int):
    """Train on every other subject; test on a seeded random half of the
    held-out subject's windows."""
    subjects = ds.subject_ids()
    if subject not in subjects:
        raise UnknownSubjectError(f"unknown subject {subject!r}")
    if len(subjects) < 2:
        raise InvalidArgumentError("leave-one-subject-out needs at least 2 subjects")
    held = np.flatnonzero(ds.subjects == subject)
    order = rng(seed, _SPLIT_STREAM).permutation(len(held))
    picked = np.sort(held[order[: len(held) // 2]])
    return ds.select(np.flatnonzero(ds.subjects != subject)), ds.select(picked)


def split(ds: WindowedDataset, strategy: str, seed: int = 0, fraction: float = 0.5, subject: str | None = None):
    if strategy == "random":
        return split_random(ds, seed, fraction)
    if strategy == "subject-half":
        return split_subject_half(ds)
    if strategy == "loso":
        if subject is None:
            raise InvalidArgumentError("loso split needs a subject")
        return split_leave_one_subject_out(ds, subject, seed)
    raise InvalidArgumentError(f"unknown split strategy {strategy!r}")
