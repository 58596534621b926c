"""CSV ingestion, preprocessing, sliding-window features, and train/test
splitting.

A dataset is columnar: one (N, F) float64 feature matrix X plus (N,)
arrays of window labels y and subject ids, one row per window, recordings
stacked in order.  A recording's channels are windowed together with one
sliding_window_view; the seven statistics per window and channel (mean,
std, min, max, RMS, mean absolute first difference, zero crossings of the
mean-removed window) are concatenated across channels in schema order.
A window's label is the majority of its per-sample labels, ties going to
the lowest label in sorted order.  Quantization bounds are fit on the training split only and
frozen into the model; test-time values outside the bounds are clamped,
never rejected.

Two splits: split_random shuffles windows into train and test with a
seed, and split_personalize holds one subject out for the personalization
protocol.  There a population model is trained on every other subject
(bounds fit on that population only, so the device gets a frozen
encoder), adapted with train_online on the held-out subject's first half
of windows, and evaluated on its later windows, before and after adapting.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvParseError,
    DataError,
    EmptyInputError,
    InvalidArgumentError,
    SchemaError,
    UnknownSubjectError,
)
from .hv import check_int, rng

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
        if isinstance(self.channels, str):
            raise SchemaError(f"channels must be a list of column names, got {self.channels!r}")
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
        columns = [*self.channels.values(), *([] if self.labels is None else [self.labels])]
        shapes = {np.shape(x) for x in columns}
        if [len(shape) for shape in shapes] != [1]:
            raise SchemaError(
                f"recording {self.subject_id!r}: channels and labels need one common "
                f"1-D shape, got {sorted(shapes)}"
            )

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))


class FeatureStats(NamedTuple):
    mins: np.ndarray
    maxs: np.ndarray

    def bounds(self) -> list:
        return [(float(lo), float(hi)) for lo, hi in zip(self.mins, self.maxs)]


@dataclass(frozen=True)
class WindowedDataset:
    """One row per window: X is (N, F) float64, y and subjects are (N,).
    The fields are checked once, here, and cannot be rebound.

    window_samples and stride are the window geometry build_dataset used:
    window i of a recording covers its samples [i * stride, i * stride +
    window_samples).  A dataset built by hand defaults to 1 and 1, windows
    that share no sample."""

    X: np.ndarray
    y: np.ndarray
    subjects: np.ndarray
    feature_names: list = field(default_factory=list)
    skipped_recordings: int = 0
    window_samples: int = 1
    stride: int = 1

    def __post_init__(self):
        n = len(self.X) if np.ndim(self.X) == 2 else -1
        if np.shape(self.y) != (n,) or np.shape(self.subjects) != (n,):
            raise SchemaError(
                f"X must be (N, F) with y and subjects (N,), got shapes {np.shape(self.X)}, "
                f"{np.shape(self.y)} and {np.shape(self.subjects)}"
            )
        _check_window(self.window_samples, self.stride)

    def __len__(self):
        return len(self.X)

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
    cell longer than csv.field_size_limit(), raises CsvParseError; a path
    that cannot be opened or read (or holds a NUL byte) raises DataError.

    The data rows are read first by one pass of numpy's C reader
    (np.loadtxt), which tokenizes each row once for its channel, label and
    subject cells.  It may only decline, never reject: a ValueError from
    numpy, a non-finite value, a cell in any column longer than
    csv.field_size_limit() (checked with csv.reader only when a byte scan
    finds a long line or a '"') or no data rows at all hand the file to the
    per-cell csv.reader + float() loop, which raises CsvParseError (row and
    column named), SchemaError or EmptyInputError, or accepts what float()
    accepts and numpy does not (such as "1_0" or non-ASCII digits).  Both
    read the same text from the same open file, numpy's float parser gives
    float()'s values, and both yield the same columns: the (N, C) float64
    channel matrix and the raw label and subject cells.  One function,
    _recordings, strips those cells and groups the rows into Recordings, so
    the result does not depend on which reader read the file.  The grouping
    costs per run of rows with equal label and subject cells, not per row: a
    file written subject by subject in label segments has few runs however
    many rows it holds.
    """
    # ValueError is caught at the open only (a path with a NUL byte), since
    # _read's typed errors may be ValueErrors too
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        with fh:
            return _read(fh, path, schema)
    except UnicodeDecodeError as exc:
        # decoding runs ahead of the rows in chunks, so no row can be named
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:  # a failed read, or the long-cell scan's own open
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc


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
    columns = _read_columns(fh, path, schema, col)
    if columns is None:
        fh.seek(first_row)
        columns = _read_cells(fh, path, schema, col)
    return _recordings(*columns, schema)


def _read_columns(fh, path, schema: CsvSchema, col: dict) -> tuple | None:
    """load_csv's fast path: the rows from fh's position on, read by one
    np.loadtxt pass, as _read_cells returns them, or None to leave the file
    to _read_cells.

    Each row is one structured record: a (C,) float64 field for the
    channels in schema order, then one object field per label and subject
    column, so a column the schema names twice is read twice from the same
    cell.  The channel matrix returned is a strided view of the records."""
    if schema.delimiter in '"\r\n':  # delimiters numpy's reader does not take
        return None
    if _may_hold_long_cell(path):
        # csv.reader refuses a cell longer than its limit in any column,
        # while numpy takes it; the per-cell loop reports it
        start = fh.tell()
        try:
            for _ in csv.reader(fh, delimiter=schema.delimiter):
                pass
        except csv.Error:
            return None
        fh.seek(start)
    text_cols = [col[c] for c in (schema.label, schema.subject) if c]
    texts = [(f"t{i}", object) for i in range(len(text_cols))]
    record = np.dtype([("v", np.float64, (len(schema.channels),)), *texts])
    try:
        with warnings.catch_warnings():
            # no data rows is declined below; _read_cells raises EmptyInputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                fh, dtype=record, delimiter=schema.delimiter, comments=None, quotechar='"',
                ndmin=1, usecols=[*(col[ch] for ch in schema.channels), *text_cols],
            )
    except ValueError:
        return None
    values = rows["v"]
    if not len(values) or not np.isfinite(values).all():
        return None
    return values, [rows[name] for name in record.names[1:]]  # label, then subject


def _recordings(values: np.ndarray, text, schema: CsvSchema) -> list:
    """Group the rows of both readers into Recordings.

    values is the (N, C) float64 channel matrix, channels in schema order;
    text holds the raw label and subject cells as (N,) object arrays (in
    that order, each column present only when the schema names it).  The
    cells are stripped; subjects keep the order of their first row, rows
    keep file order within a subject, each channel is one contiguous
    float64 array, labels are a str array sized to the longest label of its
    subject, and a file without a subject column is the one subject
    "default".

    The grouping costs per run of rows with equal raw label and subject
    cells, not per row: only each run's first cells are stripped, numbered
    and cast to str, and rows take their run's values by np.repeat."""
    heads, sizes = _runs(text, len(values))
    firsts = [[s.strip() for s in cells[heads].tolist()] for cells in text]
    names = firsts[-1] if schema.subject else ["default"] * len(heads)
    subjects = {}  # stripped subject -> its number, in order of first appearance
    run_subject = np.array([subjects.setdefault(s, len(subjects)) for s in names])
    rows = _groups(np.repeat(run_subject, sizes))
    labels = np.array(firsts[0], dtype=object) if schema.label else None
    # each gather is one new contiguous array, so values is the only other copy
    return [
        Recording(
            subject_id=name,
            channels={ch: values[own, j] for j, ch in enumerate(schema.channels)},
            labels=None if labels is None else np.repeat(labels[runs].astype(str), sizes[runs]),
        )
        for name, own, runs in zip(subjects, rows, _groups(run_subject))
    ]


def _runs(columns, n: int) -> tuple:
    """The first row and the length of each run of the n rows in which no
    1-D column changes value: one compare per column, not a loop per row."""
    starts = np.arange(n) == 0  # row 0 starts the first run
    for col in columns:
        starts[1:] |= col[1:] != col[:-1]
    heads = np.flatnonzero(starts)
    return heads, np.diff(heads, append=n)


def _groups(codes: np.ndarray) -> list:
    """The positions of each code 0, 1, ... in codes, each in order (a
    stable sort of codes that never decrease is one linear pass)."""
    return np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])


# The long-cell pre-check reads the file in chunks of about this many bytes.
_SCAN_BYTES = 1 << 20


def _may_hold_long_cell(path) -> bool:
    """False only when no cell of the file can be longer than
    csv.field_size_limit() characters.

    A cell's value is no longer than its text, in characters or in UTF-8
    bytes, and a cell that is not quoted lies within one line.  So a file
    without a '"' in which every aligned span of limit // 2 bytes holds a
    line break has no such cell: a line longer than the limit covers one of
    those spans whole.  The scan is a few byte searches per MiB."""
    limit = csv.field_size_limit()
    span = limit // 2
    if span < 4096:  # too many spans to scan cheaply: let the exact check run
        return True
    with open(path, "rb") as raw:
        while chunk := raw.read(span * max(1, _SCAN_BYTES // span)):
            if b'"' in chunk:
                return True
            for i in range(0, len(chunk) - span + 1, span):
                if chunk.find(b"\n", i, i + span) < 0 and chunk.find(b"\r", i, i + span) < 0:
                    return True
    return False


def _read_cells(fh, path, schema: CsvSchema, col: dict) -> tuple:
    """load_csv's per-cell loop and its only error path: the rows from fh's
    position on as the (N, C) float64 channel matrix and the label and
    subject cells, or the error that names the bad row."""
    n_cells = max(col.values()) + 1
    text_cols = [col[c] for c in (schema.label, schema.subject) if c]
    values, text = [], []
    for row_no, row in _numbered_rows(fh, path, schema.delimiter):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < n_cells:
            raise CsvParseError(
                f"{path}: row {row_no}: {len(row)} cells, the schema needs {n_cells}"
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
            values.append(value)
        text.append([row[c] for c in text_cols])
    if not text:
        raise EmptyInputError(f"{path}: no data rows")
    return np.array(values).reshape(len(text), -1), np.array(text, dtype=object).T


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
    check_int(window_len, "window_len", 1)
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError(f"moving_average takes a 1-D signal, got shape {x.shape}")
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
    check_int(window_samples, "window_samples", 1)
    check_int(stride, "stride", 1)


# The blocked window statistics keep each temporary to about this many bytes.
_BLOCK_BYTES = 1 << 18


def _window_stats(S: np.ndarray, n: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous (n_windows, 7 * C) out with the FEATURE_STATS
    of every n-sample window of each row of the (C, L) float64 S, seven
    stats per channel in order, and return it.

    Windows go in blocks whose (rows, C, n) temporaries hold about
    _BLOCK_BYTES, so memory stays flat however long the recording.  Each
    reduction runs along the contiguous last axis, one window at a time, as
    numpy's 1-D reductions of that window do, so every statistic equals
    reference.channel_features bit for bit; std is sqrt(add.reduce(d * d) /
    n) over d = window - mean, the operations of numpy's var, and d also
    gives the zero-crossing signs."""
    if not len(out):  # also when the windows are longer than S
        return out
    V = sliding_window_view(S, n, axis=-1)[:, ::stride].transpose(1, 0, 2)
    stats = out.reshape(len(V), len(S), len(FEATURE_STATS))
    step = max(1, _BLOCK_BYTES // (8 * V[0].size))
    for i in range(0, len(V), step):
        B, o = V[i : i + step], stats[i : i + step]
        o[..., 0] = mean = np.add.reduce(B, axis=-1) / n
        d = B - mean[..., None]
        o[..., 1] = np.sqrt(np.add.reduce(d * d, axis=-1) / n)
        o[..., 2] = np.minimum.reduce(B, axis=-1)
        o[..., 3] = np.maximum.reduce(B, axis=-1)
        o[..., 4] = np.sqrt(np.add.reduce(B * B, axis=-1) / n)
        o[..., 5] = np.add.reduce(np.abs(np.diff(B)), axis=-1) / max(n - 1, 1)  # 0 if n == 1
        signs = np.sign(d)
        o[..., 6] = np.count_nonzero(signs[..., :-1] * signs[..., 1:] < 0, axis=-1)
    return out


def window_labels(labels, window_samples: int, stride: int) -> np.ndarray:
    """Each window's majority label, window i covering labels[i * stride :
    i * stride + window_samples] as in build_dataset; ties go to the lowest
    label in sorted order.  The labels are coded by runs of equal labels,
    so np.unique sorts only each run's first label."""
    _check_window(window_samples, stride)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InvalidArgumentError(f"window_labels takes 1-D labels, got shape {labels.shape}")
    if len(labels) < window_samples:
        return labels[:0]
    heads, sizes = _runs([labels], len(labels))
    uniq, run_codes = np.unique(labels[heads], return_inverse=True)
    codes = np.repeat(run_codes, sizes)
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
    window features, concatenated in channel_order, recordings stacked in
    order.  A recording's smoothed channels are stacked into one (C, n)
    array, and one blocked pass writes the statistics of every channel of
    every window straight into its rows of X (see _window_stats)."""
    _check_window(window_samples, stride)
    if isinstance(channel_order, str) or len(channel_order) == 0:
        raise SchemaError(f"channel_order must be a non-empty list of names, got {channel_order!r}")
    if len(set(channel_order)) != len(channel_order):
        raise SchemaError(f"duplicate names in channel_order {channel_order!r}")
    recordings = list(recordings)
    for rec in recordings:
        missing = [ch for ch in channel_order if ch not in rec.channels]
        if missing:
            raise SchemaError(f"recording {rec.subject_id!r} has no channels {missing}")
    kept = [rec for rec in recordings if rec.n_samples >= window_samples]
    counts = [(rec.n_samples - window_samples) // stride + 1 for rec in kept]
    # one matrix filled in place: nothing per recording outlives its pass
    X = np.empty((sum(counts), len(FEATURE_STATS) * len(channel_order)))
    y, subjects, start = [np.empty(0, dtype=str)], [np.empty(0, dtype=str)], 0
    for rec, n in zip(kept, counts):
        # each smoothed channel is copied into S as it is made, not kept in a list
        smoothed = (moving_average(rec.channels[ch], smooth) for ch in channel_order)
        S = np.fromiter(smoothed, (np.float64, rec.n_samples), len(channel_order))
        _window_stats(S, window_samples, stride, X[start : start + n])
        start += n
        labeled = rec.labels is not None
        y.append(window_labels(rec.labels, window_samples, stride) if labeled else np.full(n, None))
        subjects.append(np.full(n, rec.subject_id))
    return WindowedDataset(
        X=X,
        y=np.concatenate(y),
        subjects=np.concatenate(subjects),
        feature_names=[f"{ch}_{stat}" for ch in channel_order for stat in FEATURE_STATS],
        skipped_recordings=len(recordings) - len(kept),
        window_samples=window_samples,
        stride=stride,
    )


def fit_stats(ds: WindowedDataset) -> FeatureStats:
    """Per-feature min/max over (training) windows only."""
    if len(ds) == 0:
        raise EmptyInputError("cannot fit statistics on an empty split")
    return FeatureStats(mins=ds.X.min(axis=0), maxs=ds.X.max(axis=0))


_SPLIT_STREAM = 2**32


def split_random(ds: WindowedDataset, seed: int, fraction: float = 0.5):
    """Seeded shuffle, first `fraction` of windows to train."""
    if isinstance(fraction, bool) or not (isinstance(fraction, numbers.Real) and 0 < fraction < 1):
        raise InvalidArgumentError(f"fraction must be a real in (0, 1), got {fraction!r}")
    n = len(ds)
    order = rng(seed, _SPLIT_STREAM).permutation(n)
    n_train = int(n * fraction)
    return ds.select(order[:n_train]), ds.select(order[n_train:])


def split_personalize(ds: WindowedDataset, subject):
    """(population, adapt, test) for personalizing a population model to one
    held-out subject: population is every other subject's windows, adapt
    the first half of the subject's windows in dataset order, and test the
    rest of them, minus the ceil(window_samples / stride) - 1 windows right
    after adapt that can share samples with adapt's last window.  Windows i
    and j of a recording overlap iff |i - j| * stride < window_samples.

    Raises UnknownSubjectError for a subject the dataset lacks and
    EmptyInputError when any of the three parts would be empty."""
    # a subject id is one str; a list would be compared with every row
    held = np.flatnonzero(ds.subjects == subject) if isinstance(subject, str) else []
    if not len(held):
        raise UnknownSubjectError(f"unknown subject {subject!r}")
    half = len(held) // 2
    parts = (
        ds.select(np.flatnonzero(ds.subjects != subject)),
        ds.select(held[:half]),
        # (window_samples - 1) // stride = ceil(window_samples / stride) - 1
        ds.select(held[half + (ds.window_samples - 1) // ds.stride :]),
    )
    if not all(map(len, parts)):
        raise EmptyInputError(f"subject {subject!r}: part sizes {list(map(len, parts))}")
    return parts


def split(ds: WindowedDataset, strategy: str, seed: int = 0, fraction: float = 0.5):
    """split_random(ds, seed, fraction) for strategy "random", the only one."""
    if strategy != "random":
        raise InvalidArgumentError(f"unknown split strategy {strategy!r}")
    return split_random(ds, seed, fraction)
