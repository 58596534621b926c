"""CSV ingestion, preprocessing, sliding-window segmentation, feature
extraction, and train/test splitting.

The feature set is seven generic window statistics per channel (mean, std,
min, max, RMS, mean absolute first difference, zero crossings of the
mean-removed window), concatenated across channels in schema order.
Quantization bounds are fit on the training split only and frozen into the
model; test-time values outside the bounds are clamped, never rejected.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

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


@dataclass
class Recording:
    """One subject's contiguous multi-channel stream."""

    subject_id: str
    channels: dict  # channel name -> np.ndarray
    labels: np.ndarray | None = None  # per-sample, parallel to the channels

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))


@dataclass
class Window:
    """One segmented window: raw per-channel arrays before feature
    extraction, a flat feature vector afterwards."""

    data: object
    label: str | None
    subject_id: str


@dataclass
class FeatureStats:
    mins: np.ndarray
    maxs: np.ndarray

    def bounds(self) -> list:
        return [(float(lo), float(hi)) for lo, hi in zip(self.mins, self.maxs)]


@dataclass
class WindowedDataset:
    windows: list
    feature_names: list = field(default_factory=list)
    skipped_recordings: int = 0

    def __len__(self):
        return len(self.windows)

    @property
    def X(self) -> np.ndarray:
        return np.array([w.data for w in self.windows], dtype=np.float64)

    @property
    def y(self) -> list:
        return [w.label for w in self.windows]

    @property
    def subjects(self) -> list:
        return [w.subject_id for w in self.windows]

    def subject_ids(self) -> list:
        seen = dict.fromkeys(w.subject_id for w in self.windows)
        return list(seen)

    def select(self, indices) -> "WindowedDataset":
        return replace(self, windows=[self.windows[i] for i in indices])


def load_csv(path, schema: CsvSchema) -> list:
    """Parse one CSV into per-subject Recordings (subjects keep file order).

    Header must contain every schema column; any non-numeric or non-finite
    channel cell fails with its data-row number (1-based, excluding header).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        wanted = list(schema.channels)
        if schema.label:
            wanted.append(schema.label)
        if schema.subject:
            wanted.append(schema.subject)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}; header {header}")
        col = {name: header.index(name) for name in wanted}

        per_subject: dict[str, dict] = {}
        n_rows = 0
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            n_rows += 1
            subject = row[col[schema.subject]].strip() if schema.subject else "default"
            bucket = per_subject.setdefault(
                subject,
                {ch: [] for ch in schema.channels} | {"labels": []},
            )
            for ch in schema.channels:
                cell = row[col[ch]].strip()
                try:
                    value = float(cell)
                except (ValueError, IndexError):
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


def _window_label(labels, policy: str) -> str:
    if policy == "last":
        return labels[-1]
    if policy == "majority":
        uniq, counts = np.unique(np.asarray(labels), return_counts=True)
        # ties resolve to the earliest label in sorted order (np.unique sorts)
        return str(uniq[np.argmax(counts)])
    raise InvalidArgumentError(f"unknown label policy {policy!r}")


def segment(
    rec: Recording,
    window_samples: int,
    stride: int,
    label_policy: str = "majority",
) -> list:
    """Slide a window across all channels in lockstep; one Window per
    position.  A recording shorter than the window yields no windows."""
    if window_samples < 1 or stride < 1:
        raise InvalidArgumentError("window_samples and stride must be >= 1")
    n = rec.n_samples
    out = []
    for start in range(0, n - window_samples + 1, stride):
        stop = start + window_samples
        data = {ch: arr[start:stop] for ch, arr in rec.channels.items()}
        label = None
        if rec.labels is not None:
            label = _window_label(list(rec.labels[start:stop]), label_policy)
        out.append(Window(data=data, label=label, subject_id=rec.subject_id))
    return out


def channel_features(x) -> np.ndarray:
    """The seven per-channel window statistics, in FEATURE_STATS order."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise InvalidArgumentError("cannot extract features from an empty window")
    mean = float(np.mean(x))
    centered = x - mean
    diffs = np.abs(np.diff(x))
    signs = np.sign(centered)
    zcross = int(np.sum(signs[:-1] * signs[1:] < 0))
    return np.array(
        [
            mean,
            float(np.std(x)),
            float(np.min(x)),
            float(np.max(x)),
            float(np.sqrt(np.mean(x * x))),
            float(np.mean(diffs)) if diffs.size else 0.0,
            float(zcross),
        ]
    )


def extract_features(window_channels, channel_order) -> np.ndarray:
    """Concatenate channel_features across channels in the given order."""
    return np.concatenate([channel_features(window_channels[ch]) for ch in channel_order])


def feature_names(channel_order) -> list:
    return [f"{ch}_{stat}" for ch in channel_order for stat in FEATURE_STATS]


def build_dataset(
    recordings,
    channel_order,
    window_samples: int,
    stride: int,
    label_policy: str = "majority",
    smooth: int = 1,
) -> WindowedDataset:
    """recordings -> (optional moving average) -> windows -> feature vectors."""
    windows = []
    skipped = 0
    for rec in recordings:
        if smooth > 1:
            rec = Recording(
                subject_id=rec.subject_id,
                channels={ch: moving_average(arr, smooth) for ch, arr in rec.channels.items()},
                labels=rec.labels,
            )
        segs = segment(rec, window_samples, stride, label_policy)
        if not segs:
            skipped += 1
        for w in segs:
            windows.append(
                Window(
                    data=extract_features(w.data, channel_order),
                    label=w.label,
                    subject_id=w.subject_id,
                )
            )
    return WindowedDataset(
        windows=windows,
        feature_names=feature_names(channel_order),
        skipped_recordings=skipped,
    )


def fit_stats(ds: WindowedDataset) -> FeatureStats:
    """Per-feature min/max over (training) windows only."""
    if not ds.windows:
        raise EmptyInputError("cannot fit statistics on an empty split")
    X = ds.X
    return FeatureStats(mins=X.min(axis=0), maxs=X.max(axis=0))


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
    train_idx, test_idx = [], []
    for subject in ds.subject_ids():
        idx = [i for i, w in enumerate(ds.windows) if w.subject_id == subject]
        half = len(idx) // 2
        train_idx.extend(idx[:half])
        test_idx.extend(idx[half:])
    return ds.select(sorted(train_idx)), ds.select(sorted(test_idx))


def split_leave_one_subject_out(ds: WindowedDataset, subject: str, seed: int):
    """Train on every other subject; test on a seeded random half of the
    held-out subject's windows."""
    subjects = ds.subject_ids()
    if subject not in subjects:
        raise UnknownSubjectError(f"unknown subject {subject!r}")
    if len(subjects) < 2:
        raise InvalidArgumentError("leave-one-subject-out needs at least 2 subjects")
    train_idx = [i for i, w in enumerate(ds.windows) if w.subject_id != subject]
    held = [i for i, w in enumerate(ds.windows) if w.subject_id == subject]
    order = rng(seed, _SPLIT_STREAM).permutation(len(held))
    picked = sorted(held[i] for i in order[: len(held) // 2])
    return ds.select(train_idx), ds.select(picked)


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
