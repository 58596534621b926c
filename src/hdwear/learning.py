"""Class-hypervector model: adaptive single-pass online training, iterative
retraining on mispredictions, batch prediction, evaluation, and
serialization.

Training updates, with delta_l = cosine(H, C_l) and learning rate eta:

    online (every sample):        C_l += eta * (1 - delta_l) * H
    retrain (on misprediction,
    true label l, predicted l'):  C_l  += eta * (delta_l' - delta_l) * H
                                  C_l' -= eta * (delta_l' - delta_l) * H

A zero-norm class vector contributes delta = 0 by convention.  Class
vectors are stored float32 (matching the on-disk format, so save/load
round-trips bit-exactly); each retrain increment is computed once and
applied with both signs, so the two touched rows move by exact
component-wise negatives.

Training is sequential by design (each sample sees every earlier update),
so it scores one query at a time with :func:`similarities`.  Inference is
not: :func:`predict` scores an (N, D) batch against the class matrix with
one matrix product, and :func:`evaluate` feeds it the test set in blocks of
at most ``_BLOCK_ROWS`` stacked rows from :func:`query_blocks`.  Both use
the same cosine formula, so the batch and per-row paths pick the same class.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncoderConfig
from .errors import (
    BadMagicError,
    ChecksumError,
    DimensionMismatchError,
    EmptyDatasetError,
    HDWearError,
    InvalidArgumentError,
    ModelIOError,
    ModelNotTrainedError,
    TruncatedModelError,
    UnknownClassError,
    UnsupportedVersionError,
)
from .hv import rng

MAGIC = b"HDWM"
FORMAT_VERSION = 1


def _utf8_encodable(label: str) -> bool:
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(eq=False)
class Model:
    """Per-class accumulators plus everything needed to reproduce encodings.

    Class labels are UTF-8 encodable ``str``, so they round-trip through the
    model file; ``eta`` is a finite real > 0.

    ``retrain_curve`` (misses per retraining epoch) is runtime metadata, not
    persisted.
    """

    classes: list
    encoder: EncoderConfig
    eta: float = 0.5
    class_matrix: np.ndarray = None  # type: ignore[assignment]
    retrain_curve: list = field(default_factory=list)

    def __post_init__(self):
        if not self.classes:
            raise UnknownClassError("model needs at least one class")
        if not all(isinstance(c, str) and _utf8_encodable(c) for c in self.classes):
            raise InvalidArgumentError(
                f"class labels must be UTF-8 encodable str, got {self.classes!r}"
            )
        if len(set(self.classes)) != len(self.classes):
            raise UnknownClassError("duplicate class labels")
        if not (isinstance(self.eta, numbers.Real) and math.isfinite(self.eta) and self.eta > 0):
            raise InvalidArgumentError(f"eta must be a finite real > 0, got {self.eta!r}")
        k = len(self.classes)
        if self.class_matrix is None:
            self.class_matrix = np.zeros((k, self.encoder.dim), dtype=np.float32)
        else:
            self.class_matrix = np.asarray(self.class_matrix, dtype=np.float32)
            if self.class_matrix.shape != (k, self.encoder.dim):
                raise DimensionMismatchError(
                    f"class matrix shape {self.class_matrix.shape} != "
                    f"({k}, {self.encoder.dim})"
                )
        self._index = {c: i for i, c in enumerate(self.classes)}

    @property
    def dim(self) -> int:
        return self.encoder.dim

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def is_trained(self) -> bool:
        return bool(np.any(self.class_matrix))

    def class_index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownClassError(f"unknown class {label!r}") from None

    def copy(self) -> "Model":
        return Model(
            classes=list(self.classes),
            encoder=self.encoder,
            eta=self.eta,
            class_matrix=self.class_matrix.copy(),
            retrain_curve=list(self.retrain_curve),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and self.classes == other.classes
            and self.encoder == other.encoder
            and self.eta == other.eta
            and np.array_equal(self.class_matrix, other.class_matrix)
        )


def similarities(model: Model, H) -> np.ndarray:
    """Cosine of H against every class vector; zero-norm rows give 0."""
    h = np.asarray(H, dtype=np.float64)
    if h.shape != (model.dim,):
        raise DimensionMismatchError(f"query dim {h.shape} != ({model.dim},)")
    hn = np.linalg.norm(h)
    M = model.class_matrix.astype(np.float64)
    dots = M @ h
    norms = np.linalg.norm(M, axis=1)
    out = np.zeros(model.n_classes)
    ok = (norms > 0) & (hn > 0)
    out[ok] = dots[ok] / (norms[ok] * hn)
    return out


def train_online(model: Model, stream) -> Model:
    """Single sequential pass of adaptive updates; order matters by design.

    Each (H, label) moves only the true class row, by H scaled by how much
    new information it carries: eta * (1 - delta).  Mutates and returns
    model."""
    for H, label in stream:
        li = model.class_index(label)
        delta = similarities(model, H)[li]
        if delta != 1.0:
            inc = (model.eta * (1.0 - delta) * np.asarray(H, dtype=np.float64)).astype(np.float32)
            model.class_matrix[li] += inc
    return model


def retrain_epoch(model: Model, dataset) -> tuple[Model, int]:
    """One pass updating only on mispredictions; later samples in the epoch
    see earlier updates.  Returns (model, misprediction count)."""
    if not model.is_trained:
        raise ModelNotTrainedError("retraining starts from a trained model")
    misses = 0
    for H, label in dataset:
        li = model.class_index(label)
        sims = similarities(model, H)
        pi = int(np.argmax(sims))
        if pi != li:
            misses += 1
            h = np.asarray(H, dtype=np.float64)
            inc = (model.eta * (sims[pi] - sims[li]) * h).astype(np.float32)
            model.class_matrix[li] += inc
            model.class_matrix[pi] -= inc
    return model, misses


_SHUFFLE_STREAM = 0


def train_iterative(
    model: Model,
    dataset,
    max_epochs: int = 30,
    patience: int = 3,
    shuffle_seed: int | None = None,
) -> Model:
    """Retrain until the training misprediction count stops improving for
    `patience` consecutive epochs (or max_epochs); returns the epoch-end
    snapshot with the fewest mispredictions.

    Samples are visited in dataset order unless shuffle_seed is given, in
    which case each epoch uses a fresh seeded permutation.
    """
    dataset = list(dataset)
    best = model.copy()
    best_misses = None
    bad_epochs = 0
    curve = []
    shuffler = None if shuffle_seed is None else rng(shuffle_seed, _SHUFFLE_STREAM)
    for _ in range(max_epochs):
        epoch_data = dataset
        if shuffler is not None:
            epoch_data = [dataset[i] for i in shuffler.permutation(len(dataset))]
        model, misses = retrain_epoch(model, epoch_data)
        curve.append(misses)
        if best_misses is None or misses < best_misses:
            best_misses = misses
            best = model.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > patience:
                break
        if misses == 0:
            break
    best.retrain_curve = curve
    return best


# Rows scored per step.  Casting the whole wide-highdim benchmark test set
# (D = 10000) to float64 at once raised peak RSS from about 73.5 to
# 81.7-95.3 MiB, past the benchmark's 10% bound; 16-row blocks measured
# 74.4-74.9 MiB.
_BLOCK_ROWS = 16


def query_blocks(pairs, dim: int):
    """Yield the queries of (H, label) pairs as stacked (n, dim) blocks of at
    most _BLOCK_ROWS rows, in order; every H must have shape (dim,)."""
    for H, _ in pairs:
        if np.shape(H) != (dim,):
            raise DimensionMismatchError(f"query dim {np.shape(H)} != ({dim},)")
    for start in range(0, len(pairs), _BLOCK_ROWS):
        yield np.stack([H for H, _ in pairs[start : start + _BLOCK_ROWS]])


def predict(model: Model, H) -> np.ndarray:
    """Index into model.classes of the most similar class for each row of an
    (N, D) batch, as (N,) int64; ties resolve to the lowest class index and
    a zero-norm class or query scores 0."""
    if not model.is_trained:
        raise ModelNotTrainedError("model has not been trained")
    h = np.asarray(H, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.dim:
        raise DimensionMismatchError(f"query batch shape {h.shape} != (N, {model.dim})")
    M = model.class_matrix.astype(np.float64)
    den = np.linalg.norm(h, axis=1)[:, None] * np.linalg.norm(M, axis=1)
    scores = np.divide(h @ M.T, den, out=np.zeros(den.shape), where=den > 0)
    return scores.argmax(axis=1)


@dataclass
class EvalReport:
    """Accuracy, confusion counts (row = true class, column = predicted),
    and per-class recall."""

    classes: list
    accuracy: float
    confusion: np.ndarray
    per_class_recall: np.ndarray
    n_samples: int


def evaluate(model: Model, dataset) -> EvalReport:
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    truth = np.array([model.class_index(label) for _, label in dataset])
    pred = np.concatenate([predict(model, H) for H in query_blocks(dataset, model.dim)])
    k = model.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    row_sums = confusion.sum(axis=1)
    recall = np.divide(
        np.diag(confusion),
        row_sums,
        out=np.zeros(k, dtype=np.float64),
        where=row_sums > 0,
    )
    return EvalReport(
        classes=list(model.classes),
        accuracy=correct / total,
        confusion=confusion,
        per_class_recall=recall,
        n_samples=total,
    )


# ------------------------------------------------------------- serialization
#
# Layout (all integers little-endian):
#   magic "HDWM" | u16 version | u32 D | u32 K | u32 Q | u32 reserved | f64 eta
#   | u64 reserved | u64 level_seed | u64 sensor_seed | u64 tie_seed
#   | u32 F | F x (f64 v_min, f64 v_max)
#   | K x (u32 byte_len, UTF-8 label)
#   | K x D f32 class components (row-major)
#   | u32 CRC32 of all preceding bytes
#
# The two reserved slots are written as 3 and 0 and ignored on read.  Nothing
# may follow the CRC.

_RESERVED = (3, 0)


def model_to_bytes(model: Model) -> bytes:
    enc = model.encoder
    head = struct.pack(
        "<4sHIIIId4QI",
        MAGIC,
        FORMAT_VERSION,
        enc.dim,
        model.n_classes,
        enc.q_levels,
        _RESERVED[0],
        model.eta,
        _RESERVED[1],
        enc.level_seed,
        enc.sensor_seed,
        enc.tie_seed,
        enc.n_features,
    )
    parts = [head]
    for lo, hi in enc.feature_bounds:
        parts.append(struct.pack("<dd", float(lo), float(hi)))
    for label in model.classes:
        raw = label.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)
    parts.append(model.class_matrix.astype("<f4").tobytes())
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedModelError(
                f"file ends at byte {len(self.blob)}, needed {self.pos + n}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def model_from_bytes(blob: bytes) -> Model:
    """Parse a model file; any malformed blob raises a ModelIOError."""
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    r = _Reader(blob)
    r.take(4)
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    dim, k, q, _ = r.unpack("<IIII")
    (eta,) = r.unpack("<d")
    _, level_seed, sensor_seed, tie_seed = r.unpack("<4Q")
    (n_features,) = r.unpack("<I")
    bounds = [r.unpack("<dd") for _ in range(n_features)]
    classes = []
    for _ in range(k):
        (ln,) = r.unpack("<I")
        try:
            classes.append(r.take(ln).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelIOError(f"class label is not valid UTF-8: {exc}") from None
    matrix = np.frombuffer(r.take(4 * k * dim), dtype="<f4").reshape(k, dim)
    payload_end = r.pos
    (stored_crc,) = r.unpack("<I")
    if zlib.crc32(blob[:payload_end]) != stored_crc:
        raise ChecksumError("model file checksum mismatch")
    if r.pos != len(blob):
        raise ModelIOError(f"{len(blob) - r.pos} trailing bytes after the checksum")
    try:
        encoder = EncoderConfig(
            dim=dim,
            q_levels=q,
            level_seed=level_seed,
            sensor_seed=sensor_seed,
            tie_seed=tie_seed,
            feature_bounds=[(lo, hi) for lo, hi in bounds],
        )
        return Model(classes=classes, encoder=encoder, eta=eta, class_matrix=matrix.copy())
    except HDWearError as exc:
        raise ModelIOError(f"invalid model: {exc}") from exc


def save_model(model: Model, path) -> None:
    """Write atomically and durably: temp file in the target directory,
    fsync, rename, then fsync the directory so the rename survives a crash."""
    blob = model_to_bytes(model)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
