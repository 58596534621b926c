"""Class-hypervector model: adaptive online training, iterative retraining
on mispredictions, batch prediction, evaluation, and serialization.

Training updates, with delta_l = cosine(H, C_l) and learning rate eta:

    online (every sample):        C_l  += eta * (1 - delta_l)  * H
    retrain (on misprediction,
    true label l, predicted l'):  C_l  += eta * (1 - delta_l)  * H
                                  C_l' -= eta * (1 - delta_l') * H

Both are the updates of OnlineHD (Hernandez-Cano et al., DATE 2021); the
source paper's abstract pins neither rule.  A miss moves each of its two
rows by how far that row is from H, so retraining lowers the training
misses even when the class rows are correlated, where a rule that moves
both rows by eta * (delta_l' - delta_l) * H barely moves them.  A zero-norm class vector
or query contributes delta = 0 by convention.  Class vectors are stored
float32 (matching the on-disk format, so save/load round-trips
bit-exactly), in a buffer of the model's own that starts on a 64-byte
boundary (:func:`_aligned`).

Training is one float32 kernel (:func:`_learn`) over blocks of
_TRAIN_ROWS = 16 queries, for train_online and train_iterative alike.  Each
block B is scored against the class rows M as they stand at the block's
start: the product M @ B.T, scaled by the reciprocals of the class and of
the query norms (0 for a zero norm).  Its updates fill a (K, n) float32
weight matrix W, online W[l_i, i] = eta (1 - delta_i) and in retraining,
for each miss, W[l, i] = eta (1 - delta_l) and W[l', i] = -eta (1 - delta_l');
one product W[rows] @ B moves the rows with a nonzero weight, and only
their norms are taken again.  So a sample sees the updates of every earlier
block but not those of its own.  Sixteen rows is a constant of the update
rule, kept apart from _block_rows(D): 64-row blocks changed the online
pass's accuracy.  Every training norm sums its squares in float64
(:func:`_inverse_norms`), so a finite float32 row never has an infinite
norm.

The kernel casts the queries in chunks C of as many whole blocks as fit in
_CHUNK_BYTES as float32 (:func:`_chunk_rows`: 128, 32 and 16 rows at
D = 1024, 4096 and 10000), each into one reused aligned buffer
(:func:`_float_blocks`), and takes a chunk's query norms in one call, on
the first pass of a call only.  Retraining scores every whole block left in
the chunk with one stacked product,
``np.matmul(M, C[lo:lo + 16 nb].reshape(nb, 16, D).transpose(0, 2, 1))``,
and scales, takes the argmax and compares in one step each.  The blocks
before the first one with a miss make no update, so they are done; that
block makes its update and scoring starts again at the next one.  Online
training updates on every block, so it scores one per product, and a tail
of fewer than 16 rows is scored on its own.  This is bit for bit the
result of scoring each block alone: a stacked matmul runs one sgemm per
slice, of the same (K, D) @ (D, 16) shape as M @ B.T; the scaling and the
argmax are elementwise and the query norms per row; and :func:`_finite`
checks the scores of each block before that block is decided, while the
scores of blocks not yet used go unchecked (they are scored again after
the update).  One wide product M @ C.T would not do: its columns round
otherwise than 16-column products on every OpenBLAS kernel tried.  The
results depend on the BLAS kernel's summation order, not on where an
operand starts in memory.

Overflow.  Training, predict and evaluate run their casts and products
with numpy's warnings off.  A query whose float32 cast is not finite, a
score (an entry of M @ B.T) that is not, or a training update that takes a
class component past the float32 range raises InvalidSampleError naming
the overflow (:func:`_finite`), before any result is returned; a training
call then leaves the class matrix (and retrain_curve) as it received them
(:func:`_restored_on_overflow`).  So all four calls take exactly the
queries whose float32 cast and scores are finite, and a query whose cast
underflows to zero is scored as that zero.

Prediction is the float32 argmax.  :func:`predict` and :func:`evaluate`
(:func:`_best`) score each block of :func:`_block_rows` queries with one
float32 product ``model.class_matrix @ B.T``, times the reciprocals of the
class norms taken once per call (0 for a zero row), and take the argmax,
the lowest index on ties (the batched design follows Torchhd, Heddes et
al., JMLR 2023).  The query norm is left out: one positive factor per
column cannot reorder a query's classes, and a zero query scores 0
everywhere and takes class 0.  So a decision is the float32 one: two
classes whose cosines lie closer than about D eps32 may resolve
differently from a float64 scorer and between BLAS kernels, whose
summation orders differ, and CI compares digests within one kernel only.
Over seeds 1-10 of the benchmark's workloads the top-1/top-2 cosine gap
has a median of about 0.1, and none of 12,230 test decisions differed from
the float64 scorer's.
:func:`_float_blocks` is the one place that cuts and casts queries, into
training's chunks and prediction's blocks: it takes a list of (D,) rows or
one (N, D) array and casts each run straight into one reused float32
buffer, and the callers slice their class indices by each run's start.

Inputs are checked once, where they enter.  :class:`Model` is frozen, so
its fields are checked only at construction and cannot be rebound later.
Training works on one model in place and returns that same object:
:func:`train_online` changes only its class matrix, and
:func:`train_iterative` leaves in it the class matrix of its best epoch
(kept as one copy of the matrix) and the misses of every epoch in its
``retrain_curve`` list.
:func:`labelled_blocks` is the one boundary for (H, label) pairs: the
training loops, :func:`evaluate` and the robustness sweep all take their
pairs through it, and it checks every pair (an iterable of 2-item pairs,
known label, shape (D,), finite real components) before the first one is
scored or learned, so a bad pair anywhere in a stream leaves the model
unchanged.  It only checks: it returns the class indices and the queries
as they came, and _float_blocks cuts and casts them.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .encoding import EncoderConfig, _check_real, _is_float64
from .errors import (
    BadMagicError,
    ChecksumError,
    DimensionMismatchError,
    EmptyInputError,
    HDWearError,
    InvalidArgumentError,
    InvalidSampleError,
    ModelIOError,
    ModelNotTrainedError,
    TruncatedModelError,
    UnknownClassError,
    UnsupportedVersionError,
)
from .hv import check_int

MAGIC = b"HDWM"
FORMAT_VERSION = 1


def _utf8_encodable(label: str) -> bool:
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(eq=False, frozen=True)
class Model:
    """Per-class accumulators plus everything needed to reproduce encodings.

    Class labels are UTF-8 encodable ``str``, so they round-trip through the
    model file, and are kept as a tuple; ``eta`` is a real > 0 that float64
    holds exactly, so it round-trips too, and whose float32 cast is finite,
    as training's weights are (a larger eta could learn no sample); the
    class matrix is finite once
    cast to float32, and the model keeps it in a 64-byte-aligned buffer of
    its own (a copy, never the caller's array).  The fields are frozen once
    checked; training updates ``class_matrix`` in place.

    ``retrain_curve`` (misses per epoch of the last train_iterative call,
    which fills it in place) is runtime output, neither a constructor
    argument nor persisted.
    """

    classes: tuple
    encoder: EncoderConfig
    eta: float = 0.5
    class_matrix: np.ndarray = None  # type: ignore[assignment]
    retrain_curve: list = field(default_factory=list, init=False)

    def __post_init__(self):
        try:  # a str would split into one class per character
            classes = None if isinstance(self.classes, str) else tuple(self.classes)
        except TypeError:  # not iterable
            classes = None
        if classes is None:
            raise InvalidArgumentError(f"classes must be a list of labels, got {self.classes!r}")
        # a tuple, so that the class count the model file records cannot change
        object.__setattr__(self, "classes", classes)
        if not isinstance(self.encoder, EncoderConfig):
            raise InvalidArgumentError(f"encoder must be an EncoderConfig, got {self.encoder!r}")
        if not self.classes:
            raise UnknownClassError("model needs at least one class")
        if not all(isinstance(c, str) and _utf8_encodable(c) for c in self.classes):
            raise InvalidArgumentError(
                f"class labels must be UTF-8 encodable str, got {self.classes!r}"
            )
        if len(set(self.classes)) != len(self.classes):
            raise UnknownClassError("duplicate class labels")
        with np.errstate(over="ignore"):  # an eta past the float32 range casts to inf
            if not (_is_float64(self.eta) and self.eta > 0 and np.isfinite(np.float32(self.eta))):
                raise InvalidArgumentError(f"eta must be a float32-finite real > 0: {self.eta!r}")
        shape = (len(self.classes), self.encoder.dim)
        matrix = np.zeros(shape, np.float32) if self.class_matrix is None else self.class_matrix
        try:
            matrix = np.asarray(matrix)
        except ValueError:  # numpy refuses a ragged class matrix
            raise DimensionMismatchError(f"ragged class matrix, not one {shape} array") from None
        if matrix.dtype.kind not in "biuf":  # only these are real; finiteness is checked below
            raise InvalidArgumentError(f"class matrix must be real, got dtype {matrix.dtype}")
        if matrix.shape != shape:
            raise DimensionMismatchError(f"class matrix shape {matrix.shape} != {shape}")
        # The float32 products of training and of prediction ran 20-40%
        # slower with the class matrix at a 16- or 32-byte offset.
        aligned = _aligned(shape)
        with np.errstate(over="ignore"):  # a component float32 cannot hold turns inf
            aligned[...] = matrix
        if not np.isfinite(aligned).all():
            raise InvalidArgumentError("class matrix has a non-finite component")
        object.__setattr__(self, "class_matrix", aligned)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.classes)})

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
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownClassError(f"unknown class {label!r}") from None

    def copy(self) -> "Model":
        twin = replace(self)  # the constructor copies the class matrix
        twin.retrain_curve.extend(self.retrain_curve)
        return twin

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and self.classes == other.classes
            and self.encoder == other.encoder
            and self.eta == other.eta
            and np.array_equal(self.class_matrix, other.class_matrix)
        )


def _aligned(shape: tuple) -> np.ndarray:
    """Uninitialised C-contiguous float32 array of the given shape whose
    data starts on a 64-byte boundary (numpy's own data start on 8 at
    least)."""
    size = math.prod(shape)
    raw = np.empty(size + 16, np.float32)
    start = -raw.ctypes.data % 64 // 4
    return raw[start : start + size].reshape(shape)


def _float_blocks(dim: int, rows, step: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) for each run of at most step queries of rows, a list
    of checked (D,) queries or one (N, D) array, in order: training's
    chunks of _chunk_rows(D), whose 16-row blocks _learn scores with one
    stacked product (the module docstring says why that is bit-identical),
    and prediction's blocks of _block_rows(D).  A block holds
    rows[start : start + len(block)], each row cast to float32 on its own.
    The rows are cast straight into one aligned buffer of min(step, N) rows
    that is reused, so a block is valid until the next one is drawn.  The
    cast runs in the caller's error state, and both callers draw their
    blocks with numpy's warnings off: a component past the float32 range
    turns inf, and the caller sees it in its scores.  Entering an errstate
    per block cost 2 us, against about 25 us per 16-row block of training.
    A list is cast with np.concatenate, which took 5 us for 16 int8 rows of
    D = 1024 where an assignment from the list took 12 us (2-core VM)."""
    buf = _aligned((min(step, len(rows)), dim))
    for start in range(0, len(rows), step):
        B, chunk = buf[: min(step, len(rows) - start)], rows[start : start + step]
        if isinstance(chunk, list):
            np.concatenate(chunk, out=B.reshape(-1), casting="unsafe")
        else:
            B[...] = chunk
        yield start, B


def _finite(a: np.ndarray) -> np.ndarray:
    """a, if every entry is finite; otherwise the call overflowed float32
    (the module docstring gives the contract)."""
    if not np.isfinite(a).all():
        raise InvalidSampleError(
            "float32 overflow: a query, a score or a class component left the float32 range; "
            "the class matrix is left as it was"
        )
    return a


def _inverse_norms(A: np.ndarray) -> np.ndarray:
    """1 / the norm of each row of A, 0 for a zero row, with the squares
    summed in float64, so that only a row that is not finite itself has an
    infinite norm (and raises, _finite).  Each row of the float64 cast is
    reduced by one dot product, as np.dot(row, row) reduces it: 9 us for 16
    rows of D = 1024, against 25 us for the pairwise reduction of
    np.linalg.norm(A, axis=-1)."""
    A = A.astype(np.float64)
    norms = _finite(np.sqrt(np.vecdot(A, A)))
    return np.divide(1.0, norms, out=np.zeros(len(norms)), where=norms > 0)


# Queries per training block: each one is scored against the class rows as
# they stood at its block's start.  A constant of the update rule, not a
# cache size: 64-row blocks changed the online pass's test accuracy.
_TRAIN_ROWS = 16

# Training's chunks (the module docstring): whole blocks of float32 rows
# that fit in these bytes.  A cache size, not a rule: the chunk bounds how
# many blocks one product scores, never what a block sees.  On
# dense-stream's 2083 training queries (D = 1024) a retraining epoch takes
# 29-45 scoring products instead of 131.
_CHUNK_BYTES = 512 << 10


def _chunk_rows(dim: int) -> int:
    """Queries per training chunk: as many whole _TRAIN_ROWS blocks of
    float32 rows of dim components as fit in _CHUNK_BYTES, at least one."""
    return _TRAIN_ROWS * max(1, _CHUNK_BYTES // (4 * dim * _TRAIN_ROWS))


def _learn(model: Model, truth: np.ndarray, queries, retrain: bool, inv_q=None) -> tuple:
    """One pass of the training kernel (the module docstring describes it)
    over the checked queries and their class indices truth, in place on
    model.class_matrix: every query updates its class (online), or only a
    miss updates its true and its predicted class (retrain).  Returns the
    misses counted (0 online) and inv_q, the (N,) reciprocals of the query
    norms, which the pass takes unless they are given.  A query, score or
    moved class row that is not finite raises InvalidSampleError."""
    M, eta = model.class_matrix, float(model.eta)
    fill = inv_q is None
    inv_q = np.empty(len(truth)) if fill else inv_q
    misses = 0
    with np.errstate(all="ignore"):
        inv_c = _inverse_norms(M)
        for start, C in _float_blocks(model.dim, queries, _chunk_rows(model.dim)):
            if fill:
                inv_q[start : start + len(C)] = _inverse_norms(C)
            lo = 0
            while lo < len(C):
                # score nb blocks of w rows: every whole block left in the
                # chunk (one online, which updates on every block), else the tail
                w = min(_TRAIN_ROWS, len(C) - lo)
                nb = (len(C) - lo) // w if retrain else 1
                span = slice(start + lo, start + lo + nb * w)
                S = np.matmul(M, C[lo : lo + nb * w].reshape(nb, w, -1).transpose(0, 2, 1))
                cos = S * inv_c[:, None] * inv_q[span].reshape(nb, 1, w)
                t = truth[span].reshape(nb, w)
                b, cols = 0, np.arange(w)
                if retrain:  # decide up to the first block with a miss, else all
                    p = cos.argmax(axis=1)
                    miss = p != t
                    b = int(miss.any(axis=1).argmax()) if miss.any() else nb - 1
                    p, cols = p[b], miss[b].nonzero()[0]
                    misses += len(cols)
                _finite(S[: b + 1])
                B, t, cos = C[lo + b * w : lo + (b + 1) * w], t[b], cos[b]
                lo += (b + 1) * w
                if not len(cols):
                    continue
                W = np.zeros(cos.shape, np.float32)
                W[t[cols], cols] = eta * (1.0 - cos[t[cols], cols])
                if retrain:
                    W[p[cols], cols] = -eta * (1.0 - cos[p[cols], cols])
                rows = W.any(axis=1).nonzero()[0]
                M[rows] += W[rows] @ B
                inv_c[rows] = _inverse_norms(M[rows])
    return misses, inv_q


def train_online(model: Model, stream) -> Model:
    """Single sequential pass of adaptive updates; order matters by design.

    Each (H, label) moves only the true class row, by H scaled by how much
    new information it carries: eta * (1 - delta), delta taken against the
    class rows as they stood at the start of its 16-row block.  An empty
    stream is a no-op.  Mutates and returns model; a pass that overflows
    float32 (see the module docstring) raises InvalidSampleError and leaves
    the class matrix as it was."""
    truth, queries = labelled_blocks(model, stream)
    with _restored_on_overflow(model):
        _learn(model, truth, queries, retrain=False)
    return model


def train_iterative(model: Model, dataset, max_epochs: int = 30, patience: int = 3) -> Model:
    """Retrain until the training misprediction count stops improving for
    `patience` consecutive epochs (or max_epochs), then restore the epoch
    with the fewest mispredictions (the earliest of equals) into model.

    An epoch is one pass updating only on mispredictions; it visits the
    samples in dataset order, in blocks of 16, and each block sees the
    updates of every earlier one.  The pairs are checked once, before the
    first epoch (also when max_epochs is 0).  Mutates and returns model, as
    train_online does: its class matrix ends as the best epoch left it and
    its retrain_curve holds the misses of every epoch run.  An epoch that
    overflows float32 (see the module docstring) raises InvalidSampleError
    and leaves the class matrix (and retrain_curve) as the call received
    them.
    """
    check_int(max_epochs, "max_epochs")
    check_int(patience, "patience")
    truth, queries = labelled_blocks(model, dataset)
    best = model.class_matrix.copy()
    best_misses, bad_epochs, curve, inv_q = math.inf, 0, [], None
    with _restored_on_overflow(model):
        for _ in range(max_epochs):
            if not model.is_trained:
                raise ModelNotTrainedError("retraining starts from a trained model")
            misses, inv_q = _learn(model, truth, queries, retrain=True, inv_q=inv_q)
            curve.append(misses)
            if misses < best_misses:
                best[...] = model.class_matrix
                best_misses, bad_epochs = misses, 0
                if misses == 0:
                    break
            elif (bad_epochs := bad_epochs + 1) > patience:
                break
    model.class_matrix[...] = best
    model.retrain_curve[:] = curve
    return model


@contextmanager
def _restored_on_overflow(model: Model) -> Iterator[None]:
    """Run a training call; if it overflows (_learn raises
    InvalidSampleError), put back the class matrix the call received (kept
    as one copy) before the error propagates."""
    received = model.class_matrix.copy()
    try:
        yield
    except InvalidSampleError:
        model.class_matrix[...] = received
        raise


# The query blocks of predict, evaluate and the robustness sweep hold as many
# float64 rows as fit in these bytes: 64, 16 and 6 rows at D = 1024, 4096 and
# 10000.  The row count, not a float32 byte budget, keeps the scoring product
# on OpenBLAS's small-matrix path: with one thread (2-core VM),
# (10, 10000) @ (10000, 6) in float32 took 23 us, but with 13 columns
# 204 us.  Blocks keep memory flat: casting the whole wide-highdim test set
# (D = 10000) to float64 at once raised peak RSS from about 73.5 to
# 81.7-95.3 MiB, past the benchmark's 10% bound.
_BLOCK_BYTES = 512 << 10


def _block_rows(dim: int) -> int:
    """Queries per block: as many float64 rows of dim components as fit in
    _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (8 * dim))


def labelled_blocks(model: Model, pairs) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check every (H, label) pair against model, then return (truth,
    rows): truth holds the class index of every label and rows the queries
    in order, as the (D,) arrays they came as, in their own dtype, for
    _float_blocks to cut and cast.  No pairs give an empty truth and rows.

    Raises InvalidArgumentError for pairs that cannot be iterated, an
    element that is not a 2-item pair or an H that is ragged,
    UnknownClassError for a label the model lacks, DimensionMismatchError
    for an H not of shape (D,) and InvalidSampleError for an H that is not
    real or has a non-finite component.
    """
    try:
        pairs = [(np.asarray(H), label) for H, label in pairs]
    except (TypeError, ValueError) as exc:  # see the docstring; a 0-d array is not iterable
        raise InvalidArgumentError(f"labelled data must be (H, label) pairs: {exc}") from exc
    truth = np.array([model.class_index(label) for _, label in pairs], dtype=np.intp)
    for h, _ in pairs:
        if h.shape != (model.dim,):
            raise DimensionMismatchError(f"query dim {h.shape} != ({model.dim},)")
        _check_real(h, "query")
    return truth, [h for h, _ in pairs]


def predict(model: Model, H) -> np.ndarray:
    """Index into model.classes of the most similar class for each row of an
    (N, D) batch, as (N,) int64, by the float32 scores of the module
    docstring; ties resolve to the lowest class index and a zero-norm class
    or query scores 0.  A row that is not real or has a non-finite
    component raises InvalidSampleError, as in labelled_blocks; so does a
    finite row whose float32 cast or scores are not (a component past about
    3.4e38, or a dot product with a class row past it), as training refuses
    it, before any result is returned.  A row whose cast underflows to zero
    is scored as the zero query."""
    try:
        h = np.asarray(H)
    except ValueError:  # numpy refuses a ragged H
        raise DimensionMismatchError(f"ragged queries, not one (N, {model.dim}) array") from None
    if h.ndim != 2 or h.shape[1] != model.dim:
        raise DimensionMismatchError(f"query batch shape {h.shape} != (N, {model.dim})")
    _check_real(h, "query batch")
    return _best(model, h)


def _best(model: Model, queries) -> np.ndarray:
    """Most similar class index per checked query (a list of (D,) rows or
    one (N, D) array), as (N,) int64: per float32 block of _float_blocks,
    the argmax of one product with the class matrix times the reciprocals
    of the class norms.  A block whose scores are not finite raises
    InvalidSampleError (the module docstring gives the contract)."""
    if not model.is_trained:
        raise ModelNotTrainedError("model has not been trained")
    M = model.class_matrix
    inv_c = _inverse_norms(M)[:, None]
    best = np.empty(len(queries), dtype=np.int64)
    with np.errstate(all="ignore"):
        for start, B in _float_blocks(model.dim, queries, _block_rows(model.dim)):
            best[start : start + len(B)] = (_finite(M @ B.T) * inv_c).argmax(axis=0)
    return best


class EvalReport(NamedTuple):
    """Confusion counts (row = true class, column = predicted) over
    classes; accuracy, per-class recall and the sample count are read from
    them."""

    classes: list
    confusion: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        return int(np.trace(self.confusion)) / self.n_samples

    @property
    def per_class_recall(self) -> np.ndarray:
        """Hits over samples per true class; 0 for a class with none."""
        rows = self.confusion.sum(axis=1)
        return np.divide(np.diag(self.confusion), rows, out=np.zeros(len(rows)), where=rows > 0)


def evaluate(model: Model, dataset) -> EvalReport:
    """Confusion counts of predict's decisions over the (H, label) pairs of
    dataset, which labelled_blocks checks first.  No pairs raise
    EmptyInputError, and a query predict refuses, its float32 cast or
    scores not finite, raises InvalidSampleError before any count."""
    truth, queries = labelled_blocks(model, dataset)
    if not len(truth):
        raise EmptyInputError("no (H, label) pairs to score")
    k = model.n_classes
    counts = np.bincount(truth * k + _best(model, queries), minlength=k * k)
    return EvalReport(classes=list(model.classes), confusion=counts.reshape(k, k))


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
# _HEAD is the fixed header, magic to F.  The two reserved slots are
# written as 3 and 0 and ignored on read.  Nothing may follow the CRC.

_HEAD = struct.Struct("<4sHIIIId4QI")
_RESERVED = (3, 0)


def model_to_bytes(model: Model) -> bytes:
    enc = model.encoder
    head = _HEAD.pack(
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
    parts = [head, np.array(enc.feature_bounds, dtype="<f8").tobytes()]
    for label in model.classes:
        raw = label.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)
    parts.append(model.class_matrix.astype("<f4").tobytes())
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _fits(blob: bytes, end: int) -> int:
    """end, if blob holds that many bytes; TruncatedModelError otherwise."""
    if end > len(blob):
        raise TruncatedModelError(f"file ends at byte {len(blob)}, needed {end}")
    return end


def model_from_bytes(blob: bytes) -> Model:
    """Parse a model file; any malformed blob raises a ModelIOError.

    The checks run in file order: magic, version (as soon as its two bytes
    exist), length, label encoding, checksum, trailing bytes, then the
    fields themselves."""
    if blob[:4] != MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    # read alone: a newer version is named even if its header is shorter
    version = int.from_bytes(blob[4:6], "little")
    if len(blob) >= 6 and version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    _, _, dim, k, q, _, eta, _, level_seed, sensor_seed, tie_seed, n_features = _HEAD.unpack(
        blob[: _fits(blob, _HEAD.size)]
    )
    pos = _fits(blob, _HEAD.size + 16 * n_features)
    bounds = np.frombuffer(blob, "<f8", 2 * n_features, _HEAD.size).reshape(-1, 2)
    classes = []
    for _ in range(k):
        start = _fits(blob, pos + 4)
        (ln,) = struct.unpack_from("<I", blob, pos)
        pos = _fits(blob, start + ln)
        try:
            classes.append(blob[start:pos].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelIOError(f"class label is not valid UTF-8: {exc}") from None
    start, pos = pos, _fits(blob, pos + 4 * k * dim)
    matrix = np.frombuffer(blob, "<f4", k * dim, start).reshape(k, dim)
    end = _fits(blob, pos + 4)
    (stored_crc,) = struct.unpack_from("<I", blob, pos)
    if zlib.crc32(memoryview(blob)[:pos]) != stored_crc:
        raise ChecksumError("model file checksum mismatch")
    if end != len(blob):
        raise ModelIOError(f"{len(blob) - end} trailing bytes after the checksum")
    try:
        encoder = EncoderConfig(
            dim=dim,
            q_levels=q,
            level_seed=level_seed,
            sensor_seed=sensor_seed,
            tie_seed=tie_seed,
            # float 2-tuples, so that the loaded config equals the saved one
            feature_bounds=list(map(tuple, bounds.tolist())),
        )
        return Model(classes=classes, encoder=encoder, eta=eta, class_matrix=matrix)
    except HDWearError as exc:
        raise ModelIOError(f"invalid model: {exc}") from exc


def save_model(model: Model, path) -> None:
    """Write atomically and durably: temp file in the target directory,
    fsync, rename, then fsync the directory so the rename survives a crash.
    An OSError (no such directory, a directory at path, ...) or a path
    with a NUL byte raises ModelIOError naming path; the temp file never
    outlives the call."""
    blob = model_to_bytes(model)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        reason = getattr(exc, "strerror", None) or exc
        raise ModelIOError(f"{path}: cannot write: {reason}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_model(path) -> Model:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        reason = getattr(exc, "strerror", None) or exc
        raise ModelIOError(f"{path}: cannot read: {reason}") from exc
    return model_from_bytes(blob)
