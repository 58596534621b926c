"""Class-hypervector model: adaptive single-pass online training, iterative
retraining on mispredictions, batch prediction, evaluation, and
serialization.

Training updates, with delta_l = cosine(H, C_l) and learning rate eta:

    online (every sample):        C_l += eta * (1 - delta_l) * H
    retrain (on misprediction,
    true label l, predicted l'):  C_l  += eta * (delta_l' - delta_l) * H
                                  C_l' -= eta * (delta_l' - delta_l) * H

The online rule is the adaptive update of OnlineHD (Hernandez-Cano et al.,
DATE 2021); the source paper's abstract does not pin the exact rule.  A
zero-norm class vector or query contributes delta = 0 by convention.  Class
vectors are stored float32 (matching the on-disk format, so save/load
round-trips bit-exactly); each retrain increment is computed once and
applied with both signs, so the two touched rows move by exact
component-wise negatives.

Every score is a matrix product of float64 operands, scaled by
:func:`_scaled` (0 where a class row or the query has norm 0): a block of
queries against all class rows for :func:`predict`, :func:`evaluate` and
the retraining screen (the batched design follows Torchhd, Heddes et al.,
JMLR 2023), one query against all class rows for the per-sample steps.  A
block holds as many float64 rows of D components as fit in _BLOCK_BYTES
(512 KiB), at least one: :func:`_block_rows` gives 64 rows at D = 1024, 16
at D = 4096 and 6 at D = 10000; it is the one block-size rule, which the
robustness sweep also packs its queries by.  :func:`_float_blocks` is the
one place that cuts scored queries into blocks: it takes a list of (D,)
rows or one (N, D) array and casts each block straight into one float64
buffer of min(_block_rows(D), N) rows, so a query is copied once, into
float64, and the callers slice their class indices by each block's
start.  Each call allocates its float64 operands once, on 64-byte
boundaries, and reuses them: the class rows (:func:`_class_rows`) and that
block buffer.  A per-sample step scores a row of the buffer as it is; the
rows start on 64-byte boundaries too whenever D is a multiple of 8.  The
results do not depend on alignment, only the speed does (see
_class_rows).  Every norm comes from one row-wise reduction, the pairwise
np.add.reduce of the squares (:func:`_norms`), and a row of a C-contiguous
block reduces to the same norm as the row alone, so a query's norm is
taken once, with its block's.  Casting a row on its own gives the float64
values that casting a stack of mixed-dtype rows gives: numpy promotes them
to a dtype that either holds every bool, integer and float component
exactly or is float64, which rounds a component as its own cast does.

Training is sequential by design (each sample sees every earlier update),
so a pass (:class:`_Rows`) takes the float64 rows and norms once and
refreshes only the rows it updates.  This gives the same scores as
re-taking every row per sample: a refreshed row is the exact float64 cast
of its float32 row, its norm comes from the same pairwise reduction as the
whole-matrix norms, a single query is scored by the same matrix-vector
product, and the norm of an integer encoding is exact in any summation
order.  A per-sample step writes its product, its increment and the
refreshed row's squares into buffers the pass allocates once; these are
the IEEE operations of the allocating expressions, in the same order, so
the results are the same bit for bit.  The online step needs only the true
class's cosine.  It takes dots[l] / (norms[l] * |h|) from that product, or
0 when the product of the norms is not positive, in Python float
arithmetic: the same IEEE double multiply and divide that _scaled applies
element-wise, so the result equals _scaled's entry by construction.  It
still computes the whole matrix-vector product, since a dot product with
the true row alone is not promised the same summation order.

Retraining screens before it scores.  Each block of queries is scored
against the current rows with one matrix product; a query whose own-class
cosine beats every other class by more than :func:`_margin`, 8 (D + 2)
eps, is a hit under any summation order (the bound is in _margin's
docstring), so it is settled and changes nothing.  Every other query (a
predicted miss or a near-tie) goes through the exact per-sample step (the
matrix-vector product of its row of the block, scaled by its norm, argmax,
one increment added to the true row and subtracted from the predicted
one), which keeps its decision and increment bit for bit; after an update
only the two touched rows are re-scored for the rest of the block.  So
the class matrix and the miss counts equal those of scoring every sample
alone, on any input and at any block size.  A miss re-scores the rest of
its block, so a larger block costs more per miss and less per row; on the
dense-stream benchmark's training set (D = 1024, 2083 rows, about 31
misses per epoch; 2-core VM) ten epochs took 34.9 ms in 16-row blocks
(131 block set-ups per epoch) and 25.9 ms in the 64-row blocks of the
byte budget.
:func:`train_iterative` checks its pairs once and keeps the checked
queries as one (N, D) array in their own dtype (promoted as np.array
stacks them), with their class indices, for every epoch; the screen's
constants (the query norms, the one-hot of the true classes and each
query's margin) are kept in a list with one entry per block, taken once
from the first epoch's float64 copy of each block.  It keeps no float64
copy of the training set.

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
as they came, and _float_blocks cuts and casts them.  An update that
would take a class component past the float32 range raises
InvalidSampleError and leaves the class matrix as the call received it:
_Rows.apply finds it from the refreshed row's norm, which it takes anyway,
and only an update that could overflow runs with numpy's overflow warnings
off (:func:`_updating`), so scoring's warnings stay live.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
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
    holds exactly, so it round-trips too; the class matrix is finite once
    cast to float32.  The fields are frozen once checked; training updates
    ``class_matrix`` in place.

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
        if not (_is_float64(self.eta) and self.eta > 0):
            raise InvalidArgumentError(f"eta must be a finite real > 0, got {self.eta!r}")
        shape = (len(self.classes), self.encoder.dim)
        matrix = np.zeros(shape, np.float32) if self.class_matrix is None else self.class_matrix
        try:
            matrix = np.asarray(matrix)
        except ValueError:  # numpy refuses a ragged class matrix
            raise DimensionMismatchError(f"ragged class matrix, not one {shape} array") from None
        if matrix.dtype.kind not in "biuf":  # only these are real; finiteness is checked below
            raise InvalidArgumentError(f"class matrix must be real, got dtype {matrix.dtype}")
        with np.errstate(over="ignore"):  # a component float32 cannot hold turns inf
            matrix = matrix.astype(np.float32, copy=False)
        if matrix.shape != shape:
            raise DimensionMismatchError(f"class matrix shape {matrix.shape} != {shape}")
        if not np.isfinite(matrix).all():
            raise InvalidArgumentError("class matrix has a non-finite component")
        object.__setattr__(self, "class_matrix", matrix)
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
        twin = replace(self, class_matrix=self.class_matrix.copy())
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


# Training keeps the float64 class rows and their norms across a pass and
# refreshes only the rows it updates.  Without this cache the shared kernel
# re-casts the whole (K, D) matrix and re-takes all K norms per sample; on a
# 2-core VM that made the dense-stream benchmark's train_s 5-18% slower than
# a dedicated single-row scorer, and with it train_s is 0.63-0.73x of that.
# The rows are copied into a 64-byte-aligned buffer, as every float64 query
# operand below is.  With one OpenBLAS thread on a 2-core VM (best of 7),
# (6, 1024) @ (1024, 16) took 4.6 us with both operands 64-byte aligned and
# 8.0-8.3 us at an 8-, 16- or 32-byte offset; (4, 4096) @ (4096, 16) took
# 10.1 us against 18.2-21.6 us.  A fresh cast lands wherever malloc puts
# it, so the speed of every score followed the heap's history.  The
# products' results do not depend on the alignment, only their speed.
def _class_rows(model: Model) -> tuple[np.ndarray, np.ndarray]:
    M = _aligned(model.class_matrix.shape)
    M[...] = model.class_matrix
    return M, _norms(M)


def _aligned(shape: tuple) -> np.ndarray:
    """Uninitialised C-contiguous float64 array of the given shape whose data
    starts on a 64-byte boundary (numpy's own data start on 8 at least)."""
    raw = np.empty(math.prod(shape) + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + math.prod(shape)].reshape(shape)


def _float_blocks(dim: int, rows) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) for each run of at most _block_rows(D) queries of
    rows, a list of checked (D,) queries or one (N, D) array, in order:
    block holds rows[start : start + len(block)] as float64.  Each row is
    cast straight into one aligned buffer of min(_block_rows(D), N) rows
    that is reused, so a block is valid until the next one is drawn."""
    step = _block_rows(dim)
    buf = _aligned((min(step, len(rows)), dim))
    for start in range(0, len(rows), step):
        Hf = buf[: min(step, len(rows) - start)]
        Hf[...] = rows[start : start + step]
        yield start, Hf


def _norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of float64 A, reduced exactly as
    np.linalg.norm(A, axis=-1) reduces them; a row of a C-contiguous block
    reduces as the same row alone."""
    return np.sqrt(np.add.reduce(A * A, axis=-1))


def _scaled(dots: np.ndarray, norms: np.ndarray, hn) -> np.ndarray:
    """Dot products of class rows with queries, divided by the product of
    their norms; 0 where that product is 0."""
    den = np.multiply.outer(norms, hn)
    return np.divide(dots, den, out=np.zeros(den.shape), where=den > 0)


class _Rows:
    """The float64 class rows M and their norms (from _class_rows) that one
    training pass keeps, and the buffers its exact per-sample steps write
    into.

    dots(h) is M @ h; increment(h, scale) casts scale * h to float32, as
    (scale * h).astype(np.float32) does; apply(row, op) adds (np.add) or
    subtracts (np.subtract) that increment in the float32 class row, as
    `row += inc` and `row -= inc` do, and refreshes the row's float64 copy
    and its norm, by the pairwise reduction _norms takes; a row that left
    the float32 range raises InvalidSampleError (its norm is then inf or
    NaN, so the check costs no scan).  Each result is valid until the next
    call that writes it.  The updates run under _updating, which keeps
    numpy's warnings about that overflow inside."""

    def __init__(self, model: Model):
        self.class_matrix = model.class_matrix
        self.M, self.norms = _class_rows(model)
        self._dots = np.empty(model.n_classes)
        self._inc = np.empty(model.dim)
        self._inc32 = np.empty(model.dim, dtype=np.float32)
        self._sq = np.empty(model.dim)

    def dots(self, h: np.ndarray) -> np.ndarray:
        return np.matmul(self.M, h, out=self._dots)

    def increment(self, h: np.ndarray, scale: float) -> None:
        np.multiply(h, scale, out=self._inc)
        self._inc32[...] = self._inc

    def apply(self, row: int, op) -> None:
        row32, row64 = self.class_matrix[row], self.M[row]
        op(row32, self._inc32, out=row32)
        row64[...] = row32
        np.multiply(row64, row64, out=self._sq)
        self.norms[row] = norm = math.sqrt(np.add.reduce(self._sq))
        if not math.isfinite(norm):  # exactly when the float32 row is not finite
            raise InvalidSampleError(
                "training overflowed float32: an update took a class component past "
                "the float32 range; the class matrix is left as it was"
            )


def train_online(model: Model, stream) -> Model:
    """Single sequential pass of adaptive updates; order matters by design.

    Each (H, label) moves only the true class row, by H scaled by how much
    new information it carries: eta * (1 - delta).  An empty stream is a
    no-op.  Mutates and returns model; a pass that would leave a class
    component outside the float32 range raises InvalidSampleError and
    leaves the class matrix as it was."""
    truth, queries = labelled_blocks(model, stream)
    eta = float(model.eta)
    with _restored_on_overflow(model):
        rows = _Rows(model)
        # Query norms are taken per block: for 16 rows at D = 1024 that took
        # 25 us, against 89 us row by row (copy and norm; one thread, 2-core VM).
        for start, Hf in _float_blocks(model.dim, queries):
            t = truth[start : start + len(Hf)].tolist()
            for li, hn, h in zip(t, _norms(Hf).tolist(), Hf):
                nl = float(rows.norms[li])
                den = nl * hn
                delta = float(rows.dots(h)[li]) / den if den > 0 else 0.0
                if delta != 1.0:
                    scale = eta * (1.0 - delta)
                    with _updating(nl + abs(scale) * hn):
                        rows.increment(h, scale)
                        rows.apply(li, np.add)
    return model


def train_iterative(model: Model, dataset, max_epochs: int = 30, patience: int = 3) -> Model:
    """Retrain until the training misprediction count stops improving for
    `patience` consecutive epochs (or max_epochs), then restore the epoch
    with the fewest mispredictions (the earliest of equals) into model.

    An epoch is one pass updating only on mispredictions; it visits the
    samples in dataset order, and later samples see earlier updates.  The
    pairs are checked once, before the first epoch (also when max_epochs
    is 0).  Mutates and returns model, as train_online does: its class
    matrix ends as the best epoch left it and its retrain_curve holds the
    misses of every epoch run.  An epoch that would leave a class component
    outside the float32 range raises InvalidSampleError and leaves the
    class matrix (and retrain_curve) as the call received them.
    """
    check_int(max_epochs, "max_epochs")
    check_int(patience, "patience")
    truth, queries = labelled_blocks(model, dataset)
    H = np.array(queries)
    best = model.class_matrix.copy()
    best_misses, bad_epochs, curve, screens = math.inf, 0, [], []
    with _restored_on_overflow(model):
        for _ in range(max_epochs):
            misses = _retrain_pass(model, truth, H, screens)
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
    """Run a training call; if one of its updates overflows (_Rows.apply
    raises InvalidSampleError), put back the class matrix the call received
    (kept as one copy) before the error propagates."""
    received = model.class_matrix.copy()
    try:
        yield
    except InvalidSampleError:
        model.class_matrix[...] = received
        raise


_CALLERS_STATE = nullcontext()


def _updating(reach: float) -> AbstractContextManager:
    """The numpy error state of one update (_Rows.increment and apply).

    reach, the norm of the class row it moves (the larger of the two in
    retraining) plus |scale| times the query's norm, bounds every component
    the update computes, up to a relative rounding below 2**-19.  Below
    2**127, half the float32 range, no product, cast, sum or square of the
    update overflows or meets an invalid value, so numpy's error state is
    left as the caller set it.  Otherwise (also for an inf or NaN reach)
    overflow and invalid-value warnings are off, since apply checks the
    rows they change.  Entering and leaving that errstate costs 0.8 us
    (2-core VM), which at one update per sample made dense-stream's
    train_online 13% slower.  Scoring runs outside it, so its warnings stay
    live."""
    return _CALLERS_STATE if reach < 2.0**127 else np.errstate(over="ignore", invalid="ignore")


# The screen settles only queries whose norm lies in this range.  There no
# product, square or sum in either score overflows, and underflow (at most
# 2**-1075 per product or square) moves a dot product or a sum of squares by
# less than D * 2**-270 of its scale (a nonzero float32 class row has norm
# >= 2**-149), far inside the slack that _margin leaves.
_SCREEN_NORMS = (2.0**-400, 2.0**400)


def _margin(dim: int) -> float:
    """How far a screened own-class cosine must beat every other class for
    the query to be a hit under the exact per-sample scorer.

    Any summation order (blocked, pairwise or fused) computes a dot product
    of length D within gamma_D * sum|m_i h_i| <= gamma_D |m||h| of the exact
    one (Cauchy-Schwarz), with gamma_D = D u / (1 - D u) and u = eps / 2.
    A sum of squares is within gamma_D relative, so a norm is within
    gamma_D / 2 + u.  With one more rounding each for the product of the
    norms and for the division, any way of scoring gives a cosine within
    (2D + 4) u = (D + 2) eps of the exact cosine, up to a factor below
    1 + 4 D eps.  The screen and the exact scorer differ by at most twice
    that per class, so a screened gap above 4 (D + 2) eps (1 + 4 D eps) is
    a strict gap with the same winner in the exact scorer.  The margin,
    8 (D + 2) eps, exceeds that for every D the model file can hold
    (D < 2**32, so D eps < 2**-20).
    """
    return 8.0 * (dim + 2) * float(np.finfo(np.float64).eps)


def _settled(C: np.ndarray, own: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Which queries (columns of the screened cosines C) are sure hits: their
    own class (the True entry of their column of own) beats every other by
    more than their margin, which is _margin where the query's norm lies in
    _SCREEN_NORMS and NaN elsewhere.  A NaN score or margin settles nothing;
    a NaN margin, unlike inf, also adds to a rival of -inf (the only rival
    of a one-class model) without an invalid-value warning."""
    return C.T[own.T] > np.where(own, -np.inf, C).max(axis=0) + margins


def _retrain_pass(model: Model, truth: np.ndarray, H: np.ndarray, screens: list) -> int:
    """One retraining epoch over the (N, D) queries H with class indices
    truth; returns the miss count.  screens holds the screen constants of
    each block of _float_blocks (the query norms, the (K, n) one-hot of the
    true classes, and each query's margin for _settled); the first epoch
    finds it empty and fills it from the float64 copy it makes of each
    block anyway.

    Each block is screened with one matrix product; only the queries it
    does not settle take the exact per-sample step, and after an update
    only the two touched rows are re-scored for the rest of the block."""
    if not model.is_trained:
        raise ModelNotTrainedError("retraining starts from a trained model")
    rows = _Rows(model)
    M, norms = rows.M, rows.norms
    eta = float(model.eta)
    margin = _margin(model.dim)
    lo, hi = _SCREEN_NORMS
    misses = 0
    for b, (start, Hf) in enumerate(_float_blocks(model.dim, H)):
        t = truth[start : start + len(Hf)]
        if b == len(screens):
            hn = _norms(Hf)
            own = t == np.arange(model.n_classes)[:, None]
            screens.append((hn, own, np.where((hn >= lo) & (hn <= hi), margin, np.nan)))
        hn, own, margins = screens[b]
        C = _scaled(M @ Hf.T, norms, hn)
        j = 0
        while len(flagged := np.flatnonzero(~_settled(C[:, j:], own[:, j:], margins[j:]))):
            j += int(flagged[0])
            li, h = int(t[j]), Hf[j]
            sims = _scaled(rows.dots(h), norms, hn[j])
            pi = int(np.argmax(sims))
            if pi != li:
                misses += 1
                scale = eta * float(sims[pi] - sims[li])
                with _updating(max(norms[li], norms[pi]) + abs(scale) * hn[j]):
                    rows.increment(h, scale)
                    rows.apply(li, np.add)
                    rows.apply(pi, np.subtract)
                pair = [li, pi]
                C[pair, j + 1 :] = _scaled(M[pair] @ Hf[j + 1 :].T, norms[pair], hn[j + 1 :])
            j += 1
    return misses


# Bytes of the float64 query block that each call copies its queries into
# (one aligned buffer, reused) instead of casting them afresh.  A fixed 16
# rows made it 128 KiB at D = 1024, where a retraining epoch on the
# dense-stream benchmark paid 131 block set-ups to find about 31 misses,
# and 1.25 MiB at D = 10000, where the block left the L2 cache: copying and
# norming 16 int16 queries took 174 us as one block, 129 us row by row and
# 109 us in 6-row blocks (timeit, 2-core VM).  512 KiB gives 64, 16 and 6
# rows at D = 1024, 4096 and 10000.  Casting the whole
# wide-highdim test set (D = 10000) to float64 at once raised peak RSS from
# about 73.5 to 81.7-95.3 MiB, past the benchmark's 10% bound.
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
    (N, D) batch, as (N,) int64; ties resolve to the lowest class index and
    a zero-norm class or query scores 0.  A row that is not real or has a
    non-finite component raises InvalidSampleError, as in labelled_blocks."""
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
    one (N, D) array), as (N,) int64; each block of _float_blocks is scored
    with one matrix product."""
    if not model.is_trained:
        raise ModelNotTrainedError("model has not been trained")
    M, norms = _class_rows(model)
    best = np.empty(len(queries), dtype=np.int64)
    for start, Hf in _float_blocks(model.dim, queries):
        best[start : start + len(Hf)] = _scaled(M @ Hf.T, norms, _norms(Hf)).argmax(axis=0)
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
        return Model(classes=classes, encoder=encoder, eta=eta, class_matrix=matrix.copy())
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
