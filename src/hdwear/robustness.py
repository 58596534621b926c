"""1-bit model quantization and bit-flip fault injection.

The stored class vectors are sign-quantized to single bits and held as
(K, W) uint64 words (:func:`hdwear.hv.pack_sign`).  :func:`robustness_sweep`
checks its (H, label) pairs with :func:`hdwear.learning.labelled_blocks`,
the boundary training and :func:`hdwear.learning.evaluate` use too: a
label the model lacks raises ``UnknownClassError`` and a non-finite query
``InvalidSampleError`` (neither is ever scored), and, as in ``evaluate``,
an empty test set raises ``EmptyDatasetError``.  Its seed, trial count and
rates are checked before any work, and a bad one raises
``InvalidArgumentError``.

Ranking reduces to popcounts, dot = D - 2 * popcount(query XOR class), so
the nearest class in Hamming distance wins, ties to the lowest index.  The
sweep packs the queries once, block by block with the model's tie seed,
and keeps them transposed as (W, N) words, so that each class word meets
all N queries in one contiguous row: per class, one XOR and one popcount
into reused (W, N) buffers, then a sum over the W rows into a (K, N)
distance buffer.  The distances accumulate in the narrowest unsigned type
that holds D, which no distance exceeds because padding bits are zero on
both sides.

An injection negates an exact number of uniformly chosen (class,
component) positions, round(rate * K * D), sampled without replacement by
the trial seed's Philox stream; rate 0 draws none but checks the trial
seed all the same.  The drawn positions set a fresh (K, D) bool mask that
:func:`hdwear.hv.pack` turns into the (K, W) flip words, padding bits
zero; a freshly zeroed mask costs less than clearing the drawn positions
of a reused one.  The sweep XORs in the same flip words as
:func:`inject_bitflips`, drawn from one Philox generator per rate that is
re-keyed for each trial (:func:`hdwear.hv.rngs`): it draws what a fresh
``rng(trial_seed, stream)`` draws without gathering OS entropy each time.

So every row is identical by construction to the plain path, which packs
a bool mask per trial, XORs it into the class words and sums int64
popcounts one class at a time: the Philox draws are the same calls, the
flip words the same bits, the distances the same integers (a popcount sum
is exact in any type that holds D), and ``argmin`` keeps the lowest-index
tie rule.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, InvalidArgumentError, ModelNotTrainedError
from .hv import check_int, check_seed, pack, pack_sign, rng, rngs
from .learning import Model, labelled_blocks

TABLE4_RATES = (0.01, 0.02, 0.04, 0.06, 0.10, 0.12)


@dataclass
class BinaryModel:
    """Sign-quantized model: one packed row of uint64 words per class."""

    dim: int
    class_words: np.ndarray  # (K, W) uint64


def quantize_model(model: Model) -> BinaryModel:
    """Sign-quantize every class vector; ties resolve via the model's tie
    seed."""
    if not model.is_trained:
        raise ModelNotTrainedError("cannot quantize an untrained model")
    return BinaryModel(
        dim=model.dim,
        class_words=pack_sign(model.class_matrix, model.encoder.tie_seed),
    )


_FLIP_STREAM = 2**33


def _check_rate(rate) -> None:
    if isinstance(rate, bool) or not (isinstance(rate, numbers.Real) and 0.0 <= rate <= 1.0):
        raise InvalidArgumentError(f"rate must be a real in [0, 1], got {rate!r}")


def inject_bitflips(bm: BinaryModel, rate: float, trial_seed: int) -> BinaryModel:
    """Flip exactly round(rate * K * D) distinct stored bits, chosen
    uniformly without replacement; returns a corrupted copy."""
    _check_rate(rate)
    return BinaryModel(bm.dim, bm.class_words ^ _flips(bm, rate, rng(trial_seed, _FLIP_STREAM)))


def _flips(bm: BinaryModel, rate: float, gen: np.random.Generator) -> np.ndarray:
    """(K, W) words with the round(rate * K * D) positions that gen, the
    trial seed's flip stream, draws set."""
    k = len(bm.class_words)
    total = k * bm.dim
    flips = np.zeros(total, dtype=bool)
    flips[gen.choice(total, size=round(rate * total), replace=False)] = True
    return pack(flips.reshape(k, bm.dim))


@dataclass
class RobustnessReport:
    """Per-rate accuracy under fault injection.  loss = acc_clean - mean_acc
    is the quantity hardware-error tables report."""

    rates: list
    acc_clean: float
    mean_acc: np.ndarray
    sd_acc: np.ndarray
    trials: int
    seed: int

    @property
    def mean_loss(self) -> np.ndarray:
        return self.acc_clean - self.mean_acc

    def rows(self) -> list:
        """(rate, mean_acc, sd_acc, mean_loss) per rate, for the CSV report."""
        return [
            (r, float(self.mean_acc[i]), float(self.sd_acc[i]), float(self.mean_loss[i]))
            for i, r in enumerate(self.rates)
        ]


def _trial_seed(sweep_seed: int, rate_idx: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=sweep_seed, spawn_key=(rate_idx, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def robustness_sweep(
    model: Model,
    test_set,
    rates=TABLE4_RATES,
    trials: int = 10,
    seed: int = 0,
) -> RobustnessReport:
    """Quantize once, then for each rate run `trials` independent injections
    and evaluate each corrupted model on the test set."""
    check_int(trials, "trials", 1)
    check_seed(seed)
    rates = list(rates)
    for rate in rates:
        _check_rate(rate)
    bm = quantize_model(model)
    truth, blocks = labelled_blocks(model, test_set)
    if not len(truth):
        raise EmptyDatasetError("no (H, label) pairs to score")
    # the queries as (W, N) words and the buffers every trial reuses
    qt = np.empty((bm.class_words.shape[1], len(truth)), dtype=np.uint64)
    np.concatenate([pack_sign(H, model.encoder.tie_seed).T for H in blocks], axis=1, out=qt)
    xor = np.empty_like(qt)
    count = np.empty(qt.shape, dtype=np.uint8)
    dist = np.empty((len(bm.class_words), len(truth)), dtype=np.min_scalar_type(bm.dim))

    def accuracy(class_words: np.ndarray) -> float:
        for words, row in zip(class_words, dist):
            np.bitwise_xor(qt, words[:, None], out=xor)
            np.bitwise_count(xor, out=count)
            np.add.reduce(count, axis=0, out=row)
        return int(np.count_nonzero(dist.argmin(axis=0) == truth)) / len(truth)

    acc_clean = accuracy(bm.class_words)
    mean_acc = np.zeros(len(rates))
    sd_acc = np.zeros(len(rates))
    for ri, rate in enumerate(rates):
        keys = [(_trial_seed(seed, ri, t), _FLIP_STREAM) for t in range(trials)]
        accs = [accuracy(bm.class_words ^ _flips(bm, rate, gen)) for gen in rngs(keys)]
        mean_acc[ri] = np.mean(accs)
        sd_acc[ri] = np.std(accs)
    return RobustnessReport(
        rates=rates,
        acc_clean=acc_clean,
        mean_acc=mean_acc,
        sd_acc=sd_acc,
        trials=trials,
        seed=seed,
    )
