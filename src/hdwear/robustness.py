"""1-bit model quantization and bit-flip fault injection.

The stored class vectors are sign-quantized to single bits and held as
(K, W) uint64 words (:func:`hdwear.hv.pack`).  :func:`robustness_sweep`
checks its (H, label) pairs with :func:`hdwear.learning.labelled_blocks`,
the boundary training and :func:`hdwear.learning.evaluate` use too: a
label the model lacks raises ``UnknownClassError`` and a non-finite query
``InvalidSampleError`` (neither is ever scored), and, as in ``evaluate``,
an empty test set raises ``EmptyDatasetError``.  It quantizes the queries
in their own dtype with the model's tie seed and packs them the same way
once, block by block, into one (N, W) array that every trial shares.
Ranking then reduces to popcounts, dot = D - 2 * popcount(query XOR
class), so the nearest class in Hamming distance wins.  Injections negate
an exact number of uniformly chosen (class, component) positions,
round(rate * K * D), sampled without replacement; rate 0 draws none but
checks the trial seed all the same.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyDatasetError, InvalidArgumentError, ModelNotTrainedError
from .hv import pack, rng, sign_quantize
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
        class_words=pack(sign_quantize(model.class_matrix, model.encoder.tie_seed)),
    )


_FLIP_STREAM = 2**33


def inject_bitflips(bm: BinaryModel, rate: float, trial_seed: int) -> BinaryModel:
    """Flip exactly round(rate * K * D) distinct stored bits, chosen
    uniformly without replacement; returns a corrupted copy."""
    if not 0.0 <= rate <= 1.0:
        raise InvalidArgumentError(f"rate must be in [0, 1], got {rate}")
    k = len(bm.class_words)
    total = k * bm.dim
    n_flips = round(rate * total)
    positions = rng(trial_seed, _FLIP_STREAM).choice(total, size=n_flips, replace=False)
    flips = np.zeros(total, dtype=bool)
    flips[positions] = True
    return replace(bm, class_words=bm.class_words ^ pack(flips.reshape(k, bm.dim)))


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


def _binary_accuracy(bm: BinaryModel, queries: np.ndarray, truth: np.ndarray) -> float:
    """Accuracy of packed (N, W) queries whose true class indices are
    `truth`.  Scores one class at a time; the nearest class in Hamming
    distance wins, ties to the lowest index."""
    dist = np.empty((len(queries), len(bm.class_words)), dtype=np.int64)
    for ci, words in enumerate(bm.class_words):
        dist[:, ci] = np.bitwise_count(queries ^ words).sum(axis=1, dtype=np.int64)
    return int(np.count_nonzero(dist.argmin(axis=1) == truth)) / len(truth)


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
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvalidArgumentError(f"trials must be an integer >= 1, got {trials!r}")
    rates = list(rates)
    bm = quantize_model(model)
    truth, blocks = labelled_blocks(model, test_set)
    if not len(truth):
        raise EmptyDatasetError("no (H, label) pairs to score")
    queries = np.concatenate([pack(sign_quantize(H, model.encoder.tie_seed)) for H in blocks])
    acc_clean = _binary_accuracy(bm, queries, truth)
    mean_acc = np.zeros(len(rates))
    sd_acc = np.zeros(len(rates))
    for ri, rate in enumerate(rates):
        accs = [
            _binary_accuracy(
                inject_bitflips(bm, rate, _trial_seed(seed, ri, t)), queries, truth
            )
            for t in range(trials)
        ]
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
