"""1-bit model quantization and bit-flip fault injection.

The stored class vectors are sign-quantized to single bits; injections
negate an exact number of uniformly chosen (class, component) positions,
round(rate * K * D), sampled without replacement.  Queries are quantized
with the model's tie seed, so ranking reduces to popcounts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, ModelNotTrainedError
from .hv import AccumHV, BipolarHV, rng, sign_quantize
from .learning import Model, model_to_bytes

TABLE4_RATES = (0.01, 0.02, 0.04, 0.06, 0.10, 0.12)


@dataclass
class BinaryModel:
    """Sign-quantized model: one packed bit vector per class."""

    dim: int
    classes: list
    class_bits: list  # list[BipolarHV]
    tie_seed: int
    source_hash: int  # CRC32 of the originating model's serialized bytes

    def predict(self, H):
        sims = self.similarities(H)
        return self.classes[int(np.argmax(sims))]

    def similarities(self, H) -> np.ndarray:
        q = H if isinstance(H, BipolarHV) else sign_quantize(H, self.tie_seed)
        # dot of two bipolar vectors: D - 2 * Hamming
        return np.array(
            [self.dim - 2 * (q.bits ^ c.bits).bit_count() for c in self.class_bits],
            dtype=np.float64,
        )


def quantize_model(model: Model, tie_seed: int | None = None) -> BinaryModel:
    """Sign-quantize every class vector; ties resolve via the tie seed
    (the model's own unless overridden)."""
    if not model.is_trained:
        raise ModelNotTrainedError("cannot quantize an untrained model")
    seed = model.encoder.tie_seed if tie_seed is None else tie_seed
    bits = [
        sign_quantize(AccumHV(model.dim, row.astype(np.float64)), seed)
        for row in model.class_matrix
    ]
    return BinaryModel(
        dim=model.dim,
        classes=list(model.classes),
        class_bits=bits,
        tie_seed=seed,
        source_hash=zlib.crc32(model_to_bytes(model)),
    )


_FLIP_STREAM = 2**33


def inject_bitflips(bm: BinaryModel, rate: float, trial_seed: int) -> BinaryModel:
    """Flip exactly round(rate * K * D) distinct stored bits, chosen
    uniformly without replacement; returns a corrupted copy."""
    if not 0.0 <= rate <= 1.0:
        raise InvalidArgumentError(f"rate must be in [0, 1], got {rate}")
    k = len(bm.class_bits)
    total = k * bm.dim
    n_flips = round(rate * total)
    if n_flips == 0:
        return replace(bm, class_bits=list(bm.class_bits))
    positions = rng(trial_seed, _FLIP_STREAM).choice(total, size=n_flips, replace=False)
    new_bits = []
    flip_bool = np.zeros(bm.dim, dtype=bool)
    for ci in range(k):
        comp = positions[positions // bm.dim == ci] % bm.dim
        hv = bm.class_bits[ci]
        if comp.size:
            flip_bool[:] = False
            flip_bool[comp] = True
            mask = int.from_bytes(
                np.packbits(flip_bool, bitorder="little").tobytes(), "little"
            )
            hv = BipolarHV(bm.dim, hv.bits ^ mask)
        new_bits.append(hv)
    return replace(bm, class_bits=new_bits)


def count_differing_bits(a: BinaryModel, b: BinaryModel) -> int:
    return sum((x.bits ^ y.bits).bit_count() for x, y in zip(a.class_bits, b.class_bits))


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


def _binary_accuracy(bm: BinaryModel, queries, labels) -> float:
    correct = sum(bm.predict(q) == label for q, label in zip(queries, labels))
    return correct / len(labels)


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
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    rates = list(rates)
    bm = quantize_model(model)
    pairs = list(test_set)
    if not pairs:
        raise InvalidArgumentError("test set is empty")
    # quantize queries once; they are shared by every trial
    queries = [
        H if isinstance(H, BipolarHV) else sign_quantize(H, bm.tie_seed)
        for H, _ in pairs
    ]
    labels = [label for _, label in pairs]
    acc_clean = _binary_accuracy(bm, queries, labels)
    mean_acc = np.zeros(len(rates))
    sd_acc = np.zeros(len(rates))
    for ri, rate in enumerate(rates):
        accs = [
            _binary_accuracy(
                inject_bitflips(bm, rate, _trial_seed(seed, ri, t)), queries, labels
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
