"""Plain forms of what hdwear computes in batch, for the tests to check the
package against.  Nothing in the pipeline reaches them, so they live here
and not in the package; pytest puts this directory on the import path."""

import numpy as np

from hdwear import reference as ref
from hdwear.hv import level_flips, random_hv, rng
from hdwear.robustness import _FLIP_STREAM, BinaryModel, _flips


def make_level_memory(seed: int, dim: int, q: int) -> np.ndarray:
    """The Q level vectors L_0..L_{Q-1} that hdwear.hv.level_flips defines,
    as a (Q, D) int8 array: L_i is the base vector negated at the first k_i
    components of the flip order."""
    base, order, k = level_flips(seed, dim, q)
    rank = np.empty(dim, dtype=np.int64)
    rank[order] = np.arange(dim)
    return np.where(rank >= k[:, None], base, -base)


def sign_quantize(acc, tie_seed: int) -> np.ndarray:
    """Majority sign of (..., D) accumulators as +-1 int8, one row at a time
    through reference.sign_quantize; an exact zero takes the tie coin of its
    index, random_hv(tie_seed, 0, D)."""
    acc = np.asarray(acc)
    coin = random_hv(tie_seed, 0, acc.shape[-1]).tolist()
    rows = [ref.sign_quantize(row, coin) for row in acc.reshape(-1, acc.shape[-1]).tolist()]
    return np.array(rows, dtype=np.int8).reshape(acc.shape)


def inject_bitflips(bm: BinaryModel, rate: float, trial_seed: int) -> BinaryModel:
    """A copy of bm with the flip words of one sweep trial XORed in: the
    round(rate * K * D) distinct stored bits that the trial seed's flip
    stream draws (robustness._flips, which the sweep runs)."""
    return bm._replace(class_words=bm.class_words ^ _flips(bm, rate, rng(trial_seed, _FLIP_STREAM)))
