"""Plain forms of what hdwear computes in batch, for the tests to check the
package against.  Nothing in the pipeline reaches them, so they live here
and not in the package; pytest puts this directory on the import path."""

import csv
import math

import numpy as np

import reference as ref
from hdwear.datapipe import Recording
from hdwear.encoding import quantize
from hdwear.hv import level_flips, pack, random_hv, rng
from hdwear.learning import _TRAIN_ROWS, _block_rows
from hdwear.robustness import _FLIP_STREAM, BinaryModel, RobustnessReport, _flips


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


def gather_encode(X, bounds, levels, sigs):
    """The encoder before the nested tables, kept as their oracle: one
    gather and add per feature, H[n] = sum_f sigs[f] * levels[lv[n, f]]."""
    n_feat = len(sigs)
    lv = quantize(np.asarray(X, dtype=np.float64).reshape(-1, n_feat), bounds, len(levels))
    H = np.zeros((len(lv), sigs.shape[1]), dtype=np.min_scalar_type(-n_feat - 1))
    for f in range(n_feat):
        H += (sigs[f] * levels)[lv[:, f]]
    return H


def inverse_norm(row) -> float:
    """1 / the norm of one row, the root of a float64 np.dot of the row with
    itself; 0 for a zero row."""
    row = np.asarray(row, dtype=np.float64)
    norm = math.sqrt(np.dot(row, row))
    return 1.0 / norm if norm > 0 else 0.0


def oracle_cosines(model, h):
    """Cosine of a float64 query against every class row, from a fresh cast
    of the float32 class matrix and fresh norms; 0 where a norm is 0.

    Every norm is the square root of the pairwise add.reduce of the squares,
    for the query too: np.linalg.norm(h) without an axis is sqrt(h @ h), a
    BLAS dot whose last bit can differ."""
    M = model.class_matrix.astype(np.float64)
    norms = np.sqrt(np.add.reduce(M * M, axis=1))
    hn = np.sqrt(np.add.reduce(h * h))
    out = np.zeros(len(M))
    ok = (norms > 0) & (hn > 0)
    out[ok] = (M @ h)[ok] / (norms[ok] * hn)
    return out


def float32_block_path(model, H):
    """Class indices of the rows of H as predict scores them: each block of
    _block_rows(D) rows, each row cast to float32 on its own, one float32
    product with the class matrix, times the inverse_norm of each class
    row, argmax (the lowest index on ties).  The query norms are left out,
    as one positive factor per column."""
    M = model.class_matrix
    inv = np.array([inverse_norm(row) for row in M])
    step, out = _block_rows(model.dim), []
    for s in range(0, len(H), step):
        B = np.array([np.asarray(h).astype(np.float32) for h in H[s : s + step]])
        out.append(np.argmax((M @ B.T) * inv[:, None], axis=0))
    return np.concatenate(out or [np.empty(0, np.int64)])


def naive_training(model, data, epochs=1, online=True):
    """train_online (unless online is False), then up to `epochs` retraining
    epochs, stopping after one without a miss as train_iterative does, as a
    plain float32 loop: blocks of 16 rows, each row cast to float32 on its
    own and scored against the class matrix as it stood at the block's
    start, one sample at a time: a cosine is the dot product times the
    inverse_norm of the class row and of the query; the block's weights
    then move every row with a nonzero weight by one product.  Returns the
    rows missed in each epoch and the class matrix after it."""

    def learn(retrain):
        missed = []
        for s in range(0, len(data), _TRAIN_ROWS):
            B = np.array([h.astype(np.float32) for h, _ in data[s : s + _TRAIN_ROWS]])
            M = model.class_matrix
            dots, inv = M @ B.T, [inverse_norm(row) for row in M]
            W = np.zeros(dots.shape, np.float32)
            for i, (_, label) in enumerate(data[s : s + _TRAIN_ROWS]):
                li, inv_h = model.class_index(label), inverse_norm(B[i])
                cos = [float(dots[k, i]) * inv[k] * inv_h for k in range(len(M))]
                pi = int(np.argmax(cos))
                if retrain and pi != li:
                    missed.append(s + i)
                    W[pi, i] = -model.eta * (1.0 - cos[pi])
                if not retrain or pi != li:
                    W[li, i] = model.eta * (1.0 - cos[li])
            rows = [k for k in range(len(M)) if W[k].any()]
            M[rows] += W[rows] @ B
        return missed

    if online:
        learn(retrain=False)
    missed, snapshots = [], []
    for _ in range(epochs):
        missed.append(learn(retrain=True))
        snapshots.append(model.class_matrix.copy())
        if not missed[-1]:
            break
    return missed, snapshots


def inject_bitflips(bm: BinaryModel, rate: float, trial_seed: int) -> BinaryModel:
    """A copy of bm with the flip words of one sweep trial XORed in: the
    round(rate * K * D) distinct stored bits that the trial seed's flip
    stream draws (robustness._flips, which the sweep runs)."""
    return bm._replace(class_words=bm.class_words ^ _flips(bm, rate, rng(trial_seed, _FLIP_STREAM)))


# The plain path the sweep replaced, kept as its reference: one bool flip
# mask per trial, packed and XORed into the class words, then one int64
# popcount sum per class and the lowest-index argmin.


def oracle_trial_seed(seed, rate_idx, trial):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rate_idx, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def oracle_flip_mask(k, dim, rate, trial_seed):
    """(K, D) bool mask of round(rate * K * D) distinct positions drawn from
    the trial seed's flip stream."""
    total = k * dim
    positions = rng(trial_seed, 2**33).choice(total, size=round(rate * total), replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[positions] = True
    return mask.reshape(k, dim)


def oracle_accuracy(class_words, queries, truth):
    dist = np.empty((len(queries), len(class_words)), dtype=np.int64)
    for ci, words in enumerate(class_words):
        dist[:, ci] = np.bitwise_count(queries ^ words).sum(axis=1, dtype=np.int64)
    return int(np.count_nonzero(dist.argmin(axis=1) == truth)) / len(truth)


def oracle_sweep(m, pairs, rates, trials, seed):
    tie = m.encoder.tie_seed
    class_words = pack(sign_quantize(m.class_matrix, tie))
    queries = pack(sign_quantize(np.array([h for h, _ in pairs]), tie))
    truth = np.array([m.classes.index(label) for _, label in pairs])
    k = len(m.classes)
    mean_acc, sd_acc = np.zeros(len(rates)), np.zeros(len(rates))
    for ri, rate in enumerate(rates):
        accs = [
            oracle_accuracy(
                class_words ^ pack(oracle_flip_mask(k, m.dim, rate, oracle_trial_seed(seed, ri, t))),
                queries,
                truth,
            )
            for t in range(trials)
        ]
        mean_acc[ri], sd_acc[ri] = np.mean(accs), np.std(accs)
    acc_clean = oracle_accuracy(class_words, queries, truth)
    return RobustnessReport(list(rates), acc_clean, mean_acc, sd_acc, trials, seed)


def csv_records(path, delimiter: str) -> tuple:
    """The stripped header cells of a UTF-8 CSV and its records after the
    header, blank ones too, as csv.reader reads them.  The header keeps
    csv.field_size_limit(); a data cell may be of any length, as load_csv
    takes it."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = csv.reader(fh, delimiter=delimiter)
        header = [cell.strip() for cell in next(records)]
        limit = csv.field_size_limit(2**31 - 1)
        try:
            return header, list(records)
        finally:
            csv.field_size_limit(limit)


def per_cell_loop(path, schema):
    """load_csv one cell at a time: csv.reader's records, float() of each
    channel cell and the grouping of sorting_oracle.  Unlike load_csv it
    skips a record whose cells are all whitespace and takes every number
    float() takes, such as "1_0" and non-ASCII digits; a file it cannot
    read raises, though not always load_csv's error."""
    header, records = csv_records(path, schema.delimiter)
    rows = [row for row in records if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("no data rows")
    values = np.array([[float(row[header.index(ch)]) for ch in schema.channels] for row in rows])
    if not np.isfinite(values).all():
        raise ValueError("non-finite channel value")
    text = [
        np.array([row[header.index(c)] for row in rows], dtype=object)
        for c in (schema.label, schema.subject) if c
    ]
    return sorting_oracle(values, text, schema)


def sorting_oracle(values, text, schema):
    """The subject grouping before it went by runs: strip every cell, number
    the subjects with np.unique and a stable argsort, cast labels per row."""
    text = [np.array([s.strip() for s in cells], dtype=object) for cells in text]
    if schema.subject:
        names, first, codes = np.unique(text[-1], return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        codes = np.argsort(by_first)[codes]
        order = np.argsort(codes, kind="stable")
        names, rows = names[by_first], np.split(order, np.cumsum(np.bincount(codes))[:-1])
    else:
        names, rows = ["default"], [np.arange(len(values))]
    labels = text[0] if schema.label else None
    return [
        Recording(
            subject_id=name,
            channels={ch: values[own, j] for j, ch in enumerate(schema.channels)},
            labels=None if labels is None else labels[own].astype(str),
        )
        for name, own in zip(names, rows)
    ]
