"""Plain forms of what hdwear computes in batch, for the tests to check the
package against.  Nothing in the pipeline reaches them, so they live here
and not in the package; pytest puts this directory on the import path."""

import csv

import numpy as np

import reference as ref
from hdwear.datapipe import Recording
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
