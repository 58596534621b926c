"""Self-tests of the benchmark; run with ``python3 -m pytest hdbench``."""

from __future__ import annotations

from dataclasses import replace

import pytest

import run
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS, generate_csv


def tiny(name: str):
    """The workload shrunk to run in well under a second."""
    w = WORKLOADS[name]
    return replace(w, subjects=2, samples=1200, dim=256, trials=1, max_epochs=2, patience=1)


def test_generator_is_byte_identical_for_a_seed():
    for w in WORKLOADS.values():
        small = replace(w, subjects=2, samples=500)
        assert generate_csv(small, 7) == generate_csv(small, 7)
        assert generate_csv(small, 7) != generate_csv(small, 8)


def test_generator_shape():
    w = replace(WORKLOADS["wide-highdim"], subjects=2, samples=4500)  # >= 10 segments
    lines = generate_csv(w, 1).decode().splitlines()
    assert lines[0].split(",") == ["subject", "activity", *w.channel_names]
    assert len(lines) == 1 + w.subjects * w.samples
    assert len({ln.split(",")[1] for ln in lines[1:]}) == w.classes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_and_digest_repeats_between_traced_and_untraced(name):
    w = tiny(name)
    plain, rec_plain = run.run(w, seed=3, seconds=0, trace=False)
    traced, rec_traced = run.run(w, seed=3, seconds=0, trace=True)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert set(plain["metrics"]) == {m.name for m in END_TO_END}
    assert set(traced["metrics"]) == {m.name for m in PER_LAYER}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert rec_plain["digest"] == rec_traced["digest"]
    assert rec_plain["inputs"]["features_over_127"] == (w.n_features > 127)

