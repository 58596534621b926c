"""The benchmark's workloads and their seeded synthetic wearable CSVs.

Each workload fixes the shape of its input (subjects, samples, channels,
classes) and the experiment settings; the seed given on the command line
fixes every value in the CSV.  hdwear only ever sees the CSV path.  Why
each workload was chosen is stated once, in BENCHMARK.json.

The signal model: every class has its own per-channel mean, amplitude,
frequency and phase, fixed by the workload alone so that every seed poses a
problem of the same difficulty; a subject is a seeded run of contiguous
label segments, shifted by a seeded per-subject offset per channel, with
seeded Gaussian noise on top.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

NOISE = 0.6  # sd of the additive noise
SUBJECT_SD = 0.15  # sd of the per-subject channel offset
SEGMENT = (300, 900)  # least and most samples in one label segment
ACTIVITIES = (
    "sit", "stand", "walk", "run", "stairs_up",
    "stairs_down", "cycle", "lie", "jump", "row",
)


@dataclass(frozen=True)
class Workload:
    name: str
    # input shape
    subjects: int
    samples: int  # per subject
    channels: int
    classes: int
    # experiment settings
    window: int
    stride: int
    smooth: int
    dim: int
    q_levels: int
    train_fraction: float
    max_epochs: int
    patience: int
    trials: int
    acc_floor: float  # lowest test accuracy the output check accepts

    @property
    def n_features(self) -> int:
        return 7 * self.channels

    @property
    def channel_names(self) -> list:
        return [f"ch{j}" for j in range(self.channels)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wear-std",
            subjects=8, samples=6000, channels=3, classes=4,
            window=100, stride=50, smooth=1, dim=4096, q_levels=16,
            train_fraction=0.5, max_epochs=8, patience=8, trials=10,
            acc_floor=0.75,
        ),
        Workload(
            name="dense-stream",
            subjects=3, samples=7000, channels=3, classes=6,
            window=64, stride=8, smooth=5, dim=1024, q_levels=16,
            train_fraction=0.8, max_epochs=10, patience=10, trials=2,
            acc_floor=0.6,
        ),
        Workload(
            name="wide-highdim",
            subjects=6, samples=2400, channels=20, classes=10,
            window=100, stride=50, smooth=1, dim=10000, q_levels=16,
            train_fraction=0.2, max_epochs=2, patience=2, trials=10,
            acc_floor=0.5,
        ),
    )
}


def _rng(w: Workload, *seed: int) -> np.random.Generator:
    if any(s < 0 for s in seed):
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([zlib.crc32(w.name.encode()), *seed])


def generate_csv(w: Workload, seed: int) -> bytes:
    """The workload's CSV for this seed: same (workload, seed), same bytes.

    Columns: subject, activity, ch0..ch{C-1}; one row per sample, subjects
    in order.  Label segments deal the classes in shuffled rounds that run
    on across subjects, so every class gets a near-equal share of samples.
    """
    k, c = w.classes, w.channels
    geometry = _rng(w)
    mean = geometry.uniform(-1.0, 1.0, (k, c))
    amp = geometry.uniform(0.2, 1.0, (k, c))
    freq = geometry.uniform(0.01, 0.08, (k, c))
    phase = geometry.uniform(0.0, 2 * np.pi, (k, c))
    rng = _rng(w, seed)
    header = ",".join(["subject", "activity", *w.channel_names])
    lines = [header]
    order: list = []
    for s in range(w.subjects):
        labels = np.empty(w.samples, dtype=np.int64)
        pos = 0
        while pos < w.samples:
            if not order:
                order = list(rng.permutation(k))
            n = int(rng.integers(SEGMENT[0], SEGMENT[1] + 1))
            labels[pos : pos + n] = order.pop()
            pos += n
        t = np.arange(w.samples)[:, None]
        x = (
            rng.normal(0.0, SUBJECT_SD, c)
            + mean[labels]
            + amp[labels] * np.sin(2 * np.pi * freq[labels] * t + phase[labels])
            + rng.normal(0.0, NOISE, (w.samples, c))
        )
        subject = f"s{s:02d}"
        for lab, row in zip(labels.tolist(), x.tolist()):
            cells = ",".join(f"{v:.5f}" for v in row)
            lines.append(f"{subject},{ACTIVITIES[lab]},{cells}")
    lines.append("")
    return "\n".join(lines).encode("ascii")
