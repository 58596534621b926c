"""Every metric the benchmark reports, with what it should move.

BENCHMARK.json is the one source of each metric's name, unit, direction and
bound, and of each workload's ``why``.  This module adds only what that file
has no room for: what each metric is and, for a per-layer metric, the
end-to-end metric and workload it should move.  Every time is a median of
probe-rescaled repetitions (see hostspeed.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share of median


WHAT = {
    "setup_s": "import hdwear + build the FeatureEncoder (level memory, codebooks)",
    "train_s": "CSV on disk -> trained model: load_csv .. train_iterative",
    "infer_windows_per_s": "test windows / (load_model + encode test + evaluate)",
    "sweep_s": "robustness_sweep (quantize + TABLE4_RATES x trials)",
    "pipeline_s": "wall time of the whole experiment after setup",
    "test_accuracy": "EvalReport.accuracy; fixed for a seed",
    "acc_at_10pct_flips": "RobustnessReport.mean_acc at rate 0.10; fixed for a seed",
    "peak_rss_mb": "ru_maxrss of the workload process",
}

# name -> (what it is, the end-to-end metric and workload it should move)
MOVES = {
    "datapipe.load_csv_s": ("load_csv", "train_s on dense-stream; a large share of wide-highdim"),
    "datapipe.rows_per_s": ("CSV rows / load_csv_s", "train_s on dense-stream"),
    "datapipe.build_dataset_s": ("build_dataset (smooth, segment, features)", "train_s on dense-stream; ~20% of wide-highdim"),
    "datapipe.windows": ("windows built", "input size: explains train_s"),
    "datapipe.windows_per_s": ("windows / build_dataset_s", "train_s on dense-stream"),
    "datapipe.split_s": ("split", "train_s; small everywhere, kept so a regression shows"),
    "datapipe.fit_stats_s": ("fit_stats", "train_s; small everywhere"),
    "datapipe.busy_s": ("self time of all datapipe calls in one repetition", "train_s and pipeline_s on dense-stream"),
    "encoding.encoder_init_s": ("FeatureEncoder construction", "setup_s on wide-highdim"),
    "encoding.encode_train_s": ("encode_matrix(train)", "train_s on dense-stream"),
    "encoding.encode_test_s": ("encode_matrix(test)", "infer_windows_per_s on wide-highdim"),
    "encoding.records_per_s": ("records encoded / encode time (train + test)", "infer_windows_per_s on wide-highdim"),
    "encoding.clamped_frac": ("test feature values outside the training bounds (exact count)", "explains test_accuracy"),
    "encoding.busy_s": ("self time of all encoding calls in one repetition", "pipeline_s on wide-highdim"),
    "learning.train_online_s": ("train_online", "train_s on dense-stream"),
    "learning.online_updates_per_s": ("train windows / train_online_s", "train_s on dense-stream"),
    "learning.train_iterative_s": ("train_iterative", "train_s on dense-stream"),
    "learning.retrain_epochs": ("retraining epochs run", "train_s on dense-stream (a retraining-rule change moves it)"),
    "learning.retrain_epoch_s": ("train_iterative_s / retrain_epochs", "train_s on dense-stream (speed per epoch, apart from the epoch count)"),
    "learning.retrain_misses_first": ("training misses in the first retraining epoch", "test_accuracy on dense-stream"),
    "learning.retrain_misses_best": ("fewest training misses over the epochs", "test_accuracy on dense-stream"),
    "learning.retrain_useful_epochs_frac": ("epochs that lowered the best miss count / epochs run", "test_accuracy on dense-stream"),
    "learning.evaluate_s": ("evaluate", "infer_windows_per_s on wide-highdim"),
    "learning.queries_per_s": ("test windows / evaluate_s", "infer_windows_per_s on wide-highdim"),
    "learning.save_model_s": ("save_model", "pipeline_s (a durable save shows here)"),
    "learning.load_model_s": ("load_model", "infer_windows_per_s and pipeline_s"),
    "learning.model_bytes": ("size of the saved model file", "load_model_s and save_model_s"),
    "learning.busy_s": ("self time of all learning calls in one repetition", "train_s on dense-stream"),
    "robustness.quantize_model_s": ("quantize_model, timed on its own", "sweep_s on wide-highdim and wear-std"),
    "robustness.sweep_trial_s": ("(robustness_sweep - quantize_model) / (rates x trials)", "sweep_s on wide-highdim and wear-std"),
    "robustness.hamming_evals": ("rates x trials x queries x classes", "input size: explains sweep_s"),
    "robustness.hamming_evals_per_s": ("hamming_evals / robustness_sweep time", "sweep_s on wide-highdim"),
    "robustness.bit_flips": ("sum over rates of round(rate*K*D) x trials", "input size: explains sweep_s"),
    "robustness.busy_s": ("self time of robustness_sweep in one repetition", "sweep_s on wide-highdim"),
    "trace_overhead_frac": ("traced pipeline_s / untraced pipeline_s - 1", "none: the cost of tracing itself"),
}

END_TO_END = tuple(Metric(**m) for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in SPEC["per_layer"])
_missing = {m.name for m in END_TO_END} - WHAT.keys() | {m.name for m in PER_LAYER} - MOVES.keys()
if _missing:
    raise KeyError(f"BENCHMARK.json metrics with no description here: {sorted(_missing)}")

# Printed with the end-to-end metrics but not gated: it is 0 on every good
# run, and a gated metric must never be 0.  A non-zero value also makes the
# run exit non-zero.
FAILED_FRAC = Metric("failed_frac", "fraction", "lower")
