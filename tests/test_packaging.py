"""Packaging metadata: every declared console script and every exported
name resolves, the package exports the pipeline, and test-only helpers stay
out of it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


def test_all_exports_resolve():
    pkg = importlib.import_module("hdwear")
    missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
    assert not missing, f"hdwear.__all__ names missing attributes: {missing}"


# the stage calls the benchmark makes (hdbench/hdapi.py CALLS), plus
# split_personalize and predict, by layer
STAGE_CALLS = {
    "datapipe": (
        "CsvSchema", "load_csv", "build_dataset", "split", "split_personalize", "fit_stats",
    ),
    "encoding": ("EncoderConfig", "FeatureEncoder"),
    "learning": (
        "Model", "train_online", "train_iterative", "evaluate", "save_model", "load_model",
        "predict",
    ),
    "robustness": ("TABLE4_RATES", "quantize_model", "robustness_sweep"),
    "errors": ("HDWearError", "DataError", "ModelIOError"),
}


def test_package_exports_the_pipeline():
    pkg = importlib.import_module("hdwear")
    for layer, names in STAGE_CALLS.items():
        module = importlib.import_module(f"hdwear.{layer}")
        for name in names:
            assert name in pkg.__all__, name
            assert getattr(pkg, name) is getattr(module, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("hv", "make_level_memory"),
        ("hv", "sign_quantize"),
        ("hv", "_sign_bits"),
        ("robustness", "inject_bitflips"),
        ("encoding", "_in_range"),
        ("datapipe", "_read_cells"),
        ("datapipe", "_may_hold_long_cell"),
    ],
)
def test_test_only_helpers_are_not_in_the_package(module, name):
    assert not hasattr(importlib.import_module(f"hdwear.{module}"), name)


def test_reference_oracles_are_not_in_the_package():
    # they live in tests/reference.py, beside the tests that import them
    assert importlib.util.find_spec("hdwear.reference") is None


@pytest.mark.parametrize(
    "owner, name",
    [
        ("datapipe", "split_subject_half"),
        ("datapipe", "split_leave_one_subject_out"),
        ("datapipe.WindowedDataset", "subject_ids"),
        ("errors", "EmptyDatasetError"),
    ],
)
def test_removed_splits_and_errors_are_gone(owner, name):
    # split_personalize replaced both subject splits; EmptyInputError is the
    # one error for "no rows to work on"
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"hdwear.{module}")
    assert not hasattr(getattr(obj, cls) if cls else obj, name)


@pytest.mark.parametrize(
    "module, record, fields",
    [
        ("datapipe", "FeatureStats", ("mins", "maxs")),
        ("learning", "EvalReport", ("classes", "confusion")),
        ("robustness", "BinaryModel", ("dim", "class_words")),
        (
            "robustness", "RobustnessReport",
            ("rates", "acc_clean", "mean_acc", "sd_acc", "trials", "seed"),
        ),
    ],
)
def test_result_records_are_named_tuples(module, record, fields):
    cls = getattr(importlib.import_module(f"hdwear.{module}"), record)
    assert issubclass(cls, tuple) and cls._fields == fields


def test_eval_report_derives_its_numbers_from_its_counts():
    # EvalReport keeps only its counts; accuracy, per-class recall and the
    # sample count equal what it once stored, by the formulas it stored them
    # with.  Class "b" has no samples: its recall is 0, and nothing warns.
    from hdwear.learning import EvalReport

    confusion = np.array([[3, 1, 0], [0, 0, 0], [2, 0, 4]], dtype=np.int64)
    report = EvalReport(classes=["a", "b", "c"], confusion=confusion)
    total, correct, rows = int(confusion.sum()), int(np.trace(confusion)), confusion.sum(axis=1)
    recall = np.divide(np.diag(confusion), rows, out=np.zeros(3, dtype=np.float64), where=rows > 0)
    with np.errstate(all="raise"):
        assert type(report.n_samples) is int and report.n_samples == total == 10
        assert type(report.accuracy) is float and report.accuracy == correct / total
        got = report.per_class_recall
    assert got.dtype == np.float64 and got.tolist() == recall.tolist() == [0.75, 0.0, 4 / 6]
