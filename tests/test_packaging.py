"""Packaging metadata: every declared console script and every exported
name resolves, the package exports the pipeline, and test-only helpers stay
out of it."""

import importlib
from pathlib import Path

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
    ],
)
def test_test_only_helpers_are_not_in_the_package(module, name):
    assert not hasattr(importlib.import_module(f"hdwear.{module}"), name)


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
        (
            "learning", "EvalReport",
            ("classes", "accuracy", "confusion", "per_class_recall", "n_samples"),
        ),
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
