"""Every part of hdwear the benchmark touches, listed in one place.

The benchmark calls only the stage-level functions in ``CALLS``.  Beyond
them it reads these plain attributes and nothing else:

    WindowedDataset: len(ds), ds.X, ds.y
    FeatureStats:    stats.bounds(), stats.mins, stats.maxs
    FeatureEncoder:  enc.config, enc.encode_matrix(X)
    Model:           model == other, model.retrain_curve
    EvalReport:      report.accuracy, report.confusion
    RobustnessReport: rob.rates, rob.mean_acc, rob.rows()

Encoded records (whatever ``encode_matrix`` returns) are passed on as
opaque values: the benchmark never looks inside a hypervector or a model's
class storage, so those representations can change freely.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

CALLS = {
    "datapipe": ("CsvSchema", "load_csv", "build_dataset", "split", "fit_stats"),
    "encoding": ("EncoderConfig", "FeatureEncoder"),
    "learning": (
        "Model", "train_online", "train_iterative", "evaluate",
        "save_model", "load_model",
    ),
    "robustness": ("TABLE4_RATES", "quantize_model", "robustness_sweep"),
}


class MissingPackage(RuntimeError):
    """hdwear's sources are not in the checkout."""


def add_source(root: Path) -> Path:
    """Put the checkout's ``src`` first on the import path, so the benchmark
    measures the sources beside it and never an installed copy."""
    src = (root / "src").resolve()
    if not (src / "hdwear" / "__init__.py").is_file():
        raise MissingPackage(f"no hdwear sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def load(src: Path) -> SimpleNamespace:
    """Import hdwear afresh (dropping any copy already imported) and return
    the calls in ``CALLS`` as one namespace."""
    for name in [m for m in sys.modules if m == "hdwear" or m.startswith("hdwear.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hdwear")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise MissingPackage(f"hdwear imported from {pkg.__file__}, not {src}")
    mods = {layer: importlib.import_module(f"hdwear.{layer}") for layer in CALLS}
    return SimpleNamespace(
        **{name: getattr(mods[layer], name) for layer, names in CALLS.items() for name in names}
    )
