"""hdwear: hyperdimensional-computing classification for wearable-style
time-series data.

The package exports the pipeline's stage calls, in pipeline order: read a
CSV into recordings (:func:`load_csv`), window them into feature records
(:func:`build_dataset`), split them and fit the quantization bounds on the
training split (:func:`split`, :func:`fit_stats`), encode them as (N, D)
hypervector matrices (:class:`FeatureEncoder`), train a class-vector
:class:`Model` with adaptive online training and iterative retraining,
score it (:func:`predict`, :func:`evaluate`), save and load it, quantize
it to a 1-bit model packed into (K, W) uint64 words and sweep it for
bit-flip robustness.

There are two splits.  ``split(ds, "random", seed=..., fraction=...)``
runs :func:`hdwear.datapipe.split_random`, a seeded shuffle into train and
test.  :func:`split_personalize` holds one subject out for the
personalization protocol: fit the bounds on the population and train on
it, then adapt with :func:`train_online` on the subject's first half of
windows and evaluate on its later windows, before and after adapting.

Every failure is an :class:`HDWearError`; bad input data raises a
:class:`DataError` and a bad model file a :class:`ModelIOError`.  The hypervector primitives live in
:mod:`hdwear.hv`.
"""

from .datapipe import CsvSchema, build_dataset, fit_stats, load_csv, split, split_personalize
from .encoding import EncoderConfig, FeatureEncoder
from .errors import DataError, HDWearError, ModelIOError
from .learning import (
    Model, evaluate, load_model, predict, save_model, train_iterative, train_online,
)
from .robustness import TABLE4_RATES, quantize_model, robustness_sweep

__version__ = "0.1.0"

# in pipeline order, then the error bases
__all__ = [
    "CsvSchema", "load_csv", "build_dataset", "split", "split_personalize", "fit_stats",
    "EncoderConfig", "FeatureEncoder",
    "Model", "train_online", "train_iterative", "predict", "evaluate", "save_model", "load_model",
    "TABLE4_RATES", "quantize_model", "robustness_sweep",
    "HDWearError", "DataError", "ModelIOError",
    "__version__",
]
