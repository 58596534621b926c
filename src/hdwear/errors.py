"""Exception hierarchy for the hdwear package.

Grouped by subsystem so callers can catch whole families: ``DataError``
for anything wrong with input data, ``ModelIOError`` for model-file
problems.
"""


class HDWearError(Exception):
    """Base class for all hdwear errors."""


class InvalidDimensionError(HDWearError, ValueError):
    """Hypervector dimension is zero, negative, or otherwise unusable."""


class DimensionMismatchError(HDWearError, ValueError):
    """Two operands have different dimensions."""


class InvalidArgumentError(HDWearError, ValueError):
    """An argument violates an operation's precondition."""


class UnknownClassError(HDWearError, KeyError):
    """Label not in the model's class list."""


class ModelNotTrainedError(HDWearError, RuntimeError):
    """Operation requires a model that has seen at least one sample."""


class DataError(HDWearError):
    """Base class for input-data problems."""


class SchemaError(DataError):
    """CSV header does not match the declared schema."""


class CsvParseError(DataError):
    """A CSV cell could not be parsed; message carries row/column location."""


class EmptyInputError(DataError):
    """No rows to work on: an input file or split without usable rows, a
    held-out subject too short for every part of its split, or an empty
    test set for evaluation or a robustness sweep (an empty training
    stream is a no-op)."""


class UnknownSubjectError(DataError, KeyError):
    """Requested subject id does not occur in the dataset."""


class InvalidSampleError(DataError, ValueError):
    """A sample or query value is not a finite real (NaN, infinite, complex
    or not a number at all), or training on it would take a class component
    past the float32 range."""


class ModelIOError(HDWearError):
    """Base class for model serialization failures."""


class BadMagicError(ModelIOError):
    """File does not start with the model magic bytes."""


class UnsupportedVersionError(ModelIOError):
    """Model file uses a format version this build cannot read."""


class TruncatedModelError(ModelIOError):
    """Model file ends before the declared payload is complete."""


class ChecksumError(ModelIOError):
    """Model file checksum does not match its payload."""
