"""Exception types shared across the package."""


class ApltError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ApltError, ValueError):
    """A constructor or operation received an out-of-range argument."""


class DataFormatError(ApltError, ValueError):
    """A dataset or checkpoint file could not be parsed; the message names
    the offending row or file."""


class DimensionMismatchError(ApltError, ValueError):
    """Array shapes disagree with what the model or dataset expects."""


class MissingLabeledClassError(ApltError, ValueError):
    """Some class has no labeled sample, so anchored clustering cannot start."""


class EmptyBatchError(ApltError, ValueError):
    """A loss was asked to reduce over zero samples."""


class NonFiniteError(ApltError, RuntimeError):
    """A loss or gradient went NaN/inf; the run is aborted rather than masked."""


class ConfigError(ApltError, ValueError):
    """Run configuration failed validation (unknown key, bad value, ...)."""
