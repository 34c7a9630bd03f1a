"""Exception hierarchy shared across the package."""


class BannetError(Exception):
    """Base class for all package errors."""


class DataError(BannetError):
    """Malformed input data: CSV problems, bad model files, shape mismatches."""


class ModelFormatError(DataError):
    """Model file cannot be decoded (unknown version, missing fields)."""


class DimensionError(DataError):
    """Array dimensions incompatible with the model or operation."""


class ConfigError(BannetError):
    """Invalid configuration values."""


class SolverError(BannetError):
    """A lasso solve reached its step cap before its KKT test passed."""


class ZeroWeightVector(BannetError):
    """A fit produced an all-zero weight vector; callers decide the fallback."""


class TrainingAbort(BannetError):
    """Training cannot proceed: fewer than 2 training rows."""
