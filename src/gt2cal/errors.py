"""Exception types shared across the package."""


class DegenerateFiringError(ValueError):
    """Every rule fires at (numerically) zero strength for some input."""


class FlatCurveError(ValueError):
    """A calibration table whose coverage column is constant cannot be inverted."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class SchemaError(ValueError):
    """A model file is missing fields or has an unsupported layout."""
