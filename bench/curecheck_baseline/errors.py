"""Exception types shared across the package."""


class CurecheckError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CurecheckError, ValueError):
    """Malformed input data (bad times, bad event flags, empty samples)."""


class DomainError(CurecheckError, ValueError):
    """Parameter or evaluation point outside a model's domain."""


class FitError(CurecheckError, RuntimeError):
    """Fitting preconditions violated (no events, too few records)."""


class AssessmentError(CurecheckError, RuntimeError):
    """Assessment could not be completed (e.g. every model fit failed)."""
