"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so callers (and the
CLI) can distinguish failure modes without parsing messages.
"""

from __future__ import annotations


class SmldError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ParameterError(SmldError, ValueError):
    """A precondition on operator parameters or arguments is violated."""

    code = "invalid_parameter"

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class QuadratureError(SmldError, ArithmeticError):
    """Adaptive quadrature did not converge within its refinement budget."""

    code = "quadrature_non_convergence"


class TruncationError(SmldError, ArithmeticError):
    """A certified truncation level would exceed the configured hard cap."""

    code = "k_max_exceeded"


class UnsupportedOrderError(SmldError, ValueError):
    """A closed-form polynomial was requested beyond the orders it exists for."""

    code = "unsupported_order"


class DegenerateDataError(SmldError, ValueError):
    """Not enough usable data points (e.g. all errors are zero) for a fit."""

    code = "degenerate_data"


class FileFormatError(SmldError, ValueError):
    """A sampled-function file does not follow the two-column format."""

    code = "file_format"
