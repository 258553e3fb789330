"""Exception types shared across the package, and the argument rules that
raise them.

Every error carries a short machine-readable ``code`` so callers (and the
CLI) can distinguish failure modes without parsing messages.  Each argument
rule is stated once, here: ``_require(ok, values, code, rule)`` raises
``ParameterError(code)`` unless ``ok`` holds; ``_require_points(x)`` wants
finite (``x_not_finite``) points x >= 0 (``x_negative``) of the half-line;
``_require_order(r, code, lo)`` wants a whole number >= lo, under the
caller's own code.
"""

from __future__ import annotations

import math

import numpy as np


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


def _require(ok, values, code: str, rule: str) -> None:
    """Raise ParameterError(code) unless ``ok`` holds: ``ok`` is a bool for
    the scalar ``values``, or a boolean array for the array ``values``, and
    the message names the first element where it is False."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = values[~ok][0] if isinstance(ok, np.ndarray) else values
        raise ParameterError(code, f"requires {rule}, got {bad}")


def _require_points(x) -> None:
    """x is finite (``x_not_finite``) and >= 0 (``x_negative``); a Python
    number is checked without numpy, anything else as one float array."""
    if isinstance(x, (float, int)):
        if 0.0 <= x < math.inf:
            return
    else:
        x = np.asarray(x, dtype=float)
    _require(abs(x) < math.inf, x, "x_not_finite", "finite x")
    _require(x >= 0, x, "x_negative", "x >= 0")


def _require_order(r, code: str, lo: int = 0) -> int:
    """r is a finite whole number >= lo; returned as an int."""
    k = r if r.__class__ is int else int(r) if math.isfinite(r) else None
    if k != r or k < lo:
        raise ParameterError(code, f"requires a whole number >= {lo}, got {r}")
    return k


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
