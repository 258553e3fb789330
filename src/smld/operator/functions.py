"""Test functions on [0, inf) with declared exponential growth bounds.

Each function carries (growth_a, growth_k) with |f(t)| <= K exp(A t) for all
t >= 0; the truncation machinery uses the pair to certify tail bounds, so the
defaults below are chosen to be provable, not merely plausible:

* t^r        <= (r/e)^r e^t          (equality at t = r),
* |t - c|    <= (c + 1/2) e^t        (since t <= e^t / 2),
* sqrt(t)    <= e^t / 2,
* (t - x)^r  <= 2^r (max(1, (r/e)^r) + |x|^r) e^t,
* polynomials via the triangle inequality on their monomials.

A function whose A or K is not finite (an overflowing (r/e)^r, say) cannot
be built (``growth_not_finite``), nor one whose K is not > 0
(``growth_k_nonpositive``), so every consumer can trust the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import FileFormatError, ParameterError, _require_order

__all__ = ["TestFunction", "load_sampled"]


def _pow(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, or inf where the float overflows (an
    envelope constant that is inf is growth_not_finite when the function is
    built)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _monomial_k(r: int) -> float:
    """K of t^r <= K e^t: sup t^r e^(-t) = (r/e)^r, at t = r, floored at 1
    (inf where it overflows)."""
    return max(1.0, _pow(r / math.e, r))


def _require_finite(kind: str, values: tuple) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(
            "function_not_finite", f"{kind} parameters must be finite, got {values}"
        )


# -- evaluators fn(t, *args) on a float array t, besides numpy's own --------------


def _power(t, r):
    return t**r


def _exp(t, c):
    return np.exp(c * t)


def _abs_shift(t, c):
    return np.abs(t - c)


def _sin(t, c):
    return np.sin(c * t)


def _centered_power(t, x, r):
    # (t-x)^r as a direct power: the expanded polynomial would evaluate
    # with ~1e-13 cancellation noise near t = x
    return (t - x) ** r


@dataclass(frozen=True)
class TestFunction:
    """A function on [0, inf), evaluable on numpy arrays as fn(t, *args).

    Use the constructors (:meth:`monomial`, :meth:`polynomial`, ...) rather
    than instantiating directly.  Each states its kind once, as fields: the
    evaluator ``fn``, its parameters ``args``, the envelope, the ``kinks``
    (quadrature panel edges) and the ``endpoint_power`` p, f(t) = t^p *
    (smooth near 0).  Instances hash and compare by (fn, args, envelope),
    which the coefficient cache relies on; ``label`` is display-only.
    Construction, also through ``dataclasses.replace``, raises
    ``growth_not_finite`` unless A and K are finite, and
    ``growth_k_nonpositive`` unless K > 0.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    fn: Callable
    args: tuple = ()
    growth_a: float = 0.0
    growth_k: float = 1.0
    kinks: tuple[float, ...] = field(default=(), compare=False)
    endpoint_power: float = field(default=0.0, compare=False)
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.growth_a) and math.isfinite(self.growth_k)):
            raise ParameterError(
                "growth_not_finite",
                f"requires a finite growth envelope, got A = {self.growth_a}, K = {self.growth_k}",
            )
        if not self.growth_k > 0:
            raise ParameterError(
                "growth_k_nonpositive",
                f"requires an envelope constant K > 0, got K = {self.growth_k}",
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, r: int) -> "TestFunction":
        _require_finite("monomial", (r,))
        r = _require_order(r, "monomial_order")
        if r == 0:
            return cls(np.ones_like, (), 0.0, 1.0, label="1")
        return cls(_power, (r,), 1.0, _monomial_k(r), label=f"t^{r}")

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "TestFunction":
        coeffs = tuple(float(c) for c in coeffs)
        _require_finite("polynomial", coeffs)
        if not coeffs:
            raise ParameterError("polynomial_empty", "need at least one coefficient")
        polyval = np.polynomial.polynomial.polyval
        if len(coeffs) == 1:
            return cls(polyval, (coeffs,), 0.0, max(1.0, abs(coeffs[0])), label=f"poly{coeffs}")
        # a zero coefficient adds no growth, even where (j/e)^j overflows; the
        # zero polynomial keeps K = 1, as a constant does
        k = sum(abs(c) * _monomial_k(j) for j, c in enumerate(coeffs) if c) or 1.0
        return cls(polyval, (coeffs,), 1.0, k, label=f"poly{coeffs}")

    @classmethod
    def exp_scaled(cls, c: float) -> "TestFunction":
        _require_finite("exp_scaled", (c,))
        return cls(_exp, (float(c),), max(float(c), 0.0), 1.0, label=f"exp({c}t)")

    @classmethod
    def abs_shift(cls, c: float) -> "TestFunction":
        _require_finite("abs_shift", (c,))
        if c < 0:
            raise ParameterError("abs_shift_negative", f"shift must be >= 0, got {c}")
        shift = float(c)
        return cls(_abs_shift, (shift,), 1.0, shift + 0.5, kinks=(shift,), label=f"|t-{c}|")

    @classmethod
    def sqrt(cls) -> "TestFunction":
        return cls(np.sqrt, (), 1.0, 0.5, endpoint_power=0.5, label="sqrt(t)")

    @classmethod
    def sin_scaled(cls, c: float) -> "TestFunction":
        _require_finite("sin_scaled", (c,))
        return cls(_sin, (float(c),), 0.0, 1.0, label=f"sin({c}t)")

    @classmethod
    def sampled(cls, grid: Sequence[float], values: Sequence[float]) -> "TestFunction":
        grid = tuple(float(t) for t in grid)
        values = tuple(float(v) for v in values)
        _require_finite("sampled", grid + values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ParameterError("sampled_shape", "grid and values must have equal length >= 2")
        if grid[0] != 0.0:
            raise ParameterError("sampled_origin", f"sampled grid must start at 0, got {grid[0]}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("sampled_monotone", "sampled grid must be strictly increasing")
        k = max(1e-300, max(abs(v) for v in values))
        # linear interpolation, constant extrapolation at both ends
        return cls(np.interp, (grid, values), 0.0, k, kinks=grid, label=f"sampled[{len(grid)}]")

    @classmethod
    def from_callable(cls, fn: Callable, growth_a: float, growth_k: float,
                      label: str = "callable") -> "TestFunction":
        """Wrap an arbitrary vectorized callable fn(t) (internal / testing use)."""
        return cls(fn, (), growth_a, growth_k, label=label)

    @classmethod
    def centered_power(cls, x: float, r: int) -> "TestFunction":
        """(t - x)^r, the integrand of the r-th central moment at x, for finite
        x of either sign and a whole r >= 0.

        |t - x|^r <= 2^r (t^r + |x|^r) <= 2^r (max(1, (r/e)^r) + |x|^r) e^t.
        """
        _require_finite("centered_power", (x, r))
        _require_order(r, "centered_power_order")
        k = _pow(2.0, r) * (_monomial_k(r) + _pow(abs(x), r))
        return cls(_centered_power, (x, r), 1.0, k, label=f"(t-{x})^{r}")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t):
        out = np.asarray(self.fn(np.asarray(t, dtype=float), *self.args), dtype=float)
        return out if out.ndim else float(out)


def load_sampled(path) -> TestFunction:
    """Read a sampled function from two-column text (t, f(t)), '#' comments
    allowed.  Only the format is checked here (``FileFormatError``); the grid
    rules are :meth:`TestFunction.sampled`'s.
    """
    grid: list[float] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                t, v = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: non-numeric field") from exc
            grid.append(t)
            values.append(v)
    return TestFunction.sampled(grid, values)
