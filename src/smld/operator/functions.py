"""Test functions on [0, inf) with declared exponential growth bounds.

Each function carries (growth_a, growth_k) with |f(t)| <= K exp(A t) for all
t >= 0; the truncation machinery uses the pair to certify tail bounds, so the
defaults below are chosen to be provable, not merely plausible:

* t^r        <= (r/e)^r e^t          (equality at t = r),
* |t - c|    <= (c + 1/2) e^t        (since t <= e^t / 2),
* sqrt(t)    <= e^t / 2,
* polynomials via the triangle inequality on their monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import FileFormatError, ParameterError

__all__ = ["TestFunction", "load_sampled"]


def _pow(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, or inf where the float overflows (an
    envelope constant that is inf is growth_not_finite to ``validate``,
    whatever the triple)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _require_finite(kind: str, values: tuple) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(
            "function_not_finite", f"{kind} parameters must be finite, got {values}"
        )


@dataclass(frozen=True)
class TestFunction:
    """A function on [0, inf), evaluable on numpy arrays.

    Use the constructors (:meth:`monomial`, :meth:`polynomial`, ...) rather
    than instantiating directly.  ``payload`` holds the kind's parameters as
    a flat tuple so instances hash and compare by value, which the
    coefficient cache relies on.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    payload: tuple = ()
    growth_a: float = 0.0
    growth_k: float = 1.0
    label: str = ""
    fn: Callable | None = field(default=None)

    # -- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, r: int) -> "TestFunction":
        _require_finite("monomial", (r,))
        if r < 0 or r != int(r):
            raise ParameterError("monomial_order", f"order must be a nonnegative integer, got {r}")
        r = int(r)
        if r == 0:
            return cls("monomial", (0,), 0.0, 1.0, "1")
        k = max(1.0, _pow(r / math.e, r))
        return cls("monomial", (r,), 1.0, k, f"t^{r}")

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "TestFunction":
        coeffs = tuple(float(c) for c in coeffs)
        _require_finite("polynomial", coeffs)
        if not coeffs:
            raise ParameterError("polynomial_empty", "need at least one coefficient")
        if len(coeffs) == 1:
            return cls("polynomial", coeffs, 0.0, max(1.0, abs(coeffs[0])), f"poly{coeffs}")
        # a zero coefficient adds no growth, even where (j/e)^j overflows; the
        # zero polynomial keeps K = 1, as a constant does
        k = sum(abs(c) * max(1.0, _pow(j / math.e, j)) for j, c in enumerate(coeffs) if c) or 1.0
        return cls("polynomial", coeffs, 1.0, k, f"poly{coeffs}")

    @classmethod
    def exp_scaled(cls, c: float) -> "TestFunction":
        _require_finite("exp_scaled", (c,))
        return cls("exp_scaled", (float(c),), max(float(c), 0.0), 1.0, f"exp({c}t)")

    @classmethod
    def abs_shift(cls, c: float) -> "TestFunction":
        _require_finite("abs_shift", (c,))
        if c < 0:
            raise ParameterError("abs_shift_negative", f"shift must be >= 0, got {c}")
        return cls("abs_shift", (float(c),), 1.0, float(c) + 0.5, f"|t-{c}|")

    @classmethod
    def sqrt(cls) -> "TestFunction":
        return cls("sqrt", (), 1.0, 0.5, "sqrt(t)")

    @classmethod
    def sin_scaled(cls, c: float) -> "TestFunction":
        _require_finite("sin_scaled", (c,))
        return cls("sin_scaled", (float(c),), 0.0, 1.0, f"sin({c}t)")

    @classmethod
    def sampled(cls, grid: Sequence[float], values: Sequence[float]) -> "TestFunction":
        grid = tuple(float(t) for t in grid)
        values = tuple(float(v) for v in values)
        _require_finite("sampled", grid + values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ParameterError("sampled_shape", "grid and values must have equal length >= 2")
        if grid[0] != 0.0:
            raise ParameterError("sampled_origin", "sampled grid must start at t = 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("sampled_monotone", "sampled grid must be strictly increasing")
        k = max(1e-300, max(abs(v) for v in values))
        return cls("sampled", grid + values, 0.0, k, f"sampled[{len(grid)}]")

    @classmethod
    def from_callable(cls, fn: Callable, growth_a: float, growth_k: float,
                      label: str = "callable") -> "TestFunction":
        """Wrap an arbitrary vectorized callable (internal / testing use)."""
        return cls("callable", (label, growth_a, growth_k), growth_a, growth_k, label, fn=fn)

    @classmethod
    def centered_power(cls, x: float, r: int) -> "TestFunction":
        """(t - x)^r, the integrand of the r-th central moment at x."""
        # (t-x)^r as a direct power: the expanded polynomial would
        # evaluate with ~1e-13 cancellation noise near t = x
        return cls.from_callable(
            lambda t: (t - x) ** r,
            growth_a=1.0,
            growth_k=_pow(2.0, r) * (max(1.0, _pow(r / math.e, r)) + _pow(x, r)),
            label=f"(t-{x})^{r}",
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        kind = self.kind
        if kind == "monomial":
            r = self.payload[0]
            out = np.ones_like(t) if r == 0 else t ** r
        elif kind == "polynomial":
            out = np.polynomial.polynomial.polyval(t, np.asarray(self.payload))
        elif kind == "exp_scaled":
            out = np.exp(self.payload[0] * t)
        elif kind == "abs_shift":
            out = np.abs(t - self.payload[0])
        elif kind == "sqrt":
            out = np.sqrt(t)
        elif kind == "sin_scaled":
            out = np.sin(self.payload[0] * t)
        elif kind == "sampled":
            m = len(self.payload) // 2
            grid = np.asarray(self.payload[:m])
            vals = np.asarray(self.payload[m:])
            out = np.interp(t, grid, vals)  # constant extrapolation at both ends
        elif kind == "callable":
            out = np.asarray(self.fn(t), dtype=float)
        else:  # pragma: no cover
            raise ParameterError("unknown_kind", f"unknown kind {kind!r}")
        return out if out.ndim else float(out)

    @property
    def kinks(self) -> tuple[float, ...]:
        """Locations where the function is not smooth (quadrature panel edges)."""
        if self.kind == "abs_shift":
            return (self.payload[0],)
        if self.kind == "sampled":
            return self.payload[: len(self.payload) // 2]
        return ()

    @property
    def endpoint_power(self) -> float:
        """p such that f(t) = t^p * (smooth near 0); quadrature absorbs it."""
        return 0.5 if self.kind == "sqrt" else 0.0


def load_sampled(path) -> TestFunction:
    """Read a sampled function from two-column text (t, f(t)).

    Comment lines start with '#'; t must be strictly increasing from 0.
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
    if len(grid) < 2:
        raise FileFormatError(f"{path}: need at least two samples")
    if grid[0] != 0.0:
        raise FileFormatError(f"{path}: grid must start at t = 0, got {grid[0]}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise FileFormatError(f"{path}: grid must be strictly increasing")
    return TestFunction.sampled(grid, values)
