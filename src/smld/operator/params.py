"""Operator parameters and precondition checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .functions import TestFunction

__all__ = ["OperatorParams", "validate"]


@dataclass(frozen=True)
class OperatorParams:
    """The triple (n, alpha, beta) indexing one operator.

    n is a positive real (nothing requires it to be an integer); beta may be
    negative.  Validity (n > 0, n > beta, alpha > -1, and compatibility
    with a function's growth class) is checked by :func:`validate`, not at
    construction, so invalid triples can be reported with precise codes.
    """

    n: float
    alpha: float = 0.0
    beta: float = 0.0

    @property
    def rate(self) -> float:
        """Exponential rate n - beta of the coefficient integrals."""
        return self.n - self.beta


def validate(params: OperatorParams, f: "TestFunction | None" = None) -> None:
    """Check that the operator is well defined (and applicable to ``f``).

    Raises :class:`ParameterError` with a distinct code per violated
    constraint: ``params_not_finite``, ``n_nonpositive``, ``n_le_beta``,
    ``alpha_le_minus_one``, ``growth_not_finite`` (f's envelope
    |f(t)| <= K e^(A t) has a non-finite A or K, as an overflowing
    polynomial's K is), or ``growth_incompatible`` (n <= beta + A, so the
    coefficient integrals of a function with growth rate A would diverge).
    """
    if not all(math.isfinite(v) for v in (params.n, params.alpha, params.beta)):
        raise ParameterError(
            "params_not_finite",
            f"requires finite n, alpha and beta, got n = {params.n}, "
            f"alpha = {params.alpha}, beta = {params.beta}",
        )
    if not params.n > 0.0:
        raise ParameterError("n_nonpositive", f"requires n > 0, got n = {params.n}")
    if not params.n > params.beta:
        raise ParameterError(
            "n_le_beta", f"requires n > beta, got n = {params.n}, beta = {params.beta}"
        )
    if not params.alpha > -1.0:
        raise ParameterError(
            "alpha_le_minus_one", f"requires alpha > -1, got alpha = {params.alpha}"
        )
    if f is None:
        return
    if not (math.isfinite(f.growth_a) and math.isfinite(f.growth_k)):
        raise ParameterError(
            "growth_not_finite",
            f"requires a finite growth envelope, got A = {f.growth_a}, K = {f.growth_k}",
        )
    if not params.n > params.beta + f.growth_a:
        raise ParameterError(
            "growth_incompatible",
            f"requires n > beta + A for growth class A = {f.growth_a}; "
            f"got n = {params.n}, beta = {params.beta}",
        )
