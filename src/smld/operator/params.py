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
    negative.  Construction, also through ``dataclasses.replace``, raises
    :class:`ParameterError` with a distinct code per violated constraint:
    ``params_not_finite``, ``n_nonpositive``, ``n_le_beta`` or
    ``alpha_le_minus_one``.  So every instance is a valid triple.
    """

    n: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.n, self.alpha, self.beta)):
            raise ParameterError(
                "params_not_finite",
                f"requires finite n, alpha and beta, got n = {self.n}, "
                f"alpha = {self.alpha}, beta = {self.beta}",
            )
        if not self.n > 0.0:
            raise ParameterError("n_nonpositive", f"requires n > 0, got n = {self.n}")
        if not self.n > self.beta:
            raise ParameterError(
                "n_le_beta", f"requires n > beta, got n = {self.n}, beta = {self.beta}"
            )
        if not self.alpha > -1.0:
            raise ParameterError(
                "alpha_le_minus_one", f"requires alpha > -1, got alpha = {self.alpha}"
            )

    @property
    def rate(self) -> float:
        """Exponential rate n - beta of the coefficient integrals."""
        return self.n - self.beta


def validate(params: OperatorParams, f: "TestFunction") -> None:
    """Check that the operator applies to ``f``: n > beta + A for its growth
    envelope |f(t)| <= K e^(A t), which is finite once f is built.

    Raises :class:`ParameterError` ``growth_incompatible`` where n <= beta + A,
    so the coefficient integrals of a function with growth rate A would
    diverge.
    """
    if not params.n > params.beta + f.growth_a:
        raise ParameterError(
            "growth_incompatible",
            f"requires n > beta + A for growth class A = {f.growth_a}; "
            f"got n = {params.n}, beta = {params.beta}",
        )
