"""Operator application layer: parameters, test functions, quadrature, core."""

from .core import (
    apply_operator,
    apply_operator_grid,
    apply_szasz,
    coefficient,
    growth_bound,
    kernel_on_x_grid,
)
from .functions import TestFunction, load_sampled
from .params import DEFAULT_TRUNCATION, OperatorParams, TruncationPolicy, validate
from .quadrature import gamma_mean

__all__ = [
    "OperatorParams",
    "TruncationPolicy",
    "DEFAULT_TRUNCATION",
    "TestFunction",
    "load_sampled",
    "validate",
    "coefficient",
    "apply_operator",
    "apply_operator_grid",
    "apply_szasz",
    "kernel_on_x_grid",
    "growth_bound",
    "gamma_mean",
]
