"""Szász–Mirakyan–Laguerre–Durrmeyer operators on [0, ∞).

Library layout:

* :mod:`smld.special` -- stable scalar kernels (incomplete gamma, the
  finite Kummer sum behind the closed-form moments, log-domain Poisson
  weights),
* :mod:`smld.operator` -- operator application, kernel, certified k-sum
  truncation and coefficient quadrature,
* :mod:`smld.moments` -- raw/central moments in closed form, by recurrence,
  as explicit polynomials and as an exact binomial sum, plus leading-order
  predictions (the quadrature route is the operator's own),
* :mod:`smld.spectral` -- the coefficient matrix P and its two closed-form
  eigenpairs,
* :mod:`smld.analysis` -- convergence experiments in sup, weighted, and
  L_p norms, and the Schur-test quantities,
* :mod:`smld.verification` -- the named check battery behind
  ``smld verify-all``,
* :mod:`smld.cli` -- the command-line interface.
"""

from .operator import (
    DEFAULT_TRUNCATION,
    OperatorParams,
    TestFunction,
    TruncationPolicy,
    apply_operator,
    apply_operator_grid,
    apply_szasz,
    coefficient,
    growth_bound,
    load_sampled,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_TRUNCATION",
    "OperatorParams",
    "TestFunction",
    "TruncationPolicy",
    "apply_operator",
    "apply_operator_grid",
    "apply_szasz",
    "coefficient",
    "growth_bound",
    "load_sampled",
    "validate",
]
