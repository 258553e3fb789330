"""Each argument rule is stated once and holds at every call site.

The point rule (finite x >= 0), the grid rule (a 1-D grid), the order rule
(a finite whole number >= lo) and the three norm-parameter rules (p, gamma
and the interval's right end) each have one copy.  One table drives every
public call that applies them, and the other domain checks of the operator
layer: a bad value must raise that call's code, never a bare ValueError,
OverflowError or TypeError, and never return a number.  A source scan keeps
the point, grid and order rules in ``errors.py``, the tolerance of the
weight hypothesis gamma <= p beta in one place, and the norm kinds out of
the CLI.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

import smld
from smld.analysis import (
    NormSpec,
    korovkin_weighted_check,
    lp_error,
    modulus_of_continuity,
    operator_sup_error,
    rate_slope,
    schur_first_integral,
    schur_second_integral,
    weighted_lp_error,
    weighted_phi_norm,
)
from smld.cli import parse_config
from smld.errors import ParameterError, SmldError
from smld.moments import (
    asymptotic_prediction,
    asymptotic_ratio_table,
    central_moment_binomial,
    central_moment_explicit,
    diff_recurrence_residual,
    raw_moment_closed,
    raw_moment_explicit,
    raw_moments_recurrence,
)
from smld.operator import (
    OperatorParams,
    TestFunction,
    apply_operator,
    apply_operator_grid,
    apply_szasz,
    coefficient,
    kernel_on_x_grid,
)
from smld.operator.quadrature import gamma_mean
from smld.special import pochhammer, poisson_weight_log
from smld.spectral import _K_CAP, adaptive_K, build_P, eigen_operator_check, iterate_decay

nan, inf = math.nan, math.inf
P = OperatorParams(10.0, 0.5, 1.0)
F = TestFunction.exp_scaled(-1.0)


def _parse(*argv):
    """parse_config's usage error, raised as the coded error it prints."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        parse_config(list(argv))
    assert exit_.value.code == 2
    raise ParameterError(re.search(r"smld: error: (\w+): ", err.getvalue()).group(1), "")


def _norm(make, **fields):
    return lambda v: make(**{k: v if f is None else f for k, f in fields.items()})


_X = {-1.0: "x_negative", nan: "x_not_finite", inf: "x_not_finite", -inf: "x_not_finite"}
_ORDER = (-1, 2.5, nan, inf)
_ORDER1 = (0, 1.5, nan, inf)  # orders from r = 1 on

# (name, call of the bad value, bad values, code); code None takes the point
# rule's code for each value
_TABLE = [
    # -- the point rule --------------------------------------------------------
    ("apply_operator", lambda v: apply_operator(F, v, P), _X, None),
    ("apply_operator_grid", lambda v: apply_operator_grid(F, [1.0, v], P), _X, None),
    ("apply_szasz", lambda v: apply_szasz(F, v, 10.0), _X, None),
    ("raw_moment_closed.x", lambda v: raw_moment_closed(2, v, P), _X, None),
    ("raw_moments_recurrence.x", lambda v: raw_moments_recurrence(2, v, P), _X, None),
    ("raw_moment_explicit.x", lambda v: raw_moment_explicit(2, v, P), _X, None),
    ("diff_recurrence_residual.x", lambda v: diff_recurrence_residual(2, v, P, 1e-3), _X, None),
    ("central_moment_explicit.x", lambda v: central_moment_explicit(2, v, P), _X, None),
    ("central_moment_binomial.x", lambda v: central_moment_binomial(2, v, P), _X, None),
    ("asymptotic_prediction.x", lambda v: asymptotic_prediction(2, v, P), _X, None),
    ("asymptotic_ratio_table.x", lambda v: asymptotic_ratio_table(2, v, 0.5, 1.0, [10, 20]),
     _X, None),
    ("schur_first_integral.x", lambda v: schur_first_integral(P, 0.5, 1.0, v), _X, None),
    ("schur_first_integral.xs", lambda v: schur_first_integral(P, 0.5, 1.0, [0.0, v]), _X, None),
    ("iterate_decay.x", lambda v: iterate_decay(P, 2, [v]), _X, None),
    ("cli.--x", lambda v: _parse("moments", "--n", "10", f"--x={v}"), _X, None),
    ("cli.--x-grid", lambda v: _parse("apply", "--f", "abs:1", "--n", "10", f"--x-grid=1,{v}"),
     _X, None),
    # -- the grid rule: a 1-D grid, non-empty where a max is taken ---------------
    ("apply_operator_grid.shape", lambda v: apply_operator_grid(F, v, P),
     ([[0.5, 1.0], [1.5, 2.0]],), "x_grid_shape"),
    ("kernel_on_x_grid.shape", lambda v: kernel_on_x_grid(v, 1.0, P), ([[1.0, 2.0]],),
     "x_grid_shape"),
    ("eigen_operator_check.shape", lambda v: eigen_operator_check(P, "constant", v),
     ([], [[1.0, 2.0]]), "x_grid_shape"),
    ("iterate_decay.shape", lambda v: iterate_decay(P, 1, v), ([], [[1.0, 2.0]]),
     "x_grid_shape"),
    # -- a quadrature batch's shapes -------------------------------------------
    ("gamma_mean.shape", lambda v: gamma_mean(F, v, 10.0),
     ([], [nan], [inf], [1.5, nan], [0.0], [-1.0], [[2.5, 3.5]]), "shape_domain"),
    # -- the order rule --------------------------------------------------------
    ("raw_moment_closed.r", lambda v: raw_moment_closed(v, 1.0, P), _ORDER, "moment_order"),
    ("raw_moments_recurrence.r", lambda v: raw_moments_recurrence(v, 1.0, P), _ORDER,
     "moment_order"),
    ("raw_moment_explicit.r", lambda v: raw_moment_explicit(v, 1.0, P), _ORDER, "moment_order"),
    ("diff_recurrence_residual.r", lambda v: diff_recurrence_residual(v, 1.0, P, 1e-3), _ORDER1,
     "moment_order"),
    ("central_moment_explicit.r", lambda v: central_moment_explicit(v, 1.0, P), _ORDER,
     "moment_order"),
    ("central_moment_binomial.r", lambda v: central_moment_binomial(v, 1.0, P), _ORDER,
     "moment_order"),
    ("asymptotic_prediction.r", lambda v: asymptotic_prediction(v, 1.0, P), _ORDER1,
     "moment_order"),
    ("coefficient", lambda v: coefficient(F, v, P), _ORDER, "coefficient_index"),
    ("pochhammer", lambda v: pochhammer(1.0, v), _ORDER, "pochhammer_order"),
    ("poisson_weight_log.k", lambda v: poisson_weight_log(10.0, 1.0, v), _ORDER, "poisson_k"),
    ("poisson_weight_log.x", lambda v: poisson_weight_log(10.0, v, 1), (-1.0, nan), "poisson_x"),
    ("monomial", TestFunction.monomial, (-1, 2.5), "monomial_order"),
    ("monomial.finite", TestFunction.monomial, (nan, inf), "function_not_finite"),
    ("centered_power", lambda v: TestFunction.centered_power(1.0, v), (-1, 2.5),
     "centered_power_order"),
    ("centered_power.finite", lambda v: TestFunction.centered_power(1.0, v), (nan, inf),
     "function_not_finite"),
    ("iterate_decay.r", lambda v: iterate_decay(P, v, [1.0]), _ORDER, "iterate_steps"),
    ("build_P", lambda v: build_P(P, v), (0, 2.5, nan, inf, _K_CAP + 1), "matrix_order"),
    # -- the other function and kernel domains ----------------------------------
    ("abs_shift", TestFunction.abs_shift, (-1.0,), "abs_shift_negative"),
    ("polynomial", TestFunction.polynomial, ([],), "polynomial_empty"),
    ("sampled.values", lambda v: TestFunction.sampled([0.0, 1.0], v), ([0.0],), "sampled_shape"),
    ("kernel_on_x_grid.t", lambda v: kernel_on_x_grid([1.0], v, P), (0.0,), "kernel_domain"),
    ("kernel_on_x_grid.x", lambda v: kernel_on_x_grid([v], 1.0, P), _X, None),
    ("adaptive_K", lambda v: adaptive_K(OperatorParams(10.0, 0.0, v)), (9.0,), "k_max_exceeded"),
    # (n - beta)^2 past the float range, checked before it is squared
    ("korovkin_weighted_check", lambda v: korovkin_weighted_check(OperatorParams(v)),
     (1e155, 1e160), "korovkin_rate"),
    # -- the norm parameters ---------------------------------------------------
    ("NormSpec.lp.p", _norm(NormSpec.lp, p=None, r_cut=2.0), (0.5, nan, inf), "norm_p"),
    ("NormSpec.weighted_lp.p", _norm(NormSpec.weighted_lp, p=None, gamma=0.0, r_max=2.0),
     (0.5, nan, inf), "norm_p"),
    ("NormSpec.weighted_lp.gamma", _norm(NormSpec.weighted_lp, p=1.0, gamma=None, r_max=2.0),
     (-1.0, nan, inf), "norm_gamma"),
    ("NormSpec.sup_compact.a", _norm(NormSpec.sup_compact, a=None), (0.0, nan, inf),
     "norm_interval"),
    ("NormSpec.weighted_phi.x_max", _norm(NormSpec.weighted_phi, x_max=None), (0.0, nan, inf),
     "norm_interval"),
    ("NormSpec.lp.r_cut", _norm(NormSpec.lp, p=1.0, r_cut=None), (0.0, nan, inf),
     "norm_interval"),
    ("NormSpec.weighted_lp.r_max", _norm(NormSpec.weighted_lp, p=1.0, gamma=0.0, r_max=None),
     (0.0, nan, inf), "norm_interval"),
    ("modulus_of_continuity", lambda v: modulus_of_continuity(F, 0.1, v), (0.0, nan, inf),
     "norm_interval"),
    ("operator_sup_error", lambda v: operator_sup_error(F, P, v), (0.0, nan, inf),
     "norm_interval"),
    ("weighted_phi_norm", lambda v: weighted_phi_norm(np.sin, v), (0.0, nan, inf),
     "norm_interval"),
    ("weighted_lp_error.p", lambda v: weighted_lp_error(F, P, v, 0.0, 2.0), (0.5, nan, inf),
     "norm_p"),
    ("weighted_lp_error.gamma", lambda v: weighted_lp_error(F, P, 1.0, v, 2.0), (-1.0, nan, inf),
     "norm_gamma"),
    ("weighted_lp_error.r_max", lambda v: weighted_lp_error(F, P, 1.0, 0.0, v), (0.0, nan, inf),
     "norm_interval"),
    ("lp_error.p", lambda v: lp_error(F, P, v, 2.0), (0.5, nan, inf), "norm_p"),
    ("lp_error.r_cut", lambda v: lp_error(F, P, 1.0, v), (0.0, nan, inf), "norm_interval"),
    ("schur_first_integral.p", lambda v: schur_first_integral(P, 0.5, v, 1.0), (0.5, nan, inf),
     "norm_p"),
    ("schur_first_integral.gamma", lambda v: schur_first_integral(P, v, 1.0, 1.0),
     (-1.0, nan, inf), "norm_gamma"),
    ("schur_second_integral.p", lambda v: schur_second_integral(P, 0.5, v, 1.0), (0.5, nan, inf),
     "norm_p"),
    ("schur_second_integral.gamma", lambda v: schur_second_integral(P, v, 1.0, 1.0),
     (-1.0, nan, inf), "norm_gamma"),
    ("rate_slope.n", lambda v: rate_slope([(v, 1.0), (2.0, 0.5), (4.0, 0.25)]), (0.0, nan, inf),
     "degenerate_data"),
]

_ROWS = [
    pytest.param(call, v, code or _X[v], id=f"{name}-{v}")
    for name, call, values, code in _TABLE
    for v in values
]


@pytest.mark.parametrize("call, value, code", _ROWS)
def test_bad_value_raises_its_code(call, value, code):
    with pytest.raises(SmldError) as err:
        call(value)
    assert err.value.code == code


_SRC = Path(smld.__file__).resolve().parent
# what only errors.py may hold: the order rule's integer test, the point
# and grid rules' codes, and the norm check the three shared ones replaced
_ONE_PLACE = ("!= int(", '"x_not_finite"', '"x_negative"', '"x_grid_shape"', "def _finite_above")


def test_each_rule_lives_in_errors():
    sources = {path: path.read_text() for path in sorted(_SRC.rglob("*.py"))}
    found = [
        f"{path.relative_to(_SRC)}: {needle}"
        for path, text in sources.items()
        if path != _SRC / "errors.py"
        for needle in _ONE_PLACE
        if needle in text
    ]
    assert len(sources) >= 10
    assert found == []
    # the weight hypothesis gamma <= p beta has one tolerance, and the CLI
    # does not switch on a norm kind
    assert sum(text.count("+ 1e-15") for text in sources.values()) == 1
    assert ".kind" not in sources[_SRC / "cli.py"]
