"""Command-line front end: parse flags, dispatch, emit CSV/JSON tables.

Commands: moments, central-moments, asymptotics, apply, converge, eigen,
schur, verify-all.  Output is deterministic: identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 usage error (bad flags, an unwritable --output, or parameters outside an
operator's domain, such as n <= beta + A for a function of growth class A),
3 numerical failure (for example a certified k window wider than 50,000 terms).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from . import analysis, moments, spectral, verification
from .errors import ParameterError, SmldError, _require, _require_points
from .operator import (
    OperatorParams,
    TestFunction,
    apply_operator,
    apply_szasz,
    load_sampled,
)

__all__ = ["Table", "parse_config", "run", "emit", "main"]


@dataclass
class Table:
    columns: list[str]
    rows: list[tuple]


def _parse_function(spec: str) -> TestFunction:
    kind, _, arg = spec.partition(":")
    if kind == "monomial":
        return TestFunction.monomial(int(arg))
    if kind == "poly":
        return TestFunction.polynomial([float(c) for c in arg.split(",")])
    if kind == "exp":
        return TestFunction.exp_scaled(float(arg))
    if kind == "abs":
        return TestFunction.abs_shift(float(arg))
    if kind == "sqrt":
        if arg:
            raise ValueError("sqrt takes no argument")
        return TestFunction.sqrt()
    if kind == "sin":
        return TestFunction.sin_scaled(float(arg))
    if kind == "file":
        return load_sampled(arg)
    raise ValueError(
        f"unknown function spec {spec!r}; expected monomial:r, poly:c0,c1,..., "
        "exp:c, abs:c, sqrt, sin:c, or file:<path>"
    )


# each --norm spec: its NormSpec constructor and how many numbers it takes
_NORMS = {
    "sup": (analysis.NormSpec.sup_compact, 1),
    "phi": (analysis.NormSpec.weighted_phi, 1),
    "lp": (analysis.NormSpec.lp, 2),
    "wlp": (analysis.NormSpec.weighted_lp, 3),
}


def _parse_norm(spec: str) -> analysis.NormSpec:
    kind, _, arg = spec.partition(":")
    parts = [float(v) for v in arg.split(",")] if arg else []
    make, arity = _NORMS.get(kind, (None, None))
    if len(parts) != arity:
        raise ValueError(
            f"unknown norm spec {spec!r}; expected sup:a, phi:Xmax, lp:p,R or wlp:p,gamma,Rmax"
        )
    return make(*parts)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused: building it costs more
    than parsing, and ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="smld",
        description="Szasz-Mirakyan-Laguerre-Durrmeyer operators: "
        "moments, spectra, and convergence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    out.add_argument("--output", default=None, help="output path (default stdout)")

    prm = argparse.ArgumentParser(add_help=False)
    prm.add_argument("--n", type=float, required=True, help="operator index n > beta")
    prm.add_argument("--alpha", type=float, default=0.0, help="Laguerre exponent > -1")
    prm.add_argument("--beta", type=float, default=0.0, help="exponential tilt < n")

    p = sub.add_parser("moments", parents=[out, prm], help="raw moments by every route")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--max-r", type=int, default=4)

    p = sub.add_parser("central-moments", parents=[out, prm], help="central moments")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--max-r", type=int, default=4)

    p = sub.add_parser("asymptotics", parents=[out], help="central-moment ratio table")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--n-grid", type=_float_list, required=True,
                   help="comma-separated ascending n values")

    p = sub.add_parser("apply", parents=[out, prm], help="apply the operator to f")
    p.add_argument("--f", required=True, help="function spec (monomial:r, poly:..., exp:c, "
                   "abs:c, sqrt, sin:c, file:<path>)")
    p.add_argument("--x-grid", type=_float_list, default=(0.0, 1.0, 2.0))
    p.add_argument("--operator", choices=("mn", "szasz"), default="mn")

    p = sub.add_parser("converge", parents=[out], help="error sweep in a chosen norm")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--f", required=True)
    p.add_argument("--norm", required=True, help="sup:a, phi:Xmax, lp:p,R or wlp:p,gamma,Rmax")
    p.add_argument("--n-grid", type=_float_list, required=True)

    p = sub.add_parser("eigen", parents=[out, prm], help="verify both eigenpairs")
    p.add_argument("--x-grid", type=_float_list, default=(0.0, 1.0, 2.0, 5.0))
    p.add_argument("--k", type=int, default=None, help="matrix truncation (default adaptive)")

    p = sub.add_parser("schur", parents=[out, prm], help="Schur-test quantities")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--x-grid", type=_float_list, default=(0.0, 1.0, 5.0, 20.0))
    p.add_argument("--t-grid", type=_float_list, default=(0.5, 1.0, 2.0, 5.0))

    sub.add_parser("verify-all", parents=[out], help="run the whole verification battery")
    return parser


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and validate argv; exits with code 2 on usage errors.

    Returns the argparse namespace of the command's flags, with ``params``
    (OperatorParams) attached where the command takes --n, --alpha and
    --beta, and ``f`` and ``norm`` parsed in place.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "max_r", 0) < 0:
        parser.error("--max-r: requires max_r >= 0")
    n_grid = getattr(ns, "n_grid", ())
    try:
        _require_points((getattr(ns, "x", 0.0), *getattr(ns, "x_grid", ())))
        ts = np.asarray(getattr(ns, "t_grid", ()), dtype=float)
        _require(np.isfinite(ts), ts, "schur_t_not_finite", "finite t")
        if hasattr(ns, "n"):
            ns.params = OperatorParams(ns.n, ns.alpha, ns.beta)
        for n in n_grid:  # each grid triple raises its code here, not mid-run
            OperatorParams(n, ns.alpha, ns.beta)
        if hasattr(ns, "f"):
            ns.f = _parse_function(ns.f)
        if hasattr(ns, "norm"):
            ns.norm = _parse_norm(ns.norm)
    except SmldError as exc:
        parser.error(f"{exc.code}: {exc}")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        parser.error("--n-grid: values must be strictly ascending")
    return ns


# -- dispatch -------------------------------------------------------------------


def _cross_residual(values: list[float]) -> float:
    """Largest pairwise |a - b| / max(|a|, |b|, 1) among the routes' values."""
    worst = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            denom = max(abs(values[i]), abs(values[j]), 1.0)
            worst = max(worst, abs(values[i] - values[j]) / denom)
    return worst


def _run_moments(cfg: argparse.Namespace) -> Table:
    recurrence = moments.raw_moments_recurrence(cfg.max_r, cfg.x, cfg.params)
    rows = []
    for r in range(cfg.max_r + 1):
        closed = moments.raw_moment_closed(r, cfg.x, cfg.params)
        explicit = moments.raw_moment_explicit(r, cfg.x, cfg.params)
        quad = apply_operator(TestFunction.monomial(r), cfg.x, cfg.params)
        residual = _cross_residual([closed, recurrence[r], explicit, quad])
        rows.append((r, cfg.x, closed, recurrence[r], explicit, quad, residual))
    return Table(["r", "x", "closed", "recurrence", "explicit", "quadrature", "max_residual"],
                 rows)


def _run_central_moments(cfg: argparse.Namespace) -> Table:
    rows = []
    for r in range(cfg.max_r + 1):
        explicit = moments.central_moment_explicit(r, cfg.x, cfg.params) if r <= 4 else None
        binom = moments.central_moment_binomial(r, cfg.x, cfg.params)
        quad = apply_operator(TestFunction.centered_power(cfg.x, r), cfg.x, cfg.params)
        present = [v for v in (explicit, binom, quad) if v is not None]
        rows.append((r, cfg.x, explicit, binom, quad, _cross_residual(present)))
    return Table(["r", "x", "explicit", "binomial", "quadrature", "max_residual"], rows)


def _run_asymptotics(cfg: argparse.Namespace) -> Table:
    table = moments.asymptotic_ratio_table(cfg.r, cfg.x, cfg.alpha, cfg.beta, cfg.n_grid)
    rows = [
        (row.n, row.exact, row.predicted, row.two_term, row.ratio, row.flagged)
        for row in table
    ]
    return Table(["n", "exact", "predicted", "two_term", "ratio", "flagged"], rows)


def _run_apply(cfg: argparse.Namespace) -> Table:
    rows = []
    for x in cfg.x_grid:
        if cfg.operator == "szasz":
            val = apply_szasz(cfg.f, x, cfg.params.n)
        else:
            val = apply_operator(cfg.f, x, cfg.params)
        rows.append((x, val, float(cfg.f(x))))
    return Table(["x", "operator_value", "f_value"], rows)


def _run_converge(cfg: argparse.Namespace) -> Table:
    norm, f = cfg.norm, cfg.f
    sup = norm.fn is analysis.operator_sup_error  # the one norm with an omega ratio
    if sup:
        errors, ratios = analysis.compact_estimate_check(f, cfg.n_grid, cfg.alpha, cfg.beta,
                                                         *norm.args)
    else:
        errors = [norm.error(f, OperatorParams(n, cfg.alpha, cfg.beta)) for n in cfg.n_grid]
    slope = None
    if sum(e > 0 for e in errors) >= 3:  # what rate_slope needs
        slope = analysis.rate_slope(list(zip(cfg.n_grid, errors)))
    if sup:
        rows = [(n, e, q, slope) for n, e, q in zip(cfg.n_grid, errors, ratios)]
        return Table(["n", "error", "omega_ratio", "fitted_slope"], rows)
    rows = [(n, e, slope) for n, e in zip(cfg.n_grid, errors)]
    return Table(["n", "error", "fitted_slope"], rows)


def _run_eigen(cfg: argparse.Namespace) -> Table:
    params = cfg.params
    if cfg.k is not None:
        p_mat = spectral.build_P(params, cfg.k)
    else:
        p_mat = spectral.build_P_adaptive(params)
    upper_deficit, checks = spectral.upper_row_check(p_mat)
    rows = []
    for vec in checks:
        op = spectral.eigen_operator_check(params, vec.which, cfg.x_grid)
        rows.append(
            (vec.which, vec.lam, vec.vector_residual, op.operator_residual, p_mat.K, upper_deficit)
        )
    return Table(
        ["which", "lambda", "vector_residual", "operator_residual", "K", "max_upper_deficit"],
        rows,
    )


def _run_schur(cfg: argparse.Namespace) -> Table:
    params = cfg.params
    rows = []
    hyp = analysis.weight_hypothesis(params, cfg.gamma, cfg.p)
    first = analysis.schur_first_integral(params, cfg.gamma, cfg.p, cfg.x_grid)
    for x, val in zip(cfg.x_grid, first.tolist()):
        rows.append(("first_integral", x, val, hyp))
    lemma_ok = analysis.schur_lemma_applicable(params)
    e_values = analysis.schur_E(params, cfg.t_grid)
    for t, val in zip(cfg.t_grid, e_values.tolist()):
        rows.append(("E", t, val, lemma_ok))
    for t in cfg.t_grid:
        res = analysis.schur_second_integral(params, cfg.gamma, cfg.p, t)
        rows.append(("second_direct", t, res.direct, res.hypothesis_ok))
        rows.append(("second_bound", t, res.bound, res.hypothesis_ok))
    return Table(["quantity", "arg", "value", "hypothesis_ok"], rows)


def _run_verify_all(cfg: argparse.Namespace) -> tuple[Table, bool]:
    results = verification.run_all()
    rows = [(r.name, r.measured, r.tolerance, r.passed, r.detail) for r in results]
    return Table(["check", "measured", "tolerance", "passed", "detail"], rows), all(
        r.passed for r in results
    )


# -- output ----------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy scalar prints as a plain float
    if isinstance(value, str) and ("," in value or '"' in value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _json_cell(value):
    # strict JSON has no Infinity or NaN: write them as their CSV text
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def emit(table: Table, fmt: str, destination) -> None:
    """Write the table as CSV (header row, '.'-decimal) or strict JSON (stable
    keys; a non-finite float is the string its CSV cell holds)."""
    if fmt == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        destination.write("\n".join(lines) + "\n")
    else:
        payload = [dict(zip(table.columns, map(_json_cell, row))) for row in table.rows]
        destination.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


_HANDLERS = {
    "moments": _run_moments,
    "central-moments": _run_central_moments,
    "asymptotics": _run_asymptotics,
    "apply": _run_apply,
    "converge": _run_converge,
    "eigen": _run_eigen,
    "schur": _run_schur,
    "verify-all": _run_verify_all,
}


def run(config: argparse.Namespace) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    try:
        result = _HANDLERS[config.command](config)
    except SmldError as exc:
        print(f"smld: {exc.code}: {exc}", file=sys.stderr)
        # a parameter outside the operator's domain is a usage error
        return 2 if isinstance(exc, ParameterError) else 3
    # only verify-all reports a pass/fail verdict along with its table
    table, all_ok = result if isinstance(result, tuple) else (result, True)
    if config.output:
        try:
            fh = open(config.output, "w", encoding="utf-8", newline="")
        except OSError as exc:
            print(f"smld: output_unwritable: {exc}", file=sys.stderr)
            return 2
        with fh:
            emit(table, config.fmt, fh)
    else:
        emit(table, config.fmt, sys.stdout)
    return 0 if all_ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else list(argv))
    return run(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
