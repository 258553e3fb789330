"""The benchmark's workloads: seeded inputs, how each unit of work runs, and
the correctness gate every request must pass.

A workload is a list of units (a battery pass, a round of CLI requests, a
convergence sweep).  How many units a run makes is fixed by ``--seconds``
alone, so two versions of smld are always measured on the same work.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from smld import analysis, cli, verification
from smld.moments import raw_moment_closed
from smld.operator import OperatorParams, TestFunction, growth_bound


@dataclass(frozen=True)
class Outcome:
    """One timed request: what it was, how long it took, whether it passed."""

    label: str
    latency_s: float
    ok: bool
    detail: str = ""


def _failure(label: str, latency: float) -> Outcome:
    return Outcome(label, latency, False, traceback.format_exc(limit=3))


# -- battery -------------------------------------------------------------------

# Result names of every check in the battery, in report order.
BATTERY_RESULTS = {
    "01": ("01_normalization",),
    "02": ("02a_closed_vs_recurrence", "02b_closed_vs_explicit", "02c_closed_vs_quadrature"),
    "03": ("03_three_term_residual",),
    "04": ("04a_diff_recurrence_residual", "04b_diff_recurrence_order"),
    "05": ("05a_central_explicit_vs_binomial", "05b_central_explicit_vs_quadrature"),
    "06": ("06a_asymptotic_r1", "06b_asymptotic_r2", "06c_asymptotic_r3"),
    "07": ("07a_eigen_operator_residual", "07b_row_deficits", "07c_eigen_vector_residual",
           "07d_lambda2_vs_operator_ratio", "07e_ratio_x_independent"),
    "08": ("08_iterate_decay",),
    "09": ("09_compact_estimate",),
    "10": ("10a_korovkin_e0", "10b_korovkin_e1_halving", "10c_korovkin_e2_halving"),
    "11": ("11_local_lp_decrease",),
    "12": ("12a_schur_first_integral", "12b_schur_E_sup_monotone",
           "12b2_schur_E_alpha0_bounded", "12c_schur_second_bound"),
    "13": ("13_mazhar_totik_regression",),
    "14": ("14_interpolation_at_zero",),
}

# The documented findings fail on purpose; their measured values, printed
# as %.3e, must not move.
BATTERY_FINDINGS = {
    "06c_asymptotic_r3": "3.000e+00",
    "10c_korovkin_e2_halving": "2.355e-01",
    "12c_schur_second_bound": "1.067e+00",
}

# Checks 02, 05 and 07 take about 90% of the battery's 65-80 s (2-core Xeon)
# from a cold cache, more than one run may take; the ``battery`` workload
# leaves them out and ``battery_full`` (the baseline, not listed in
# BENCHMARK.json) runs all fourteen.
BATTERY_HEAVY = ("02", "05", "07")


def check_number(check) -> str:
    return check.__name__.split("_")[1]


def battery_gate(number: str, results) -> str | None:
    """None if the check's results match the battery's known outcome."""
    names = tuple(r.name for r in results)
    if names != BATTERY_RESULTS[number]:
        return f"check {number} returned {names}"
    for r in results:
        if r.passed != (r.name not in BATTERY_FINDINGS):
            return f"{r.name}: passed = {r.passed}, measured {r.measured!r}"
        finding = BATTERY_FINDINGS.get(r.name)
        if finding is not None and f"{r.measured:.3e}" != finding:
            return f"{r.name}: measured {r.measured:.3e}, documented {finding}"
    return None


def battery_inputs(full: bool, units: int) -> list[tuple[str, ...]]:
    """Fixed inputs: each unit is one pass over the selected check numbers."""
    numbers = tuple(n for n in BATTERY_RESULTS if full or n not in BATTERY_HEAVY)
    return [numbers] * units


def run_battery_pass(numbers: Sequence[str], mark: Callable[[], None]) -> list[Outcome]:
    """One pass over the checks (the runner starts each pass from cold caches)."""
    outcomes = []
    for check in verification.ALL_CHECKS:
        number = check_number(check)
        if number not in numbers:
            continue
        mark()
        t0 = time.perf_counter()
        try:
            results = check()
        except Exception:
            outcomes.append(_failure(check.__name__, time.perf_counter() - t0))
            continue
        latency = time.perf_counter() - t0
        problem = battery_gate(number, results)
        outcomes.append(Outcome(check.__name__, latency, problem is None, problem or ""))
    return outcomes


# -- seeded test functions -----------------------------------------------------

KINDS = ("monomial", "poly", "exp", "sin", "abs", "sqrt")


@dataclass(frozen=True)
class FunctionChoice:
    kind: str
    args: tuple = ()

    @property
    def spec(self) -> str:
        """The function in ``smld --f`` syntax; repr keeps every digit."""
        if self.kind == "sqrt":
            return "sqrt"
        return f"{self.kind}:" + ",".join(repr(a) for a in self.args)

    def build(self) -> TestFunction:
        if self.kind == "monomial":
            return TestFunction.monomial(self.args[0])
        if self.kind == "poly":
            return TestFunction.polynomial(self.args)
        if self.kind == "exp":
            return TestFunction.exp_scaled(self.args[0])
        if self.kind == "sin":
            return TestFunction.sin_scaled(self.args[0])
        if self.kind == "abs":
            return TestFunction.abs_shift(self.args[0])
        return TestFunction.sqrt()


def _function(kind: str, u: float, rng: random.Random) -> FunctionChoice:
    """A catalog function whose main parameter is set by u in [0, 1)."""
    if kind == "monomial":
        return FunctionChoice(kind, (1 + int(4 * u),))
    if kind == "poly":
        return FunctionChoice(kind, tuple(rng.uniform(-1.0, 1.0) for _ in range(2 + int(3 * u))))
    if kind == "exp":
        return FunctionChoice(kind, (2.0 * u - 1.0,))
    if kind == "sin":
        return FunctionChoice(kind, (0.5 + 2.5 * u,))
    if kind == "abs":
        return FunctionChoice(kind, (3.0 * u,))
    return FunctionChoice("sqrt")


def _functions(rng: random.Random, kinds: Sequence[str]) -> list[FunctionChoice]:
    """One function per entry; each kind's parameter is stratified over its entries."""
    draws = {kind: _strata(rng, kinds.count(kind)) for kind in KINDS}
    return [_function(kind, draws[kind].pop(), rng) for kind in kinds]


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal bins of [0, 1), shuffled.

    Drawing every input dimension this way (a Latin hypercube) gives each
    seed other inputs with the same spread of work, so runs on different
    seeds measure comparable loads.
    """
    bins = list(range(count))
    rng.shuffle(bins)
    return [(b + rng.random()) / count for b in bins]


def _alpha(u: float) -> float:
    return 2.0 - 3.0 * u  # u in [0, 1) -> alpha in (-1, 2]


# -- apply_cold ------------------------------------------------------------------

# Why: the latency a CLI user pays for one-shot ``smld apply``.  Every request
# has its own f and parameters, so no coefficient is shared across requests;
# the cost sits in truncation (reg_lower_gamma), Poisson weights and per-k
# gamma_mean quadratures, and grows with n x.  n stays below the k_max wall.
APPLY_N_RANGE = (5.0, 4000.0)
APPLY_X_MAX = 5.0
APPLY_REL_TOL = 1e-10


@dataclass(frozen=True)
class ApplyRequest:
    f: FunctionChoice
    n: float
    alpha: float
    beta: float
    xs: tuple[float, ...]

    @property
    def params(self) -> OperatorParams:
        return OperatorParams(self.n, self.alpha, self.beta)

    def argv(self) -> list[str]:
        return [
            "apply",
            f"--f={self.f.spec}",
            f"--n={self.n!r}",
            f"--alpha={self.alpha!r}",
            f"--beta={self.beta!r}",
            "--x-grid=" + ",".join(repr(x) for x in self.xs),
        ]


def apply_cold_inputs(seed: int, units: int) -> list[ApplyRequest]:
    """``units`` requests in random order.

    Request j draws log n from the j-th of ``units`` equal bins of the range
    and has function kind j mod 6, so every kind spans the whole n range;
    alpha, beta, each kind's parameter and each of the three points (one in
    each third of [0, 5]) are drawn the same way.
    """
    rng = random.Random(f"apply_cold:{seed}")
    kinds = list(KINDS)
    rng.shuffle(kinds)
    lo, hi = (math.log(v) for v in APPLY_N_RANGE)
    alphas, betas, *points = (_strata(rng, units) for _ in range(5))
    functions = _functions(rng, [kinds[j % len(kinds)] for j in range(units)])
    requests = []
    for j, f in enumerate(functions):
        n = math.exp(lo + (j + rng.random()) * (hi - lo) / units)
        xs = tuple((i + u[j]) * APPLY_X_MAX / 3.0 for i, u in enumerate(points))
        requests.append(ApplyRequest(f, n, _alpha(alphas[j]), betas[j] * min(2.0, n / 2.0), xs))
    rng.shuffle(requests)
    return requests


def apply_reference(f: FunctionChoice, x: float, params: OperatorParams) -> float:
    """Closed form of the operator applied to a smooth catalog function."""
    rate = params.rate
    if f.kind == "monomial":
        return raw_moment_closed(f.args[0], x, params)
    if f.kind == "poly":
        return math.fsum(c * raw_moment_closed(j, x, params) for j, c in enumerate(f.args))
    # mean of e^(ct) under Gamma(k + alpha + 1, rate), summed against the
    # Poisson weights; sin is the imaginary part at c -> i c
    c = f.args[0] if f.kind == "exp" else 1j * f.args[0]
    value = (rate / (rate - c)) ** (params.alpha + 1.0) * cmath.exp(params.n * x * c / (rate - c))
    return value.real if f.kind == "exp" else value.imag


def apply_gate(request: ApplyRequest, x: float, value: float) -> bool:
    """Closed form to 1e-10 relative; abs and sqrt only within their growth bound."""
    if not math.isfinite(value):
        return False
    params = request.params
    if request.f.kind in ("abs", "sqrt"):
        return 0.0 <= value <= growth_bound(params, request.f.build(), x)
    ref = apply_reference(request.f, x, params)
    return abs(value - ref) <= APPLY_REL_TOL * max(abs(ref), 1.0)


def run_apply_request(request: ApplyRequest, mark: Callable[[], None]) -> list[Outcome]:
    """The request goes through ``smld apply`` in process, output captured."""
    mark()
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(cli.parse_config(request.argv()))
    except (Exception, SystemExit):
        return [_failure(request.f.kind, time.perf_counter() - t0)]
    latency = time.perf_counter() - t0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    ok = code == 0 and len(rows) == len(request.xs) and all(
        float(x) == want and apply_gate(request, want, float(value))
        for (x, value, _), want in zip(rows, request.xs)
    )
    detail = "" if ok else f"exit {code}: {' '.join(request.argv())}: {out.getvalue()!r}"
    return [Outcome(request.f.kind, latency, ok, detail)]


# -- converge_reuse --------------------------------------------------------------

# Why: a long-lived library process sweeping n for one (f, alpha, beta) and
# computing four error norms on the same (f, params) one after another.  It
# runs the grid path (apply_operator_grid on 576 to 2001 points), and most
# coefficients come from the cache filled by the first norm of each n.
CONVERGE_N_GRID = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
CONVERGE_R = 2.0
CONVERGE_NORMS = ("lp1", "lp2", "weighted_lp1", "sup")


@dataclass(frozen=True)
class ConvergeSweep:
    f: FunctionChoice
    alpha: float
    beta: float


def converge_reuse_inputs(seed: int, units: int) -> list[list[ConvergeSweep]]:
    """``units`` blocks of sweeps, each block one sweep per function kind.

    alpha, beta and each kind's parameter are drawn from equal bins over all
    sweeps of the run.
    """
    rng = random.Random(f"converge_reuse:{seed}")
    count = units * len(KINDS)
    alphas, betas = _strata(rng, count), _strata(rng, count)
    kinds = []
    for _ in range(units):
        block = list(KINDS)
        rng.shuffle(block)
        kinds += block
    sweeps = [
        ConvergeSweep(f, _alpha(alphas[j]), 2.0 * betas[j])
        for j, f in enumerate(_functions(rng, kinds))
    ]
    return [sweeps[b : b + len(KINDS)] for b in range(0, count, len(KINDS))]


def converge_value_ok(error: float) -> bool:
    return math.isfinite(error) and error >= 0.0


def converge_sweep_ok(errors: Sequence[float]) -> bool:
    """An error sequence over ascending n must end below where it started."""
    return errors[-1] < errors[0]


def _norm_call(norm: str, f: TestFunction, params: OperatorParams) -> float:
    if norm == "lp1":
        return analysis.lp_error(f, params, 1.0, CONVERGE_R)
    if norm == "lp2":
        return analysis.lp_error(f, params, 2.0, CONVERGE_R)
    if norm == "weighted_lp1":
        return analysis.weighted_lp_error(f, params, 1.0, params.beta, CONVERGE_R)[0]
    return analysis.operator_sup_error(f, params, CONVERGE_R)


def run_converge_block(sweeps: Sequence[ConvergeSweep], mark: Callable[[], None]) -> list[Outcome]:
    return [o for sweep in sweeps for o in run_converge_sweep(sweep, mark)]


def run_converge_sweep(sweep: ConvergeSweep, mark: Callable[[], None]) -> list[Outcome]:
    f = sweep.f.build()
    outcomes: list[Outcome] = []
    errors: dict[str, list[float]] = {norm: [] for norm in CONVERGE_NORMS}
    for n in CONVERGE_N_GRID:
        params = OperatorParams(n, sweep.alpha, sweep.beta)
        for norm in CONVERGE_NORMS:
            mark()
            t0 = time.perf_counter()
            try:
                error = _norm_call(norm, f, params)
            except Exception:
                outcomes.append(_failure(norm, time.perf_counter() - t0))
                errors[norm].append(math.nan)
                continue
            latency = time.perf_counter() - t0
            errors[norm].append(error)
            ok = converge_value_ok(error)
            outcomes.append(Outcome(norm, latency, ok, "" if ok else f"{norm} n={n}: {error!r}"))
    # the decrease gate rides on the last request of each norm
    for i, norm in enumerate(CONVERGE_NORMS):
        if not converge_sweep_ok(errors[norm]):
            last = len(outcomes) - len(CONVERGE_NORMS) + i
            outcomes[last] = Outcome(norm, outcomes[last].latency_s, False,
                                     f"{norm} did not decrease: {errors[norm]} for {sweep}")
    return outcomes


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``make_inputs(seed, units)`` gives the units; ``run_unit`` times one."""

    name: str
    unit_seconds: float  # nominal cost of one unit at the commit that set it
    make_inputs: Callable[[int, int], list]
    run_unit: Callable[[object, Callable[[], None]], list[Outcome]]
    cold_units: bool = False  # each unit starts from empty caches, like a new process

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        # Why: the verify-all battery, from a cold cache per pass; the only
        # workload reaching moments, spectral and the Schur kernels.  Fixed
        # inputs: the seed does not affect it.
        Workload("battery", 7.0, lambda seed, units: battery_inputs(False, units),
                 run_battery_pass, cold_units=True),
        Workload("battery_full", 65.0, lambda seed, units: battery_inputs(True, units),
                 run_battery_pass, cold_units=True),
        Workload("apply_cold", 0.22, apply_cold_inputs, run_apply_request),
        Workload("converge_reuse", 6.0, converge_reuse_inputs, run_converge_block),
    )
}
