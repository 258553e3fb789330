"""Acceptance battery: every verification check at its stated tolerance.

The whole battery is executed through the CLI (``verify-all``), twice, in
two processes side by side, so the determinism criterion is exercised on
the real deliverable; the per-criterion tests then assert on the parsed
report and print one PASS/FAIL line each.

Three checks measure stated bounds that the exact formulas provably do
not attain (see notes in smld.verification); those tests are strict
xfails: they fail today for quantified mathematical reasons and the suite
will flag them loudly if the measured values ever change sides.
"""

import csv
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

TIMEOUT = 900
_DATA = Path(__file__).resolve().parent / "data"


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[int, float]:
    """Wait for ``proc`` by ``os.wait4``: its exit code and its peak RSS in MB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(proc.args, TIMEOUT)
        time.sleep(0.05)


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    # the two runs are independent processes, so they run side by side
    outdir = tmp_path_factory.mktemp("verify")
    outs = [outdir / f"{tag}.csv" for tag in ("first", "second")]
    deadline = time.monotonic() + TIMEOUT
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "smld.cli", "verify-all", "--output", str(out)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for out in outs
    ]
    try:
        reaped = [_reap(proc, deadline) for proc in procs]
    finally:
        for proc in procs:  # only a run still going after a timeout is killed
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    runs = [(code, out.read_bytes()) for (code, _), out in zip(reaped, outs)]
    rows = {}
    reader = csv.DictReader(io.StringIO(runs[0][1].decode()))
    for row in reader:
        rows[row["check"]] = {
            "measured": float(row["measured"]),
            "tolerance": float(row["tolerance"]),
            "passed": row["passed"] == "true",
            "detail": row["detail"],
        }
    return {"runs": runs, "rows": rows, "peak_rss_mb": [peak for _, peak in reaped]}


def _assert_checks(verify_runs, criterion: str, names: list[str]):
    rows = verify_runs["rows"]
    ok = True
    for name in names:
        row = rows[name]
        status = "PASS" if row["passed"] else "FAIL"
        print(
            f"[criterion {criterion}] {status} {name}: "
            f"measured {row['measured']:.3e} vs tolerance {row['tolerance']:.1e}"
        )
        ok &= row["passed"]
    assert ok, f"criterion {criterion} failed: {names}"


def test_criterion_01_normalization(verify_runs):
    _assert_checks(verify_runs, "01", ["01_normalization"])


def test_criterion_02_moment_cross_agreement(verify_runs):
    _assert_checks(
        verify_runs,
        "02",
        ["02a_closed_vs_recurrence", "02b_closed_vs_explicit", "02c_closed_vs_quadrature"],
    )


def test_criterion_03_three_term_recurrence(verify_runs):
    _assert_checks(verify_runs, "03", ["03_three_term_residual"])


def test_criterion_04_differential_recurrence(verify_runs):
    _assert_checks(
        verify_runs, "04", ["04a_diff_recurrence_residual", "04b_diff_recurrence_order"]
    )


def test_criterion_05_central_moments(verify_runs):
    _assert_checks(
        verify_runs,
        "05",
        ["05a_central_explicit_vs_binomial", "05b_central_explicit_vs_quadrature"],
    )


def test_criterion_06ab_asymptotics(verify_runs):
    _assert_checks(verify_runs, "06", ["06a_asymptotic_r1", "06b_asymptotic_r2"])


@pytest.mark.xfail(
    strict=True,
    reason="exact third central moment carries the same-order term 6(alpha+2)x/n^2 "
    "that the stated leading term omits; measured ratio tends to 1 + (alpha+2)/(beta x) "
    "(1.75 to 4.0 on this grid), so the 5% band around 1 is unattainable",
)
def test_criterion_06c_asymptotic_r3(verify_runs):
    _assert_checks(verify_runs, "06c", ["06c_asymptotic_r3"])


def test_criterion_07_eigenpairs(verify_runs):
    _assert_checks(
        verify_runs,
        "07",
        [
            "07a_eigen_operator_residual",
            "07b_row_deficits",
            "07c_eigen_vector_residual",
            "07d_lambda2_vs_operator_ratio",
            "07e_ratio_x_independent",
        ],
    )


def test_criterion_08_iterate_decay(verify_runs):
    _assert_checks(verify_runs, "08", ["08_iterate_decay"])


def test_criterion_09_compact_estimate(verify_runs):
    _assert_checks(verify_runs, "09", ["09_compact_estimate"])


def test_criterion_10ab_korovkin(verify_runs):
    _assert_checks(verify_runs, "10", ["10a_korovkin_e0", "10b_korovkin_e1_halving"])


@pytest.mark.xfail(
    strict=True,
    reason="the weighted e_2 difference scales as n/(n-beta)^2, not (n-beta)^-1: "
    "its halving ratio is 4n/(2n-beta) + O(1/n), up to 24% off 2 at n = 5, "
    "so the 5% halving band fails at small n",
)
def test_criterion_10c_korovkin_e2(verify_runs):
    _assert_checks(verify_runs, "10c", ["10c_korovkin_e2_halving"])


def test_criterion_11_local_lp(verify_runs):
    _assert_checks(verify_runs, "11", ["11_local_lp_decrease"])


def test_criterion_12ab_schur(verify_runs):
    _assert_checks(
        verify_runs,
        "12",
        ["12a_schur_first_integral", "12b_schur_E_sup_monotone", "12b2_schur_E_alpha0_bounded"],
    )


@pytest.mark.xfail(
    strict=True,
    reason="the stated second-integral majorant rests on the series identity "
    "sum z^k/Gamma(k+a+1) = e^z gamma(a+1,z)/Gamma(a+1), which is off (the exact "
    "identity carries z^-a and parameter a); already at alpha=0, gamma=p*beta the "
    "exact integral equals (1-beta/n)^... = c(1-beta/n) while the majorant is "
    "c(1-beta/n)(1-e^(-(n-beta)ct)) < it, so direct <= bound fails pointwise",
)
def test_criterion_12c_schur_second_bound(verify_runs):
    _assert_checks(verify_runs, "12c", ["12c_schur_second_bound"])


def test_criterion_13_specialization(verify_runs):
    _assert_checks(verify_runs, "13", ["13_mazhar_totik_regression"])


def test_criterion_14_interpolation_at_zero(verify_runs):
    _assert_checks(verify_runs, "14", ["14_interpolation_at_zero"])


def test_check_14_sees_a_wrong_c0(monkeypatch):
    # check 14 holds M f(0) against the closed-form c_0, not against the
    # chunk that computes it: a chunk 0 off by 1e-9 relative must fail it
    core = importlib.import_module("smld.operator.core")
    verification = importlib.import_module("smld.verification")
    cached = core._coefficient_cached

    def scaled(f, j, params):
        chunk = cached(f, j, params)
        return chunk * (1.0 + 1e-9) if j == 0 else chunk

    monkeypatch.setattr(core, "_coefficient_cached", scaled)
    (result,) = verification.check_14_interpolation_at_zero()
    assert not result.passed and result.measured > result.tolerance


def test_check_07d_sees_scaled_coefficients(monkeypatch):
    # below 1e-9, 07d is the coefficient path's one guard: every coefficient
    # off by 1e-11 relative must fail it at the library's tolerances
    core = importlib.import_module("smld.operator.core")
    verification = importlib.import_module("smld.verification")
    cached = core._coefficient_cached

    def scaled(f, j, params):
        return cached(f, j, params) * (1.0 + 1e-11)

    monkeypatch.setattr(core, "_coefficient_cached", scaled)
    rows = {r.name: r for r in verification._eigen_operator_rows()}
    result = rows["07d_lambda2_vs_operator_ratio"]
    assert not result.passed and result.measured > result.tolerance


def test_criterion_15_determinism(verify_runs):
    (code1, bytes1), (code2, bytes2) = verify_runs["runs"]
    identical = bytes1 == bytes2 and code1 == code2
    status = "PASS" if identical else "FAIL"
    print(f"[criterion 15] {status} determinism: byte-identical reports, exit code {code1}")
    assert identical, "verify-all runs are not byte-identical"
    # the exit code must faithfully reflect the report contents
    all_passed = all(row["passed"] for row in verify_runs["rows"].values())
    assert code1 == (0 if all_passed else 1)


def _report_key() -> dict:
    """What the report's bits depend on besides the code: the numpy build,
    the SIMD paths numpy dispatches to, the C library's libm, and the scipy
    build, whose incomplete gamma and beta functions several rows read."""
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "libc": list(platform.libc_ver()),
    }


def test_verify_all_peak_rss(verify_runs):
    # P is streamed row by row: no (K+1)^2 block lifts a run's peak (a
    # dense K = 5,764 block alone took 266 MB)
    peaks = verify_runs["peak_rss_mb"]
    print(f"[memory] verify-all peak RSS per run: {', '.join(f'{p:.1f} MB' for p in peaks)}")
    assert max(peaks) <= 150.0


def test_criterion_15_golden_report(verify_runs):
    # the committed report, byte for byte, where its key matches this host;
    # a change that moves a digit updates tests/data/verify_all.csv
    key = json.loads((_DATA / "verify_all.key.json").read_text(encoding="utf-8"))
    here = _report_key()
    if here != key:
        diff = sorted(name for name in key.keys() | here.keys() if key.get(name) != here.get(name))
        reason = f"golden verify-all report was made with other {', '.join(diff)}"
        print(f"[criterion 15] SKIP {reason}")
        pytest.skip(reason)
    assert verify_runs["runs"][0][1] == (_DATA / "verify_all.csv").read_bytes()


@pytest.mark.xfail(
    strict=True,
    reason="verify-all exits 1 while checks 06c/10c/12c measure their stated-"
    "but-unattainable bounds; every other check passes",
)
def test_criterion_15_exit_code_zero(verify_runs):
    assert verify_runs["runs"][0][0] == 0


def _load_tracing():
    """benchmarks/tracing.py, read and run into a fresh module namespace."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    return tracing


def test_benchmark_tracer_names_resolve():
    # the benchmark tracer patches these names by vars() lookup: deleting or
    # renaming one must fail here, not only in a traced benchmark run
    tracing = _load_tracing()
    for _label, module, attr, _extract, _aggregate in tracing._TARGETS:
        importlib.import_module(module)
        owner, name, original = tracing._resolve(module, attr)
        assert vars(owner)[name] is original and callable(original)


def test_traced_layer_metrics_are_strict_json():
    # a traced benchmark run prints its metrics as strict JSON on its last
    # line: one small operator value and check 06 under the tracer
    tracing = _load_tracing()
    for _label, module, _attr, _extract, _aggregate in tracing._TARGETS:
        importlib.import_module(module)
    operator = importlib.import_module("smld.operator")
    verification = importlib.import_module("smld.verification")
    tracer = tracing.Tracer()
    with tracer:
        operator.apply_operator(
            operator.TestFunction.exp_scaled(-1.0), 1.0, operator.OperatorParams(10.0, 0.5, 1.0)
        )
        verification.check_06_asymptotics()
    metrics = tracer.layer_metrics()
    assert metrics["core.apply_operator.calls"] == 1
    assert metrics["verification.check_06.s"] > 0.0
    json.dumps(metrics, allow_nan=False)


def test_cold_caches_repeat_quadrature_counts():
    # the benchmark starts each cold pass with reset_caches(): every cache the
    # coefficient layer keeps must be a bounded functools cache it can empty,
    # so two cold runs of one operator value make the same quadrature calls
    tracing = _load_tracing()
    for _label, module, _attr, _extract, _aggregate in tracing._TARGETS:
        importlib.import_module(module)
    operator = importlib.import_module("smld.operator")
    core = importlib.import_module("smld.operator.core")
    f = operator.TestFunction.abs_shift(0.5)
    calls = []
    for _ in range(2):
        tracing.reset_caches()
        tracer = tracing.Tracer()
        with tracer:
            operator.apply_operator(f, 3.0, operator.OperatorParams(40.0, 0.3, 1.0))
        calls.append(tracer.layer_metrics()["quadrature.gamma_mean.calls"])
    assert calls[0] == calls[1] > 0
    maxsize = core._coefficient_cached.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
