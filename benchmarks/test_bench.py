"""Tests of the benchmark itself: seeded inputs, gates, metric names and
tracing hygiene.  Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
import smld  # noqa: E402
from smld import verification  # noqa: E402
from smld.operator import OperatorParams, TestFunction, apply_operator  # noqa: E402
from smld.verification import CheckResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- seeded inputs -----------------------------------------------------------------


@pytest.mark.parametrize("make", [wl.apply_cold_inputs, wl.converge_reuse_inputs])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7, 4) == make(7, 4)
    assert make(7, 4) != make(8, 4)


def test_apply_inputs_are_stratified():
    lo, hi = (math.log(v) for v in wl.APPLY_N_RANGE)
    count = 24
    requests = wl.apply_cold_inputs(11, count)
    assert sorted(r.f.kind for r in requests) == sorted(wl.KINDS * (count // len(wl.KINDS)))
    for j, n in enumerate(sorted(r.n for r in requests)):
        assert lo + j * (hi - lo) / count <= math.log(n) <= lo + (j + 1) * (hi - lo) / count
    for r in requests:
        assert -1.0 < r.alpha <= 2.0
        assert 0.0 <= r.beta <= min(2.0, r.n / 2.0)
        for i, x in enumerate(r.xs):
            assert i * 5.0 / 3.0 <= x <= (i + 1) * 5.0 / 3.0
    for i in range(3):  # one point in each of the count bins of its third
        bins = sorted(int(r.xs[i] * 3.0 / 5.0 % 1.0 * count) for r in requests)
        assert bins == list(range(count))


def test_converge_blocks_use_every_kind():
    for block in wl.converge_reuse_inputs(5, 3):
        assert sorted(s.f.kind for s in block) == sorted(wl.KINDS)


def test_battery_inputs_ignore_seed_and_skip_heavy_checks():
    assert wl.WORKLOADS["battery"].make_inputs(1, 2) == wl.WORKLOADS["battery"].make_inputs(2, 2)
    (numbers,) = wl.battery_inputs(False, 1)
    assert not set(numbers) & set(wl.BATTERY_HEAVY)
    assert len(wl.battery_inputs(True, 1)[0]) == len(verification.ALL_CHECKS)


# -- gates ---------------------------------------------------------------------------


def _results(number, **measured):
    return [
        CheckResult(name, name not in wl.BATTERY_FINDINGS,
                    measured.get(name, float(wl.BATTERY_FINDINGS.get(name, 0.0))), 1.0)
        for name in wl.BATTERY_RESULTS[number]
    ]


def test_battery_gate_rejects_perturbed_results():
    assert wl.battery_gate("06", _results("06")) is None
    flipped = _results("06")
    flipped[0] = CheckResult(flipped[0].name, False, 0.0, 1.0)
    assert wl.battery_gate("06", flipped) is not None
    assert wl.battery_gate("06", _results("06", **{"06c_asymptotic_r3": 3.001})) is not None
    assert wl.battery_gate("06", _results("06")[:2]) is not None


@pytest.mark.parametrize("number", ["03", "04", "06", "10"])
def test_battery_gate_accepts_the_current_checks(number):
    check = next(c for c in verification.ALL_CHECKS if wl.check_number(c) == number)
    assert wl.battery_gate(number, check()) is None


def _request(kind, *args, n=40.0, alpha=0.5, beta=1.0, x=1.3):
    return wl.ApplyRequest(wl.FunctionChoice(kind, args), n, alpha, beta, (x,))


@pytest.mark.parametrize("request_", [
    _request("monomial", 3),
    _request("poly", 0.5, -0.25, 0.75),
    _request("exp", -0.7),
    _request("exp", 0.6, n=5.0, beta=2.0, x=4.5),
    _request("sin", 2.5, alpha=-0.9),
])
def test_apply_gate_closed_forms(request_):
    x = request_.xs[0]
    value = apply_operator(request_.f.build(), x, request_.params)
    assert wl.apply_gate(request_, x, value)
    assert not wl.apply_gate(request_, x, value + 1e-8 * max(abs(value), 1.0))
    assert not wl.apply_gate(request_, x, math.nan)


@pytest.mark.parametrize("kind, args", [("abs", (1.5,)), ("sqrt", ())])
def test_apply_gate_growth_bound(kind, args):
    request_ = _request(kind, *args)
    x = request_.xs[0]
    bound = wl.growth_bound(request_.params, request_.f.build(), x)
    assert wl.apply_gate(request_, x, apply_operator(request_.f.build(), x, request_.params))
    assert not wl.apply_gate(request_, x, 1.001 * bound)
    assert not wl.apply_gate(request_, x, -1e-3)
    assert not wl.apply_gate(request_, x, math.inf)


def test_apply_request_through_the_cli():
    (outcome,) = wl.run_apply_request(_request("monomial", 2, n=6.0, x=0.7), lambda: None)
    assert outcome.ok, outcome.detail


def test_converge_gates():
    assert wl.converge_value_ok(0.1)
    assert not wl.converge_value_ok(-1e-3)
    assert not wl.converge_value_ok(math.nan)
    assert wl.converge_sweep_ok([0.2, 0.1, 0.05])
    assert not wl.converge_sweep_ok([0.2, 0.3, 0.2])


# -- metric names ------------------------------------------------------------------


def test_metric_names():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    printed = list(run.END_TO_END) + [m for m, _, _ in tracing.LAYER_METRICS]
    for name in declared + printed:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        tracing.LAYER_METRICS
    )
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


# -- tracing -------------------------------------------------------------------------


def _snapshot():
    state = {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "smld" or name.startswith("smld."))
        for attr, value in vars(module).items()
    }
    state.update({("TestFunction", a): v for a, v in vars(TestFunction).items()})
    return state


def _small_work():
    params = OperatorParams(7.0, 0.5, 0.5)
    # module attributes are looked up at call time, so these calls are traced
    smld.apply_operator(TestFunction.abs_shift(0.5), 0.8, params)
    verification.ALL_CHECKS[5]()  # check 06, looked up in the tuple


def test_tracer_restores_every_attribute():
    before = _snapshot()
    with tracing.Tracer() as tracer:
        assert sys.modules["smld.operator.core"].gamma_mean is not before[
            ("smld.operator.quadrature", "gamma_mean")]
        _small_work()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.layer_times()["verification.check_06"]["calls"] == 1


def test_self_time_is_split_along_nested_spans():
    tracing.reset_caches()
    with tracing.Tracer() as tracer:
        _small_work()
    times = tracer.layer_times()
    for layer in ("core.apply_operator", "quadrature.gamma_mean", "functions.eval"):
        assert times[layer]["calls"] > 0
        assert 0.0 <= times[layer]["s"] <= times[layer]["inclusive_s"]
    labels = tracer.labels
    chain = {(labels[tracer.name[p]], labels[tracer.name[i]])
             for i, p in enumerate(tracer.parent) if p >= 0}
    assert ("core.apply_operator", "quadrature.gamma_mean") in chain
    assert ("quadrature.gamma_mean", "functions.eval") in chain


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracing.reset_caches()
        with tracing.Tracer() as tracer:
            _small_work()
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith((".calls", ".points", ".K_max"))})
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.gamma_mean.calls"] > 0
