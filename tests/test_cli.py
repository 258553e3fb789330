import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from smld.analysis import NormSpec, _panel_error, rate_slope, weighted_lp_error
from smld.cli import _HANDLERS, Table, emit, main, parse_config
from smld.operator import OperatorParams, TestFunction, apply_operator
from smld.spectral import _K_CAP

_README = Path(__file__).resolve().parent.parent / "README.md"


# one small run of every k-sum, quadrature, spectral and analysis reduction
_KERNEL_WORKLOAD = (
    "apply --f sqrt --n 20 --alpha 0.3 --beta 1 --x-grid 0,0.1,1,2,5",
    "apply --f abs:1 --n 50 --alpha -0.5 --beta 0.5 --x-grid 0.3,1,3",
    "moments --n 10 --alpha 0.5 --beta 1 --x 2",
    "central-moments --n 200 --alpha -0.25 --beta 2 --x 1",
    "converge --f abs:1 --norm lp:1,2 --n-grid 10,20,40,80",
    "converge --f sqrt --norm sup:2 --n-grid 10,20,40",
    "eigen --n 10 --alpha 0.5 --beta 2",
    "schur --n 10 --alpha -0.5 --beta 1 --p 2 --gamma 1",
)

_RUN_LINES = (
    "import shlex, sys\n"
    "from smld.cli import main\n"
    "for line in sys.argv[1:]:\n"
    "    assert main(shlex.split(line)) == 0, line\n"
)


def _csv_rows(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_valid_moments(self):
        cfg = parse_config(
            ["moments", "--n", "10", "--alpha", "0", "--beta", "0", "--x", "1", "--max-r", "4"]
        )
        assert cfg.command == "moments"
        assert cfg.params.n == 10.0
        assert cfg.max_r == 4

    def test_beta_exceeds_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["moments", "--beta", "12", "--n", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "requires n > beta" in err
        assert "smld: error: n_le_beta: " in err

    def test_alpha_too_low(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["moments", "--n", "10", "--alpha", "-1.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "requires alpha > -1" in err
        assert "smld: error: alpha_le_minus_one: " in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["asymptotics", "--n-grid", "0,10", "--beta=-1"], "n_nonpositive"),
            (["asymptotics", "--n-grid", "1,2", "--beta", "1.5"], "n_le_beta"),
            (["converge", "--f", "sin:1", "--norm", "lp:1,2", "--n-grid", "5,10",
              "--alpha=-2"], "alpha_le_minus_one"),
        ],
    )
    def test_n_grid_params_validated(self, argv, code, capsys):
        # every (n, alpha, beta) of the grid is checked at parse time
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert f"smld: error: {code}: " in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["moments", "--n", "10", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_unknown_function_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["apply", "--n", "10", "--f", "cosh:2"])
        assert exc.value.code == 2
        assert "unknown function spec" in capsys.readouterr().err

    def test_norm_spec(self):
        cfg = parse_config(
            ["converge", "--f", "abs:1", "--norm", "lp:2,2", "--n-grid", "10,40"]
        )
        assert cfg.norm == NormSpec.lp(2.0, 2.0)

    def test_parser_keeps_no_state(self):
        # one parser serves every call; no flag of one call reaches the next
        first = parse_config(["apply", "--n", "10", "--f", "sin:2", "--x-grid", "1",
                              "--format", "json"])
        second = parse_config(["apply", "--n", "20", "--f", "abs:1"])
        assert (first.fmt, first.x_grid) == ("json", (1.0,))
        assert (second.fmt, second.x_grid) == ("csv", (0.0, 1.0, 2.0))

    def test_descending_n_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["asymptotics", "--r", "2", "--n-grid", "100,10"])
        assert exc.value.code == 2
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moments", "central-moments"])
    def test_negative_max_r(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--n", "10", "--max-r", "-1"])
        assert exc.value.code == 2
        assert "max_r >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["apply", "--n", "10", "--f", "sqrt:2"], "sqrt takes no argument"),
            (["converge", "--f", "abs:1", "--norm", "lp:1", "--n-grid", "10,20"],
             "unknown norm spec 'lp:1'"),
        ],
    )
    def test_spec_argument_count(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_function_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["apply", "--f", "file:/nonexistent/x.txt", "--n", "10"])
        assert exc.value.code == 2
        assert "x.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "10", "--x=-1"],
            ["apply", "--f", "abs:1", "--n", "10", "--x-grid=1,-1"],
            ["schur", "--n", "10", "--beta", "2", "--x-grid=-1", "--t-grid", "1"],
        ],
    )
    def test_negative_x(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert "smld: error: x_negative: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--f", "exp:-1", "--n", "10", "--x-grid", "nan"],
            ["apply", "--f", "exp:-1", "--n", "10", "--x-grid", "1,inf"],
            ["apply", "--f", "exp:-1", "--n", "10", "--x-grid", "inf", "--operator", "szasz"],
            ["moments", "--n", "10", "--x", "nan"],
        ],
    )
    def test_non_finite_x(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert "smld: error: x_not_finite: " in capsys.readouterr().err


    @pytest.mark.parametrize(
        "spec", ["abs:inf", "abs:nan", "poly:1,nan", "sin:inf", "sin:nan", "exp:inf", "exp:nan"]
    )
    def test_non_finite_function_parameter(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["apply", "--f", spec, "--n", "10", "--x-grid", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "parameters must be finite" in err
        assert "error: function_not_finite: " in err

    def test_non_finite_function_sample(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("0 1\n1 1e308\n2 inf\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["apply", "--f", f"file:{path}", "--n", "10", "--x-grid", "1"])
        assert exc.value.code == 2
        assert "parameters must be finite" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "norm, code",
        [
            ("lp:inf,2", "norm_p"),
            ("lp:nan,2", "norm_p"),
            ("wlp:1,nan,2", "norm_gamma"),
            ("phi:inf", "norm_interval"),
            ("lp:1,inf", "norm_interval"),
        ],
    )
    def test_non_finite_norm_parameter(self, norm, code, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["converge", "--f", "sin:2", "--norm", norm, "--n-grid", "10,20,40"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"smld: error: {code}: " in captured.err


class TestEmit:
    def test_empty_table_header_only(self):
        buf = io.StringIO()
        emit(Table(["a", "b"], []), "csv", buf)
        assert buf.getvalue() == "a,b\n"

    def test_csv_json_same_values(self):
        table = Table(["name", "value", "flag"], [("x", 0.125, True), ("y", None, False)])
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        emit(table, "csv", csv_buf)
        emit(table, "json", json_buf)
        _, rows = _csv_rows(csv_buf.getvalue())
        payload = json.loads(json_buf.getvalue())
        assert float(rows[0][1]) == payload[0]["value"] == 0.125
        assert rows[0][2] == "true" and payload[0]["flag"] is True
        assert rows[1][1] == "" and payload[1]["value"] is None

    def test_json_is_strict(self, capsys):
        # every omega ratio of a constant f is inf; RFC 8259 has no Infinity
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code = main(["converge", "--f", "monomial:0", "--norm", "sup:1", "--n-grid", "10,20,40",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [row["omega_ratio"] for row in payload] == ["inf"] * 3
        buf = io.StringIO()
        emit(Table(["a", "b", "c"], [(-math.inf, math.nan, 1.5)]), "json", buf)
        assert json.loads(buf.getvalue(), parse_constant=reject) == [
            {"a": "-inf", "b": "nan", "c": 1.5}
        ]


class TestRun:
    def test_moments_row_structure(self, capsys):
        code = main(["moments", "--n", "10", "--x", "1", "--max-r", "2"])
        assert code == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["r", "x", "closed", "recurrence", "explicit", "quadrature",
                          "max_residual"]
        assert len(rows) == 3
        assert float(rows[2][2]) == pytest.approx(1.42, rel=1e-12)

    def test_apply_constant_is_one(self, capsys):
        code = main(["apply", "--f", "poly:1", "--n", "7", "--alpha", "0.5", "--beta", "1",
                     "--x-grid", "0,0.5,2"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "extra, code",
        [
            (["--n", "inf"], "params_not_finite"),
            (["--n", "10", "--alpha", "inf"], "params_not_finite"),
            (["--n", "10", "--beta=-inf"], "params_not_finite"),
            (["--n", "inf", "--operator", "szasz"], "params_not_finite"),
        ],
    )
    def test_apply_non_finite_params_exit_2(self, extra, code, capsys):
        # (n, alpha, beta) is validated at parse time, whichever operator
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--f", "exp:-1", "--x-grid", "1", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"smld: error: {code}:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--f", "sin:1", "--n", "0", "--beta=-1", "--x-grid", "0,1"],
            ["apply", "--f", "sin:1", "--n=-1", "--beta=-3", "--x-grid", "0"],
            ["apply", "--f", "sin:1", "--n=-1", "--beta=-3", "--x-grid", "1"],
            ["moments", "--n", "0", "--beta=-2", "--x", "1"],
        ],
    )
    def test_n_nonpositive_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: error: n_nonpositive:" in captured.err

    def test_eigen_contains_lambda2(self, capsys):
        code = main(["eigen", "--n", "10", "--beta", "2", "--alpha", "0"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        expo = [row for row in rows if row[0] == "exponential"][0]
        assert float(expo[1]) == pytest.approx(0.8, rel=1e-14)

    def test_eigen_order_above_cap_exit_2(self, capsys):
        code = main(["eigen", "--n", "10", "--k", str(_K_CAP + 1)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: matrix_order:" in captured.err

    def test_eigen_adaptive_cap_exit_3(self, capsys):
        # for n <= 2 beta row K/2 has mean (K/2 + alpha + 1) n/(n - beta) >= K,
        # so the adaptive ladder can only stop at the cap
        code = main(["eigen", "--n", "3", "--beta", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"smld: k_max_exceeded: adaptive K exceeded cap = {_K_CAP}: row K/2 still loses "
            "more than 1e-12 past column K (for n <= 2 beta its mean is >= K)\n"
        )

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "0.5", "--p", "inf", "--gamma", "1"], ["--beta", "1", "--p", "0.5"],
         ["--p", "nan"]],
        ids=["p_inf", "p_below_one", "p_nan"],
    )
    def test_schur_p_outside_domain_exit_2(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["schur", "--n", "10", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: norm_p:" in captured.err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_schur_gamma_not_finite_exit_2(self, gamma, capsys):
        # a NaN gamma used to be reported as schur_gamma_large
        code = main(["schur", "--n", "10", "--gamma", gamma])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: norm_gamma:" in captured.err

    @pytest.mark.parametrize("n_grid", ["10,20", "10,20,40"])
    def test_weighted_norm_past_float_range_exit_3(self, n_grid, capsys):
        # e^(gamma x) reaches e^4000 on [0, 2]: the norm used to print inf and
        # exit 0 (two n), or fail in the slope fit with degenerate_data (three)
        code = main(["converge", "--f", "sin:2", "--norm", "wlp:1,2000,2", "--n-grid", n_grid])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: norm_not_finite:" in captured.err

    @pytest.mark.parametrize("t_grid", ["inf", "nan", "1,-inf"])
    def test_schur_t_not_finite_exit_2(self, t_grid, capsys):
        # refused while the flags are parsed, before linspace or a panel rule sees it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["schur", "--n", "10", "--t-grid", t_grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: schur_t_not_finite: " in captured.err

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = main(["moments", "--n", "10", "--max-r", "1", "--output", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: output_unwritable:" in captured.err
        assert not target.parent.exists()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["central-moments", "--n", "10", "--beta", "1", "--alpha", "0.5", "--x", "2",
                "--max-r", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_schur_table(self, capsys):
        code = main(["schur", "--n", "10", "--beta", "2", "--alpha", "0", "--p", "1",
                     "--gamma", "2", "--t-grid", "1"])
        assert code == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        kinds = {row[0] for row in rows}
        assert {"first_integral", "E", "second_direct", "second_bound"} <= kinds

    def test_converge_lp(self, capsys):
        code = main(["converge", "--f", "abs:1", "--norm", "lp:1,2", "--n-grid", "10,40,160"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        errs = [float(row[1]) for row in rows]
        assert errs[2] < errs[1] < errs[0]

    def test_converge_sup(self, capsys):
        code = main(["converge", "--f", "monomial:1", "--norm", "sup:2", "--beta", "0",
                     "--n-grid", "25,50,100"])
        assert code == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["n", "error", "omega_ratio", "fitted_slope"]
        # exact law: sup error = (alpha + 1)/n at beta = 0
        assert float(rows[0][1]) == pytest.approx(1.0 / 25.0, rel=1e-8)
        assert float(rows[0][3]) == pytest.approx(-1.0, abs=0.02)

    def test_converge_weighted_lp(self, capsys):
        n_grid = (10.0, 20.0, 40.0)
        code = main(["converge", "--f", "sin:2", "--norm", "wlp:1,0.5,3", "--beta", "1",
                     "--n-grid", "10,20,40", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in payload] == list(n_grid)
        f = TestFunction.sin_scaled(2.0)
        want = [weighted_lp_error(f, OperatorParams(n, 0.0, 1.0), 1.0, 0.5, 3.0)[0]
                for n in n_grid]
        assert [row["error"] for row in payload] == want
        slope = rate_slope(list(zip(n_grid, want)))
        assert all(row["fitted_slope"] == slope for row in payload)

    @pytest.mark.parametrize("norm, n_grid, p, gamma", [
        ("lp:200,2", "160,640", 200.0, 0.0),
        ("wlp:4,800,2", "10,20", 4.0, 800.0),
    ], ids=["lp-p200", "wlp-gamma800"])
    def test_converge_lp_extreme_exponents(self, capsys, norm, n_grid, p, gamma):
        # dev^p underflows at p = 200 (the n = 640 error used to print 0.0)
        # and e^(gamma x) overflows at gamma = 800 (it printed inf); each
        # norm against an mpmath sum over the same panels
        code = main(["converge", "--f", "sin:2", "--norm", norm, "--n-grid", n_grid])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        f = TestFunction.sin_scaled(2.0)
        for row in rows:
            xs, ws, dev = _panel_error(f, OperatorParams(float(row[0])), 2.0)
            with mp.workdps(40):
                total = mp.fsum(mp.mpf(d) ** p * mp.exp(gamma * mp.mpf(x)) * mp.mpf(w)
                                for x, w, d in zip(xs.tolist(), ws.tolist(), dev.tolist()))
                exact = float(total ** (1 / mp.mpf(p)))
            assert float(row[1]) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_asymptotics_flags_vanishing_prediction(self, capsys):
        # at beta = 0 the stated leading term of the r = 3 moment is 0: no ratio
        code = main(["asymptotics", "--r", "3", "--beta", "0", "--x", "1", "--n-grid", "10,100"])
        assert code == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["n", "exact", "predicted", "two_term", "ratio", "flagged"]
        assert [row[0] for row in rows] == ["10.0", "100.0"]
        for row in rows:
            assert float(row[1]) > 0.0 and float(row[2]) == 0.0
            assert (row[4], row[5]) == ("", "true")

    def test_converge_phi_cells_are_plain_floats(self, capsys):
        # at n = 40 a refined point beats the grid max; its value is written
        # as a plain float, not as a numpy scalar's repr
        code = main(["converge", "--f", "sin:2", "--norm", "phi:5", "--n-grid", "10,40"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        errs = [float(row[1]) for row in rows]
        assert errs[1] < errs[0]

    def test_apply_many_knot_file(self, tmp_path, capsys):
        # a 200-knot file: every knot is a quadrature panel edge, and the
        # CLI prints the bits of the library call
        grid = np.linspace(0.0, 10.0, 200)
        values = np.sin(3.0 * grid) + 0.1 * np.cos(17.0 * grid)
        path = tmp_path / "f.txt"
        path.write_text("".join(f"{t!r} {v!r}\n" for t, v in zip(grid.tolist(), values.tolist())))
        code = main(["apply", "--f", f"file:{path}", "--n", "20", "--alpha", "0.5",
                     "--beta", "1", "--x-grid", "0,1,2,4"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        f, params = TestFunction.sampled(grid, values), OperatorParams(20.0, 0.5, 1.0)
        assert [row[1] for row in rows] == [
            repr(apply_operator(f, x, params)) for x in (0.0, 1.0, 2.0, 4.0)
        ]

    def test_szasz_operator(self, capsys):
        code = main(["apply", "--f", "monomial:2", "--n", "10", "--operator", "szasz",
                     "--x-grid", "1"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert float(rows[0][1]) == pytest.approx(1.1, rel=1e-12)

    def test_numerical_failure_exit_code(self, capsys):
        # Szasz growth precondition n <= A: a parameter outside the domain
        # is a usage error, not a numerical failure
        code = main(["apply", "--f", "exp:3", "--n", "2", "--operator", "szasz",
                     "--x-grid", "1"])
        assert code == 2
        assert "szasz_growth" in capsys.readouterr().err

    def test_growth_incompatible_exit_code(self, capsys):
        code = main(["apply", "--f", "exp:20", "--n", "10", "--x-grid", "1"])
        assert code == 2
        assert "growth_incompatible" in capsys.readouterr().err

    def test_overflowing_growth_exit_code(self, capsys):
        # finite coefficients whose envelope constant K overflows: the function
        # cannot be built, so the flags are refused while they are parsed
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--f", "poly:1e308,1e308", "--n", "10", "--x-grid", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: error: growth_not_finite:" in captured.err

    def test_integrand_not_finite_exit_code(self, capsys):
        # e^(9t) overflows on the certified window of its own envelope
        code = main(["apply", "--f", "exp:9", "--n", "10", "--x-grid", "0.2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: integrand_not_finite:" in captured.err

    def test_overflowing_envelope_exit_code(self, capsys):
        # K = (172/e)^172 overflows: a usage error at parse time, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--f", "monomial:172", "--n", "10", "--x-grid", "1"])
        assert exc.value.code == 2
        assert "smld: error: growth_not_finite:" in capsys.readouterr().err

    def test_k_max_exceeded_exit_code(self, capsys):
        # the certified k window at n x = 5e8 is wider than 50,000 terms
        code = main(["apply", "--f", "monomial:1", "--n", "1e8", "--x-grid", "5"])
        assert code == 3
        assert "k_max_exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["apply", "--f", "sin:2", "--n", "10", "--x-grid", "1e15"],
        ["apply", "--f", "sin:2", "--n", "10", "--x-grid", "1e300"],
        ["moments", "--n", "10", "--x", "1e30"],
        ["central-moments", "--n", "10", "--x", "1e100"],
    ], ids=["apply-1e15", "apply-1e300", "moments", "central-moments"])
    def test_huge_nx_exit_code(self, capsys, argv):
        # n x past where k stays a distinct float: a coded numerical failure,
        # not a math domain error traceback
        code = main(argv)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "smld: k_max_exceeded:" in captured.err

    def test_apply_large_n(self, capsys):
        # n x = 1e5: the k window starts far from k = 0
        code = main(["apply", "--f", "abs:1", "--n", "1e5", "--x-grid", "1"])
        assert code == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert 0.0 < float(rows[0][1]) < 0.01

    def test_bytes_do_not_depend_on_blas_kernel(self):
        # every reduction sums its rows without BLAS, so forcing OpenBLAS's
        # oldest x86-64 kernel in a child process moves no printed byte
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        outs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run([sys.executable, "-c", _RUN_LINES, *_KERNEL_WORKLOAD],
                                  env={**env, **extra}, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_json_output(self, capsys):
        code = main(["moments", "--n", "10", "--x", "1", "--max-r", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[1]["closed"] == pytest.approx(1.1, rel=1e-12)


def _readme_commands() -> list[str]:
    """The ``smld ...`` lines of the fenced block in the README's CLI section."""
    text = _README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[: block.index("```")]
    return [line for line in block.splitlines() if line.startswith("smld ")]


def test_readme_cli_block_runs(capsys):
    # every documented command parses and succeeds; test_acceptance.py runs verify-all
    lines = _readme_commands()
    assert {shlex.split(line)[1] for line in lines} == set(_HANDLERS)
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv[0] == "verify-all":
            continue
        assert main(argv) == 0, line
        assert len(capsys.readouterr().out.splitlines()) >= 2, line
