"""End-to-end checks of the command line driver via in-process main()."""

import argparse
import enum
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

import newtonosc
from newtonosc import blocks, cli, newton, puiseux, scaling
from newtonosc.cli import build_parser, main
from newtonosc.polycore import mixed_derivative, parse_poly
from newtonosc.puiseux import BranchSet, PuiseuxBranch, PuiseuxTerm, Reality, expand_branches
from payload_schemas import SCHEMAS, check_payload
from sheet_oracle import sheet_failures


def run(capsys, *argv):
    """Exit code, stdout and stderr of main(argv); a JSON payload must match its schema."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and captured.out.startswith("{"):
        check_payload(argv[0], json.loads(captured.out))
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# F whose edge polynomial has the close roots 1 and 1001/1000
CONFLATED = "(y-x)*(1000*y-1001*x)*(y-x-x^2)*(y-x+x^2)"

# (phase, --mixed, --order) of each analyze call in this file that prints a
# payload; CONFLATED at the default order is left out, since its expansion
# overflows there
ANALYZE_CALLS = [
    ("x*y", False, None),
    ("x^2*y^2/4", False, None),
    ("x^3*y + x*y^3", False, None),
    ("x^3*y^2 + x*y^5", False, "3/2"),
    ("(y-x)^2", True, None),
    ("(y-x)^2", True, "50"),
    ("(y-x)^2 - x^5", True, None),
    ("(y-x)^2 - x^5", True, "4"),
    ("(y-x)^2 - x^7", True, "3"),
    ("(y^2-x^3)^2 - 4*x^5*y - x^7", True, "1/2"),
    (CONFLATED, True, "1/2"),
    ("x^2+x^3", True, None),
    ("3*x + 2", True, None),
]


class TestExitCodes:
    def test_parse_error_is_2_with_json_on_stderr(self, capsys):
        code, out, err = run(capsys, "analyze", "--phase", "x*y +")
        assert code == 2
        assert out == ""
        blob = json.loads(err)
        assert blob["schema"] == "newton-osc/2"
        assert blob["error"]["type"] == "ParseError"

    def test_unclosed_exponent_is_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--phase", "x^(2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": "expected ')' after exponent (at position 4)"
        }

    # str.isdigit() is true for both characters, but neither is a digit of a phase
    @pytest.mark.parametrize("phase, char, pos", [("x²*y", "²", 1), ("x^٣*y", "٣", 2)])
    def test_non_ascii_digit_is_2(self, capsys, phase, char, pos):
        code, out, err = run(capsys, "analyze", "--phase", phase)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": f"unexpected character {char!r} (at position {pos})"
        }

    def test_empty_polygon_is_3(self, capsys):
        # S = x + y has identically zero mixed derivative
        code, _, err = run(capsys, "analyze", "--phase", "x + y")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "EmptyPolygonError"

    def test_other_failures_are_1(self, capsys):
        code, _, err = run(
            capsys, "norm", "--phase", "x*y", "--lambda", "1e8", "--rho", "0.9"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ResolutionError"

    def test_underflowed_norm_is_1(self, capsys):
        code, out, err = run(
            capsys, "norm", "--phase", "x*y", "--lambda", "64", "--rho", "1e-200"
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"

    # double coefficients whose gradient bound on [-1, 1]^2, 2e308, is not
    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--mixed", "--phase", "10^308", "--rho", "1", "--lambda", "16"),
            ("norm", "--phase", "10^308*x*y", "--rho", "1", "--lambda", "16"),
            ("sweep", "--phase", "10^308*x*y", "--rho", "1"),
        ],
    )
    def test_gradient_bound_beyond_the_double_range_is_a_resolution_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ResolutionError",
            "message": "lambda=16.0 needs n>4096 on the full square (required inf)",
        }

    # a coefficient that is no double is refused with the phase, before
    # any grid is sized or kernel built, at any rho and lambda; analyze
    # refuses the term of F that the branch expansion cannot convert
    @pytest.mark.parametrize(
        "argv, term",
        [
            (("norm", "--phase", "10^400*x*y", "--rho", "1e-300", "--lambda", "16"), "x*y in the phase"),
            (("norm", "--phase", "10^400*x*y", "--rho", "1e-300", "--lambda", "0"), "x*y in the phase"),
            (("sweep", "--phase", "10^400*x*y", "--rho", "1e-300"), "x*y in the phase"),
            (("blocks", "--phase", "10^400*x*y", "--lambda", "16", "--j-max", "3"), "x*y in the phase"),
            (("analyze", "--mixed", "--phase", "y - 10^400*x"), "x in F"),
            (("analyze", "--phase", "10^400*x*y"), "1 in F"),
        ],
        ids=["norm", "norm-lambda-0", "sweep", "blocks", "analyze-mixed", "analyze"],
    )
    def test_coefficient_beyond_the_double_range_is_refused(self, capsys, argv, term):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"the coefficient of {term} is beyond the double range",
        }

    # a coefficient of F that rounds to 0.0 as a double would act as support
    @pytest.mark.parametrize(
        "phase, term",
        [
            ("y - x/1" + "0" * 400, "x"),
            ("y^2 - x^3/1" + "0" * 400, "x^3"),
            ("y*(y - x) + x^3/1" + "0" * 400, "x^3"),
            ("y - x - x^2/1" + "0" * 400, "x^2"),
        ],
        ids=["line", "cusp", "beside-a-sheet", "second-term"],
    )
    def test_coefficient_below_the_double_range_is_refused(self, capsys, phase, term):
        code, out, err = run(capsys, "analyze", "--mixed", "--phase", phase)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"the coefficient of {term} in F is below the double range",
        }

    # a sheet takes one term per exponent up to the order, more here than
    # the expansion's depth cap of 512 terms
    @pytest.mark.parametrize(
        "phase, order", [("y^2 - x^2 - x^3", "600"), ("y^2 - x^3 - x^4", "10000")], ids=["node", "cusp"]
    )
    def test_order_past_the_depth_cap_is_refused(self, capsys, phase, order):
        code, out, err = run(capsys, "analyze", "--mixed", "--phase", phase, "--order", order)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"a sheet needs more than 512 terms below order {order}; ask for a lower order",
        }

    # coefficients that grow past the double range before the default
    # order: about close roots, and (x*y^4 + ...) with no root merged
    @pytest.mark.parametrize(
        "phase, order",
        [
            (CONFLATED, 32),
            ("x*y^4 + 3*x*y^8 + 3*x^2*y + x^4*y^2 + 3*x^4*y^4", 44),
            ("(y-x)*(10000000*y-10000001*x)*(y-x-x^3)*(y-x-2*x^3)", 40),
        ],
        ids=["conflated", "wide-corpus", "close-cubic"],
    )
    def test_overflowing_expansion_is_refused(self, capsys, phase, order):
        code, out, err = run(capsys, "analyze", "--mixed", "--phase", phase)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"a Puiseux coefficient overflowed a double below order {order}",
        }

    # each sheet is expanded on its own, in time growing as the square of
    # their count, so F with more than 1,024 sheets is refused before any
    # is expanded: the first input here, and the smallest refused
    @pytest.mark.parametrize("m", [2000000, 1025])
    def test_too_many_sheets_are_refused(self, capsys, m):
        code, out, err = run(capsys, "analyze", "--mixed", "--phase", f"x + y^{m}")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"F has {m} sheets through the origin; at most 1024 are expanded",
        }

    def test_bad_fit_window_is_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--phase", "x*y", "--fit-window", "16"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ParseError"

    # one subcommand per type= option, and the type its value must have
    TYPED = {
        "--seed": (("norm", "--phase", "x*y", "--lambda", "16"), "int"),
        "--rho": (("norm", "--phase", "x*y", "--lambda", "16"), "float"),
        "--lambda": (("norm", "--phase", "x*y"), "float"),
        "--tol-slope": (("sweep", "--phase", "x*y"), "float"),
        "--D": (("blocks", "--phase", "x*y", "--lambda", "64"), "float"),
        "--j-max": (("blocks", "--phase", "x*y", "--lambda", "64"), "int"),
        "--C": (("dyadpol", "--r", "0,6"), "float"),
        "--trials": (("dyadpol", "--r", "0,6"), "int"),
        "--h-density": (("dyadpol", "--r", "0,6"), "int"),
    }

    @pytest.mark.parametrize("flag", sorted(TYPED))
    def test_bad_option_value_is_a_parse_error(self, capsys, flag):
        # a value that fails its type= conversion is bad input, not bad usage
        argv, kind = self.TYPED[flag]
        code, out, err = run(capsys, *argv, flag, "abc")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": f"bad {kind} value 'abc' (at position 0)"
        }


class TestAnalyze:
    def test_plain_hyperbolic_phase(self, capsys):
        d = run_json(capsys, "analyze", "--phase", "x*y")
        assert d["schema"] == "newton-osc/2"
        assert d["provenance"] == {"seed": 0}
        assert d["mixed_derivative"] == "1"
        assert d["polygon"]["vertices"] == [[0, 0]]
        assert d["decay"]["delta"] == "1"
        assert d["branches"]["branches"] == []

    def test_mixed_flag_takes_f_directly(self, capsys):
        d = run_json(capsys, "analyze", "--phase", "(y-x)^2", "--mixed")
        assert d["mixed"] is True
        deg = d["decay"]["degeneracy"]
        assert deg["kind"] == "CompletelyDegenerate"
        assert deg["N"] == 2
        assert d["decay"]["delta"] == "1/2"

    def test_perturbed_double_root_splits(self, capsys):
        d = run_json(capsys, "analyze", "--phase", "(y-x)^2 - x^5", "--mixed")
        assert d["decay"]["degeneracy"]["kind"] == "NonDegenerate"
        branches = d["branches"]["branches"]
        assert len(branches) == 2
        assert all(b["reality"] == "Real" for b in branches)
        assert all(b["leading_exp"] == "1" for b in branches)

    def test_truncation_order_flag(self, capsys):
        d = run_json(
            capsys, "analyze", "--phase", "(y-x)^2 - x^5", "--mixed", "--order", "4"
        )
        assert d["branches"]["order"] == "4"

    def test_verdict_ignores_the_order(self, capsys):
        # the sheets split at x^(7/2) and x^(11/3), past orders 1 and 3;
        # F's coefficients decide alone
        for phase in ("(y-x)^2 - x^7", "(y - x - x^2)^3 + x^11"):
            for order in (("--order", "1"), ("--order", "3"), ()):
                d = run_json(capsys, "analyze", "--mixed", "--phase", phase, *order)
                assert d["decay"]["degeneracy"] == {"kind": "NonDegenerate"}, (phase, order)

    @pytest.mark.parametrize(
        "phase, order",
        [
            pytest.param("(y-x)^2 - x^7", "0", id="0"),
            pytest.param("(y-x)^2 - x^7", "-2", id="-2"),
            # no y in F, so no branch expansion would check the order
            pytest.param("x^3", "0", id="y-free-0"),
            pytest.param("x^3", "-3", id="y-free--3"),
        ],
    )
    def test_nonpositive_order_is_1(self, capsys, monkeypatch, phase, order):
        def analyzed(*args, **kwargs):
            raise AssertionError("analyze_decay ran")

        monkeypatch.setattr(cli, "analyze_decay", analyzed)
        code, out, err = run(capsys, "analyze", "--mixed", "--phase", phase, "--order", order)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": f"branch order must be positive, got {order}"
        }

    @pytest.mark.parametrize("phase, mixed, axis_roots, order", [
        ("x*y", (), {"x": 0, "y": 0}, "8"),
        ("x^2+x^3", ("--mixed",), {"x": 2, "y": 0}, "20"),
    ])
    def test_y_free_payload_is_the_expansion(self, capsys, phase, mixed, axis_roots, order):
        # F without y has no sheets, and the same payload shape as every other F
        d = run_json(capsys, "analyze", "--phase", phase, *mixed)
        assert d["branches"] == {
            "axis_roots": axis_roots, "branches": [], "cluster_tolerance": 1e-06,
            "order": order, "total_multiplicity": 0,
        }

    def test_fractional_order(self, capsys):
        text = "(y^2-x^3)^2 - 4*x^5*y - x^7"
        d = run_json(capsys, "analyze", "--mixed", "--phase", text, "--order", "1/2")
        expected = expand_branches(parse_poly(text), Fraction(1, 2)).to_dict()
        assert d["branches"]["order"] == "1/2"
        assert d["branches"] == json.loads(json.dumps(expected))

    def test_distinct_edge_roots_are_not_conflated(self, capsys):
        # the sheets 1.0*x and 1.001*x merge into one cluster at order 1/2;
        # the edge polynomial's exact coefficients keep them apart
        d = run_json(capsys, "analyze", "--mixed", "--phase", CONFLATED, "--order", "1/2")
        assert d["decay"]["degeneracy"] == {"kind": "NonDegenerate"}

    @pytest.mark.parametrize("phase, mixed, order", ANALYZE_CALLS)
    def test_printed_sheets_lie_on_roots_of_f(self, phase, mixed, order):
        F = parse_poly(phase)
        if not mixed:
            F = mixed_derivative(F)
        assert sheet_failures(F.render(), Fraction(order) if order else None) == []

    @pytest.mark.parametrize("order", ["abc", "1/0", ""])
    def test_malformed_order_is_2(self, capsys, order):
        code, out, err = run(
            capsys, "analyze", "--mixed", "--phase", "y^2-x^3", "--order", order
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseError"


class TestDashPhase:
    """An option value may start with '-', as the criterion-3 phase does."""

    @pytest.mark.parametrize("argv", [("norm", "--lambda", "16"), ("analyze",)])
    def test_spaced_value_matches_equals_spelling(self, capsys, argv):
        joined = run(capsys, *argv, "--phase=-(y-x)^4/12")
        spaced = run(capsys, *argv, "--phase", "-(y-x)^4/12")
        assert joined[0] == 0
        assert spaced == joined

    def test_missing_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--phase", "--mixed"])
        assert exc.value.code == 2
        assert "--phase: expected one argument" in capsys.readouterr().err

    # argparse takes -256 and -.5 as values on its own, but not -1e3 or -inf
    @pytest.mark.parametrize("argv, lam", [
        (("norm", "--phase", "x*y"), "-1e3"),
        (("blocks", "--phase", "x^2*y^2/4", "--j-max", "3"), "-2e3"),
    ], ids=["norm", "blocks"])
    def test_exponent_lambda_matches_equals_spelling(self, capsys, argv, lam):
        joined = run(capsys, *argv, f"--lambda={lam}")
        spaced = run(capsys, *argv, "--lambda", lam)
        assert joined[0] == 0
        assert spaced == joined

    def test_negative_inf_lambda_is_a_resolution_error(self, capsys):
        code, out, err = run(capsys, "norm", "--phase", "x*y", "--lambda", "-inf")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ResolutionError",
            "message": "lambda=-inf needs n>4096 on the full square (required inf)",
        }

    def test_store_true_flag_takes_no_value(self, capsys):
        # --mixed is not joined to the token after it
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--phase", "x*y", "--mixed", "-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -1" in capsys.readouterr().err


class TestNorm:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "norm", "--phase", "x*y", "--lambda", "64")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# newton-osc/2 seed=0"
        assert lines[1] == "lambda,n,norm,conv_err,iterations"
        lam, n, norm, conv, iters = lines[2].split(",")
        assert float(lam) == 64.0
        assert int(n) == 128
        assert abs(float(norm) - 0.29245937256238) < 1e-8
        assert float(conv) < 0.02
        assert int(iters) > 0

    def test_json_format(self, capsys):
        d = run_json(
            capsys, "norm", "--phase", "x*y", "--lambda", "64", "--format", "json"
        )
        s = d["samples"][0]
        assert s["lambda"] == 64.0
        assert s["valid"] is True
        assert abs(s["norm"] - 0.29245937256238) < 1e-8


class TestSweep:
    def test_hyperbolic_pass(self, capsys):
        d = run_json(
            capsys,
            "sweep", "--phase", "x*y", "--rho", "0.85",
            "--lambdas", "16,32,64,128",
        )
        r = d["report"]
        assert r["verdict"] == "Pass"
        assert r["predicted"] == "-1/2"
        assert abs(r["slope"] + 0.458) < 0.01
        assert len(r["samples"]) == 4
        assert all(s["valid"] for s in r["samples"])

    def test_csv_format_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--phase", "x*y", "--rho", "0.85",
            "--lambdas", "16,32,64,128", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "lambda,n,norm,conv_err,iterations"
        assert len(lines) == 6
        assert [float(l.split(",")[0]) for l in lines[2:]] == [16.0, 32.0, 64.0, 128.0]

    def test_plot_data_file(self, capsys, tmp_path):
        target = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--phase", "x*y", "--rho", "0.85",
            "--lambdas", "16,32,64,128",
            "--emit-plot-data", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "log2_lambda,log2_norm,predicted"
        rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
        assert len(rows) == 4
        assert [r[0] for r in rows] == [4.0, 5.0, 6.0, 7.0]
        # the reference line must carry exactly the predicted slope
        for a, b in zip(rows, rows[1:]):
            assert b[2] - a[2] == pytest.approx(-0.5, abs=1e-12)
        # and it is anchored at the mean of the measured points
        mean_gap = sum(r[1] - r[2] for r in rows) / 4
        assert abs(mean_gap) < 1e-12

    def test_fit_window_passthrough(self, capsys):
        d = run_json(
            capsys,
            "sweep", "--phase", "x*y", "--rho", "0.85",
            "--lambdas", "16,32,64,128", "--fit-window", "16,128",
        )
        assert d["report"]["verdict"] == "Pass"

    @pytest.mark.parametrize("lambdas", ["16,32,nan,128", "16,32,64,inf"])
    def test_nonfinite_lambda_is_1_before_any_solve(self, capsys, monkeypatch, lambdas):
        def solved(*args, **kwargs):
            raise AssertionError("norm_at ran")

        monkeypatch.setattr(scaling, "norm_at", solved)
        code, out, err = run(capsys, "sweep", "--phase", "x*y", "--lambdas", lambdas)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "lambda values must be finite"
        }

    def test_short_fit_window_is_1_before_any_solve(self, capsys, monkeypatch):
        def solved(*args, **kwargs):
            raise AssertionError("norm_at ran")

        monkeypatch.setattr(scaling, "norm_at", solved)
        code, out, err = run(
            capsys, "sweep", "--phase", "x*y", "--rho", "0.5", "--fit-window", "1000,3000"
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "InsufficientSamplesError",
            "message": "need 4 lambdas in the fit window, have 2",
        }

    @pytest.mark.parametrize(
        "flag, value", [("--lambdas", "16,,32,64,128"), ("--fit-window", "16,,128")]
    )
    def test_empty_list_entry_is_a_parse_error(self, capsys, monkeypatch, flag, value):
        def solved(*args, **kwargs):
            raise AssertionError("norm_at ran")

        monkeypatch.setattr(scaling, "norm_at", solved)
        code, out, err = run(capsys, "sweep", "--phase", "x*y", flag, value)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": f"bad numeric list {value!r} (at position 0)"
        }

    def test_log_exponent_omitted_below_four_samples_above_lambda_2(self, capsys):
        # the informational log fit of a degenerate F needs 4 valid samples
        # above lambda 2; with 3 the sweep reports its verdict without it,
        # and so does the retry
        d = run_json(capsys, "sweep", "--phase", "-(y-x)^4/12", "--lambdas", "1,1.5,2,4,8,16")
        r = d["report"]
        assert r["verdict"] == r["retry"]["verdict"] == "Fail"
        assert "log_exponent" not in r and "log_exponent" not in r["retry"]

    def test_close_edge_roots_do_not_overflow(self, capsys):
        # the prediction needs only the polygon, so the expansion that
        # overflows about the conflated roots is never run
        d = run_json(capsys, "sweep", "--mixed", "--phase", CONFLATED, "--rho", "0.1",
                     "--lambdas", "16,32,64,128")
        assert d["report"]["decay"]["degeneracy"] == {"kind": "NonDegenerate"}
        code, out, err = run(capsys, "sweep", "--mixed", "--phase", CONFLATED, "--rho", "0.5",
                             "--lambdas", "16,32,64,128")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ResolutionError"

    def test_nan_tol_slope_is_1(self, capsys):
        code, out, err = run(
            capsys,
            "sweep", "--phase", "x*y", "--lambdas", "16,32,64,128", "--tol-slope", "nan",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_inf_tol_slope_is_1(self, capsys, monkeypatch):
        # a slope tolerance of inf would pass any slope, measured or not
        def swept(*args, **kwargs):
            raise AssertionError("verify_theorem ran")

        monkeypatch.setattr(cli, "verify_theorem", swept)
        code, out, err = run(
            capsys,
            "sweep", "--phase", "x*y", "--lambdas", "16,32,64,128", "--tol-slope", "inf",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "tol_slope must be positive and finite"
        }


class TestBlocks:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "blocks", "--phase", "x^2*y^2/4", "--lambda", "256", "--j-max", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "j,k,region,mu,measured,size_bound,osc_bound,ratio"
        assert len(lines) == 2 + 9
        first = lines[2].split(",")
        assert first[:3] == ["1", "1", "Gap(vertex)"]
        assert float(first[3]) == 0.25

    def test_json_summary(self, capsys):
        d = run_json(
            capsys,
            "blocks", "--phase", "x^2*y^2/4", "--lambda", "256",
            "--j-max", "3", "--format", "json",
        )
        s = d["summary"]
        assert s["lambda"] == 256.0
        assert s["violations"] == []
        assert s["resolution_failures"] == []
        assert s["worst_ratio"]["Gap"] < 1.0
        assert len(d["estimates"]) == 9

    def test_gradient_bound_beyond_the_double_range_fails_every_block(self, capsys):
        # every block of j, k <= 1 at rho 1 reaches x = y = 1, where the
        # bound is 2e308
        d = run_json(
            capsys, "blocks", "--phase", "10^308*x*y", "--rho", "1", "--lambda", "16",
            "--j-max", "1", "--format", "json",
        )
        failures = d["summary"]["resolution_failures"]
        assert d["estimates"] == []
        assert [(j, k) for j, k, _ in failures] == [(j, k) for j in (0, 1) for k in (0, 1)]
        assert all(msg.endswith("(lam*G*h=inf)") for _, _, msg in failures)

    def test_empty_block_range_is_1(self, capsys):
        code, out, err = run(
            capsys, "blocks", "--phase", "x*y", "--lambda", "64", "--j-max", "0"
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lambda_is_1(self, capsys, lam):
        code, out, err = run(capsys, "blocks", "--phase", "x*y", "--lambda", lam)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("D", ["0", "-1", "nan", "inf"])
    def test_nonpositive_band_width_is_1(self, capsys, D):
        argv = ("blocks", "--phase", "x*y", "--lambda", "256", "--D", D)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("phase, lam", [("x^100*y^100", "256"), ("x^2*y^2", "1e-320")])
    def test_gap_whose_lambda_mu_underflows_gets_no_oscillation_bound(self, capsys, phase, lam):
        # mu = 2^-1188 at block (6, 6) of x^100*y^100 is 0.0, and
        # 1e-320 * 2^-12 is too; the true (lambda*mu)^(-1/2) is beyond
        # every double, so the size bound is the block's bound
        d = run_json(capsys, "blocks", "--phase", phase, "--lambda", lam, "--j-max", "6",
                     "--format", "json")
        rows = d["estimates"]
        assert len(rows) == 36 and d["summary"]["resolution_failures"] == []
        bare = [e for e in rows if e["osc_bound"] == ""]
        assert (6, 6) in [(e["j"], e["k"]) for e in bare]
        if phase == "x^100*y^100":
            assert [e for e in rows if e["mu"] == 0.0] == bare
        for e in bare:
            assert e["ratio"] == e["measured"] / e["size_bound"]

    def test_block_scale_past_the_ring_product_underflow(self, capsys):
        # the first block scale is 564, where (3 * 2^-565)^2 underflows
        # to 0.0 but its square root, the size bound, does not
        d = run_json(capsys, "blocks", "--phase", "x*y", "--lambda", "16", "--rho", "1e-170",
                     "--j-max", "565", "--format", "json")
        rows = d["estimates"]
        assert [(e["j"], e["k"]) for e in rows] == [(564, 564), (564, 565), (565, 564), (565, 565)]
        assert rows[0]["size_bound"] == math.ldexp(3.0, -565)
        assert rows[-1]["size_bound"] == math.ldexp(3.0, -566)
        assert all(math.isfinite(e["ratio"]) for e in rows)

    def test_negative_lambda_keeps_the_oscillation_bound(self, capsys):
        # T at -lambda is the conjugate kernel: same norms, same bounds
        argv = ("blocks", "--phase", "x^2*y^2/4", "--j-max", "3", "--format", "json")
        pos = run_json(capsys, *argv, "--lambda", "256")["estimates"]
        neg = run_json(capsys, *argv, "--lambda", "-256")["estimates"]
        assert any(e["osc_bound"] != "" for e in pos)
        for a, b in zip(pos, neg, strict=True):
            assert b["osc_bound"] == a["osc_bound"]
            assert b["measured"] == pytest.approx(a["measured"], rel=1e-12)
            assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-12)


class TestDyadpol:
    def test_two_coefficient_profile_passes(self, capsys):
        d = run_json(
            capsys, "dyadpol", "--r", "0,6", "--C", "1", "--trials", "50"
        )
        assert d["corners"] == ["-3"]
        assert d["set"]["B_prime"] == 4
        assert d["set"]["B"] == 256
        v = d["verification"]
        assert v["pass"] is True
        assert v["min_observed"] >= v["bound"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_1(self, capsys, trials):
        code, out, err = run(capsys, "dyadpol", "--r", "0,6", "--trials", trials)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("r", ["0,a", "1.5", "0,,6", "0,6,"])
    def test_malformed_r_is_a_parse_error(self, capsys, r):
        # like a malformed --lambdas: exit 2, one line of error JSON
        code, out, err = run(capsys, "dyadpol", "--r", r)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("r", ["1100", "5000"])
    def test_overflowing_coefficients_are_1(self, capsys, r):
        # C * 2^r is no double: every |P(h)| would be inf or NaN, which
        # checks nothing
        code, out, err = run(capsys, "dyadpol", "--r", r, "--trials", "3")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        prefix = f"profile coefficients overflow a double: C=2.0, max r={r} "
        assert error["message"].startswith(prefix)

    def test_largest_double_coefficients_are_checked(self, capsys):
        # C * 2^1022 = 2^1023 is still a double
        v = run_json(capsys, "dyadpol", "--r", "1022", "--trials", "3")["verification"]
        assert v["pass"] is True and v["min_observed"] >= v["bound"]
        assert v["worst_trial"] >= 0

    def test_h_density_past_one_block_is_1(self, capsys):
        # one trial's h^i table would hold (1 + 10^8) * 2 doubles
        argv = ("dyadpol", "--r", "0,6", "--trials", "1", "--h-density", "100000000")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "h_density 100000000 needs more than 65536 doubles per trial "
            "for this profile; the largest accepted is 32767",
        }

    def test_negative_h_density_is_1(self, capsys):
        argv = ("dyadpol", "--r", "0,6", "--trials", "5", "--h-density")
        code, out, err = run(capsys, *argv, "-2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"
        # 0 still samples the interval endpoints alone
        d = run_json(capsys, *argv, "0")
        assert d["verification"]["h_density"] == 0


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="a slope fitted on no valid sample is written as a bare NaN (ROADMAP item 6, "
    "null waits for the newton-osc/3 schema bump)",
)
def test_sweep_below_resolution_writes_json(capsys):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    code, out, err = run(capsys, "sweep", "--phase", "x*y", "--lambdas", "1e-9,2e-9,3e-9,4e-9",
                         "--format", "json")
    assert code == 0, err
    json.loads(out, parse_constant=refuse)


class TestDeterminism:
    def test_sweep_bytes_identical(self, capsys):
        argv = ("sweep", "--phase", "x*y", "--rho", "0.85",
                "--lambdas", "16,32,64,128")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ("analyze", "--phase", "x^3*y + x*y^3")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code2 = main([*argv, "--out", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_text() == out


class TestProvenance:
    def test_seed_recorded(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--phase", "x*y", "--lambda", "64", "--seed", "5"
        )
        assert code == 0
        assert out.startswith("# newton-osc/2 seed=5\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--phase", "x*y", "--lambda", "64"),
            ("sweep", "--phase", "x*y", "--lambdas", "16,32,64,128"),
            ("blocks", "--phase", "x*y", "--lambda", "64", "--j-max", "3"),
            ("dyadpol", "--r", "0,6", "--trials", "5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_a_parse_error(self, capsys, argv):
        # numpy refuses negative seeds; every subcommand refuses them first
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": "seed must be non-negative, got -1 (at position 0)"
        }

    @pytest.mark.parametrize("seed", ["1", "-1"])
    def test_analyze_takes_no_seed(self, capsys, seed):
        # analyze draws no random number: --seed is an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--phase", "x*y", "--seed", seed])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestFrontEndOnce:
    # the Newton polygon of F is built once per analysis: cmd_analyze
    # prints its own, analyze_decay builds one, verify_blocks one; a
    # sweep's Fail retry reuses the DecayReport of its parent
    @pytest.fixture
    def builds(self, monkeypatch):
        calls, original = [], newton.build_polygon

        def counted(F):
            calls.append(F)
            return original(F)

        for module in (cli, newton, blocks):
            monkeypatch.setattr(module, "build_polygon", counted)
        return calls

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("analyze", "--mixed", "--phase", "(y-x)^2"), 2),
            (("sweep", "--phase", "x^2*y^2/4", "--rho", "0.9", "--lambdas", "16,32,64,128"), 1),
            (("sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128"), 1),
            (("blocks", "--phase", "x^2*y^2/4", "--lambda", "64", "--j-max", "2"), 1),
        ],
        ids=["analyze", "sweep-with-retry", "sweep", "blocks"],
    )
    def test_polygon_builds_per_call(self, capsys, builds, argv, expected):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(builds) == expected

    def test_one_degeneracy_decision_per_sweep_with_retry(self, capsys, monkeypatch):
        # F = (y-x)^2 is completely degenerate, which F's coefficients
        # decide without a branch expansion; the Fail retry at half the
        # radius reuses the decision
        calls, original = [], newton._gcd_in_y

        def counted(P, Q):
            calls.append(P)
            return original(P, Q)

        monkeypatch.setattr(newton, "_gcd_in_y", counted)
        monkeypatch.setattr(puiseux, "expand_branches", lambda *a, **k: pytest.fail("expanded"))
        d = run_json(capsys, "sweep", "--phase", "-(y-x)^4/12", "--lambdas", "16,32,64,128")
        assert d["report"]["verdict"] == "Fail" and "retry" in d["report"]
        assert d["report"]["decay"]["degeneracy"] == {"kind": "CompletelyDegenerate", "N": 2, "c": 1.0}
        assert len(calls) == 1


def dropped_keys(schema: dict, value, path: str = "payload"):
    """(label, copy of value) with one required key removed, at every depth the schema reaches."""
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield f"{path} without {key}", {k: v for k, v in value.items() if k != key}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                for label, changed in dropped_keys(sub, value[key], f"{path}.{key}"):
                    yield label, {**value, key: changed}
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            for label, changed in dropped_keys(schema["items"], item, f"{path}[{i}]"):
                yield label, [*value[:i], changed, *value[i + 1 :]]


class TestSchemas:
    # one real payload per schema, default format json where none is given
    CASES = {
        "analyze": ["analyze", "--phase", "x^2*y^2/4"],
        "norm": ["norm", "--phase", "x*y", "--lambda", "16", "--format", "json"],
        "sweep": ["sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128"],
        "blocks": ["blocks", "--phase", "x^2*y^2/4", "--lambda", "64", "--j-max", "2", "--format", "json"],
        "dyadpol": ["dyadpol", "--r", "0,6", "--C", "1", "--trials", "10"],
    }

    # a nested required key per payload, from the labels of dropped_keys
    NESTED = {
        "analyze": "payload.decay without t0",
        "norm": "payload.samples[0] without n",
        "sweep": "payload.report without slope",
        "blocks": "payload.summary without violations",
        "dyadpol": "payload.verification without pass",
    }

    @staticmethod
    def accepts(schema: dict, payload) -> bool:
        """jsonschema's verdict on payload."""
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError:
            return False
        return True

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_broken_payloads_are_refused(self, capsys, name):
        schema = SCHEMAS[name]
        payload = run_json(capsys, *self.CASES[name])
        assert self.accepts(schema, payload)
        assert schema["required"][:2] == ["schema", "provenance"]
        broken = dict(dropped_keys(schema, payload))
        assert {f"payload without {key}" for key in schema["required"]} <= broken.keys()
        assert self.NESTED[name] in broken
        for label, changed in broken.items():
            assert not self.accepts(schema, changed), label
        assert not self.accepts(schema, {**payload, "schema": "newton-osc/1"})

    def test_sweep_verdict_outside_enum_is_refused(self, capsys):
        schema = SCHEMAS["sweep"]
        payload = run_json(capsys, *self.CASES["sweep"])
        report = {**payload["report"], "verdict": "Maybe"}
        assert not self.accepts(schema, {**payload, "report": report})
        for verdict in ("Pass", "Fail", "Inconclusive"):
            assert self.accepts(schema, {**payload, "report": {**report, "verdict": verdict}})

    def test_norm_without_samples_is_refused(self, capsys):
        schema = SCHEMAS["norm"]
        payload = run_json(capsys, *self.CASES["norm"])
        assert not self.accepts(schema, {**payload, "samples": []})
        assert not self.accepts(schema, {**payload, "samples": [1.0]})
        assert not self.accepts(schema, {**payload, "samples": tuple(payload["samples"])})

    # JSON Schema's integer: a bool is none, a float with an integral value is one
    @pytest.mark.parametrize(
        "seed, valid",
        [(5, True), (0, True), (1.0, True), (-3.0, True), ("5", False), (1.5, False),
         (True, False), (None, False), (float("nan"), False), (float("inf"), False)],
    )
    def test_seed_is_a_json_schema_integer(self, capsys, seed, valid):
        schema = SCHEMAS["dyadpol"]
        payload = run_json(capsys, *self.CASES["dyadpol"])
        assert self.accepts(schema, {**payload, "provenance": {"seed": seed}}) is valid

    def test_import_leaves_jsonschema_unloaded(self):
        # only the lazy cli.jsonschema, which the benchmark's trace patches, loads it
        code = "import sys, newtonosc.cli as c; assert 'jsonschema' not in sys.modules; c.jsonschema"
        root = os.path.dirname(os.path.dirname(newtonosc.__file__))
        path = [root, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert cli.jsonschema is jsonschema
        with pytest.raises(AttributeError, match="no attribute 'yaml'"):
            cli.yaml

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_schema_passes_the_metaschema(self, name):
        schema = SCHEMAS[name]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_shared_parser_keeps_no_state(self, capsys):
        argvs = list(self.CASES.values())
        first = [run(capsys, *argv) for argv in argvs]
        with pytest.raises(SystemExit):
            main(["analyze", "--phase", "--mixed"])
        capsys.readouterr()
        again = [run(capsys, *argv) for argv in reversed(argvs)]
        assert again[::-1] == first
        assert build_parser() is build_parser()


class TestJsonWriter:
    """cli._json against json.dumps(sort_keys=True, indent=2), the writer it replaced."""

    @staticmethod
    def oracle(value) -> str:
        return json.dumps(value, sort_keys=True, indent=2)

    CALLS = [
        ("norm", "--phase", "x*y", "--lambda", "64", "--format", "json"),
        ("sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128"),
        # a NaN slope: no sample resolves at these lambdas
        ("sweep", "--phase", "x*y", "--lambdas", "1e-9,2e-9,3e-9,4e-9"),
        ("blocks", "--phase", "x^2*y^2/4", "--lambda", "64", "--j-max", "2", "--format", "json"),
        ("dyadpol", "--r", "0,6", "--C", "1", "--trials", "20"),
        ("dyadpol", "--r", "0,1,3,7", "--trials", "20", "--h-density", "16"),
        ("analyze", "--phase", "x^2*y^2/4"),
        ("analyze", "--phase", "x^3*y^2 + x*y^5", "--order", "3/2"),
        ("analyze", "--phase", CONFLATED, "--mixed", "--order", "1/2"),
        ("analyze", "--phase", "(y-x)^2", "--mixed", "--order", "50"),
        ("analyze", "--phase", "3*x + 2", "--mixed"),
    ]

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv))
    def test_payload_bytes_match_json_dumps(self, capsys, monkeypatch, argv):
        payloads = []
        write = cli._json

        def spy(value, indent="\n"):
            if indent == "\n":  # the outermost call writes the whole payload
                payloads.append(value)
            return write(value, indent)

        monkeypatch.setattr(cli, "_json", spy)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        (payload,) = payloads
        assert out == self.oracle(payload) + "\n"

    EDGES = {
        "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "-0.0": -0.0,
        "subnormal": 5e-324, "big": 2**70, "neg": -7, "float64": np.float64(0.1),
        "text": 'é ☃ 𝄞 "q" \\ \n\t\x00\x7f/', "": "", "empty dict": {}, "empty list": [],
        "tuple": (1, (2.5, "b"), []), "bools": [True, False, None],
        "nested": {"b": [{"z": 1, "a": {}}, [[]]], "a": [None]},
        "str enum": Reality.REAL, "int enum": enum.IntEnum("Level", "LOW HIGH").HIGH,
    }

    @pytest.mark.parametrize("key", sorted(EDGES))
    def test_edge_values_match_json_dumps(self, key):
        value = self.EDGES[key]
        assert cli._json(value) == self.oracle(value)
        assert cli._json({key: value, "list": [value]}) == self.oracle({key: value, "list": [value]})

    def test_every_edge_value_in_one_payload(self):
        assert cli._json(self.EDGES) == self.oracle(self.EDGES)

    @pytest.mark.parametrize(
        "value",
        [np.int64(1), np.array([1.0]), Fraction(1, 2), 1j, b"x", {1, 2}, object(),
         [1, {"a": {2}}], {1: "a"}, {("a",): 1}],
        ids=lambda value: type(value).__name__,
    )
    def test_unsupported_type_raises_type_error(self, value):
        # a dict key must be a str; json.dumps would also write 1 as "1"
        with pytest.raises(TypeError):
            cli._json(value)


def _edge(gamma, n, a_nu, b_nu, delta_nu):
    return {"gamma": gamma, "n": n, "A_nu": a_nu, "B_nu": b_nu, "delta_nu": delta_nu}


def _decay(t0, delta, crossing, A, B, edges, **degeneracy):
    return {"t0": t0, "delta": delta, "boundary_crossing": crossing, "A": A, "B": B,
            "edges": edges, "degeneracy": degeneracy}


class TestPinnedPayloads:
    # Fields of the sweep, blocks and dyadpol payloads that are read off
    # the polygon, the sheets and the profile, pinned as the CLI printed
    # them before those records derived them; solver floats, which move
    # with the BLAS kernel, are left out.

    @pytest.mark.parametrize(
        "phase, rho, pinned",
        [
            ("x*y", "0.85", ("-1/2", "Pass", False, False, _decay(
                "0", "1", "vertex", 0, 0, [], kind="NonDegenerate"))),
            ("x^2*y^2/4", "0.9", ("-1/4", "Fail", True, False, _decay(
                "1", "1/2", "vertex", 1, 1, [], kind="NonDegenerate"))),
            ("-(y-x)^4/12", "0.5", ("-1/4", "Fail", True, True, _decay(
                "1", "1/2", "edge", 0, 0, [_edge("1", 2, 2, 0, "1/2")],
                kind="CompletelyDegenerate", N=2, c=1.0))),
        ],
    )
    def test_sweep(self, capsys, phase, rho, pinned):
        r = run_json(capsys, "sweep", "--phase", phase, "--rho", rho,
                     "--lambdas", "16,32,64,128")["report"]
        got = (r["predicted"], r["verdict"], "retry" in r, "log_exponent" in r, r["decay"])
        assert got == pinned

    # (j, k, region, mu, size_bound) for j, k = 1..5 in row order
    BLOCKS = {
        ("--phase", "x^3*y/3 + x*y^2"): (
            "1 1 NearEdge(1) 0.5625 0.75|1 2 NearEdge(1) 0.3125 0.5303300858899106|"
            "1 3 NearEdge(1) 0.1875 0.375|1 4 NearEdge(1) 0.125 0.2651650429449553|"
            "1 5 Gap(1) 0.25 0.1875|2 1 Gap(0) 0.5 0.5303300858899106|"
            "2 2 NearEdge(1) 0.265625 0.375|2 3 NearEdge(1) 0.140625 0.2651650429449553|"
            "2 4 NearEdge(1) 0.078125 0.1875|2 5 NearEdge(1) 0.046875 0.13258252147247765|"
            "3 1 Gap(0) 0.5 0.375|3 2 Gap(0) 0.25 0.2651650429449553|3 3 Gap(0) 0.125 0.1875|"
            "3 4 NearEdge(1) 0.06640625 0.13258252147247765|3 5 NearEdge(1) 0.03515625 0.09375|"
            "4 1 Gap(0) 0.5 0.2651650429449553|4 2 Gap(0) 0.25 0.1875|"
            "4 3 Gap(0) 0.125 0.13258252147247765|4 4 Gap(0) 0.0625 0.09375|"
            "4 5 Gap(0) 0.03125 0.06629126073623882|5 1 Gap(0) 0.5 0.1875|"
            "5 2 Gap(0) 0.25 0.13258252147247765|5 3 Gap(0) 0.125 0.09375|"
            "5 4 Gap(0) 0.0625 0.06629126073623882|5 5 Gap(0) 0.03125 0.046875"
        ),
        ("--mixed", "--phase", "y^3 + x^2*y + x^5"): (
            "1 1 NearEdge(1) 0.0322265625 0.75|1 2 NearEdge(1) 0.0107421875 0.5303300858899106|"
            "1 3 NearEdge(1) 0.005126953125 0.375|"
            "1 4 NearEdge(2) 0.002960205078125 0.2651650429449553|"
            "1 5 NearEdge(2) 0.001956939697265625 0.1875|"
            "2 1 NearEdge(1) 0.019561767578125 0.5303300858899106|"
            "2 2 NearEdge(1) 0.003936767578125 0.375|"
            "2 3 NearEdge(1) 0.001251220703125 0.2651650429449553|"
            "2 4 NearEdge(1) 0.00054931640625 0.1875|"
            "2 5 NearEdge(2) 0.000278472900390625 0.13258252147247765|"
            "3 1 NearEdge(1) 0.016602516174316406 0.375|"
            "3 2 NearEdge(1) 0.0024423599243164062 0.2651650429449553|"
            "3 3 NearEdge(1) 0.0004892349243164062 0.1875|"
            "3 4 NearEdge(1) 0.00015354156494140625 0.13258252147247765|"
            "3 5 NearEdge(1) 6.580352783203125e-05 0.09375|"
            "4 1 Gap(0) 0.125 0.2651650429449553|"
            "4 2 NearEdge(1) 0.0020752251148223877 0.1875|"
            "4 3 NearEdge(1) 0.0003052055835723877 0.13258252147247765|"
            "4 4 NearEdge(1) 6.10649585723877e-05 0.09375|"
            "4 5 NearEdge(1) 1.9103288650512695e-05 0.06629126073623882|"
            "5 1 Gap(0) 0.125 0.1875|5 2 Gap(0) 0.015625 0.13258252147247765|"
            "5 3 NearEdge(1) 0.0002594003453850746 0.09375|"
            "5 4 NearEdge(1) 3.8147903978824615e-05 0.06629126073623882|"
            "5 5 NearEdge(1) 7.630325853824615e-06 0.046875"
        ),
    }

    @pytest.mark.parametrize("phase", list(BLOCKS))
    def test_blocks(self, capsys, phase):
        d = run_json(capsys, "blocks", *phase, "--lambda", "256", "--j-max", "5",
                     "--format", "json")
        rows = "|".join(
            " ".join(str(e[key]) for key in ("j", "k", "region", "mu", "size_bound"))
            for e in d["estimates"]
        )
        assert rows == self.BLOCKS[phase]

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (("--r", "0,6", "--C", "1", "--trials", "50"),
             (-7, [], ["-3"], 4, 256, 0.00390625)),
            (("--r", "0,30", "--trials", "20"),
             (-21, [{"alpha": -9, "beta": 0}], ["-15"], 6, 4096, 0.000244140625)),
            (("--r", "12,0,7", "--C", "3", "--trials", "20"),
             (-20, [], ["-12", "5/2"], 8, 16777216, 5.960464477539063e-08)),
        ],
    )
    def test_dyadpol(self, capsys, argv, pinned):
        d = run_json(capsys, "dyadpol", *argv)
        s, v = d["set"], d["verification"]
        assert s["corners"] == d["corners"]
        assert (s["leading_beta"], s["intervals"], s["corners"], s["B_prime"], s["B"],
                v["bound"]) == pinned
        assert v["pass"] is True

    # (min_observed, worst_trial, worst_h), the floats as float.hex; the
    # last call has many trials tied at the minimum, and the earliest wins
    @pytest.mark.parametrize(
        "argv, worst",
        [
            (("--r", "0,6", "--C", "1", "--trials", "50"),
             ("0x1.fa00000000000p-1", 6, "0x1.0000000000000p-7")),
            (("--r", "0,30", "--trials", "20"),
             ("0x1.ffcee7db340acp-1", 17, "0x1.0000000000000p-21")),
            (("--r", "12,0,7", "--C", "3", "--trials", "20"),
             ("0x1.fc1271dad0320p-1", 17, "0x1.0000000000000p-20")),
            (("--r", "3,7,12", "--trials", "1000", "--seed", "5"),
             ("0x1.f7ea491270fcap-1", 367, "0x1.0000000000000p-10")),
            (("--r", "0,6", "--C", "1", "--h-density", "0", "--trials", "300"),
             ("0x1.fa00000000000p-1", 6, "0x1.0000000000000p-7")),
        ],
    )
    def test_dyadpol_worst_trial(self, capsys, argv, worst):
        v = run_json(capsys, "dyadpol", *argv)["verification"]
        assert (v["min_observed"].hex(), v["worst_trial"], v["worst_h"].hex()) == worst


class TestSurface:
    # every option is read by its subcommand; a new one must be added here
    EXPECTED = {
        "analyze": {"phase", "mixed", "out", "order"},
        "norm": {"phase", "mixed", "seed", "out", "format", "rho", "lam"},
        "sweep": {
            "phase", "mixed", "seed", "out", "format", "rho",
            "lambdas", "tol_slope", "fit_window", "emit_plot_data",
        },
        "blocks": {"phase", "mixed", "seed", "out", "format", "rho", "lam", "D", "j_max"},
        "dyadpol": {"seed", "out", "r", "C", "trials", "h_density"},
        "selftest": {"out"},
    }

    def test_option_set_per_subcommand(self):
        ap = build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
            for name, sp in sub.choices.items()
        }
        assert found == self.EXPECTED

    # the package's public names; a new one must be added here
    EXPORTS = {
        "BivarPoly", "BlockEstimate", "BranchSet", "DecayReport", "DegeneracyKind",
        "DiscreteOperator", "DomainError", "EmptyPolygonError", "ExponentProfile",
        "GridSpec", "InsufficientSamplesError", "LowerBoundReport", "LowerBoundSet",
        "NegativeExponentError", "NewtonPolygon", "NoConvergenceError", "NormSample",
        "ParseError", "PhaseSpec", "PuiseuxBranch", "PuiseuxTerm", "Reality", "Region",
        "ResolutionError", "ScalingReport", "SweepConfig", "WrongRegionError",
        "analyze_decay", "build_polygon", "chi", "classify_block", "decay_rate",
        "discretize", "envelope_corners", "expand_branches", "fit_decay",
        "integrate_xy", "lower_bound_set", "mixed_derivative", "norm_at",
        "operator_norm", "parse_poly", "predicted_exponent", "sweep", "theta",
        "verify_blocks", "verify_lower_bound", "verify_theorem",
    }

    def test_package_exports(self):
        assert len(newtonosc.__all__) == len(self.EXPORTS)
        assert set(newtonosc.__all__) == self.EXPORTS
        assert all(hasattr(newtonosc, name) for name in self.EXPORTS)


class TestSelftest:
    def test_passes_quickly_with_named_cases(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "selftest")
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 60.0
        assert "ok theta plateau" in out
        assert "ok polygon oracle" in out
        assert "ok Lanczos norm vs dense" in out
        assert out.strip().split("\n")[-1].startswith("selftest passed")

    def test_failing_case_is_named_and_exits_1(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("planted failure")

        cases = list(cli._SELFTEST_CASES)
        cases[1] = (cases[1][0], broken)
        monkeypatch.setattr(cli, "_SELFTEST_CASES", cases)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out.splitlines() == [f"ok {cases[0][0]}", f"FAIL {cases[1][0]}: planted failure"]

    def test_wrong_puiseux_sheet_fails(self, capsys, monkeypatch):
        # c*x^(3/2) with c = +-(1 + 1e-9) leaves (c^2 - 1)*x^3 of y^2 - x^3
        c = 1 + 1e-9
        sheets = BranchSet(
            branches=tuple(PuiseuxBranch((PuiseuxTerm(Fraction(3, 2), s),)) for s in (-c, c)),
            axis_roots=(0, 0),
            order=Fraction(20),
        )
        monkeypatch.setattr(cli, "expand_branches", lambda F, order=None: sheets)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL puiseux exact root: ")

    def test_wrong_degeneracy_fails(self, capsys, monkeypatch):
        # every F reads NonDegenerate; the polygon and its rates are kept
        original = newton.analyze_decay
        monkeypatch.setattr(
            cli, "analyze_decay", lambda F: replace(original(F), degeneracy=newton.Degeneracy())
        )
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL degeneracy detection: ")

    def test_output_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "selftest")
        _, out2, _ = run(capsys, "selftest")
        assert out1 == out2


class TestEntryPoint:
    def test_installed_script(self):
        # a child process does not see pytest's pythonpath setting: put the
        # directory that holds the imported package first on its path
        root = os.path.dirname(os.path.dirname(newtonosc.__file__))
        path = [root, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "newtonosc.cli", "analyze", "--phase", "x*y"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["decay"]["delta"] == "1"
