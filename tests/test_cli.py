"""End-to-end tests of the command-line interface: flags, output formats,
exit codes, and byte-level determinism of reports."""

import argparse
import copy
import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretail import BoundResult, McEstimate, RngStream, VerificationRecord, get_constant
from spheretail import bisub_rule, parse_test_function
from spheretail import __version__, bounds, report, sampling
from spheretail.cli import build_parser, main
from spheretail.report import CSV_COLUMNS, CoefficientPattern, records_to_json, run_sweep
from spheretail.sampling import CHUNK_SIZE


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert "C3" in out and "C_STAR" in out and "NT397/C3" in out
        assert "4.4634526496" in out
        assert "88.9445976392" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,note"
        assert len(lines) == 6  # four constants + ratio row

    def test_csv_quotes_notes_with_commas(self, capsys):
        _, out, _ = run_cli(capsys, "constants", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 3 for row in rows)
        c3 = next(row for row in rows if row[0] == "C3")
        assert float(c3[1]) == get_constant("c3").value
        assert c3[2] == get_constant("c3").note

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "json")
        doc = json.loads(out)
        values = {row["name"]: row["value"] for row in doc["constants"]}
        assert values["C3"] == 2.0 * math.e**3 / 9.0
        assert 3.17 < values["C_STAR"] < 3.18
        assert 88.9 < values["NT397/C3"] < 89.0

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ([], "386f6286e19c0d90c29c027876841ace1c33f3556e1a0c28a47b7cfb7f91ce36"),
            (["--format", "csv"],
             "33bee23ecc2059cb8e04fd4eb98884e4b346420f76679a7a6bf68c6c2498bd58"),
            (["--format", "json"],
             "029f7fef750d25fc9a5e3874f9374f7ea54dd79ffbf0c194c9ec97fe22358ad6"),
        ],
        ids=["table", "csv", "json"],
    )
    def test_output_is_pinned(self, capsys, fmt, digest):
        code, out, _ = run_cli(capsys, "constants", *fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_into_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, "constants", "--format", "csv", "--out", str(out))
        assert code == 2
        assert "No such file or directory" in err

    def test_out_needs_format(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "constants", "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "argument --out: needs --format" in err
        assert list(tmp_path.iterdir()) == []


class TestBoundCommand:
    def test_d2_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1", "--u", "2",
            "--constants", "c3", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        cells = dict(zip(CSV_COLUMNS, row.split(",")))
        expected = get_constant("c3").value * math.exp(-2.0)
        assert float(cells["bound_raw"]) == pytest.approx(expected, rel=1e-12)
        assert float(cells["scale"]) == 1.0

    def test_zero_threshold_caps(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "3", "--coeffs", "1,1,1", "--u", "0",
            "--format", "csv",
        )
        row = out.strip().splitlines()[1].split(",")
        cells = dict(zip(CSV_COLUMNS, row))
        assert float(cells["bound_capped"]) == 1.0

    def test_two_constants_pure_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "1", "--coeffs", "1", "--u", "1",
            "--constants", "cstar,c3", "--format", "csv",
        )
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        raws = [float(dict(zip(CSV_COLUMNS, r))["bound_raw"]) for r in rows]
        expected = get_constant("c3").value / get_constant("cstar").value
        assert raws[1] / raws[0] == pytest.approx(expected, rel=1e-12)

    def test_repeated_constant_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1", "--u", "2", "--constants", "c3,c3"
        )
        assert code == 2 and out == ""
        assert "constant value C3 is repeated; list each value once" in err

    def test_u_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1",
            "--u-linear", "0:3:4", "--format", "csv",
        )
        assert len(out.strip().splitlines()) == 5

    def test_needs_exactly_one_u_spec(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--d", "2", "--coeffs", "1,1")
        assert code == 2
        assert "one of the arguments --u --u-linear is required" in err
        code, _, err = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1", "--u", "1", "--u-linear", "0:3:4"
        )
        assert code == 2
        assert "argument --u-linear: not allowed with argument --u" in err

    def test_threshold_over_a_tiny_scale(self, capsys):
        # u / scale overflows; the bound there is 0, not an input error
        code, out, err = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1e-150,1e-150", "--u", "1e200"
        )
        assert (code, err) == (0, "")
        assert out == "d=2 u=1e+200 scale=1e-150 C3: raw=0 capped=0\n"

    @pytest.mark.parametrize(
        "coeffs, digest",
        [
            ("1e-150,1e-150,3", "bd187121687fc9b5775d79102c72c1f03030df5c0d7f0c2dac40a15091b7319d"),
            # u / scale overflows on both sides of zero
            ("1e-150,1e-150", "39d14680151f49c43f73994fcf2cd9ed5d7e442102863a1934247be0aa36e927"),
        ],
        ids=["scale-2.12", "scale-1e-150"],
    )
    def test_json_report_is_pinned(self, capsys, coeffs, digest):
        # thresholds below, at and above zero, under every constant
        code, out, _ = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", coeffs, "--u-linear=-1e200:1e200:7",
            "--constants", "c3,cstar,e2,nt397", "--format", "json", "--no-timestamp",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tiny_coefficients_give_the_same_bound(self, capsys):
        # the bound is scale invariant, and scaling keeps (1e-160)^2 out of the subnormals
        lines = [
            run_cli(capsys, "bound", "--d", "2", "--coeffs", f"{a},{a}", "--u", a)[1]
            for a in ("1", "1e-160")
        ]
        assert lines[0].split("raw=")[1] == lines[1].split("raw=")[1] != ""
        assert "scale=1e-160 " in lines[1]

    def test_out_needs_format(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1", "--u", "2",
            "--out", str(tmp_path / "b.csv"),
        )
        assert code == 2
        assert "argument --out: needs --format" in err
        assert list(tmp_path.iterdir()) == []


class TestOracleCommand:
    def test_rademacher(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "rademacher", "--coeffs", "1,1", "--u", "1.9")
        assert code == 0
        assert float(out) == 0.5

    def test_rademacher_nonstrict(self, capsys):
        _, out, _ = run_cli(
            capsys, "oracle", "rademacher", "--coeffs", "1,1", "--u", "2", "--non-strict"
        )
        assert float(out) == 0.5

    def test_m2_m4(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "m2", "--coeffs", "3,4")
        assert float(out) == 25.0
        _, out, _ = run_cli(capsys, "oracle", "m4", "--coeffs", "1,1", "--d", "2")
        assert float(out) == 6.0

    def test_m4_does_not_depend_on_coefficient_order(self, capsys):
        _, forward, _ = run_cli(capsys, "oracle", "m4", "--coeffs", "0.1,0.2,0.3,0.7", "--d", "3")
        _, backward, _ = run_cli(capsys, "oracle", "m4", "--coeffs", "0.7,0.3,0.2,0.1", "--d", "3")
        assert forward == backward

    def test_capacity_exit_code(self, capsys):
        coeffs = ",".join(["1"] * 27)
        code, _, err = run_cli(capsys, "oracle", "rademacher", "--coeffs", coeffs, "--u", "1")
        assert code == 3
        assert "enumeration" in err


class TestCheckCommand:
    def test_schur(self, capsys):
        code, out, _ = run_cli(capsys, "check", "schur", "--a-sq", "1,0", "--b-sq", "0.5,0.5")
        assert code == 0 and out.startswith("true")
        code, out, _ = run_cli(capsys, "check", "schur", "--a-sq", "0.5,0.5", "--b-sq", "1,0")
        assert code == 0 and out.startswith("false")

    def test_classc(self, capsys):
        code, out, _ = run_cli(capsys, "check", "classc", "--f", "power2.5")
        assert code == 0 and "false" in out
        code, out, _ = run_cli(capsys, "check", "classc", "--f", "power4")
        assert "true" in out

    def test_classc_names_the_failed_condition(self, capsys):
        # h'' = -0.01 cosh(0.1 x) is concave, however gently
        code, out, _ = run_cli(capsys, "check", "classc", "--f=-cosh0.1", "--format", "json")
        assert code == 0
        failed = "a cosh profile needs sign > 0"
        assert out.splitlines()[0] == f"-cosh0.1: false ({failed})"
        assert json.loads(out.split("\n", 1)[1]) == {"passed": False, "failed": failed}
        # the rule evaluates no profile, so a steep cosh cannot overflow
        assert run_cli(capsys, "check", "classc", "--f", "cosh400") == (0, "cosh400: true\n", "")

    def test_classc_takes_no_grid(self, capsys):
        code, out, err = run_cli(capsys, "check", "classc", "--f", "power4", "--grid=-1:1:7")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --grid=-1:1:7" in err

    def test_gauss_power4(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "2"
        )
        assert code == 0
        assert "lhs=6" in out and "rhs=8" in out and "HOLDS" in out

    @pytest.mark.parametrize(
        "argv",
        [["gauss", "--coeffs", "0.6,0.8"], ["bc", "--a-sq", "1,0", "--b-sq", "0.5,0.5"]],
        ids=["gauss", "bc"],
    )
    def test_softplus_squared_is_refused(self, capsys, argv):
        # its bi-Laplacian is negative for 2.21 < r < 5.99 in R^3; the refusal
        # names the witness radius d + 1 that the rule cites
        code, out, err = run_cli(capsys, "check", *argv, "--f", "softplus_squared", "--d", "3")
        assert code == 2 and out == ""
        assert err == (
            "error: softplus_squared is not certified bisubharmonic for d=3 "
            "(Delta^2 f < 0 at |x| = 4)\n"
        )

    def test_bc_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "bc", "--f", "power4", "--a-sq", "1,0",
            "--b-sq", "0.5,0.5", "--d", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out[out.index("{") :])  # JSON follows the human line
        assert doc["lhs"] == 1.0 and doc["rhs"] == 1.5

    def test_bc_unequal_totals_positive_margin_is_inconclusive(self, capsys):
        # the totals 0.3 and 0.30000000000000004 differ by 1 ulp (the exact sums
        # by 2.78e-17), and the exact second-moment margin is that gap: not
        # evidence that the comparison holds
        code, out, _ = run_cli(
            capsys, "check", "bc", "--f", "power2", "--a-sq", "0.3,0", "--b-sq", "0.1,0.2",
            "--d", "3",
        )
        assert code == 0
        assert out == (
            "lhs=0.3 rhs=0.3 margin=5.55111512313e-17 margin_se=0 verdict=INCONCLUSIVE "
            "conclusive=False method=exact-m2 note=sum b_sq - sum a_sq = 2.78e-17, "
            "majorized only within tolerance\n"
        )

    def test_bc_fourth_moment_within_the_gap_is_inconclusive(self, capsys):
        # both totals round to 0.30000000000000004, but the exact sums differ
        # by 1.39e-17, and the m4 margin 0 is no more than that gap makes; a
        # strict pair beside a 1-ulp gap keeps its verdict
        argv = ("check", "bc", "--f", "power4", "--b-sq", "0.1,0.2", "--d", "3")
        code, out, _ = run_cli(capsys, *argv, "--a-sq", "0.2,0.10000000000000002")
        assert code == 0
        assert out == (
            "lhs=0.116666666667 rhs=0.116666666667 margin=0 margin_se=0 verdict=INCONCLUSIVE "
            "conclusive=False method=exact-m4 note=sum b_sq - sum a_sq = -1.39e-17, "
            "majorized only within tolerance\n"
        )
        code, out, _ = run_cli(capsys, *argv, "--a-sq", "0.3,0")
        assert code == 0
        assert out == (
            "lhs=0.09 rhs=0.116666666667 margin=0.0266666666667 margin_se=0 verdict=HOLDS "
            "conclusive=True method=exact-m4\n"
        )

    def test_bisub_fail_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "check", "bisub", "--f", "neg_power4", "--d", "3")
        assert code == 1 and "fail" in out

    @pytest.mark.parametrize(
        "token, d, line, exit_code",
        [
            # Delta^2 f(0) = -c^4 d (d+2) / 3 < 0 at every rate, however small
            ("-cosh0.01", 3, "-cosh0.01 (d=3): fail (a cosh profile needs sign > 0)", 1),
            # inside the negative band 2.2 < r < 6.0
            ("softplus_squared", 3, "softplus_squared (d=3): fail (Delta^2 f < 0 at |x| = 4)", 1),
            ("-softplus_squared", 30,
             "-softplus_squared (d=30): fail (Delta^2 f < 0 at |x| = 0)", 1),
            ("power1", 3, "power1 (d=3): fail (sign (p - 2) = -1 <= 0)", 1),
            ("power2.5", 1, "power2.5 (d=1): fail (p + d = 3.5 < 4)", 1),
            ("-power1", 3, "-power1 (d=3): pass", 0),
            # no witness is checked there, so no counterexample is claimed
            ("softplus_squared", 60,
             "softplus_squared (d=60): inconclusive (no witness beyond d = 50)", 0),
        ],
    )
    def test_bisub_line(self, capsys, token, d, line, exit_code):
        code, out, _ = run_cli(capsys, "check", "bisub", f"--f={token}", "--d", str(d))
        assert (code, out) == (exit_code, line + "\n")

    def test_bisub_is_the_rule(self, capsys):
        # the line, the JSON and the exit code on 196 cells: +-power p, +-cosh
        # at four rates and +-softplus^2, in seven dimensions
        tokens = [f"{sign}{kind}{v}" for sign in ("", "-") for kind, values in (
            ("power", ("0", "0.5", "1", "1.5", "2", "2.5", "3", "4", "6")),
            ("cosh", ("0.01", "0.1", "1", "2")), ("softplus_squared", ("",))) for v in values]
        for token, d in itertools.product(tokens, (1, 2, 3, 4, 5, 10, 30)):
            fn = parse_test_function(token)
            status, failed = bisub_rule(fn, d)
            code, out, _ = run_cli(capsys, "check", "bisub", f"--f={token}", "--d", str(d),
                                   "--format", "json")
            line = f"{fn.label} (d={d}): {status}" + (f" ({failed})" if failed else "")
            assert out == line + "\n" + report.json_text({"status": status, "failed": failed})
            assert code == (status == "fail")

    @pytest.mark.parametrize("flag", [["--y-norms", "0,1"], ["--t-grid", "0.5:2:4"]])
    def test_bisub_centres_and_grid_are_gone(self, capsys, flag):
        code, out, err = run_cli(capsys, "check", "bisub", "--f", "power4", "--d", "3", *flag)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize(
        "argv, rhs",
        [(["gauss", "--coeffs", "1,1", "--f", "cosh20"], "rhs=1.81128301589e+88"),
         (["lemma2", "--xi-coeffs", "1,1", "--h", "cosh20"], "rhs=1.81128e+88")],
        ids=["gauss", "lemma2"],
    )
    def test_cosh_gaussian_side_is_finite_past_the_quadrature(self, capsys, argv, rhs):
        # E cosh(20 ||Z_2||) = 1F1(1; 1/2; 200), whose chi-density integrand
        # overflows before the density decays
        code, out, _ = run_cli(capsys, "check", *argv, "--d", "2", "--samples", "2000")
        assert code == 0 and rhs in out

    @pytest.mark.parametrize(
        "flag", [["--quadrature"], ["--samples", "5"], ["--seed", "1"], ["--alpha", "0.05"]]
    )
    def test_bisub_takes_no_sampling_flag(self, capsys, flag):
        assert _declared_flags(("check", "bisub")) == {"f", "d", "format"}
        code, out, err = run_cli(capsys, "check", "bisub", "--f", "power4", "--d", "3", *flag)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "bc", "--f", "cosh", "--a-sq", "0.5,0.3,0.2", "--b-sq", "0.4,0.35,0.25",
             "--d", "3"],
            ["check", "gauss", "--f", "cosh", "--coeffs", "1,1", "--d", "3"],
            ["check", "kwapien", "--coeffs", "0.6,0.8", "--d", "3", "--p", "3"],
            ["check", "lemma2", "--xi-coeffs", "1,1", "--d", "2", "--h", "power4"],
            ["verify", "--d", "2"],
        ],
        ids=["bc", "gauss", "kwapien", "lemma2", "verify"],
    )
    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
    def test_bad_alpha_fails_before_sampling(self, capsys, monkeypatch, argv, alpha):
        chunks = []
        generator = RngStream.generator
        monkeypatch.setattr(
            RngStream, "generator", lambda self: chunks.append(self) or generator(self)
        )
        assert run_cli(capsys, *argv, "--samples", "1000")[0] == 0
        assert chunks  # the valid run samples
        chunks.clear()
        code, out, err = run_cli(capsys, *argv, "--samples", "1000", "--alpha", alpha)
        assert code == 2 and out == ""
        assert f"argument --alpha: alpha must lie in (0, 1), got {float(alpha)}" in err
        assert chunks == []

    def test_kwapien(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "4"
        )
        assert code == 0 and "HOLDS" in out
        code, _, err = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "2.5"
        )
        assert code == 2

    def test_kwapien_p2_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "2"
        )
        assert code == 2 and out == ""
        assert "p=2.0 is outside the p >= 3 range" in err
        assert "allow_p2" not in err

    def test_kwapien_allow_p2_flag_is_gone(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "2", "--allow-p2"
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --allow-p2" in err

    def test_lemma2(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "lemma2", "--xi-coeffs", "1,1", "--d", "2",
            "--h", "power4,power2", "--samples", "20000",
        )
        assert code == 0
        assert out.count("CONSISTENT") == 2

    def test_lemma2_skip_names_the_failed_condition(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "lemma2", "--xi-coeffs", "0.6,0.8", "--d", "3",
            "--h=-cosh0.1,power2.5", "--samples", "20000", "--format", "json",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [
            "-cosh0.1: SKIPPED_CLASS_C (a cosh profile needs sign > 0)",
            "power2.5: SKIPPED_CLASS_C (h'' ~ |x|^(p-2) is not convex for 2 < p = 2.5 < 3)",
        ]
        doc = json.loads("\n".join(lines[2:]))
        assert [r["class_c"] for r in doc] == [
            {"passed": False, "failed": "a cosh profile needs sign > 0"},
            {"passed": False, "failed": "h'' ~ |x|^(p-2) is not convex for 2 < p = 2.5 < 3"},
        ]
        assert all(math.isnan(r["lhs"]) and r["verdict"] == "SKIPPED_CLASS_C" for r in doc)

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "gauss", "--coeffs", "1,1", "--d", "2")
        assert code == 2 and "--f" in err


# one valid invocation per check and oracle kind, and a flag that kind does not read
KIND_CASES = [
    (["check", "schur", "--a-sq", "1,0", "--b-sq", "0.5,0.5"], ["--samples", "5"]),
    (["check", "classc", "--f", "power4"], ["--d", "3"]),
    (["check", "bisub", "--f", "power4", "--d", "3"], ["--samples", "5"]),
    (["check", "bc", "--f", "power4", "--a-sq", "1,0", "--b-sq", "0.5,0.5", "--d", "2"],
     ["--p", "4"]),
    (["check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "2"], ["--p", "4"]),
    (["check", "lemma2", "--xi-coeffs", "1,1", "--d", "2", "--h", "power4"], ["--coeffs", "1"]),
    (["check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "4"], ["--a-sq", "1"]),
    (["oracle", "rademacher", "--coeffs", "1,1", "--u", "1.9"], ["--d", "3"]),
    (["oracle", "m2", "--coeffs", "3,4"], ["--u", "1"]),
    (["oracle", "m4", "--coeffs", "1,1", "--d", "2"], ["--non-strict"]),
]
KIND_IDS = [" ".join(argv[:2]) for argv, _ in KIND_CASES]
CHECK_CASES = [argv for argv, _ in KIND_CASES if argv[0] == "check"]
# keys of each check kind's JSON object; lemma2 prints a list of such objects
JSON_KEYS = {
    "schur": {"majorizes"},
    "classc": {"passed"},
    "bisub": {"status", "failed"},
    "bc": {"verdict", "method"},
    "gauss": {"verdict", "method"},
    "lemma2": {"label", "verdict"},
    "kwapien": {"verdict", "method"},
}


class TestKindFlags:
    """Each check and oracle kind takes exactly the flags it reads."""

    @pytest.mark.parametrize("argv, unread", KIND_CASES, ids=KIND_IDS)
    def test_unread_flag_rejected(self, capsys, argv, unread):
        code, out, err = run_cli(capsys, *argv, *unread)
        assert code == 2 and out == ""
        # under the kind's usage, which lists the flags the kind does take
        prog = f"spheretail {argv[0]} {argv[1]}"
        assert err.startswith(f"usage: {prog} [-h] ")
        assert f"{prog}: error: unrecognized arguments: {' '.join(unread)}" in err

    @pytest.mark.parametrize("argv, unread", KIND_CASES, ids=KIND_IDS)
    def test_missing_required_flag_named(self, capsys, argv, unread):
        flag = argv[-2]  # every case ends with a required flag and its value
        code, out, err = run_cli(capsys, *argv[:-2])
        assert code == 2 and out == ""
        assert f"the following arguments are required: {flag}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # --h would abbreviate --help, --f would abbreviate --format
            ["check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "2", "--h", "power4"],
            ["check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "4", "--f", "power4"],
        ],
        ids=["gauss --h", "kwapien --f"],
    )
    def test_abbreviation_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize("argv", CHECK_CASES, ids=[" ".join(a[:2]) for a in CHECK_CASES])
    def test_json_follows_the_human_lines(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        lines = out.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line[:1] in "{[")
        assert start >= 1
        doc = json.loads("".join(lines[start:]))
        entries = doc if argv[1] == "lemma2" else [doc]
        assert entries and all(JSON_KEYS[argv[1]] <= set(entry) for entry in entries)

    def test_constants_takes_no_timestamp_flag(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--no-timestamp")
        assert code == 2 and "unrecognized arguments: --no-timestamp" in err

    @pytest.mark.parametrize(
        "argv, prog, unread",
        [
            (["--y", "bound", "--d", "2", "--coeffs", "1", "--u", "1"], "spheretail", "--y"),
            (["--x=1", "check", "schur", "--a-sq", "1", "--b-sq", "1"], "spheretail", "--x=1"),
            (["bound", "--d", "2", "--coeffs", "1", "--u", "1", "--x"], "spheretail bound", "--x"),
            (["check", "--bogus", "bisub", "--f", "power4", "--d", "3"], "spheretail check",
             "--bogus"),
            (["oracle", "--bogus", "m2", "--coeffs", "1"], "spheretail oracle", "--bogus"),
            (["check", "bisub", "--f", "power4", "--d", "3", "check"], "spheretail check bisub",
             "check"),
            (["oracle", "m2", "--coeffs", "1", "oracle"], "spheretail oracle m2", "oracle"),
        ],
        ids=["before-command", "before-command-with-value", "after-command", "before-check-kind",
             "before-oracle-kind", "command-word-after-check-kind",
             "command-word-after-oracle-kind"],
    )
    def test_unrecognized_flag_under_the_parser_it_precedes(self, capsys, argv, prog, unread):
        # a flag before the command word is the root's to report, and one
        # before a check or oracle kind word is the command's; anything after
        # the kind word is the kind's, even a repeat of the command word
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: {prog} [-h] ")
        assert f"{prog}: error: unrecognized arguments: {unread}\n" in err


# valid invocations that together read every flag of every command and kind
INVOCATIONS = [
    ["bound", "--d", "2", "--coeffs", "1,1", "--u", "2", "--constants", "c3,cstar"],
    ["bound", "--d", "2", "--coeffs", "1,1", "--u-linear", "0:3:4", "--format", "json",
     "--no-timestamp", "--out", "b.json"],
    ["verify", "--d", "1,2", "--n", "1,2", "--patterns", "equal", "--quantiles", "0.5",
     "--samples", "2000", "--seed", "3", "--alpha", "0.05", "--constants", "c3",
     "--budget", "100000", "--workers", "1", "--no-normalize"],
    ["verify", "--d", "2", "--u-linear", "0:2:3", "--samples", "2000", "--format", "json",
     "--no-timestamp", "--out", "v.json"],
    ["oracle", "rademacher", "--coeffs", "1,1", "--u", "2", "--non-strict"],
    ["oracle", "m2", "--coeffs", "3,4"],
    ["oracle", "m4", "--coeffs", "1,1", "--d", "2"],
    ["check", "schur", "--a-sq", "1,0", "--b-sq", "0.5,0.5", "--format", "json"],
    ["check", "classc", "--f", "power4", "--format", "json"],
    ["check", "bisub", "--f", "power4", "--d", "3", "--format", "json"],
    ["check", "bc", "--f", "power4", "--a-sq", "1,0", "--b-sq", "0.5,0.5", "--d", "2",
     "--samples", "2000", "--seed", "1", "--alpha", "0.05", "--format", "json"],
    ["check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "2",
     "--samples", "2000", "--seed", "1", "--alpha", "0.05", "--format", "json"],
    ["check", "lemma2", "--xi-coeffs", "1,1", "--d", "2", "--h", "power4,power2",
     "--samples", "2000", "--seed", "1", "--alpha", "0.05", "--format", "json"],
    ["check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "4",
     "--samples", "2000", "--seed", "1", "--alpha", "0.05", "--format", "json"],
    ["constants", "--format", "csv", "--out", "c.csv"],
]


@pytest.mark.parametrize(
    "argv", [a for a in INVOCATIONS if a[0] == "check"], ids=lambda a: a[1]
)
def test_check_json_is_the_report_format(capsys, argv):
    # the JSON follows the check's line(s); json_text writes every JSON report
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines(keepends=True)
    doc = "".join(lines[next(i for i, line in enumerate(lines) if line[0] in "{["):])
    assert doc == report.json_text(json.loads(doc))


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-5, np.float64(-0.0)])
    | st.text()
    | st.text(st.sampled_from('a\u00e9\u4e2d\U0001f600"\\/\n\t\x00\x7f\u2028'))
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda docs: st.lists(docs, max_size=4)
    | st.lists(docs, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), docs, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(JSON_DOCS)
def test_json_text_is_the_indented_dump(doc):
    # json_text joins the C encoder's flat containers by hand; the bytes
    # must be those of the pure-Python encoder that indent= selects
    assert report.json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_a_list_of_records_is_the_indented_dump():
    # a list of flat dicts goes through one C call, split at the records'
    # boundaries; strings that look like a boundary are escaped, never split
    tricky = ["},\n    {", "}\n", "{", "}", '"},"', ""]
    records = [{"k": v, "n": i, "x": [1.5, None][i % 2]} for i, v in enumerate(tricky)]
    for doc in (records, {"records": records, "meta": {"seed": 1}}, [[records[0]], records]):
        assert report.json_text(doc) == json.dumps(doc, indent=2) + "\n"


def _subparsers(parser):
    """The subcommand name -> parser map of PARSER ({} if it has none)."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _leaf_paths(parser, path=()):
    """The word paths (command, kind) that reach a parser without subcommands."""
    subs = _subparsers(parser)
    if not subs:
        return {path}
    return set().union(*(_leaf_paths(p, (*path, name)) for name, p in subs.items()))


def _parsers(parser):
    """PARSER and every parser below it."""
    return [parser, *(p for sub in _subparsers(parser).values() for p in _parsers(sub))]


def _declared_flags(words):
    """The option dests of the innermost parser that WORDS select."""
    parser = build_parser()
    for word in words:
        parser = _subparsers(parser).get(word, parser)
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


class TestParserTree:
    """A new subparser cannot bring prefix matching back, and a new kind
    cannot lack a handler."""

    def test_no_parser_accepts_abbreviations(self):
        assert [p.prog for p in _parsers(build_parser()) if p.allow_abbrev] == []

    def test_built_once_and_no_call_changes_a_default(self, capsys):
        # main parses with the one cached parser, so no run may leave a
        # value behind in it for the next run to read as a default
        assert build_parser() is build_parser()

        def defaults():
            parsers = _parsers(build_parser())
            return {(p.prog, a.dest): a.default for p in parsers for a in p._actions}

        before = copy.deepcopy(defaults())
        gauss = ["check", "gauss", "--f", "power2", "--coeffs", "1,1", "--d", "3"]
        verify = ["verify", "--d", "1", "--format", "csv"]
        plain = [vars(build_parser().parse_args(argv)) for argv in (gauss, verify)]
        assert plain[0]["seed"] == 0 and plain[1]["n"] == (1,)
        for argv in (gauss + ["--seed", "3"], gauss, verify + ["--n", "2"], verify):
            assert run_cli(capsys, *argv)[0] == 0
        assert defaults() == before
        assert [vars(build_parser().parse_args(argv)) for argv in (gauss, verify)] == plain

    def test_every_kind_has_a_handler(self):
        root = build_parser()
        kinds = {(command, kind): p for command, p in _subparsers(root).items()
                 for kind, p in _subparsers(p).items()}
        assert len(kinds) == 10
        assert [path for path, p in kinds.items() if not callable(p.get_default("run"))] == []


class TestEveryFlagIsRead:
    """A declared flag that no handler reads would be accepted and dropped
    without a word, so every flag must be read on some valid invocation of
    its command and kind."""

    def _reads(self, argv, capsys, monkeypatch):
        reads = set()

        class ReadLog(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parse_known_args = argparse.ArgumentParser.parse_known_args

        def parse_into_log(self, args=None, namespace=None):
            parsed = parse_known_args(self, args, ReadLog())
            reads.clear()  # count what main and the handler read, not argparse
            return parsed

        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "parse_known_args", parse_into_log)
            code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        return reads

    def test_invocations_cover_every_command_and_kind(self):
        leaves = _leaf_paths(build_parser())
        words = {tuple(itertools.takewhile(lambda w: not w.startswith("-"), a))
                 for a in INVOCATIONS}
        assert words == leaves

    def test_every_declared_flag_is_read(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        unread = {}
        for argv in INVOCATIONS:
            words = tuple(itertools.takewhile(lambda w: not w.startswith("-"), argv))
            declared = unread.setdefault(words, _declared_flags(words))
            declared -= self._reads(argv, capsys, monkeypatch)
        assert {words: flags for words, flags in unread.items() if flags} == {}


class TestVerifyCommand:
    ARGS = [
        "verify", "--d", "1,2", "--n", "1,2", "--patterns", "equal,single",
        "--samples", "20000", "--seed", "11", "--alpha", "0.01",
    ]

    def test_csv_deterministic_across_workers(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code1, _, _ = run_cli(
            capsys, *self.ARGS, "--workers", "1", "--format", "csv", "--out", str(out1)
        )
        code2, _, _ = run_cli(
            capsys, *self.ARGS, "--workers", "3", "--format", "csv", "--out", str(out2)
        )
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            # three instances of two chunks each, the last chunk partial
            ["--d", "1,3,5", "--n", "3", "--samples", str(CHUNK_SIZE + 1000)],
            # one instance of five chunks
            ["--d", "2", "--n", "4", "--patterns", "geometric:0.5",
             "--samples", str(4 * CHUNK_SIZE + 1)],
        ],
        ids=["three-instances", "five-chunks"],
    )
    def test_report_identical_at_any_worker_count(self, capsys, tmp_path, argv):
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}.json"
            code, stdout, _ = run_cli(
                capsys, "verify", *argv, "--seed", "5", "--workers", str(workers),
                "--format", "json", "--no-timestamp", "--out", str(out),
            )
            assert code == 0
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_no_timestamp_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for path in (out1, out2):
            code, _, _ = run_cli(
                capsys, *self.ARGS, "--format", "json", "--no-timestamp",
                "--out", str(path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert set(doc) == {"meta", "summary", "records"}
        assert "timestamp" not in doc["meta"]
        assert doc["meta"]["seed"] == 11

    def test_json_timestamp_is_utc(self, capsys, tmp_path):
        # the default --format json stamps the report; the stamp is its only
        # difference from the --no-timestamp report
        docs = []
        for extra in ([], ["--no-timestamp"]):
            out = tmp_path / f"r{len(docs)}.json"
            code, _, _ = run_cli(capsys, *self.ARGS, "--format", "json", *extra, "--out", str(out))
            assert code == 0
            docs.append(json.loads(out.read_text()))
        stamped, plain = docs
        stamp = datetime.fromisoformat(stamped["meta"].pop("timestamp"))
        assert stamp.utcoffset() == timedelta(0)
        assert stamped == plain

    def test_a_repeated_vector_runs_one_counter(self, capsys, monkeypatch):
        # equal and single are both [1.0] at n = 1: one counter runs on the
        # one chunk, and the rows are those of the two patterns' own runs
        calls = []
        make = sampling._hit_counter

        def counter(us):
            count = make(us)
            return lambda r: calls.append(len(us)) or count(r)

        monkeypatch.setattr(sampling, "_hit_counter", counter)
        argv = ["verify", "--d", "1", "--n", "1", "--samples", "1000", "--format", "csv"]
        code, both, _ = run_cli(capsys, *argv, "--patterns", "equal,single")
        assert code == 0 and calls == [7]
        header, *rows = both.splitlines()
        for pattern in ("equal", "single"):
            code, alone, _ = run_cli(capsys, *argv, "--patterns", pattern)
            assert code == 0 and alone.splitlines() == [header, *rows[:7]]
            rows = rows[7:]
        assert rows == []

    def test_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "violated=0" in out

    def test_budget_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--d", "1", "--n", "1", "--patterns", "equal",
            "--samples", "200000", "--budget", "100000",
        )
        assert code == 3 and "budget" in err

    def test_sharpness_ratio_visible_at_d1(self, capsys, tmp_path):
        # two equal coefficients at d = 1: near the atom at sqrt(2) the
        # empirical ratio approaches the sharp constant from below and must
        # stay under the headline constant
        out = tmp_path / "r.json"
        code, stdout, _ = run_cli(
            capsys, "verify", "--d", "1", "--n", "2", "--patterns", "equal",
            "--u-linear", "1.30:1.41:3", "--samples", "200000", "--seed", "5",
            "--format", "json", "--no-timestamp", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        max_ratio = doc["summary"]["max_ratio_upper"]
        assert 2.9 < max_ratio < get_constant("c3").value
        assert doc["summary"]["violated"] == 0

    @pytest.mark.parametrize(
        "name, message",
        [("missing/x.csv", "no directory for --out '{}'"), (".", "--out '{}' is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unusable_out_fails_before_sampling(
        self, capsys, tmp_path, monkeypatch, name, message
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sweep drew samples")

        monkeypatch.setattr(report, "mc_tail_batch", no_sampling)
        out = tmp_path / name
        code, _, err = run_cli(capsys, *self.ARGS, "--format", "csv", "--out", str(out))
        assert code == 2
        assert message.format(out) in err

    def test_out_needs_format_before_sampling(self, capsys, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sweep drew samples")

        monkeypatch.setattr(report, "mc_tail_batch", no_sampling)
        code, out, err = run_cli(capsys, *self.ARGS, "--out", str(tmp_path / "r.csv"))
        assert code == 2 and out == ""
        assert "argument --out: needs --format" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--d", "1", "--budget", "-1"], "argument --budget: must be >= 1, got -1"),
            (["--d", "1", "--budget", "0"], "argument --budget: must be >= 1, got 0"),
            (["--d", "1", "--n", "1,1"], "n value 1 is repeated; list each value once"),
            (["--d", "2,3,2"], "d value 2 is repeated; list each value once"),
            (["--d", "1", "--patterns", "equal,equal"],
             "pattern value equal is repeated; list each value once"),
            (["--d", "1", "--patterns", "geometric,single,geometric:0.5"],
             "pattern value geometric(0.5) is repeated; list each value once"),
            (["--d", "1", "--patterns", "explicit:1,2,explicit:1,2.0"],
             "pattern value explicit [1.0, 2.0] is repeated; list each value once"),
            (["--d", "1", "--constants", "c3,C3,cstar,c_star"],
             "constant value C3 is repeated; list each value once"),
            (["--d", "1", "--constants", "e2,cstar,c_star"],
             "constant value C_STAR is repeated; list each value once"),
            (["--d", "1", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
        ],
    )
    def test_bad_setting_fails_before_sampling(self, capsys, monkeypatch, argv, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sweep drew samples")

        monkeypatch.setattr(report, "mc_tail_batch", no_sampling)
        code, out, err = run_cli(capsys, "verify", *argv, "--samples", "10")
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "numpy_int",
        [{"dimensions": [np.int64(2)]}, {"seed": np.int64(1)}, {"samples": np.int64(1000)}],
        ids=["dimensions", "seed", "samples"],
    )
    def test_run_sweep_takes_numpy_integers(self, numpy_int):
        # records carry d, seed and samples into the JSON report, which
        # serialises plain ints only; the report's meta block takes the seed too
        def report_of(dimensions=(2,), seed=1, samples=1000):
            pattern = CoefficientPattern("equal")
            records, summary = run_sweep(dimensions, [2], [pattern], samples=samples, seed=seed)
            return records_to_json(records, seed, __version__, summary, timestamp=False)

        assert report_of(**numpy_int) == report_of()

    def test_run_sweep_rejects_budget_below_one(self):
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            run_sweep((1,), (1,), (CoefficientPattern("equal"),), samples=10, budget=0)

    def test_quantiles_exclude_u_linear(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--d", "1", "--quantiles", "0.5", "--u-linear", "0:1:3"
        )
        assert code == 2
        assert "argument --u-linear: not allowed with argument --quantiles" in err

    def test_bound_columns_match_bound_command(self, capsys):
        common = ["--d", "3", "--u-linear", "0.2:1.4:4", "--constants", "c3,nt397"]
        _, bound_out, _ = run_cli(
            capsys, "bound", "--coeffs", "0.3,0.4,1.2", *common, "--format", "csv"
        )
        _, verify_out, _ = run_cli(
            capsys, "verify", "--patterns", "explicit:0.3,0.4,1.2", "--no-normalize", *common,
            "--samples", "2000", "--format", "csv",
        )
        cols = ("d", "n", "pattern", "u", "scale", "constant_name", "constant_value",
                "bound_raw", "bound_capped")

        def columns(text):
            return [[row[c] for c in cols] for row in csv.DictReader(io.StringIO(text))]

        assert len(columns(bound_out)) == 8
        assert columns(bound_out) == columns(verify_out)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--d"])  # missing value
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "grid_argv, grid",
        [
            (["--quantiles", "0.3,0.02"], dict(quantiles=(0.3, 0.02))),
            (["--u-linear", "0.5:1.5:3"], dict(thresholds=(0.5, 1.0, 1.5))),
        ],
        ids=["quantiles", "u-linear"],
    )
    def test_report_equals_direct_run_sweep(self, capsys, tmp_path, grid_argv, grid):
        # every verify setting away from its default
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "verify", "--d", "1,3", "--n", "2,3",
            "--patterns", "explicit:0.3,0.4,1.2,equal", "--no-normalize", *grid_argv,
            "--samples", "3000", "--seed", "7", "--alpha", "0.05", "--constants", "c3,cstar",
            "--workers", "2", "--budget", "20000",
            "--format", "json", "--no-timestamp", "--out", str(out),
        )
        assert code == 0
        records, summary = run_sweep(
            dimensions=(1, 3),
            n_values=(2, 3),
            patterns=(
                CoefficientPattern("explicit", values=(0.3, 0.4, 1.2)),
                CoefficientPattern("equal"),
            ),
            samples=3000, seed=7, alpha=0.05, constants=("c3", "cstar"),
            normalize=False, workers=2, budget=20000, **grid,
        )
        assert out.read_text() == records_to_json(
            records, 7, __version__, summary, timestamp=False
        )

    def test_defaults_match_run_sweep(self):
        args = build_parser().parse_args(["verify", "--d", "1"])
        from_cli = dict(
            quantiles=args.quantiles, thresholds=args.u_linear, samples=args.samples,
            seed=args.seed, alpha=args.alpha, constants=tuple(args.constants.split(",")),
            normalize=not args.no_normalize, workers=args.workers, budget=args.budget,
        )
        params = inspect.signature(run_sweep).parameters.values()
        assert from_cli == {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}

    def test_partial_norms_past_the_square_root_of_the_largest_double(self, capsys):
        # sum a_i^2 = 1.6e308 is finite, but the partial norms reach 4e154,
        # whose square overflows; the bound holds, so no record may be VIOLATED
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                capsys, "verify", "--d", "1", "--patterns", "explicit:" + ",".join(["4e153"] * 10),
                "--no-normalize", "--samples", "20000",
            )
        assert code == 0 and "violated=0" in out
        assert caught == []

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--d", "1,2,3,5", "--n", "1,2,5", "--patterns", "equal,single,geometric"],
                "0dfb0846d75451e74be4a86210a094f5bf9cb7da671cbcae413929440b2c3372",
            ),
            (
                # extreme scales sharing (d, n) = (2, 5) with equal
                ["--d", "2", "--n", "5", "--no-normalize", "--patterns",
                 "equal,explicit:4e153,4e153,4e153,4e153,4e153,explicit:1e-300,3,1,2,0.5"],
                "41d974b5d7804ebdcbd7311e0c57c7842713f9f12e61e92f96c5c5b8439d4cb4",
            ),
            (
                # even d >= 4 draws C in closed form; d = 30 is a highdim column
                ["--d", "4,6,10,30", "--n", "1,2,5", "--patterns", "equal,single,geometric"],
                "a802efac0aabdb4da8631f324dcd8f5a0e3b0e748e14910a00b33c48d48829be",
            ),
        ],
        ids=["grid", "extreme-scales", "even-d"],
    )
    def test_sample_stream_is_pinned(self, capsys, argv, digest):
        # a change of the Monte Carlo sample stream must edit these digests
        # and declare the change; 40,000 samples make a partial second chunk
        code, out, _ = run_cli(
            capsys, "verify", *argv, "--samples", "40000", "--workers", "2", "--format", "csv"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--d", "1,2,3,5", "--n", "1,2,5", "--patterns", "equal,single,geometric",
                 "--samples", "40000", "--workers", "2"],
                "d74430c3e6d446fd641a49cc5ab50fa5efbd9884e0719cb4a84d53f0591176cc",
            ),
            (
                # the comparator tail underflows at u = 30 and 60: ratio_upper Infinity
                ["--d", "3", "--n", "2", "--u-linear", "0:60:3", "--samples", "1000"],
                "beaa7a16ed81e5ebb31a8bd5b812ee351e2b080bf03955ee0f278170922083da",
            ),
        ],
        ids=["grid", "underflowed-tail"],
    )
    def test_json_report_is_pinned(self, capsys, argv, digest):
        # ratio_upper, alpha and the summary block appear only in JSON
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json", "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_explicit_pattern_with_commas(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--d", "1", "--n", "2",
            "--patterns", "equal,explicit:0.3,0.4,single",
            "--samples", "5000", "--seed", "1",
        )
        assert code == 0
        assert "records=21" in out  # 3 patterns x 7 thresholds


class TestInputErrors:
    """Bad input fails with exit 2 and a message naming the problem, before
    any numpy warning is raised."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify", "--d", "1", "--patterns", "explicit:0,0"],
                "coefficients need a positive, finite sum of squares",
            ),
            (["verify", "--d", "1", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
            (["verify", "--d", "1", "--workers", "-5"],
             "argument --workers: must be >= 1, got -5"),
            (
                ["check", "gauss", "--f", "cosh50", "--coeffs", "1,1", "--d", "3"],
                "E cosh50(a ||Z_d||) overflows double precision",
            ),
            (
                ["check", "bc", "--f", "power2", "--a-sq", "0.5,0.5", "--b-sq", "0.5,0.5",
                 "--d", "3", "--alpha", "0"],
                "alpha must lie in (0, 1), got 0.0",
            ),
            (
                ["check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "3",
                 "--alpha", "1.5"],
                "alpha must lie in (0, 1), got 1.5",
            ),
            # one sample has no error estimate, so no verdict may rest on it
            (
                ["check", "gauss", "--f", "cosh", "--coeffs", "1,1", "--d", "3", "--samples", "1"],
                "Monte Carlo needs at least 2 samples to estimate its error",
            ),
            (
                ["check", "kwapien", "--coeffs", "0.6,0.8", "--d", "3", "--p", "3",
                 "--samples", "1"],
                "Monte Carlo needs at least 2 samples to estimate its error",
            ),
            (
                ["check", "bc", "--f", "cosh", "--a-sq", "0.5,0.3,0.2", "--b-sq", "0.4,0.35,0.25",
                 "--d", "3", "--samples", "1"],
                "Monte Carlo needs at least 2 samples to estimate its error",
            ),
            # a sum of squares that overflows, in a square or only when summed
            *(
                (argv, "coefficients need a positive, finite sum of squares")
                for big in ("1e200,1e200", "1.2e154,1.2e154")
                for argv in (
                    ["bound", "--d", "3", "--coeffs", big, "--u", "1"],
                    ["verify", "--d", "3", "--patterns", f"explicit:{big}"],
                    ["oracle", "m2", "--coeffs", big],
                )
            ),
            *(
                (
                    ["verify", "--d", "1", "--patterns", token],
                    f"unknown coefficient pattern '{token}'; expected equal, single, "
                    "geometric[:<ratio>] or explicit:<a>,<b>,...",
                )
                for token in ("geometric:abc", "explicit:1,,2", "explicit:")
            ),
            (["verify", "--d", "1", "--n", "-1"], "n must be >= 1, got -1"),
            (["verify", "--d", "1", "--n", "0"], "n must be >= 1, got 0"),
            # a threshold grid needs two or more points and finite ends
            (["bound", "--d", "2", "--coeffs", "1,1", "--u-linear", "0:3:1"],
             "COUNT must be >= 2, got 1"),
            (["verify", "--d", "1", "--u-linear", "0:3:1"], "COUNT must be >= 2, got 1"),
            (["bound", "--d", "2", "--coeffs", "1,1", "--u-linear", "0:3:0"],
             "COUNT must be >= 2, got 0"),
            (["verify", "--d", "1", "--u-linear", "0:inf:3"],
             "LO and HI must be finite, got '0:inf:3'"),
            (["verify", "--d", "1", "--u-linear", "nan:2:4"],
             "LO and HI must be finite, got 'nan:2:4'"),
            (["verify", "--d", "1", "--patterns", "geometric:1e200", "--n", "3"],
             "coefficients must all be finite"),
            # a profile is checked where it is built
            (["check", "classc", "--f", "power-1"],
             "error: power exponent must be finite and >= 0, got -1.0"),
            (["check", "gauss", "--f", "cosh0", "--coeffs", "1", "--d", "3"],
             "error: cosh rate must be finite and > 0, got 0.0"),
            # check bisub takes a dimension and no centres
            (["check", "bisub", "--f", "power4", "--d", "0"], "dimension must be >= 1, got 0"),
            (["check", "bisub", "--f", "power4", "--d", "3", "--y-norms", "inf"],
             "unrecognized arguments: --y-norms inf"),
            # a bad number is named, with the flag it was given to
            (["bound", "--d", "2", "--coeffs", "1,x", "--u", "1"],
             "argument --coeffs: invalid float value: 'x'"),
            (["verify", "--d", "2,a"], "argument --d: invalid int value: 'a'"),
            (["verify", "--d", "1", "--u-linear", "0:3"],
             "argument --u-linear: expected LO:HI:COUNT, got '0:3'"),
            (["verify", "--d", "1", "--u-linear", "0:x:3"],
             "argument --u-linear: invalid float value: 'x'"),
            # no side, oracle value or profile may rest on overflow
            (["check", "gauss", "--f", "power4", "--coeffs", "1e100,1e100", "--d", "3"],
             "E power4(a ||Z_d||) overflows double precision"),
            (["check", "kwapien", "--coeffs", "1,1", "--d", "3", "--p", "1e6"],
             "E power1e+06(a ||Z_d||) overflows double precision"),
            (["oracle", "m4", "--coeffs", "1e100,1", "--d", "3"],
             "E ||sum a_i U_i||^4 overflows double precision"),
            (["check", "bc", "--f", "power4", "--a-sq", "1e200,0", "--b-sq", "5e199,5e199",
              "--d", "3"],
             "E power4(||sum a_i U_i||) overflows double precision"),
            (["check", "lemma2", "--xi-coeffs", "1,1", "--d", "3", "--h", "cosh50"],
             "E cosh50(a ||Z_d||) overflows double precision"),
            (["check", "bc", "--f", "cosh", "--a-sq", "6e5,4e5", "--b-sq", "5e5,5e5", "--d", "3"],
             "a Monte Carlo mean or its error overflows double precision"),
            (["check", "bisub", "--f", "power4", "--d", "3", "--t-grid", "1e-300:1e300:3"],
             "unrecognized arguments: --t-grid 1e-300:1e300:3"),
            # sweep settings with no dimension or no n
            (["verify", "--d", ""], "sweep needs at least one dimension and one pattern"),
            (["verify", "--d", "2", "--n", ""], "sweep needs n values for non-explicit patterns"),
            # a grid whose span HI - LO overflows
            (["bound", "--d", "2", "--coeffs", "1", "--u-linear=-1e308:1e308:3"],
             "argument --u-linear: the span HI - LO overflows, got '-1e308:1e308:3'"),
            (["verify", "--d", "1", "--u-linear=-1e308:1e308:5"],
             "argument --u-linear: the span HI - LO overflows, got '-1e308:1e308:5'"),
            # squared coefficients whose sum overflows
            (["check", "schur", "--a-sq", "1e308,1e308", "--b-sq", "1e308,1e307"],
             "the sum of a_sq overflows double precision"),
            (["check", "bc", "--f", "power2", "--a-sq", "1e308,1e308", "--b-sq", "1e308,1e308",
              "--d", "3"],
             "the sum of a_sq overflows double precision"),
            # a fourth moment whose terms are finite but sum past the largest double
            (["oracle", "m4", "--coeffs", "1e77,1e77", "--d", "2"],
             "E ||sum a_i U_i||^4 overflows double precision"),
            (["check", "bc", "--f", "power4", "--a-sq", "1e154,1e154", "--b-sq", "1e154,1e154",
              "--d", "2"],
             "E power4(||sum a_i U_i||) overflows double precision"),
            # a sample count below 1 or a negative seed is a usage error of its flag
            (["verify", "--d", "2", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
            (["check", "lemma2", "--xi-coeffs", "1,1", "--d", "2", "--h", "power4",
              "--samples", "0"],
             "argument --samples: must be >= 1, got 0"),
            (["verify", "--d", "2", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
            (["check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "3", "--seed", "-1"],
             "argument --seed: must be >= 0, got -1"),
            # a threshold grid that is empty or lists a value twice, named before sampling
            (["verify", "--d", "2", "--quantiles", "0.5,0.5"],
             "quantile value 0.5 is repeated; list each value once"),
            (["verify", "--d", "2", "--u-linear", "1:1:3"],
             "threshold value 1.0 is repeated; list each value once"),
            (["verify", "--d", "2", "--quantiles", ""], "sweep needs at least one quantile"),
            (["bound", "--d", "2", "--coeffs", "1", "--u-linear", "1:1:3"],
             "threshold value 1.0 is repeated; list each value once"),
            # a cosh Gaussian side past double precision is named, not integrated
            (["check", "gauss", "--f", "cosh", "--coeffs", "1e3", "--d", "3"],
             "E cosh1(a ||Z_d||) overflows double precision"),
        ],
    )
    def test_rejected_without_warning(self, capsys, argv, message):
        # only the Monte Carlo commands and check kinds take --samples
        mc_command = argv[0] == "verify" or argv[:2] in (
            ["check", kind] for kind in ("bc", "gauss", "lemma2", "kwapien")
        )
        samples = ["--samples", "1000"] if mc_command and "--samples" not in argv else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv, *samples)
        assert code == 2
        assert message in err
        assert caught == []


class TestRecordReproducibility:
    def test_record_rederives_same_ci(self, capsys, tmp_path):
        # a verdict must be reproducible from its record alone: the echoed
        # (pattern, n, d, u, samples, seed) re-derives the identical estimate
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "verify", "--d", "2", "--n", "3", "--patterns", "geometric:0.5",
            "--samples", "30000", "--seed", "13", "--format", "json",
            "--no-timestamp", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        from spheretail import mc_tail_multi
        from spheretail.report import parse_pattern

        for rec in doc["records"][:3]:
            ratio = rec["pattern"][rec["pattern"].index("(") + 1 : -1]
            coeffs = parse_pattern(f"geometric:{ratio}").materialize(rec["n"])
            [est] = mc_tail_multi(
                rec["d"], tuple(coeffs), [rec["u"]], rec["samples"], rec["seed"], rec["alpha"]
            )
            assert est.hits == rec["hits"]
            assert est.ci_low == rec["ci_low"]
            assert est.ci_high == rec["ci_high"]


class TestVerdictClassification:
    """A record judges the interval [raw - ci_high, raw - ci_low]."""

    @staticmethod
    def verdict(bound, est):
        return VerificationRecord(1, 1, "single", 0.0, bound, est).verdict

    def test_violated_requires_ci_separation(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.0, 0.10, 0.10)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert self.verdict(bound, est) == "VIOLATED"

    def test_holds_when_raw_above_one(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.0, 1.4, 1.0)
        est = McEstimate(1.0, 0.95, 1.0, 1000, 1000, 0, 0.01)
        assert self.verdict(bound, est) == "HOLDS"

    def test_inconclusive_straddle(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.0, 0.20, 0.20)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert self.verdict(bound, est) == "INCONCLUSIVE"

    def test_holds_when_ci_below_bound(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.0, 0.30, 0.30)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert self.verdict(bound, est) == "HOLDS"

    def test_record_derives_verdict_and_ratio(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.0, 0.10, 0.10)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        rec = VerificationRecord(1, 1, "single", 0.0, bound, est)
        assert rec.verdict == "VIOLATED"
        assert rec.ratio_upper == 0.25  # the chi tail is 1 at u = 0
        bare = VerificationRecord(1, 1, "single", 0.0, bound)
        assert (bare.verdict, bare.ratio_upper) == ("", 0.0)


class TestBoundRecords:
    def test_coefficients_are_checked_once(self, monkeypatch):
        # the records of one call share one comparator scale
        calls = []
        check = bounds.coeff_array
        monkeypatch.setattr(bounds, "coeff_array", lambda a: calls.append(a) or check(a))
        us, constants = np.linspace(0.0, 3.0, 7), ["c3", "cstar", "e2", "nt397"]
        records = report.bound_records(2, "explicit", [0.3, 0.4, 1.2], us, constants)
        assert len(records) == 28
        assert len(calls) == 1


class TestSweepThresholds:
    def test_fixed_thresholds_are_recorded(self):
        records, summary = run_sweep(
            dimensions=(2,), n_values=(2,), patterns=(CoefficientPattern("equal"),),
            thresholds=(0.5, 1.25), samples=2000, constants=("c3", "cstar"),
        )
        assert [r.u for r in records] == [0.5, 0.5, 1.25, 1.25]
        assert summary.max_ratio_upper == max(r.ratio_upper for r in records) > 0.0
