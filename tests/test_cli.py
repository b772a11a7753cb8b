"""End-to-end tests of the command-line interface: flags, output formats,
exit codes, and byte-level determinism of reports."""

import json
import math
import warnings

import pytest

from spheretail import BoundResult, McEstimate, get_constant
from spheretail.cli import main
from spheretail.report import CSV_COLUMNS, classify


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "json")
        doc = json.loads(out)
        values = {row["name"]: row["value"] for row in doc["constants"]}
        assert values["C3"] == 2.0 * math.e**3 / 9.0
        assert 3.17 < values["C_STAR"] < 3.18
        assert 88.9 < values["NT397/C3"] < 89.0


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

    def test_u_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--d", "2", "--coeffs", "1,1",
            "--u-linear", "0:3:4", "--format", "csv",
        )
        assert len(out.strip().splitlines()) == 5

    def test_needs_exactly_one_u_spec(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--d", "2", "--coeffs", "1,1")
        assert code == 2
        assert "error" in err


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

    def test_gauss_power4(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "gauss", "--f", "power4", "--coeffs", "1,1", "--d", "2"
        )
        assert code == 0
        assert "lhs=6" in out and "rhs=8" in out and "HOLDS" in out

    def test_bc_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "bc", "--f", "power4", "--a-sq", "1,0",
            "--b-sq", "0.5,0.5", "--d", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out[out.index("{") :])  # JSON follows the human line
        assert doc["lhs"] == 1.0 and doc["rhs"] == 1.5

    def test_bisub_fail_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "bisub", "--f", "neg_power4", "--d", "3", "--quadrature"
        )
        assert code == 1 and "fail" in out

    def test_kwapien(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "4"
        )
        assert code == 0 and "HOLDS" in out
        code, _, err = run_cli(
            capsys, "check", "kwapien", "--coeffs", "1,1", "--d", "2", "--p", "2.5"
        )
        assert code == 2

    def test_lemma2(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "lemma2", "--xi-coeffs", "1,1", "--d", "2",
            "--h", "power4,power2", "--samples", "20000",
        )
        assert code == 0
        assert out.count("CONSISTENT") == 2

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "gauss", "--coeffs", "1,1", "--d", "2")
        assert code == 2 and "--f" in err


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

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--d"])  # missing value
        assert exc.value.code == 2

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
            (["verify", "--d", "1", "--workers", "0"], "workers must be >= 1, got 0"),
            (["verify", "--d", "1", "--workers", "-5"], "workers must be >= 1, got -5"),
            (
                ["check", "gauss", "--f", "cosh50", "--coeffs", "1,1", "--d", "3"],
                "integrand is non-finite",
            ),
        ],
    )
    def test_rejected_without_warning(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv, "--samples", "1000")
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
        from spheretail import TailQuery, mc_tail
        from spheretail.report import parse_pattern

        for rec in doc["records"][:3]:
            ratio = rec["pattern"][rec["pattern"].index("(") + 1 : -1]
            coeffs = parse_pattern(f"geometric:{ratio}").materialize(rec["n"])
            est = mc_tail(
                TailQuery(rec["d"], tuple(coeffs), rec["u"]),
                rec["samples"],
                rec["seed"],
                rec["alpha"],
            )
            assert est.hits == rec["hits"]
            assert est.ci_low == rec["ci_low"]
            assert est.ci_high == rec["ci_high"]


class TestVerdictClassification:
    def test_violated_requires_ci_separation(self):
        bound = BoundResult(get_constant("c3"), 1.0, 0.10, 0.10)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert classify(est, bound) == "VIOLATED"

    def test_holds_when_raw_above_one(self):
        bound = BoundResult(get_constant("c3"), 1.0, 1.4, 1.0)
        est = McEstimate(1.0, 0.95, 1.0, 1000, 1000, 0, 0.01)
        assert classify(est, bound) == "HOLDS"

    def test_inconclusive_straddle(self):
        bound = BoundResult(get_constant("c3"), 1.0, 0.20, 0.20)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert classify(est, bound) == "INCONCLUSIVE"

    def test_holds_when_ci_below_bound(self):
        bound = BoundResult(get_constant("c3"), 1.0, 0.30, 0.30)
        est = McEstimate(0.2, 0.15, 0.25, 1000, 200, 0, 0.01)
        assert classify(est, bound) == "HOLDS"