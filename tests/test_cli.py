"""Unit tests for the command-line interface: exit codes, output formats."""

import json
import time

import mpmath
import pytest

from tetralog.cli import MAX_POSITION, build_report, main, report_to_json
from tetralog.dirichlet import catalan_result
from tetralog.verify import CATALAN_METHODS, run_all


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors exit via SystemExit
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_i7(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "i7")
        assert code == 0
        assert "1.15192547054" in out

    def test_catalan_method(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "catalan", "--method", "eq2.35")
        assert code == 0
        assert "9.15965594177e-01" in out

    @pytest.mark.parametrize("method", CATALAN_METHODS)
    def test_catalan_bound_is_computed_and_honest(self, capsys, method):
        code, out, _ = run_cli(capsys, "eval", "catalan", "--method", method)
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert fields["method"] == method
        assert fields["err_bound"] != "1.000e-12"
        # the printed value has 12 digits, too few to show a 1e-15 error: take
        # the route's own double, which the printed line must match
        r = catalan_result(method)
        assert f"{r.value:.11e}" == fields["value"]
        with mpmath.workdps(30):
            error = abs(mpmath.mpf(r.value) - mpmath.catalan)
        assert error <= float(fields["err_bound"])

    def test_cl2_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "cl2", "--theta", "0")
        assert code == 0
        assert "0.00000000000e+00" in out

    def test_trigamma(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "trigamma", "--x", "1.0")
        assert code == 0
        assert "1.64493406685e+00" in out

    def test_generalized_clausen(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "cln", "--order", "3", "--theta", "1.0")
        assert code == 0

    def test_iab(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "iab", "--a", "1", "--b", "0")
        assert code == 0
        assert "9.159655941" in out

    def test_li3_complex_output(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "li3")
        assert code == 0
        assert "4.86159537086e-01" in out
        assert "5.70077407089e-01" in out

    def test_unknown_target_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "nope")
        assert code == 2

    def test_missing_required_param_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "cl2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("cl2", "--theta", "inf"),
            ("hurwitz", "--s", "1e308", "--a", "1e-300"),
            ("hurwitz", "--s", "2", "--a", "inf"),
            ("cln", "--order", "400", "--theta", "1"),
            ("trigamma", "--x", "1e-320"),
            ("trigamma", "--x", "1e-200"),
            ("trigamma", "--x", "1e-155"),
            ("trigamma", "--x=-1e-200"),
            ("cl2", "--theta", "nan"),
            ("cln", "--order", "3", "--theta", "nan"),
        ],
    )
    def test_extreme_argument_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_clausen_order_fails_at_once(self, capsys):
        # forming (s - 1)! for s = 10^9 would run without end
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "cln", "--order", str(10**9), "--theta", "1")
        assert time.perf_counter() - t0 < 10.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("re_part", ["nan", "inf"])
    def test_li3_non_finite_argument(self, capsys, re_part):
        code, out, err = run_cli(capsys, "eval", "li3", "--re", re_part)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("theta", ["1e10", "1e18", "-1e300"])
    def test_cl2_far_angle(self, capsys, theta):
        code, out, _ = run_cli(capsys, "eval", "cl2", f"--theta={theta}")
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        with mpmath.workdps(360):
            t = mpmath.mpf(float(theta))  # the double, not the decimal
            t -= 2 * mpmath.pi * mpmath.nint(t / (2 * mpmath.pi))
            exact = float(mpmath.clsin(2, t))
        assert abs(float(fields["value"]) - exact) < 1e-11

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "eval", "cl2", "--theta", "1", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("catalan", "--method", "eq2.35"),
            ("l7", "--route", "series"),
            ("trigamma", "--x", "1"),
        ],
    )
    def test_unused_tolerance_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv, "--tol", "1e-30")
        assert code == 2
        assert out == ""
        assert err == f"error: eval {argv[0]} takes no --tol\n"

    def test_max_terms_is_gone(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "cl2", "--theta", "1", "--max-terms", "5")
        assert code == 2


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 0
        assert "supports-conjecture" in out
        assert "failed 0" in out

    def test_all_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--format", "json")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary == {
            "total": 64, "passed": 63, "failed": 0, "conjecture": 1, "errored": 0,
        }

    def test_no_flag_runs_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["total"] == 64

    def test_tag_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tag", "sine", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] == len(payload["records"])

    def test_json_round_trip(self, capsys):
        report = build_report(run_all(tag="prop1"))
        payload = json.loads(report_to_json(report))
        assert payload["summary"] == report.summary
        assert [r["id"] for r in payload["records"]] == [r.id for r in report.records]

    def test_timestamp_is_iso_utc(self):
        from datetime import datetime, timedelta

        before = datetime.now().astimezone()
        stamp = datetime.fromisoformat(build_report([]).timestamp)
        assert stamp.utcoffset() == timedelta(0)
        assert before - timedelta(seconds=1) <= stamp <= datetime.now().astimezone()

    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "P1")
        assert code == 0
        assert "P1" in out

    def test_unknown_check_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "no-such-id")
        assert code == 2

    def test_unknown_tag_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--tag", "no-such-tag")
        assert code == 2

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "sine7", "--tol", "1e-20")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--check", "P1", "--tol", "nan"),
            ("--check", "P1", "--tol", "-1"),
            ("--check", "P1", "--tol", "0"),
            ("--check", "P1", "--tol", "inf"),
            ("--all", "--tol-scale", "nan"),
            ("--all", "--tol-scale", "-1"),
            ("--all", "--tol-scale", "0"),
            ("--all", "--tol-scale", "inf"),
        ],
    )
    def test_bad_tolerance_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--tol", "1e-8"),
            ("--all", "--tol", "1e-8"),
            ("--tag", "sine", "--tol", "1e-8"),
            ("--check", "P1", "--tol-scale", "10"),
            ("--check", "P1", "--tag", "sine"),
            ("--check", "P1", "--all"),
            ("--all", "--check", "P1", "--format", "json"),
        ],
    )
    def test_ignored_flag_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_text_has_fixed_columns(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--tag", "sine")
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("total")]
        widths = {len(ln) for ln in rows[1:]}
        assert len(widths) == 1


class TestDigits:
    def test_pi_first_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "digits", "--formula", "pi-degree1", "--position", "0", "--count", "6"
        )
        assert code == 0
        assert out.strip() == "243F6A"

    def test_registry_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "digits", "--formula", "eq2.35-sum", "--position", "0", "--count", "8"
        )
        assert code == 0
        assert len(out.strip()) == 8

    def test_unknown_formula_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "digits", "--formula", "nope", "--position", "0", "--count", "4"
        )
        assert code == 1
        assert "unknown formula" in err

    def test_bad_count_exit_1(self, capsys):
        code, _, _ = run_cli(
            capsys, "digits", "--formula", "pi-degree1", "--position", "0", "--count", "99"
        )
        assert code == 1

    def test_position_above_cap_usage_error(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "digits", "--formula", "pi-degree1", "--position", str(10**20), "--count", "4"
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_position_below_cap_succeeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "digits", "--formula", "pi-degree1", "--position", "50000", "--count", "4"
        )
        assert code == 0
        assert len(out.strip()) == 4

    def test_help_states_position_cap(self, capsys):
        code, out, _ = run_cli(capsys, "digits", "--help")
        assert code == 0
        assert str(MAX_POSITION) in out


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
