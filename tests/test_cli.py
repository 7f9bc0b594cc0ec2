"""Unit tests for the command-line interface: exit codes, output formats."""

import json
import math
import random
import time

import mpmath
import pytest

from tetralog import bbp, cli
from tetralog.bbp import BBPFormula
from tetralog import __version__
from tetralog.cli import (
    MAX_POSITION,
    _rounded_up,
    build_report,
    main,
    parse_args,
    report_to_json,
)
from tetralog.dirichlet import catalan_result
from tetralog.errors import (
    ConvergenceError,
    DomainError,
    PrecisionError,
    QuadratureError,
    UnknownCheckError,
)
from tetralog.verify import CATALAN_METHODS, run_all


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_honest(out: str, exact) -> None:
    """The printed value lies within the printed bound of ``exact()``, taken
    at 40 digits."""
    fields = dict(line.split(None, 1) for line in out.splitlines())
    parts = fields["value"].split()
    # 17 significant digits in every printed part
    assert all(len(p.lstrip("+-").split("e")[0]) == 18 for p in parts), parts
    value = float(parts[0]) + (complex(parts[1]) if len(parts) > 1 else 0.0)
    with mpmath.workdps(40):
        error = abs(mpmath.mpmathify(value) - exact())
    assert error <= float(fields["err_bound"])


class TestPrintedBound:
    @pytest.mark.parametrize(
        ("x", "shown"),
        [
            (7.309491174397665e-15, "7.310e-15"),
            (7.3095e-15, "7.310e-15"),
            (9.9995e-5, "1.000e-04"),
            (0.5, "5.000e-01"),
            (0.001, "1.001e-03"),  # the double 0.001 exceeds 1/1000
            (123456.0, "1.235e+05"),
            (2.0**1000, "1.072e+301"),
            (5e-324, "4.941e-324"),
            (0.0, "0.000e+00"),
            (math.inf, "inf"),
        ],
    )
    def test_rounded_up(self, x, shown):
        assert _rounded_up(x) == shown

    def test_never_below_the_bound(self):
        rng = random.Random("rounded-up")
        for _ in range(2000):
            x = rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 300)
            shown = _rounded_up(x)
            assert float(shown) >= x
            assert float(shown) <= x * (1 + 2e-3)
            assert shown == f"{float(shown):.3e}"


# the options each eval target reads, and a valid value for every eval option
_READS = {
    "cl2": ("--theta", "--tol"),
    "cln": ("--order", "--theta", "--tol"),
    "trigamma": ("--x",),
    "hurwitz": ("--s", "--a", "--tol"),
    "catalan": ("--method",),
    "l7": ("--route",),
    "i7": ("--tol",),
    "iab": ("--a", "--b", "--tol"),
    "li3": ("--re", "--im", "--tol"),
}
_VALUES = {
    "--theta": "1", "--order": "3", "--x": "1", "--s": "2", "--a": "0.5", "--b": "0.3",
    "--re": "0.5", "--im": "0.5", "--method": "series", "--route": "series", "--tol": "1e-10",
}


class TestEval:
    def test_i7(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "i7")
        assert code == 0
        assert "1.15192547054" in out

    def test_catalan_method(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "catalan", "--method", "eq2.35")
        assert code == 0
        assert "9.1596559417" in out
        assert_honest(out, lambda: mpmath.catalan)

    @pytest.mark.parametrize("method", CATALAN_METHODS)
    def test_catalan_bound_is_computed_and_honest(self, capsys, method):
        code, out, _ = run_cli(capsys, "eval", "catalan", "--method", method)
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert fields["method"] == method
        assert fields["err_bound"] != "1.000e-12"
        # the printed value has 17 digits, so it names the route's own double,
        # and the printed bound is the route's, rounded up
        r = catalan_result(method)
        assert float(fields["value"]) == r.value
        assert float(fields["err_bound"]) >= r.err_bound
        assert_honest(out, lambda: mpmath.catalan)

    def test_cl2_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "cl2", "--theta", "0")
        assert code == 0
        assert "value      0.0000000000000000e+00\n" in out

    def test_trigamma(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "trigamma", "--x", "1.0")
        assert code == 0
        assert "1.6449340668" in out
        assert_honest(out, lambda: mpmath.pi**2 / 6)

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
        assert "4.8615953708" in out
        assert "+5.7007740708" in out
        assert_honest(out, lambda: mpmath.polylog(3, mpmath.mpc(0.5, 0.5)))

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
    def test_li3_non_finite_argument_usage_error(self, capsys, re_part):
        code, out, err = run_cli(capsys, "eval", "li3", "--re", re_part)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("s", ["1e15", "1e308"])
    def test_hurwitz_huge_order_at_one(self, capsys, s):
        # zeta(s, 1) = 1 + 2^-s + ... is 1 to every double digit
        code, out, err = run_cli(capsys, "eval", "hurwitz", "--s", s, "--a", "1")
        assert (code, err) == (0, "")
        assert_honest(out, lambda: mpmath.zeta(mpmath.mpf(s), 1))

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

    @pytest.mark.parametrize(
        ("argv", "tol"),
        [
            # cl2's cases keep the ids they had when cl2 was the only target
            pytest.param(argv, tol, id=tol if argv[0] == "cl2" else f"{argv[0]}-{tol}")
            for argv in [
                ("cl2", "--theta", "1"),
                ("cln", "--order", "3", "--theta", "1"),
                ("hurwitz", "--s", "2", "--a", "0.5"),
                ("i7",),
                ("iab", "--a", "0.5", "--b", "0.3"),
                ("li3",),
            ]
            for tol in ["nan", "inf", "0", "-0.0", "-1"]
        ],
    )
    def test_bad_tolerance_usage_error(self, capsys, argv, tol):
        # the CLI passes --tol on as given; the library's one rule refuses it
        code, out, err = run_cli(capsys, "eval", *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be finite and positive, got {float(tol)!r}\n"

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

    @pytest.mark.parametrize(
        ("target", "option"),
        [
            (target, option)
            for target in cli.EVAL_TARGETS
            for option in cli._OPTIONS["eval"]
            if option != "target" and option not in _READS[target]
        ],
    )
    def test_unread_option_usage_error(self, capsys, target, option):
        # the target's own options are valid, so the unread one is the only fault
        given = (*_READS[target], option)
        argv = [word for name in given for word in (name, _VALUES[name])]
        code, out, err = run_cli(capsys, "eval", target, *argv)
        assert (code, out, err) == (2, "", f"error: eval {target} takes no {option}\n")

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
        assert err == "error: unknown check id 'no-such-id'\n"

    def test_unknown_tag_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--tag", "no-such-tag")
        assert code == 2

    def test_failure_exit_code(self, capsys):
        # a failing check is reported on stdout, with no error line
        code, out, err = run_cli(capsys, "verify", "--check", "sine7", "--tol", "1e-20")
        assert code == 1
        assert "fail" in out
        assert err == ""

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

    def test_unknown_formula_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "digits", "--formula", "nope", "--position", "0", "--count", "4"
        )
        assert code == 2
        assert "unknown formula" in err

    def test_bad_count_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "digits", "--formula", "pi-degree1", "--position", "0", "--count", "99"
        )
        assert code == 2

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


class TestErrorPolicy:
    """One row per error class and command: the command raises that class,
    and ``main`` turns it into its exit code and a single ``error:`` line."""

    @pytest.mark.parametrize(
        ("error", "argv", "code"),
        [
            (DomainError, ("eval", "hurwitz", "--s", "0.5", "--a", "1"), 2),
            (DomainError, ("eval", "trigamma", "--x", "0"), 2),
            (DomainError, ("eval", "iab", "--a", "1", "--b", "1.5"), 2),
            (DomainError, ("eval", "cl2", "--theta", "nan"), 2),
            (DomainError, ("eval", "cl2"), 2),
            (DomainError, ("eval", "cl2", "--theta", "1", "--tol", "nan"), 2),
            (DomainError, ("digits", "--formula", "pi-degree1", "--position=-1", "--count=4"), 2),
            (DomainError, ("digits", "--formula", "nope", "--position=0", "--count=4"), 2),
            (DomainError, ("verify", "--check", "P1", "--tol", "0"), 2),
            (DomainError, ("verify", "--all", "--tol-scale", "inf"), 2),
            (DomainError, ("eval", "hurwitz", "--s", "2", "--a=-1"), 2),
            (UnknownCheckError, ("verify", "--check", "nope"), 2),
            (OverflowError, ("eval", "trigamma", "--x", "1e-200"), 2),
            (ConvergenceError, ("eval", "cl2", "--theta", "1", "--tol", "1e-30"), 1),
            (QuadratureError, ("eval", "i7", "--tol", "1e-300"), 1),
            # the degree-40 formula of tests/test_bbp.py, whose guard digits at
            # position 0 sit exactly on a carry boundary
            (PrecisionError, ("digits", "--formula=exact-at-zero", "--position=0", "--count=8"), 1),
            (OverflowError, ("eval", "hurwitz", "--s", "2", "--a", "1e-320"), 2),
            (DomainError, ("eval", "trigamma", "--x=-inf"), 2),
            (DomainError, ("eval", "trigamma", "--x", "nan"), 2),
        ],
    )
    def test_exit_code(self, capsys, monkeypatch, error, argv, code):
        exact_at_zero = BBPFormula(degree=40, coeffs=(1, 0, 0, 0, 0, 0, 0, 0), scale=1.0)
        monkeypatch.setitem(bbp.REGISTRY, "exact-at-zero", exact_at_zero)
        args = cli.parse_args(list(argv))
        with pytest.raises(error) as raised:
            getattr(cli, f"cmd_{args.command}")(args)
        assert raised.type is error
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_version_flag(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
    assert (out, err) == (f"{__version__}\n", "")


class TestParser:
    """The command line's own rules: option forms, defaults, and the usage
    errors, each one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ((), "missing command; choose from eval, verify, digits"),
            (("nope",), "unknown command 'nope'; choose from eval, verify, digits"),
            (("--bogus",), "unrecognized argument '--bogus'"),
            (("eval", "cl2", "--theta", "1", "--bogus", "1"), "unrecognized argument '--bogus'"),
            (("eval", "cl2", "-x"), "unrecognized argument '-x'"),
            (("eval", "cl2", "cl2", "--theta", "1"), "unrecognized argument 'cl2'"),
            (("digits", "0"), "unrecognized argument '0'"),
            (("verify", "--t", "1"), "ambiguous option --t: could be --tag, --tol, --tol-scale"),
            (("eval", "cl2", "--r=1"), "ambiguous option --r: could be --re, --route"),
            (
                ("digits", "--formula", "pi-degree1", "--position", "1.5", "--count", "4"),
                "--position: invalid int value '1.5'",
            ),
            (("eval", "cl2", "--theta", "one"), "--theta: invalid float value 'one'"),
            (("verify", "--format", "xml"), "--format: invalid choice 'xml'; choose from text, json"),
            (("eval", "nope"), "target: invalid choice 'nope'; choose from " + ", ".join(cli.EVAL_TARGETS)),
            (("verify", "--all=1"), "--all takes no value"),
            (("verify", "--help=1"), "--help takes no value"),
            (("eval", "cl2", "--theta"), "--theta needs a value"),
            (("eval", "cl2", "--theta", "--tol", "1e-8"), "--theta needs a value"),
            (("eval", "cl2", "--", "--theta", "1"), "unrecognized argument '--'"),
            (("eval", "--theta", "1"), "eval requires target"),
            (("digits", "--formula", "pi-degree1"), "digits requires --position, --count"),
            (("verify", "--tol", "1e-8"), "verify without --check takes no --tol"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("digits", "--pos=0", "--formula", "pi-degree1", "--count", "6"),
            ("digits", "--f=pi-degree1", "--c", "6", "--po", "0"),
            ("digits", "--formula=pi-degree1", "--position", "7", "--position=0", "--count=6"),
            ("digits", "--formula", "pi-degree1", "--position", "+0", "--count", "0_6"),
        ],
    )
    def test_option_forms(self, capsys, argv):
        # "--name value" or "--name=value", a unique prefix of a name, the
        # last occurrence winning, and int() reading the value
        assert run_cli(capsys, *argv) == (0, "243F6A\n", "")

    def test_target_anywhere_among_the_options(self, capsys):
        first = run_cli(capsys, "eval", "cl2", "--theta", "1")
        assert first[0] == 0
        assert run_cli(capsys, "eval", "--theta", "1", "cl2") == first
        assert run_cli(capsys, "eval", "--theta", "5", "cl2", "--theta=1") == first

    def test_defaults_and_attribute_names(self):
        args = parse_args(["verify"])
        assert vars(args) == {
            "command": "verify", "all": False, "tag": None, "check": None,
            "format": "text", "tol": None, "tol_scale": None,
        }
        args = parse_args(["eval", "li3", "--tol", "1e-9"])
        assert (args.target, args.re, args.im, args.method, args.route, args.tol) == (
            "li3", 0.5, 0.5, "series", "trigamma", 1e-9,
        )
        assert parse_args(["verify", "--all", "--tol-s", "2"]).tol_scale == 2.0

    @pytest.mark.parametrize(
        ("text", "value"),
        [("nan", math.nan), ("1e400", math.inf), ("+5", 5.0), ("1_000", 1000.0), ("-1e-200", -1e-200)],
    )
    def test_values_are_read_by_float(self, text, value):
        theta = parse_args(["eval", "cl2", "--theta", text]).theta
        assert theta == value or (math.isnan(theta) and math.isnan(value))

    @pytest.mark.parametrize(
        ("argv", "head"),
        [
            (("--help",), "usage: tetralog [-h] [--version]"),
            (("-h",), "usage: tetralog [-h] [--version]"),
            (("eval", "--help"), "usage: tetralog eval [-h]"),
            (("eval", "--theta", "1", "-h"), "usage: tetralog eval [-h]"),
            (("verify", "--he"), "usage: tetralog verify [-h]"),
        ],
    )
    def test_help(self, capsys, argv, head):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(head)

    @pytest.mark.parametrize("command", ["eval", "verify", "digits"])
    def test_help_names_every_option(self, capsys, command):
        _, out, _ = run_cli(capsys, command, "--help")
        for name, (_, choices, default, _) in cli._OPTIONS[command].items():
            assert f"  {name} " in out
            assert all(c in out for c in choices or ())
            assert not default or f"default {default}" in out

    @pytest.mark.parametrize("target", cli.EVAL_TARGETS)
    def test_eval_help_names_each_targets_options(self, capsys, target):
        _, out, _ = run_cli(capsys, "eval", "--help")
        lines = [line.split() for line in out.splitlines() if line.split()[:1] == [target]]
        assert lines == [[target, *_READS[target]]]
