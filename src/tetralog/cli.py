"""Command-line front end: constant evaluation, identity verification, and
hexadecimal digit extraction, with machine-readable reports.

Exit codes are exactly: 0 success / all checks pass, 1 check failure or
precision abort, 2 usage error (including an eval argument too extreme for
double-precision arithmetic, and a flag the command would leave unused).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import namedtuple
from typing import TYPE_CHECKING

from . import __version__
from .errors import TetralogError, UnknownCheckError
from .names import CATALAN_METHODS, TAGS

if TYPE_CHECKING:
    from .verify import CheckRecord

SCHEMA_VERSION = "1"

EVAL_TARGETS = ("cl2", "cln", "trigamma", "hurwitz", "catalan", "l7", "i7", "iab", "li3")
# the targets whose evaluators take no tolerance
_FIXED_TOL = ("trigamma", "catalan", "l7")

# extraction time grows a little faster than linearly with the position; the
# cap keeps a request to seconds.  Deep positions split the head across
# forked processes (see bbp._head), which shortens it by up to the core count.
MAX_POSITION = 10**6


# a verify run: tool version, ISO timestamp, list[CheckRecord] and the status counts
Report = namedtuple("Report", "tool_version timestamp records summary")


def build_report(records: list[CheckRecord]) -> Report:
    summary = {
        "total": len(records),
        "passed": sum(r.status == "pass" for r in records),
        "failed": sum(r.status == "fail" for r in records),
        "conjecture": sum(r.status == "supports-conjecture" for r in records),
        "errored": sum(r.status == "error" for r in records),
    }
    return Report(
        tool_version=__version__,
        # the text of datetime.now(timezone.utc).isoformat(timespec="seconds"),
        # without loading datetime
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        records=records,
        summary=summary,
    )


def report_to_json(report: Report) -> str:
    import json

    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "timestamp": report.timestamp,
        "records": [r._asdict() for r in report.records],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, allow_nan=True)


def _sig12(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return f"{x!s:>18s}"
    return f"{x: .11e}"


def report_to_text(report: Report) -> str:
    lines = [
        f"{'id':14s} {'status':20s} {'lhs':>18s} {'rhs':>18s} "
        f"{'residual':>18s} {'tol':>9s} {'ms':>6s}"
    ]
    for r in report.records:
        lines.append(
            f"{r.id:14s} {r.status:20s} {_sig12(r.lhs)} {_sig12(r.rhs)} "
            f"{_sig12(r.residual)} {r.tol:9.0e} {r.elapsed_ms:6d}"
        )
    s = report.summary
    lines.append(
        f"total {s['total']}  passed {s['passed']}  failed {s['failed']}  "
        f"conjecture {s['conjecture']}  errored {s['errored']}"
    )
    return "\n".join(lines)


def _print_eval(value, err_bound: float, method: str) -> None:
    if isinstance(value, complex):
        shown = f"{value.real:.11e} {value.imag:+.11e}j"
    else:
        shown = f"{value:.11e}"
    print(f"value      {shown}")
    print(f"err_bound  {err_bound:.3e}")
    print(f"method     {method}")


def _bad_tolerance(flag: str, v: float | None) -> bool:
    """Report on stderr, and return True, if a tolerance flag is not finite and positive."""
    if v is None or (math.isfinite(v) and v > 0.0):
        return False
    print(f"error: {flag} must be finite and positive, got {v!r}", file=sys.stderr)
    return True


def cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    t = args.target
    tol = args.tol
    if _bad_tolerance("--tol", tol):
        return 2
    if tol is not None and t in _FIXED_TOL:
        print(f"error: eval {t} takes no --tol", file=sys.stderr)
        return 2

    def need(name: str):
        v = getattr(args, name, None)
        if v is None:
            parser.error(f"eval {t} requires --{name.replace('_', '-')}")
        return v

    # each target imports only the module that computes it
    try:
        if t == "cl2":
            from .specfun import cl2

            r = cl2(need("theta"), tol=tol or 1e-13)
        elif t == "cln":
            from .specfun import clausen_cos, clausen_sin

            order = int(need("order"))
            theta = need("theta")
            fn = clausen_sin if order % 2 == 0 else clausen_cos
            r = fn(order, theta, tol=tol or 1e-12)
        elif t == "trigamma":
            from .specfun import trigamma

            r = trigamma(need("x"))
        elif t == "hurwitz":
            from .specfun import hurwitz_zeta

            r = hurwitz_zeta(need("s"), need("a"), tol=tol or 1e-13)
        elif t == "catalan":
            from .dirichlet import catalan_result

            r = catalan_result(args.method)
        elif t == "l7":
            from . import dirichlet

            route = {
                "series": dirichlet.l7_series,
                "trigamma": dirichlet.l7_trigamma,
                "hurwitz": dirichlet.l7_hurwitz,
            }[args.route]
            r = route()
        elif t == "i7":
            from .integrals import integral_I7

            r = integral_I7(tol or 1e-10)
        elif t == "iab":
            from .integrals import integral_I_ab

            a, b = need("a"), need("b")
            r = integral_I_ab(a, b, tol or 1e-10)
        elif t == "li3":
            from .polylog import polylog_complex

            r = polylog_complex(3, complex(args.re, args.im), tol=tol or 1e-12)
        else:  # pragma: no cover - argparse choices guard this
            parser.error(f"unknown eval target {t!r}")
    except TetralogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        # float arithmetic gave out on an argument the evaluator cannot represent
        print(f"error: eval {t}: argument out of range ({exc})", file=sys.stderr)
        return 2
    _print_eval(r.value, r.err_bound, r.method)
    return 0


def _ignored_flag(args: argparse.Namespace) -> str | None:
    """The verify flag that the other flags given would leave unused, if any."""
    if args.check is None:
        return "--tol needs --check" if args.tol is not None else None
    if args.all:
        return "--all does not apply to --check"
    if args.tol_scale is not None:
        return "--tol-scale does not apply to --check; use --tol"
    if args.tag is not None:
        return "--tag does not apply to --check"
    return None


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if _bad_tolerance("--tol", args.tol) or _bad_tolerance("--tol-scale", args.tol_scale):
        return 2
    conflict = _ignored_flag(args)
    if conflict is not None:
        print(f"error: {conflict}", file=sys.stderr)
        return 2
    from . import verify

    try:
        if args.check is not None:
            records = [verify.run_check(args.check, tol_override=args.tol)]
        else:
            records = verify.run_all(tag=args.tag, tol_scale=args.tol_scale)
    except UnknownCheckError as exc:
        parser.error(f"unknown check id {exc.args[0]!r}")
    except TetralogError as exc:
        parser.error(str(exc))
    report = build_report(records)
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(report_to_text(report))
    return 0 if verify.aggregate_pass(records) else 1


def cmd_digits(args: argparse.Namespace) -> int:
    if args.position > MAX_POSITION:
        print(f"error: --position must be at most {MAX_POSITION}", file=sys.stderr)
        return 2
    from . import bbp

    try:
        formula = bbp.REGISTRY[args.formula]
    except KeyError:
        print(f"error: unknown formula {args.formula!r}", file=sys.stderr)
        return 1
    try:
        print(bbp.extract_hex_digits(formula, args.position, args.count))
    except TetralogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetralog",
        description="Evaluate and numerically certify a family of Clausen, "
        "Catalan, Dirichlet-L and BBP identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one constant or function")
    p_eval.add_argument("target", choices=EVAL_TARGETS)
    p_eval.add_argument("--theta", type=float)
    p_eval.add_argument("--order", type=int)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--s", type=float)
    p_eval.add_argument("--a", type=float)
    p_eval.add_argument("--b", type=float)
    p_eval.add_argument("--re", type=float, default=0.5)
    p_eval.add_argument("--im", type=float, default=0.5)
    p_eval.add_argument("--method", choices=CATALAN_METHODS, default="series")
    p_eval.add_argument(
        "--route", choices=("series", "trigamma", "hurwitz"), default="trigamma"
    )
    p_eval.add_argument("--tol", type=float)

    p_verify = sub.add_parser("verify", help="run the identity check ledger")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--tag", choices=TAGS)
    p_verify.add_argument("--check", metavar="ID", help="run a single check by id")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--tol", type=float, help="tolerance override for --check")
    p_verify.add_argument(
        "--tol-scale", type=float, dest="tol_scale", help="scale every check tolerance"
    )

    p_digits = sub.add_parser("digits", help="extract fractional hex digits")
    p_digits.add_argument("--formula", required=True)
    p_digits.add_argument(
        "--position",
        type=int,
        required=True,
        help=f"hex digit position, at most {MAX_POSITION}",
    )
    p_digits.add_argument("--count", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return cmd_eval(args, parser)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "digits":
        return cmd_digits(args)
    parser.error("no command given")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
