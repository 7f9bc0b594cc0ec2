"""Command-line front end: constant evaluation, identity verification, and
hexadecimal digit extraction, with machine-readable reports.

Commands raise, and ``main`` turns the error into one ``error:`` line on
stderr and an exit code:

- 0: success; for ``verify``, every non-conjecture check passes.
- 1: a check fails, or a computation cannot certify its result
  (``ConvergenceError``, including ``QuadratureError``, and ``PrecisionError``).
- 2: a usage error: argparse's own (with its usage line), a ``DomainError``
  (an argument out of range, a missing or unused flag, an unknown formula),
  an ``UnknownCheckError``, or an eval argument too extreme for
  double-precision arithmetic (a bare ``ArithmeticError`` or ``ValueError``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import namedtuple
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConvergenceError, DomainError, PrecisionError, TetralogError
from .names import CATALAN_METHODS, TAGS

if TYPE_CHECKING:
    from .verify import CheckRecord

SCHEMA_VERSION = "1"

EVAL_TARGETS = ("cl2", "cln", "trigamma", "hurwitz", "catalan", "l7", "i7", "iab", "li3")
# the targets whose evaluators take no tolerance
_FIXED_TOL = ("trigamma", "catalan", "l7")

# extraction time grows a little faster than linearly with the position; the
# cap keeps a request to seconds.  Deep positions split the head across forked
# processes, up to one per core (bbp._part_count, forked.forked_sum).
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


def _rounded_up(x: float) -> str:
    """x >= 0 at four significant digits, rounded up so that it still bounds x."""
    shown = f"{x:.3e}"
    if not math.isfinite(x):
        return shown
    mantissa, exp = shown.split("e")
    digits, e = int(mantissa.replace(".", "")), int(exp) - 3  # shown is digits * 10^e
    p, q = x.as_integer_ratio()
    if digits * q * 10 ** max(e, 0) < p * 10 ** max(-e, 0):
        digits += 1
        if digits == 10_000:
            digits, e = 1000, e + 1
        shown = f"{digits // 1000}.{digits % 1000:03d}e{e + 3:+03d}"
    return shown


def _print_eval(value, err_bound: float, method: str) -> None:
    # 17 significant digits name the computed double exactly
    if isinstance(value, complex):
        shown = f"{value.real:.16e} {value.imag:+.16e}j"
    else:
        shown = f"{value:.16e}"
    print(f"value      {shown}")
    print(f"err_bound  {_rounded_up(err_bound)}")
    print(f"method     {method}")


def cmd_eval(args: argparse.Namespace) -> int:
    t = args.target
    # each evaluator states its own default tolerance
    tol_kw = {}
    if args.tol is not None:
        if t in _FIXED_TOL:
            raise DomainError(f"eval {t} takes no --tol")
        tol_kw["tol"] = args.tol

    def need(name: str):
        v = getattr(args, name)
        if v is None:
            raise DomainError(f"eval {t} requires --{name}")
        return v

    # each target imports only the module that computes it
    if t == "cl2":
        from .specfun import cl2

        r = cl2(need("theta"), **tol_kw)
    elif t == "cln":
        from .specfun import clausen_cos, clausen_sin

        order = need("order")
        theta = need("theta")
        fn = clausen_sin if order % 2 == 0 else clausen_cos
        r = fn(order, theta, **tol_kw)
    elif t == "trigamma":
        from .specfun import trigamma

        r = trigamma(need("x"))
    elif t == "hurwitz":
        from .specfun import hurwitz_zeta

        r = hurwitz_zeta(need("s"), need("a"), **tol_kw)
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

        r = integral_I7(**tol_kw)
    elif t == "iab":
        from .integrals import integral_I_ab

        r = integral_I_ab(need("a"), need("b"), **tol_kw)
    else:  # li3, the last of EVAL_TARGETS
        from .polylog import polylog_complex

        r = polylog_complex(3, complex(args.re, args.im), **tol_kw)
    _print_eval(r.value, r.err_bound, r.method)
    return 0


def _reject_unused_flags(args: argparse.Namespace) -> None:
    """Raise DomainError for a verify flag that the other flags given would leave unused."""
    if args.check is None:
        if args.tol is not None:
            raise DomainError("--tol needs --check")
    elif args.all:
        raise DomainError("--all does not apply to --check")
    elif args.tol_scale is not None:
        raise DomainError("--tol-scale does not apply to --check; use --tol")
    elif args.tag is not None:
        raise DomainError("--tag does not apply to --check")


def cmd_verify(args: argparse.Namespace) -> int:
    _reject_unused_flags(args)
    from . import verify

    if args.check is not None:
        records = [verify.run_check(args.check, tol_override=args.tol)]
    else:
        records = verify.run_all(tag=args.tag, tol_scale=args.tol_scale)
    report = build_report(records)
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(report_to_text(report))
    return 0 if verify.aggregate_pass(records) else 1


def cmd_digits(args: argparse.Namespace) -> int:
    if args.position > MAX_POSITION:
        raise DomainError(f"--position must be at most {MAX_POSITION}")
    from . import bbp

    if args.formula not in bbp.REGISTRY:
        raise DomainError(
            f"unknown formula {args.formula!r}; valid formulas: {', '.join(bbp.REGISTRY)}"
        )
    print(bbp.extract_hex_digits(bbp.REGISTRY[args.formula], args.position, args.count))
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
    args = build_parser().parse_args(argv)
    command = {"eval": cmd_eval, "verify": cmd_verify, "digits": cmd_digits}[args.command]
    try:
        return command(args)
    except (TetralogError, ArithmeticError, ValueError) as exc:
        # a bare ArithmeticError or ValueError is float arithmetic giving out
        # on an argument too extreme for doubles
        message = exc if isinstance(exc, TetralogError) else f"argument out of range ({exc})"
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, (ConvergenceError, PrecisionError)) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
