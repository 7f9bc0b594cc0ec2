"""Command-line front end: constant evaluation, identity verification, and
hexadecimal digit extraction, with machine-readable reports.

Commands raise, and ``main`` turns the error into one ``error:`` line on
stderr and an exit code:

- 0: success; for ``verify``, every non-conjecture check passes.
- 1: a check fails, or a computation cannot certify its result
  (``ConvergenceError``, including ``QuadratureError``, and ``PrecisionError``).
- 2: a usage error: a ``DomainError`` (a malformed command line, an
  argument out of range, a missing option, an unknown formula), an
  ``UnknownCheckError``, or an eval argument too extreme for
  double-precision arithmetic (a bare ``ArithmeticError`` or ``ValueError``).
  ``parse_args`` refuses a malformed command line, and with it any option
  that the invocation does not read (``_EVALUATORS``, ``_VERIFY_READS``).
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import namedtuple
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConvergenceError, DomainError, PrecisionError, TetralogError
from .names import CATALAN_METHODS, TAGS

if TYPE_CHECKING:
    from .verify import CheckRecord

SCHEMA_VERSION = "1"

# each eval target: the module and the function that compute it, the options
# it reads in the order the function takes them, and whether it takes --tol.
# cmd_eval names the function of cln and of l7 from their options.
_EVALUATORS = {
    "cl2": ("specfun", "cl2", ("--theta",), True),
    "cln": ("specfun", None, ("--order", "--theta"), True),
    "trigamma": ("specfun", "trigamma", ("--x",), False),
    "hurwitz": ("specfun", "hurwitz_zeta", ("--s", "--a"), True),
    "catalan": ("dirichlet", "catalan_result", ("--method",), False),
    "l7": ("dirichlet", None, ("--route",), False),
    "i7": ("integrals", "integral_I7", (), True),
    "iab": ("integrals", "integral_I_ab", ("--a", "--b"), True),
    "li3": ("polylog", "polylog_complex", ("--re", "--im"), True),
}
EVAL_TARGETS = tuple(_EVALUATORS)


def _eval_reads(target: str) -> tuple[str, ...]:
    """The options that eval ``target`` reads: its row's, then --tol if it takes one."""
    *_, row, takes_tol = _EVALUATORS[target]
    return (*row, *["--tol"] * takes_tol)


# the options that each form of verify reads
_VERIFY_READS = {
    "--check": ("--check", "--format", "--tol"),
    "without --check": ("--all", "--tag", "--format", "--tol-scale"),
}

# extraction time grows a little faster than linearly with the position; the
# cap keeps a request to seconds.  Deep positions split the head across forked
# workers, up to one per core beyond this process (bbp._part_count,
# forked.forked_sum).
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


def cmd_eval(args: SimpleNamespace) -> int:
    t = args.target
    module, name, reads, _ = _EVALUATORS[t]
    values = [getattr(args, option[2:]) for option in reads]
    for option, value in zip(reads, values):
        if value is None:
            raise DomainError(f"eval {t} requires {option}")
    if t == "cln":  # the order's parity picks the series
        name = "clausen_sin" if args.order % 2 == 0 else "clausen_cos"
    elif t == "l7":  # the route names the function, which takes no argument
        name, values = f"l7_{args.route}", []
    elif t == "li3":
        values = [3, complex(args.re, args.im)]
    # each evaluator states its own default tolerance, and each target loads
    # only the module that computes it
    tol_kw = {} if args.tol is None else {"tol": args.tol}
    r = getattr(importlib.import_module(f".{module}", __package__), name)(*values, **tol_kw)
    _print_eval(r.value, r.err_bound, r.method)
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
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


def cmd_digits(args: SimpleNamespace) -> int:
    if args.position > MAX_POSITION:
        raise DomainError(f"--position must be at most {MAX_POSITION}")
    from . import bbp

    if args.formula not in bbp.REGISTRY:
        raise DomainError(
            f"unknown formula {args.formula!r}; valid formulas: {', '.join(bbp.REGISTRY)}"
        )
    print(bbp.extract_hex_digits(bbp.REGISTRY[args.formula], args.position, args.count))
    return 0


# each command's options: name -> (type, choices, default, required).  A type
# of None marks a flag, which stores True when given; "target" is eval's
# positional argument.  parse_args names each attribute without the dashes
# ("--tol-scale" -> tol_scale).
_OPTIONS = {
    "eval": {
        "target": (str, EVAL_TARGETS, None, True),
        "--theta": (float, None, None, False),
        "--order": (int, None, None, False),
        "--x": (float, None, None, False),
        "--s": (float, None, None, False),
        "--a": (float, None, None, False),
        "--b": (float, None, None, False),
        "--re": (float, None, 0.5, False),
        "--im": (float, None, 0.5, False),
        "--method": (str, CATALAN_METHODS, "series", False),
        "--route": (str, ("series", "trigamma", "hurwitz"), "trigamma", False),
        "--tol": (float, None, None, False),
    },
    "verify": {
        "--all": (None, None, False, False),
        "--tag": (str, TAGS, None, False),
        "--check": (str, None, None, False),
        "--format": (str, ("text", "json"), "text", False),
        "--tol": (float, None, None, False),
        "--tol-scale": (float, None, None, False),
    },
    "digits": {
        "--formula": (str, None, None, True),
        "--position": (int, None, None, True),
        "--count": (int, None, None, True),
    },
}

_SUMMARIES = {
    None: "Evaluate and numerically certify a family of Clausen, Catalan, "
    "Dirichlet-L and BBP identities.",
    "eval": "evaluate one constant or function",
    "verify": "run the identity check ledger; with no --check, every check",
    "digits": f"extract fractional hex digits, at a --position of at most {MAX_POSITION}",
}


def _usage(command: str | None) -> str:
    """The --help text of ``command``, or of the program for None."""
    if command is None:
        head = f"tetralog [-h] [--version] {{{','.join(_OPTIONS)}}} ..."
        rows = [f"  {name:10s}{_SUMMARIES[name]}" for name in _OPTIONS]
    else:
        head = f"tetralog {command} [-h] [options]"
        rows = []
        for name, (kind, choices, default, required) in _OPTIONS[command].items():
            shown = f"{{{','.join(choices)}}}" if choices else kind.__name__ if kind else "flag"
            note = ", required" if required else f", default {default}" if default else ""
            rows.append(f"  {name:14s}{shown}{note}")
        if command == "eval":
            rows += ["", "the options each target reads:"]
            rows += [f"  {t:14s}{' '.join(_eval_reads(t))}" for t in EVAL_TARGETS]
    return "\n".join([f"usage: {head}", "", _SUMMARIES[command], "", *rows])


def _match(word: str, names) -> str:
    """The name in ``names`` that the option ``word`` gives: -h is --help,
    and a prefix of exactly one name stands for it."""
    if word == "-h":
        return "--help"
    if word in names:
        return word
    # "-" and "--" begin every name, so they are no prefix
    hits = [n for n in names if n.startswith(word)] if len(word) > 2 else []
    if len(hits) > 1:
        raise DomainError(f"ambiguous option {word}: could be {', '.join(hits)}")
    if not hits:
        raise DomainError(f"unrecognized argument {word!r}")
    return hits[0]


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The namespace that ``argv``'s command reads, or the text that --help or
    --version prints.

    An option's value follows it, as the next word or after "=", and may not
    start with "--"; the last occurrence of an option wins.  Every usage
    error raises DomainError.
    """
    if not argv:
        raise DomainError(f"missing command; choose from {', '.join(_OPTIONS)}")
    command = argv[0]
    if command.startswith("-"):
        return _usage(None) if _match(command, ("--help", "--version")) == "--help" else __version__
    if command not in _OPTIONS:
        raise DomainError(f"unknown command {command!r}; choose from {', '.join(_OPTIONS)}")
    table, given, words = _OPTIONS[command], {}, iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if "target" not in table or "target" in given:
                raise DomainError(f"unrecognized argument {word!r}")
            name, text = "target", word
        else:
            name, eq, text = word.partition("=")
            name = _match(name, ("--help", *table))
            if name == "--help" or table[name][0] is None:
                if eq:
                    raise DomainError(f"{name} takes no value")
                if name == "--help":
                    return _usage(command)
                given[name] = True
                continue
            if not eq:
                text = next(words, "--")  # the end of argv reads as no value
                if text.startswith("--"):
                    raise DomainError(f"{name} needs a value")
        kind, choices = table[name][:2]
        try:
            given[name] = kind(text)
        except ValueError:
            raise DomainError(f"{name}: invalid {kind.__name__} value {text!r}") from None
        if choices and given[name] not in choices:
            raise DomainError(f"{name}: invalid choice {text!r}; choose from {', '.join(choices)}")
    missing = [name for name, (*_, required) in table.items() if required and name not in given]
    if missing:
        raise DomainError(f"{command} requires {', '.join(missing)}")
    form, reads = command, table  # digits reads every option
    if command == "eval":
        form = given["target"]
        reads = ("target", *_eval_reads(form))
    elif command == "verify":
        form = "--check" if "--check" in given else "without --check"
        reads = _VERIFY_READS[form]
    unread = [name for name in given if name not in reads]
    if unread:
        raise DomainError(f"{command} {form} takes no {unread[0]}")
    return SimpleNamespace(
        command=command,
        **{n.lstrip("-").replace("-", "_"): given.get(n, o[2]) for n, o in table.items()},
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # --help or --version
            print(args)
            return 0
        return {"eval": cmd_eval, "verify": cmd_verify, "digits": cmd_digits}[args.command](args)
    except (TetralogError, ArithmeticError, ValueError) as exc:
        # a bare ArithmeticError or ValueError is float arithmetic giving out
        # on an argument too extreme for doubles
        message = exc if isinstance(exc, TetralogError) else f"argument out of range ({exc})"
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, (ConvergenceError, PrecisionError)) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
