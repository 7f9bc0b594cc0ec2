"""The benchmark's workloads: seeded request streams, how one request runs, and
how its output is checked.

Three families, eight workloads. Every end-to-end metric is reported on every
workload, so each workload is one homogeneous class of request:

* ``cli-cold.*`` -- fresh ``tetralog`` processes, one after another.
* ``compute-warm.*`` -- library calls in one warm process, all arguments unique.
* ``digits-deep.*`` -- BBP hex-digit extraction in one warm process.

README.md gives the reason for each workload and the numbers it should move.
The library receives only the generated inputs; it never sees the seed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EVAL_TARGETS = ("cl2", "cln", "trigamma", "hurwitz", "catalan", "l7", "i7", "iab", "li3")
CATALAN_METHODS = (
    "series", "eq1.11", "eq2.22", "eq2.25", "eq2.27", "eq2.28a", "eq2.28c", "eq2.33", "eq2.35",
)
L7_ROUTES = ("series", "trigamma", "hurwitz")
FORMULAS = ("eq2.35-sum", "eq2.37-sum", "pi-degree1")
POLYLOG_REGIMES = ("series", "log-expansion", "inversion")
SPECFUN_FNS = ("cl2", "clausen_sin", "clausen_cos", "trigamma", "hurwitz_zeta")
QUAD_FNS = ("integral_I_ab", "corollary3")
DIGIT_COUNT = 8
# digit-position bands, [lo, hi)
BANDS = {"shallow": (500, 1500), "mid": (2000, 5000), "deep": (20_000, 50_000)}

# The console script's own entry point, run by a fresh interpreter.
CLI_ENTRY = "import sys; from tetralog.cli import main; sys.exit(main(sys.argv[1:]))"
POSITION_JITTER = 0.03  # seeded, as a share of the band


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # cli | compute | digits
    kind: str  # the request class inside the family
    why: str
    design_names: tuple[tuple[str, str], ...]  # (metric, its name in the design's table)
    rate: float  # untraced requests per second of --seconds
    trace_rate: float  # traced requests per second of --seconds
    block: int  # the stream's period: one of each request class
    check_stride: int = 1  # check every n-th output with the oracle

    def count(self, seconds: float, traced: bool = False) -> int:
        """Requests in a run of ``seconds``: a fixed number, so that a seed
        always gives the same requests and the same failures. It is rounded to
        whole blocks, so that each request class has an equal share."""
        rate = self.trace_rate if traced else self.rate
        return max(1, self.block * round(seconds * rate / self.block))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-cold.verify", "cli", "verify",
            "a CI or certification user's `verify --all --format json` process, start-up and import included",
            (("op_ms.p50", "cli.verify_ms.p50"), ("op_ms.tail", "cli.verify_ms.tail")), 2.0, 1.5,
            1),
        Workload("cli-cold.eval", "cli", "eval",
            "`eval` processes over all nine targets with seeded arguments; start-up dominated",
            (("op_ms.p50", "cli.eval_ms.p50"), ("op_ms.tail", "cli.eval_ms.tail")), 2.25, 1.5,
            len(EVAL_TARGETS)),
        Workload("cli-cold.digits", "cli", "digits",
            "`digits` processes at shallow positions (~10^3); shows set-up cost added by bbp",
            (("op_ms.p50", "cli.digits_ms.p50"),), 2.25, 1.5, len(FORMULAS)),
        Workload("compute-warm.specfun", "compute", "specfun",
            "unique cl2 / clausen_* / trigamma / hurwitz_zeta calls in a warm process",
            (("ops_per_s", "compute.specfun_per_s"),), 30000.0, 20000.0, len(SPECFUN_FNS), 512),
        Workload("compute-warm.polylog", "compute", "polylog",
            "unique polylog_complex calls spread evenly over its three regimes",
            (("ops_per_s", "compute.polylog_per_s"),), 24000.0, 15000.0, len(POLYLOG_REGIMES),
            512),
        Workload("compute-warm.quad", "compute", "quad",
            "unique integral_I_ab / corollary3 calls: quadrature on new problems, warm caches",
            (("ops_per_s", "compute.quad_per_s"),), 1100.0, 800.0, len(QUAD_FNS)),
        Workload("digits-deep.mid", "digits", "mid",
            "extract_hex_digits at positions 2e3-5e3 on all three formulas",
            (("op_ms.p50", "digits.mid_ms.p50"),), 33.75, 25.0, len(FORMULAS)),
        Workload("digits-deep.deep", "digits", "deep",
            "extract_hex_digits at positions 2e4-5e4: big-integer pow dominates",
            (("op_ms.p50", "digits.deep_ms.p50"),), 4.5, 1.5, len(FORMULAS)),
    )
}


# ---------------------------------------------------------------------------
# seeded request streams


def _cycle(rng: random.Random, items):
    """Seeded shuffles of ``items``, one block after another: every prefix
    holds each item in near-equal share."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def _positions(rng: random.Random, band: str):
    """Digit positions in ``band``: the van der Corput sequence (1/2, 1/4, 3/4,
    1/8, ...) plus a small seeded jitter. Any prefix covers the band evenly, so
    the median of a short run does not hinge on the draw."""
    lo, hi = BANDS[band]
    k = 0
    while True:
        k += 1
        u, denom, j = 0.0, 1.0, k
        while j:
            denom *= 2.0
            j, bit = divmod(j, 2)
            u += bit / denom
        u = min(max(u + rng.uniform(-POSITION_JITTER, POSITION_JITTER), 0.0), 1.0)
        yield lo + int(u * (hi - lo - 1))


def _theta(rng):
    return math.pi - 2.0 * math.pi * rng.random()  # uniform on (-pi, pi]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _polylog_z(rng, regime):
    if regime == "series":
        r = 0.8 * (1.0 - rng.random())
    elif regime == "log-expansion":
        r = rng.uniform(0.8, 1.25)
    else:
        r = _log_uniform(rng, 1.25, 10.0)
    return cmath.rect(r, _theta(rng))


def _iab_a(rng, i):
    return 0.0 if i % 3 == 0 else 3.0 * (1.0 - rng.random())


def _cli_eval(rng):
    methods = _cycle(rng, CATALAN_METHODS)
    routes = _cycle(rng, L7_ROUTES)
    regimes = _cycle(rng, POLYLOG_REGIMES)
    for i, target in enumerate(_cycle(rng, EVAL_TARGETS)):
        if target == "cl2":
            args = (f"--theta={_theta(rng)!r}",)
        elif target == "cln":
            args = (f"--order={rng.randint(2, 8)}", f"--theta={_theta(rng)!r}")
        elif target == "trigamma":
            args = (f"--x={_log_uniform(rng, 1e-2, 1e2)!r}",)
        elif target == "hurwitz":
            args = (f"--s={rng.uniform(1.5, 6.0)!r}", f"--a={_log_uniform(rng, 1e-2, 1e2)!r}")
        elif target == "catalan":
            args = (f"--method={next(methods)}",)
        elif target == "l7":
            args = (f"--route={next(routes)}",)
        elif target == "i7":
            args = ()
        elif target == "iab":
            args = (f"--a={_iab_a(rng, i)!r}", f"--b={rng.uniform(-0.95, 0.95)!r}")
        else:
            z = _polylog_z(rng, next(regimes))
            args = (f"--re={z.real!r}", f"--im={z.imag!r}")
        yield ("eval", target, *args)


def requests(workload: Workload, seed: int):
    """The workload's infinite request stream for ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    kind = workload.kind
    if workload.family == "digits":
        # rounds: each position once in every formula, one extraction per request
        return ((f, p) for p in _positions(rng, kind) for f in FORMULAS)
    if kind == "verify":
        return iter(lambda: ("verify", "--all", "--format", "json"), None)
    if kind == "eval":
        return _cli_eval(rng)
    if kind == "digits":
        return (
            ("digits", f"--formula={f}", f"--position={p}", f"--count={DIGIT_COUNT}")
            for f, p in zip(_cycle(rng, FORMULAS), _positions(rng, "shallow"))
        )
    return _compute(rng, kind)


def _compute(rng, kind):
    if kind == "specfun":
        for fn in _cycle(rng, SPECFUN_FNS):
            if fn == "cl2":
                yield (fn, _theta(rng))
            elif fn.startswith("clausen"):
                yield (fn, rng.randint(2, 8), _theta(rng))
            elif fn == "trigamma":
                yield (fn, _log_uniform(rng, 1e-2, 1e2))
            else:
                yield (fn, rng.uniform(1.5, 6.0), _log_uniform(rng, 1e-2, 1e2))
    elif kind == "polylog":
        orders = _cycle(rng, (2, 3, 4))
        for regime in _cycle(rng, POLYLOG_REGIMES):
            yield ("polylog_complex", next(orders), _polylog_z(rng, regime))
    else:
        for i, fn in enumerate(_cycle(rng, QUAD_FNS)):
            if fn == "integral_I_ab":
                yield (fn, _iab_a(rng, i // 2), rng.uniform(-0.95, 0.95))
            else:
                yield (fn, _log_uniform(rng, 0.1, 10.0), rng.uniform(0.05, math.pi - 0.05))


def inputs_digest(workload: Workload, seed: int, n: int = 256) -> str:
    """sha256 of the first ``n`` requests: equal digests mean equal inputs."""
    stream = requests(workload, seed)
    text = "\n".join(repr(next(stream)) for _ in range(n))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one request


def bind(workload: Workload):
    """A callable that runs one in-process request, bound to the library's
    current module attributes (so that it goes through any installed wrappers)."""
    from tetralog import bbp, integrals, polylog, specfun

    if workload.family == "digits":
        extract, registry = bbp.extract_hex_digits, bbp.REGISTRY
        return lambda req: extract(registry[req[0]], req[1], DIGIT_COUNT)
    funcs = {
        "cl2": specfun.cl2,
        "clausen_sin": specfun.clausen_sin,
        "clausen_cos": specfun.clausen_cos,
        "trigamma": specfun.trigamma,
        "hurwitz_zeta": specfun.hurwitz_zeta,
        "polylog_complex": polylog.polylog_complex,
        "integral_I_ab": integrals.integral_I_ab,
        "corollary3": integrals.corollary3,
    }
    return lambda req: funcs[req[0]](*req[1:])


def warmup(workload: Workload) -> None:
    """Fixed calls, distinct from every seeded input, that fill the library's
    legitimate caches (Bernoulli and zeta tables) before timing."""
    from tetralog import bbp, integrals, polylog, specfun

    if workload.family == "digits":
        for f in FORMULAS:
            bbp.extract_hex_digits(bbp.REGISTRY[f], 100, DIGIT_COUNT)
    elif workload.kind == "specfun":
        specfun.cl2(0.7)
        specfun.cl2(2.9)
        for order in range(2, 9):
            specfun.clausen_sin(order, 1.1)
            specfun.clausen_cos(order, 1.1)
        specfun.trigamma(0.3)
        specfun.hurwitz_zeta(2.5, 0.7)
    elif workload.kind == "polylog":
        for s in (2, 3, 4):
            for z in (0.5 + 0.2j, 0.9 + 0.3j, 2.0 + 1.0j):
                polylog.polylog_complex(s, z)
    elif workload.kind == "quad":
        integrals.integral_I_ab(0.0, 0.3)
        integrals.integral_I_ab(1.0, -0.2)
        integrals.corollary3(2.0, 1.0)


def setup_code(workload: Workload) -> str:
    """Python source a fresh interpreter runs to measure set-up time."""
    if workload.family == "cli":
        return "import tetralog"
    return (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import tetralog, workloads; "
        f"workloads.warmup(workloads.WORKLOADS[{workload.name!r}])"
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(argv, traced: bool, with_spans: bool = False) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), str(int(with_spans)), *argv]
    return [sys.executable, "-c", CLI_ENTRY, *argv]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason

_REL = 1e-9
_SUMMARY = {"total": 64, "passed": 63, "failed": 0, "conjecture": 1, "errored": 0}


def _close(value, reference, rel=_REL) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


class Checker:
    """Compares outputs with the oracles; keeps the oracle's costly constants."""

    def __init__(self) -> None:
        import oracle

        self.oracle = oracle
        self.hex = oracle.HexDigits()

    def check(self, workload: Workload, req, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        if workload.family == "cli":
            return self._cli(req, out)
        if workload.family == "digits":
            return self._digits(req[0], req[1], out)
        return self._compute(req, out)

    # -- cli ---------------------------------------------------------------
    def _cli(self, argv, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        if argv[0] == "verify":
            try:
                report = json.loads(stdout)
            except ValueError as exc:
                return f"report is not JSON: {exc}"
            if report.get("schema_version") != "1":
                return f"schema_version {report.get('schema_version')!r}"
            if report.get("summary") != _SUMMARY:
                return f"summary {report.get('summary')}"
            return None
        if argv[0] == "digits":
            opts = dict(a[2:].split("=", 1) for a in argv[1:])
            return self._digits(opts["formula"], int(opts["position"]), stdout.strip())
        return self._eval(argv[1], dict(a[2:].split("=", 1) for a in argv[2:]), stdout)

    def _eval(self, target, opts, stdout) -> str | None:
        fields = {}
        for line in stdout.splitlines():
            key, _, rest = line.partition(" ")
            fields[key] = rest.strip()
        try:
            parts = fields["value"].split()
            value = float(parts[0]) + (complex(parts[1]) if len(parts) > 1 else 0.0)
        except (KeyError, ValueError) as exc:
            return f"unparsable eval output {stdout!r}: {exc}"
        o = self.oracle
        f = {k: float(v) for k, v in opts.items() if k not in ("method", "route", "order")}
        if target == "cl2":
            ref = o.clausen(2, "sin", f["theta"])
        elif target == "cln":
            order = int(opts["order"])
            ref = o.clausen(order, "sin" if order % 2 == 0 else "cos", f["theta"])
        elif target == "trigamma":
            ref = o.trigamma(f["x"])
        elif target == "hurwitz":
            ref = o.hurwitz_zeta(f["s"], f["a"])
        elif target == "catalan":
            ref = o.catalan()
        elif target == "l7":
            ref = o.l7()
        elif target == "i7":
            ref = o.i7()
        elif target == "iab":
            ref = o.i_ab(f["a"], f["b"])
        else:
            ref = o.polylog(3, complex(f["re"], f["im"]))
        if not _close(value, ref):
            return f"eval {target}: {value!r} vs oracle {ref!r}"
        return None

    # -- digits --------------------------------------------------------------
    def _digits(self, formula, position, digits) -> str | None:
        if self.hex.affordable(formula, position, DIGIT_COUNT):
            ref = self.hex.digits(formula, position, DIGIT_COUNT)
        else:
            # overlap: the last four digits again, from an extraction four places on
            from tetralog import bbp

            ref = digits[:4] + bbp.extract_hex_digits(bbp.REGISTRY[formula], position + 4, 4)
        if digits != ref:
            return f"{formula} at {position}: {digits} vs {ref}"
        return None

    # -- compute -------------------------------------------------------------
    def _compute(self, req, out) -> str | None:
        fn, args = req[0], req[1:]
        o = self.oracle
        if fn == "integral_I_ab":
            from tetralog import integrals

            closed = (integrals.i_ab_closed_omega(*args), integrals.i_ab_closed_theta12(*args))
            for ref in closed:
                if not _close(out.value, ref.value, 1e-8):
                    return f"I{args} = {out.value!r} vs closed form {ref.value!r}"
            return None
        if fn == "corollary3":
            lhs, rhs = out
            return None if _close(lhs.value, rhs, 1e-8) else f"corollary3{args}: {lhs.value!r} vs {rhs!r}"
        if fn == "cl2":
            ref = o.clausen(2, "sin", args[0])
        elif fn == "clausen_sin":
            ref = o.clausen(args[0], "sin", args[1])
        elif fn == "clausen_cos":
            ref = o.clausen(args[0], "cos", args[1])
        elif fn == "trigamma":
            ref = o.trigamma(*args)
        elif fn == "hurwitz_zeta":
            ref = o.hurwitz_zeta(*args)
        else:
            ref = o.polylog(*args)
        if not _close(out.value, ref, 1e-10):
            return f"{fn}{args} = {out.value!r} vs oracle {ref!r}"
        return None
