"""The identity ledger: one executable numerical check per source identity.

Each check computes a left and right side by independent code paths and
records the residual against a pinned tolerance.  Check ids and tags are a
stable public contract; ``paper_ref`` carries the equation anchor of the
source article so a failure can be traced to one displayed identity.

Conjectural identities are quarantined: they can only report
``supports-conjecture`` or ``error``, and the aggregate verdict ignores them.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from . import bbp as _bbp
from . import dirichlet, integrals
from .accel import alternating_sum
from .constants import CATALAN, GAMMA, LN2, PI, SQRT7, ZETA3
from .dirichlet import catalan_value
from .errors import DomainError, UnknownCheckError
from .names import CATALAN_METHODS, TAGS
from .quad import QuadProblem, integrate
from .result import RationalAngle
from .specfun import (
    cl2,
    cl2_rational,
    clausen_sin,
    digamma,
    harmonic,
    hurwitz_zeta,
    trigamma,
)


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one ledger check."""

    id: str
    paper_ref: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    status: str  # pass | fail | supports-conjecture | error
    elapsed_ms: int
    note: str = ""


@dataclass(frozen=True)
class _CheckDef:
    id: str
    tag: str
    paper_ref: str
    tol: float
    func: Callable[[], tuple[float, float]]
    conjecture: bool = False


def _csc2(x: float) -> float:
    return 1.0 / math.sin(x) ** 2


def _tri(x: float) -> float:
    return trigamma(x).value


def _worst(pairs: Iterable[tuple[float, float]], rel: bool = False) -> tuple[float, float]:
    """The (lhs, rhs) pair with the largest |lhs - rhs|, relative to |rhs| when
    ``rel`` is set.  The first pair wins a tie; the first NaN difference wins
    outright and is kept, so the check reports it instead of skipping it."""
    worst, worst_d = (0.0, 0.0), -1.0
    for lhs, rhs in pairs:
        d = abs(lhs - rhs)
        if rel:
            d /= abs(rhs)
        if d > worst_d or (math.isnan(d) and not math.isnan(worst_d)):
            worst, worst_d = (lhs, rhs), d
    return worst


# ---------------------------------------------------------------------------
# Lemma 1 family


def _chk_l1a() -> tuple[float, float]:
    return dirichlet.l7_series().value, dirichlet.l7_trigamma().value


def _chk_l1b() -> tuple[float, float]:
    t = [_tri(p / 7.0) for p in range(1, 7)]
    rhs = (
        2.0 * (t[0] + t[1] - t[2])
        - PI * PI * (_csc2(PI / 7.0) + _csc2(2.0 * PI / 7.0) - _csc2(3.0 * PI / 7.0))
    ) / 49.0
    return dirichlet.l7_trigamma().value, rhs


def _chk_l1c() -> tuple[float, float]:
    t = [_tri(p / 7.0) for p in range(1, 7)]
    rhs = 2.0 / 49.0 * (t[0] + t[1] - t[2] + (_csc2(3.0 * PI / 7.0) - 4.0) * PI * PI)
    return dirichlet.l7_trigamma().value, rhs


def _chk_l1d() -> tuple[float, float]:
    return dirichlet.l7_hurwitz(tol=1e-12).value, dirichlet.l7_trigamma().value


def _poly7(u: float, coeffs: tuple[float, ...]) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _chk_l1e1() -> tuple[float, float]:
    q = integrate(
        QuadProblem(
            lambda u: _poly7(u, (1, 1, -1, 1, -1, -1)) / (1.0 - u**7) * math.log(u),
            0.0,
            1.0,
            (0.0, 1.0),
            1e-11,
        )
    )
    return -q.value, dirichlet.l7_trigamma().value


def _chk_l1e2() -> tuple[float, float]:
    q = integrate(
        QuadProblem(
            lambda u: _poly7(u, (1, 2, 1, 2, 1))
            / _poly7(u, (1, 1, 1, 1, 1, 1, 1))
            * math.log(u),
            0.0,
            1.0,
            (0.0,),
            1e-11,
        )
    )
    return -q.value, dirichlet.l7_trigamma().value


def _chk_l1e3() -> tuple[float, float]:
    # the printed numerator reads u(1 + u - u^4 - u^5); the u term must be
    # u^2 or the identity fails by 2.7e-2 (see repository notes)
    q = integrate(
        QuadProblem(
            lambda u: u
            * _poly7(u, (1, 0, 1, 0, -1, -1))
            / _poly7(u, (1, 1, 1, 1, 1, 1, 1))
            * math.log(u),
            0.0,
            1.0,
            (0.0,),
            1e-11,
        )
    )
    return 1.0 - q.value, dirichlet.l7_trigamma().value


def _cl2_combo7() -> float:
    return (
        cl2_rational(RationalAngle(2, 7)).value
        + cl2_rational(RationalAngle(4, 7)).value
        - cl2_rational(RationalAngle(6, 7)).value
    )


def _chk_l1f() -> tuple[float, float]:
    # the printed display has a typographical corruption in the csc^2 group;
    # this is the numerically exact resolution (see repository notes)
    lhs = 56.0 * SQRT7 * _cl2_combo7()
    rhs = 8.0 * (_tri(1 / 7) + _tri(2 / 7) - _tri(3 / 7)) + PI * PI * (
        _csc2(PI / 7.0)
        - 7.0 * _csc2(2.0 * PI / 7.0)
        - _csc2(3.0 * PI / 7.0)
        + _csc2(3.0 * PI / 14.0)
        + _csc2(5.0 * PI / 14.0)
        - _csc2(PI / 14.0)
    )
    return lhs, rhs


def _chk_eq2_6() -> tuple[float, float]:
    lhs = _cl2_combo7()
    rhs = (
        _tri(1 / 14)
        + _tri(1 / 7)
        - _tri(3 / 14)
        + _tri(2 / 7)
        - _tri(5 / 14)
        - _tri(3 / 7)
        + _tri(4 / 7)
        + _tri(9 / 14)
        - _tri(5 / 7)
        + _tri(11 / 14)
        - _tri(6 / 7)
        - _tri(13 / 14)
    ) / (56.0 * SQRT7)
    return lhs, rhs


def _chk_eq2_10a() -> tuple[float, float]:
    return _tri(1 / 14), 4.0 * _tri(1 / 7) + _tri(3 / 7) - PI * PI * _csc2(4.0 * PI / 7.0)


def _chk_eq2_10b() -> tuple[float, float]:
    return _tri(3 / 14), 4.0 * _tri(3 / 7) + _tri(2 / 7) - PI * PI * _csc2(2.0 * PI / 7.0)


def _chk_eq2_10c() -> tuple[float, float]:
    rhs = (
        -4.0 * _tri(2 / 7)
        + _tri(1 / 7)
        - PI * PI * _csc2(PI / 7.0)
        + 4.0 * PI * PI * _csc2(2.0 * PI / 7.0)
    )
    return _tri(5 / 14), rhs


# ---------------------------------------------------------------------------
# Lemma 2 family


def _theta_of_a(a: float) -> float:
    return math.acos((1.0 - a * a) / (1.0 + a * a))


def _chk_l2a() -> tuple[float, float]:
    def pair(a: float) -> tuple[float, float]:
        q = integrate(
            QuadProblem(
                lambda u: math.log((u + a) / (u - a)) / (1.0 + u * u),
                a,
                math.inf,
                (a,),
                1e-11,
            )
        )
        return q.value, cl2(_theta_of_a(a)).value

    return _worst(pair(a) for a in (0.5, 1.0, math.sqrt(3.0), SQRT7, 3.0))


_L2B_POINTS = (1.5, 2.0, 3.0)


def _chk_l2b1() -> tuple[float, float]:
    def pair(a: float) -> tuple[float, float]:
        s = alternating_sum(
            lambda k: harmonic(k + 1) / (a ** (2 * (k + 1)) * (2 * k + 3)),
            tol=1e-13,
        ).value
        return 2.0 * math.atan(1.0 / a) * LN2 - s / a, cl2(_theta_of_a(a)).value

    return _worst(pair(a) for a in _L2B_POINTS)


def _chk_l2b2() -> tuple[float, float]:
    def pair(a: float) -> tuple[float, float]:
        s = alternating_sum(
            lambda k: digamma(k + 1.0).value / (a ** (2 * (k + 1)) * (2 * k + 3)),
            tol=1e-13,
        ).value
        cot = math.atan(1.0 / a)
        lhs = (
            cot * (2.0 * LN2 + GAMMA - 2.0)
            + (2.0 - GAMMA) / a
            - math.log(1.0 + 1.0 / (a * a)) / a
            - s / a
        )
        return lhs, cl2(_theta_of_a(a)).value

    return _worst(pair(a) for a in _L2B_POINTS)


def _chk_l2c() -> tuple[float, float]:
    a = 2.0
    cot = math.atan(1.0 / a)
    q = integrate(
        QuadProblem(
            lambda y: (y * math.atan(1.0 / (a * y)) - cot) / ((1.0 - y * y) * y),
            1.0,
            math.inf,
            (1.0,),
            1e-11,
        )
    )
    # prefactor 2, not the printed 2a: the representation follows from the
    # harmonic-number series via H_j = int_0^1 (1-u^j)/(1-u) du with
    # u = 1/y^2, which carries no stray factor of a
    lhs = 2.0 * cot * LN2 + 2.0 * q.value
    return lhs, cl2(_theta_of_a(a)).value


# ---------------------------------------------------------------------------
# Catalan checks


def _mk_catalan(method: str) -> Callable[[], tuple[float, float]]:
    def run() -> tuple[float, float]:
        return catalan_value(method), CATALAN

    return run


def _chk_cat_2_32() -> tuple[float, float]:
    # corrected display: no cot^-1(a) ln(a) term, and the integral carries a
    # factor a.  Derivation: expand 2 acoth(u/a) under Eq. (1.8) by the
    # rational integral representation and do the u integral exactly
    def pair(a: float) -> tuple[float, float]:
        q = integrate(
            QuadProblem(
                lambda t: math.log(1.0 - t * t) / (1.0 + a * a * t * t),
                0.0,
                1.0,
                (1.0,),
                1e-11,
            )
        )
        lhs = (math.log(a * a + 1.0) - 2.0 * math.log(a)) * math.atan(a) - a * q.value
        return lhs, cl2(_theta_of_a(a)).value

    return _worst(pair(a) for a in (0.7, 1.0, 2.0))


def _chk_cat_2_34() -> tuple[float, float]:
    # same correction as the integral form, expanded as a geometric series:
    # the sum enters with weight a^(2j+1) and a plus sign
    a = 0.5
    s = alternating_sum(
        lambda k: a ** (2 * k + 1) * (digamma(k + 1.5).value + GAMMA) / (2 * k + 1),
        tol=1e-13,
    ).value
    lhs = (math.log(a * a + 1.0) - 2.0 * math.log(a)) * math.atan(a) + s
    return lhs, cl2(_theta_of_a(a)).value


def _chk_eq2_30() -> tuple[float, float]:
    total = 0.0
    term = 1.0 / math.gamma(1.5)
    j = 0
    while term > 1e-18 and j < 400:
        total += term
        j += 1
        term = math.factorial(j) / (2.0**j * math.gamma(j + 1.5))
    return total, math.sqrt(PI)


def _chk_cat_2_28b() -> tuple[float, float]:
    total = 0.0
    w = 1.0 / math.gamma(1.5)  # j!/(2^j Gamma(j+3/2)), by recurrence
    for j in range(0, 200):
        total += w * (digamma(j + 1.5).value - digamma(j + 1.0).value)
        if w < 1e-18:
            break
        w *= (j + 1.0) / (2.0 * (j + 1.5))
    return PI / 4.0 * LN2 + math.sqrt(PI) / 4.0 * total, CATALAN


# ---------------------------------------------------------------------------
# sine / cosecant suite

_S5 = math.sqrt(5.0)
_S6 = math.sqrt(6.0)
_S11H = math.sqrt(11.0) / 2.0
_S15H = math.sqrt(15.0) / 2.0
_PP = math.sqrt(5.0 + 2.0 * _S5)
_PM = math.sqrt(5.0 - 2.0 * _S5)
_BP = math.sqrt(10.0 + math.sqrt(2.0)) / 2.0
_BM = math.sqrt(10.0 - math.sqrt(2.0)) / 2.0
_ISQ2 = 1.0 / math.sqrt(2.0)

# frozen numeric sign assignments for the set-membership identities; the
# source displays give only the value sets, so the per-x choice was resolved
# once at high precision and is asserted exactly
_SINE_TABLES: dict[str, tuple[tuple[tuple[int, ...], int], list[float]]] = {
    # angles given as (multiplier, denominator, sign) triples applied to x*pi
    "sine7": (((2, 1), (4, 1), (6, -1)), 7),
    "sine10": (((1, 1), (3, 1), (7, 1), (9, 1)), 10),
    "sine12": (((1, 1), (5, 1), (7, 1), (11, 1)), 12),
    "sine11": (((2, 1), (4, -1), (6, 1), (8, 1), (10, 1)), 11),
    "sine15": (((2, 1), (4, 1), (8, 1), (14, -1)), 15),
    "sine5a": (((1, 1), (2, 1), (3, 1), (4, 1)), 5),
    "sine5b": (((1, 1), (2, -1), (3, -1), (4, 1)), 5),
    "sine8a": (((1, 1), (3, 1), (7, 1)), 8),
    "sine8b": (((1, 1), (5, 1), (7, 1)), 8),
}

_SINE_VALUES: dict[str, list[float]] = {
    "sine7": [SQRT7 / 2.0] * 2 + [-SQRT7 / 2.0, SQRT7 / 2.0] + [-SQRT7 / 2.0] * 2,
    "sine10": [
        _S5, 0.0, _S5, 0.0, 0.0, 0.0, _S5, 0.0, _S5, 0.0,
        -_S5, 0.0, -_S5, 0.0, 0.0, 0.0, -_S5, 0.0, -_S5, 0.0,
    ],
    "sine12": [
        _S6, 0.0, 0.0, 0.0, _S6, 0.0, _S6, 0.0, 0.0, 0.0, _S6, 0.0,
        -_S6, 0.0, 0.0, 0.0, -_S6, 0.0, -_S6, 0.0, 0.0, 0.0, -_S6, 0.0,
    ],
    "sine11": [
        _S11H, -_S11H, _S11H, _S11H, _S11H, -_S11H, -_S11H, -_S11H, _S11H, -_S11H, 0.0,
        _S11H, -_S11H, _S11H, _S11H, _S11H, -_S11H, -_S11H, -_S11H, _S11H, -_S11H, 0.0,
    ],
    "sine15": [
        _S15H, _S15H, 0.0, _S15H, 0.0, 0.0, -_S15H, _S15H,
        0.0, 0.0, -_S15H, 0.0, -_S15H, -_S15H, 0.0,
    ],
    "sine5a": [_PP, 0.0, _PM, 0.0, 0.0, 0.0, -_PM, 0.0, -_PP, 0.0],
    "sine5b": [-_PM, 0.0, _PP, 0.0, 0.0, 0.0, -_PP, 0.0, _PM, 0.0],
    "sine8a": [
        _BP, _ISQ2, _BM, -1.0, _BM, _ISQ2, _BP, 0.0,
        -_BP, -_ISQ2, -_BM, 1.0, -_BM, -_ISQ2, -_BP, 0.0,
    ],
    "sine8b": [
        _BP, -_ISQ2, _BM, 1.0, _BM, -_ISQ2, _BP, 0.0,
        -_BP, _ISQ2, -_BM, -1.0, -_BM, _ISQ2, -_BP, 0.0,
    ],
}


def _mk_sine(check_id: str) -> Callable[[], tuple[float, float]]:
    (terms, den) = _SINE_TABLES[check_id]
    expected = _SINE_VALUES[check_id]

    def run() -> tuple[float, float]:
        return _worst(
            (math.fsum(sg * math.sin(m * x * PI / den) for m, sg in terms), want)
            for x, want in enumerate(expected, start=1)
        )

    return run


def _chk_cheb7() -> tuple[float, float]:
    s2, s4, s6 = (math.sin(k * PI / 7.0) for k in (2, 4, 6))

    def p1(x: float) -> float:
        return (x - s2) * (x - s4) * (x + s6)

    def p1c(x: float) -> float:
        return x**3 - SQRT7 / 2.0 * x**2 + SQRT7 / 8.0

    def p2(x: float) -> float:
        return (x - s6) * (x + s2) * (x + s4)

    def p2c(x: float) -> float:
        return x**3 + SQRT7 / 2.0 * x**2 - SQRT7 / 8.0

    def t7_over(x: float) -> float:
        return (64.0 * x**7 - 112.0 * x**5 + 56.0 * x**3 - 7.0 * x) / (64.0 * x)

    xs = [-0.9 + 0.2 * i for i in range(10)]
    return _worst(
        pair
        for x in xs
        for pair in ((p1(x), p1c(x)), (p2(x), p2c(x)), (p1(x) * p2(x), t7_over(x)))
    )


def _csc_sum(n: int) -> float:
    return math.fsum(_csc2(j * PI / n) for j in range(1, (n - 1) // 2 + 1))


def _chk_csc7() -> tuple[float, float]:
    return _csc_sum(7), 8.0


def _chk_csc14() -> tuple[float, float]:
    return _csc_sum(14), 32.0


def _chk_cscN() -> tuple[float, float]:
    return _worst(
        (_csc_sum(n), (n * n - 1) / 6.0 - (1.0 + (-1.0) ** n) / 4.0) for n in range(3, 21)
    )


# ---------------------------------------------------------------------------
# misc identities


def _chk_refl() -> tuple[float, float]:
    xs = [i / 10.0 for i in range(1, 10)]
    return _worst((_tri(1.0 - x), -_tri(x) + PI * PI * _csc2(PI * x)) for x in xs)


def _chk_dup() -> tuple[float, float]:
    xs = [i / 10.0 for i in range(1, 31)]
    return _worst(
        ((2.0 * _tri(2.0 * x), 0.5 * (_tri(x) + _tri(x + 0.5))) for x in xs), rel=True
    )


def _chk_mult() -> tuple[float, float]:
    def pair(m: int) -> tuple[float, float]:
        x = 1.0 / m
        return _tri(m * x), math.fsum(_tri(x + k / m) for k in range(m)) / (m * m)

    return _worst((pair(m) for m in range(2, 8)), rel=True)


def _chk_zeta2() -> tuple[float, float]:
    rhs = math.fsum(_tri((k + 1) / 7.0) for k in range(7)) / 49.0
    return PI * PI / 6.0, rhs


def _chk_eq1_12b() -> tuple[float, float]:
    c = integrals.CONSTANTS
    w_def = math.atan(
        c.r73 * math.sin(c.theta_plus.raw) / (1.0 - c.r73 * math.cos(c.theta_plus.raw))
    )
    candidates = [
        abs(w_def - c.omega_plus.raw),
        abs(c.omega_plus.raw - (math.atan(SQRT7) - 2.0 * PI / 3.0)),
        # printed with (2 sqrt3 - sqrt7)/5; the reciprocal-rationalized value
        # of cot^-1(2 sqrt3 - sqrt7) is atan((2 sqrt3 + sqrt7)/5)
        abs(c.omega_minus.raw - math.atan((2.0 * math.sqrt(3.0) + SQRT7) / 5.0)),
        abs(2.0 * c.omega_plus.raw - (c.theta7.raw - 4.0 * PI / 3.0)),
    ]
    return max(candidates), 0.0


def _chk_eq4_1() -> tuple[float, float]:
    c = integrals.CONSTANTS
    tp = c.theta_plus.raw
    t7 = c.theta7.raw
    lhs = (
        2.0 * cl2(2.0 * tp).value
        - 3.0 * cl2(2.0 * tp - t7).value
        - cl2(3.0 * t7 - 2.0 * tp).value
        + 6.0 * cl2(PI + t7).value
    )
    return lhs, 0.0


def _chk_eq4_3() -> tuple[float, float]:
    chi = dirichlet.CHI7

    def sides(q: int) -> tuple[float, float]:
        lhs = (
            clausen_sin(q, 2.0 * PI / 7.0).value
            + clausen_sin(q, 4.0 * PI / 7.0).value
            - clausen_sin(q, 6.0 * PI / 7.0).value
        )
        rhs = (
            SQRT7
            / 2.0
            / 7.0**q
            * math.fsum(
                chi[p] * hurwitz_zeta(float(q), p / 7.0, tol=1e-11).value
                for p in range(1, 7)
            )
        )
        return lhs, rhs

    lhs2, rhs2 = sides(2)
    alt = SQRT7 / 2.0 * dirichlet.l7_trigamma().value
    return _worst([(lhs2, rhs2), (lhs2, alt), sides(3), sides(4)])


def _chk_conj_l7() -> tuple[float, float]:
    return integrals.integral_I7(1e-10).value, dirichlet.l7_series().value


# ---------------------------------------------------------------------------
# Lemma 4 / BBP family


def _chk_l4a() -> tuple[float, float]:
    return _bbp.closed_form_value(_bbp.REGISTRY["eq2.35-sum"]).value, cl2(PI / 2.0).value


def _re_li3_closed() -> float:
    return LN2**3 / 48.0 - 5.0 / 192.0 * PI * PI * LN2 + 35.0 / 64.0 * ZETA3


def _chk_l4b() -> tuple[float, float]:
    from .polylog import polylog_complex

    return polylog_complex(3, complex(0.5, 0.5), tol=1e-13).value.real, _re_li3_closed()


def _chk_l4c() -> tuple[float, float]:
    lhs = 8.0 * _bbp.eval_bbp_sum(_bbp.REGISTRY["eq2.37-sum"]).value
    rhs = (
        -PI * PI / 2.0 * LN2
        + 14.0 * ZETA3
        + 32.0 * _bbp.constant_value("im-li3-half-plus-half-i")
    )
    return lhs, rhs


def _den_2_38(y: float) -> float:
    return y**4 - 2.0 * y**3 + 4.0 * y - 4.0


def _chk_eq2_38() -> tuple[float, float]:
    q = integrate(
        QuadProblem(
            lambda y: (y - 1.0) * math.log(y / math.sqrt(2.0)) / _den_2_38(y),
            0.0,
            1.0,
            (0.0,),
            1e-11,
        )
    )
    return -4.0 * q.value, CATALAN + PI * PI / 32.0


def _residue_sum(k: int, s: int) -> float:
    return math.fsum(1.0 / (16.0**j * (8 * j + k) ** s) for j in range(0, 30))


def _chk_eq2_39() -> tuple[float, float]:
    def pair(k: int) -> tuple[float, float]:
        lhs = _residue_sum(k, 2) + LN2 / 2.0 * _residue_sum(k, 1)
        q = integrate(
            QuadProblem(
                lambda x: x ** (k - 1) * math.log(x) / (1.0 - x**8),
                0.0,
                1.0 / math.sqrt(2.0),
                (0.0,),
                1e-11,
            )
        )
        return lhs, -(2.0 ** (k / 2.0)) * q.value

    return _worst(pair(k) for k in (1, 4, 5, 6))


def _chk_eq2_40() -> tuple[float, float]:
    def pair(k: int) -> tuple[float, float]:
        q = integrate(
            QuadProblem(
                lambda x: x ** (k - 1) * math.log(x) ** 2 / (1.0 - x**8),
                0.0,
                1.0 / math.sqrt(2.0),
                (0.0,),
                1e-11,
            )
        )
        rhs = 0.25 * (
            LN2 * LN2 * _residue_sum(k, 1)
            + 4.0 * LN2 * _residue_sum(k, 2)
            + 8.0 * _residue_sum(k, 3)
        )
        return 2.0 ** (k / 2.0) * q.value, rhs

    return _worst(pair(k) for k in (1, 4, 5, 6))


def _chk_eq2_41() -> tuple[float, float]:
    s1 = _bbp.eval_bbp_sum(_bbp.REGISTRY["pi-degree1"]).value
    s2 = _bbp.eval_bbp_sum(_bbp.REGISTRY["eq2.35-sum"]).value
    s3 = _bbp.eval_bbp_sum(_bbp.REGISTRY["eq2.37-sum"]).value
    lhs = 8.0 * s3 + 4.0 * LN2 * s2 + LN2 * LN2 * s1
    im_li3 = _bbp.constant_value("im-li3-half-plus-half-i")
    re_rhs = 16.0 * CATALAN * LN2 - PI * LN2 * LN2 + 32.0 * im_li3 + 14.0 * ZETA3
    im_rhs = (
        2.0 / 3.0 * LN2**3
        - 5.0 / 6.0 * PI * PI * LN2
        - 32.0 * _re_li3_closed()
        + 14.0 * 1.25 * ZETA3
    )
    q = integrate(
        QuadProblem(
            lambda y: (y - 1.0) * math.log(y / math.sqrt(2.0)) ** 2 / _den_2_38(y),
            0.0,
            1.0,
            (0.0,),
            1e-11,
        )
    )
    return _worst([(lhs, re_rhs), (im_rhs, 0.0), (lhs, 64.0 * q.value)])


def _chk_li3_binom() -> tuple[float, float]:
    from .polylog import polylog_complex

    re_sum, im_sum = _bbp.li3_binomial_sums(tol=1e-12)
    li = polylog_complex(3, complex(0.5, 0.5), tol=1e-13).value
    return _worst([(re_sum.value, _re_li3_closed()), (im_sum.value, li.imag)])


# ---------------------------------------------------------------------------
# Proposition 1 / 2 chains


def _chk_p1() -> tuple[float, float]:
    return integrals.integral_I7(1e-10).value, integrals.i7_closed_form().value


def _chk_p1_3_3() -> tuple[float, float]:
    return integrals.integral_In_vform(1, 1e-10).value, integrals.integral_In(1, 1e-10).value


def _chk_p1_3_9() -> tuple[float, float]:
    i1, _ = integrals.integral_I1_split(1e-10)
    return integrals.i1_series_truncated(1, 60), i1.value


def _chk_p1_3_10() -> tuple[float, float]:
    i1, _ = integrals.integral_I1_split(1e-10)
    return integrals.i1_polylog_form(1).value, i1.value


def _chk_p1_3_11() -> tuple[float, float]:
    import cmath

    c = integrals.CONSTANTS
    val = cmath.log((1.0 - c.v_minus * c.r73) / (1.0 - c.v_plus * c.r73))
    return abs(val - 2.0j * c.omega_plus.raw), 0.0


def _p2_grid() -> list[tuple[float, float]]:
    a_vals = (0.1, 0.6, 1.2, 2.0, 3.0)
    b_vals = (-0.9, -0.3, 0.4, 0.9)
    return [(a, b) for a in a_vals for b in b_vals]


def _chk_p2() -> tuple[float, float]:
    def pairs(a: float, b: float) -> tuple[tuple[float, float], ...]:
        q = integrals.integral_I_ab(a, b, 1e-10).value
        f1 = integrals.i_ab_closed_omega(a, b).value
        f2 = integrals.i_ab_closed_theta12(a, b).value
        return (q, f1), (q, f2), (f1, f2)

    return _worst(pair for a, b in _p2_grid() for pair in pairs(a, b))


def _chk_c2() -> tuple[float, float]:
    def pair(a: float, b: float) -> tuple[float, float]:
        scale = 2.0 * math.sqrt(1.0 - b * b)
        return (
            integrals.i_ab_closed_omega(a, b).value * scale,
            integrals.i_ab_closed_theta12(a, b).value * scale,
        )

    return _worst(pair(a, b) for a, b in _p2_grid())


def _chk_c3() -> tuple[float, float]:
    def pair(c: float, t: float) -> tuple[float, float]:
        lhs, rhs = integrals.corollary3(c, t, 1e-10)
        return lhs.value, rhs

    points = ((1.0, PI / 3.0), (2.0, PI / 2.0), (math.e, 0.1), (0.5, 2.5))
    return _worst(pair(c, t) for c, t in points)


# ---------------------------------------------------------------------------
# registry assembly

_CLOSED = 1e-12
_QUAD = 1e-10
_CHAIN = 1e-9


def _build_registry() -> dict[str, _CheckDef]:
    defs = [
        _CheckDef("L1a", "lemma1", "Eq. (1.2) vs (1.3a)", _CLOSED, _chk_l1a),
        _CheckDef("L1b", "lemma1", "Eq. (1.3b)", _CLOSED, _chk_l1b),
        _CheckDef("L1c", "lemma1", "Eq. (1.3c)", _CLOSED, _chk_l1c),
        _CheckDef("L1d", "lemma1", "Eq. (1.4)", _CLOSED, _chk_l1d),
        _CheckDef("L1e-1", "lemma1", "Eq. (1.5) first integral", _QUAD, _chk_l1e1),
        _CheckDef("L1e-2", "lemma1", "Eq. (1.5) second integral", _QUAD, _chk_l1e2),
        _CheckDef(
            "L1e-3", "lemma1", "Eq. (1.5) third integral, corrected", _QUAD, _chk_l1e3
        ),
        _CheckDef("L1f", "lemma1", "Eq. (1.6), corrected display", 1e-10, _chk_l1f),
        _CheckDef("eq2.6", "lemma1", "Eq. (2.6)", _CLOSED, _chk_eq2_6),
        _CheckDef("eq2.10a", "lemma1", "Eq. (2.10a)", 1e-10, _chk_eq2_10a),
        _CheckDef("eq2.10b", "lemma1", "Eq. (2.10b)", 1e-10, _chk_eq2_10b),
        _CheckDef("eq2.10c", "lemma1", "Eq. (2.10c)", 1e-10, _chk_eq2_10c),
        _CheckDef("L2a", "lemma2", "Eq. (1.8)", _QUAD, _chk_l2a),
        _CheckDef("L2b-1", "lemma2", "Eq. (1.9a)", 1e-10, _chk_l2b1),
        _CheckDef("L2b-2", "lemma2", "Eq. (1.9b)", 1e-10, _chk_l2b2),
        _CheckDef("L2c", "lemma2", "Eq. (1.10), corrected prefactor", _QUAD, _chk_l2c),
        _CheckDef(
            "cat-2.28a", "lemma3", "Eq. (2.28a), corrected", _QUAD, _mk_catalan("eq2.28a")
        ),
        _CheckDef("cat-2.28b", "lemma3", "Eq. (2.28b)", 1e-10, _chk_cat_2_28b),
        _CheckDef("cat-2.28c", "lemma3", "Eq. (2.28c)", _QUAD, _mk_catalan("eq2.28c")),
        _CheckDef("C1", "catalan", "Eq. (1.11)", 1e-10, _mk_catalan("eq1.11")),
        _CheckDef("cat-2.22", "catalan", "Eq. (2.22)", _QUAD, _mk_catalan("eq2.22")),
        _CheckDef("cat-2.25", "catalan", "Eq. (2.25)", 1e-10, _mk_catalan("eq2.25")),
        _CheckDef("cat-2.27", "catalan", "Eq. (2.27)", _QUAD, _mk_catalan("eq2.27")),
        _CheckDef("cat-2.32", "catalan", "Eq. (2.32), corrected", _QUAD, _chk_cat_2_32),
        _CheckDef("cat-2.33", "catalan", "Eq. (2.33)", _QUAD, _mk_catalan("eq2.33")),
        _CheckDef("cat-2.34", "catalan", "Eq. (2.34), corrected", 1e-10, _chk_cat_2_34),
        _CheckDef("eq2.30", "catalan", "Eq. (2.30)", _CLOSED, _chk_eq2_30),
        _CheckDef("sine7", "sine", "Eq. (2.7)", _CLOSED, _mk_sine("sine7")),
        _CheckDef("cheb7", "sine", "Eqs. (2.8a)-(2.8b)", 1e-13, _chk_cheb7),
        _CheckDef("csc7", "sine", "Eq. (2.3)", _CLOSED, _chk_csc7),
        _CheckDef("csc14", "sine", "Eq. (2.11)", _CLOSED, _chk_csc14),
        _CheckDef("cscN", "sine", "csc^2 sum, n = 3..20", _CLOSED, _chk_cscN),
        _CheckDef("sine10", "sine", "Eq. (2.44)", _CLOSED, _mk_sine("sine10")),
        _CheckDef("sine12", "sine", "Eq. (2.45)", _CLOSED, _mk_sine("sine12")),
        _CheckDef("sine11", "sine", "Eq. (2.46)", _CLOSED, _mk_sine("sine11")),
        _CheckDef("sine15", "sine", "Eq. (2.47), corrected sign", _CLOSED, _mk_sine("sine15")),
        _CheckDef("sine5a", "sine", "Eq. (2.48)", _CLOSED, _mk_sine("sine5a")),
        _CheckDef("sine5b", "sine", "Eq. (2.49)", _CLOSED, _mk_sine("sine5b")),
        _CheckDef("sine8a", "sine", "Eq. (2.50), extended set", _CLOSED, _mk_sine("sine8a")),
        _CheckDef("sine8b", "sine", "Eq. (2.51), extended set", _CLOSED, _mk_sine("sine8b")),
        _CheckDef("refl", "misc", "Eq. (2.2)", 1e-10, _chk_refl),
        _CheckDef("dup", "misc", "Eq. (2.9)", 1e-10, _chk_dup),
        _CheckDef("mult", "misc", "Eq. (2.12)", 1e-10, _chk_mult),
        _CheckDef("zeta2", "misc", "Eq. (2.13)", _CLOSED, _chk_zeta2),
        _CheckDef("eq1.12b", "misc", "Eq. (1.12b), corrected", 1e-14, _chk_eq1_12b),
        _CheckDef("eq4.1", "misc", "Eq. (4.1)", _CLOSED, _chk_eq4_1),
        _CheckDef("eq4.3", "misc", "Eq. (4.3), q = 2, 3, 4", 1e-10, _chk_eq4_3),
        _CheckDef("conj-L7", "misc", "Eq. (1.2), conjectural", _CHAIN, _chk_conj_l7, True),
        _CheckDef("L4a", "lemma4", "Eq. (2.35)", _CLOSED, _chk_l4a),
        _CheckDef("L4b", "lemma4", "Eq. (2.36)", _CLOSED, _chk_l4b),
        _CheckDef("L4c", "lemma4", "Eq. (2.37)", 1e-10, _chk_l4c),
        _CheckDef("eq2.38", "lemma4", "Eq. (2.38)", _QUAD, _chk_eq2_38),
        _CheckDef("eq2.39", "lemma4", "Eq. (2.39)", _QUAD, _chk_eq2_39),
        _CheckDef("eq2.40", "lemma4", "Eq. (2.40)", _QUAD, _chk_eq2_40),
        _CheckDef("eq2.41", "lemma4", "Eq. (2.41)", _CHAIN, _chk_eq2_41),
        _CheckDef("li3-binom", "lemma4", "binomial double sums", _CLOSED, _chk_li3_binom),
        _CheckDef("P1", "prop1", "Eq. (1.13)", _CHAIN, _chk_p1),
        _CheckDef("P1-3.3", "prop1", "Eq. (3.3)", _CHAIN, _chk_p1_3_3),
        _CheckDef("P1-3.9trunc", "prop1", "Eq. (3.9), L = 60", 1e-8, _chk_p1_3_9),
        _CheckDef("P1-3.10", "prop1", "Eq. (3.10)", _CHAIN, _chk_p1_3_10),
        _CheckDef("P1-3.11", "prop1", "Eq. (3.11)", _CLOSED, _chk_p1_3_11),
        _CheckDef("P2", "prop2", "Eqs. (4.6)-(4.7)", _CHAIN, _chk_p2),
        _CheckDef("C2", "prop2", "Eq. (4.10)", _CHAIN, _chk_c2),
        _CheckDef("C3", "prop2", "Eq. (4.11)", _QUAD, _chk_c3),
    ]
    return {d.id: d for d in defs}


_REGISTRY = _build_registry()


def check_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str, tol_override: float | None = None) -> CheckRecord:
    """Execute one ledger check and report its record."""
    if check_id not in _REGISTRY:
        raise UnknownCheckError(check_id)
    d = _REGISTRY[check_id]
    tol = d.tol if tol_override is None else tol_override
    start = time.perf_counter()
    try:
        lhs, rhs = d.func()
    except Exception as exc:
        elapsed = int((time.perf_counter() - start) * 1000.0)
        return CheckRecord(
            d.id, d.paper_ref, math.nan, math.nan, math.inf, tol, "error", elapsed,
            note=f"{type(exc).__name__}: {exc}",
        )
    elapsed = int((time.perf_counter() - start) * 1000.0)
    residual = abs(lhs - rhs)
    if d.conjecture:
        status = "supports-conjecture" if residual <= tol else "error"
    else:
        status = "pass" if residual <= tol else "fail"
    return CheckRecord(d.id, d.paper_ref, lhs, rhs, residual, tol, status, elapsed)


def run_all(
    tag: str | None = None, tol_scale: float | None = None
) -> list[CheckRecord]:
    """Run every ledger check, optionally filtered by tag, sorted by id."""
    if tag is not None and tag not in TAGS:
        raise DomainError(f"unknown tag {tag!r}; valid tags: {', '.join(TAGS)}")
    scale = 1.0 if tol_scale is None else float(tol_scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError("tol_scale must be finite and positive")
    out = []
    for cid in check_ids():
        d = _REGISTRY[cid]
        if tag is not None and d.tag != tag:
            continue
        out.append(run_check(cid, tol_override=d.tol * scale))
    return out


def aggregate_pass(records: list[CheckRecord]) -> bool:
    """True iff every non-conjecture record passes (conjectures are ignored
    unless they errored)."""
    for r in records:
        if r.status in ("fail", "error"):
            return False
    return True


__all__ = [
    "CheckRecord",
    "TAGS",
    "CATALAN_METHODS",
    "catalan_value",
    "check_ids",
    "run_check",
    "run_all",
    "aggregate_pass",
]
