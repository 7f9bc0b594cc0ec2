"""The identity ledger: one executable numerical check per source identity.

Each check computes a left and right side by independent code paths and
records the residual against a pinned tolerance.  Check ids and tags are a
stable public contract; ``paper_ref`` carries the equation anchor of the
source article so a failure can be traced to one displayed identity.

Each check is a row of data: a pair function that gives (lhs, rhs) at one
point and the fixed grid of points it runs on.  So a family of identities
(Lemma 2 in a, Proposition 2 in (a, b)) is one row, whose record is its worst
pair, and a single identity's grid is the one point ().

Conjectural identities are quarantined: they can only report
``supports-conjecture`` or ``error``, and the aggregate verdict ignores them.

A value that two checks use, or that one check's series terms repeat, is
computed once per ledger run, that is per ``run_all`` or per lone
``run_check``: ``_shared`` keeps it for the rest of the run and the run
empties it when it ends.  So a lone check computes its own shared sides, a
record's ``elapsed_ms`` includes any shared side that its check computed
first, and no value outlives the run that computed it.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import bbp as _bbp
from . import dirichlet, integrals
from .accel import alternating_sum
from .constants import CATALAN, GAMMA, LN2, PI, SQRT7, ZETA3
from .dirichlet import catalan_value
from .errors import DomainError, UnknownCheckError, check_tol
from .names import CATALAN_METHODS, TAGS
from .quad import QuadProblem, integrate
from .result import PolarPoint, RationalAngle
from .specfun import (
    cl2,
    cl2_rational,
    clausen_sin,
    digamma,
    harmonic,
    hurwitz_zeta,
    im_li2_polar,
    trigamma,
)


_RECORD_FIELDS = "id paper_ref lhs rhs residual tol status elapsed_ms note"


class CheckRecord(namedtuple("CheckRecord", _RECORD_FIELDS, defaults=("",))):
    """Outcome of one ledger check; ``status`` is pass, fail, supports-conjecture
    or error.  A named tuple, as ``BBPFormula`` is: immutable, equal and hashed
    by value, and ``_asdict`` gives the JSON report's record."""

    __slots__ = ()


def _csc2(x: float) -> float:
    return 1.0 / math.sin(x) ** 2


# The memo of one ledger run: (kernel, args) -> kernel(*args).  The kernel is
# the one named at the call site when the run reads it, so a kernel rebound
# between runs is the one the next run calls.  Keys compare by ==, so each
# kernel takes its arguments in one type (1 and 1.0 share an entry).  A lone
# run_check empties it when its check ends; inside run_all (_in_run_all) the
# checks share it, and run_all empties it when it ends.
_memo: dict = {}
_in_run_all = False


def _shared(f, *args):
    """f(*args), computed once per ledger run."""
    key = (f, args)
    try:
        return _memo[key]
    except KeyError:
        v = _memo[key] = f(*args)
        return v


def _tri(x: float) -> float:
    return _shared(trigamma, x).value


def _quad(f: Callable[[float], float], a: float, b: float, *singular: float) -> float:
    """The integral of f over [a, b], with its singular points, to 1e-11."""
    return integrate(QuadProblem(f, a, b, singular, 1e-11)).value


def _worst(pairs: Iterable[tuple[float, float]], rel: bool = False) -> tuple[float, float]:
    """The (lhs, rhs) pair with the largest |lhs - rhs|, relative to |rhs| when
    ``rel`` is set.  The first pair wins a tie; the first NaN difference wins
    outright and is kept, so the check reports it instead of skipping it.  No
    pair at all raises, so a check with an empty grid errors, not passes."""
    worst, worst_d = None, -1.0
    for lhs, rhs in pairs:
        d = abs(lhs - rhs)
        if rel:
            d /= abs(rhs)
        if d > worst_d or (math.isnan(d) and not math.isnan(worst_d)):
            worst, worst_d = (lhs, rhs), d
    if worst is None:
        raise ValueError("no (lhs, rhs) pair to compare")
    return worst


# ---------------------------------------------------------------------------
# Lemma 1 family


def _l7() -> float:
    return _shared(dirichlet.l7_trigamma).value


def _tri_sum(den: int, signed: tuple[int, ...]) -> float:
    """sum of sign(p) trigamma(|p| / den) over ``signed``, added left to right."""
    acc = 0.0
    for p in signed:
        t = _tri(abs(p) / den)
        acc = acc + t if p > 0 else acc - t
    return acc


# signed arguments for _tri_sum: psi'(1/7) + psi'(2/7) - psi'(3/7), and Eq. (2.6)'s twelve
_TRI7 = (1, 2, -3)
_TRI14 = (1, 2, -3, 4, -5, -6, 8, 9, -10, 11, -12, -13)


def _chk_l1b() -> tuple[float, float]:
    csc = _csc2(PI / 7.0) + _csc2(2.0 * PI / 7.0) - _csc2(3.0 * PI / 7.0)
    return _l7(), (2.0 * _tri_sum(7, _TRI7) - PI * PI * csc) / 49.0


def _poly7(u: float, coeffs: tuple[float, ...]) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


_ONES7 = (1, 1, 1, 1, 1, 1, 1)  # 1 + u + ... + u^6


def _l1e(ratio: Callable[[float], float], *singular: float) -> float:
    """The integral of ratio(u) ln(u) over [0, 1]."""
    return _quad(lambda u: ratio(u) * math.log(u), 0.0, 1.0, 0.0, *singular)


def _cl2_combo7() -> float:
    c2, c4, c6 = (_shared(cl2_rational, RationalAngle(k, 7)).value for k in (2, 4, 6))
    return c2 + c4 - c6


def _chk_l1f() -> tuple[float, float]:
    # the printed display has a typographical corruption in the csc^2 group;
    # this is the numerically exact resolution (see repository notes)
    lhs = 56.0 * SQRT7 * _cl2_combo7()
    rhs = 8.0 * _tri_sum(7, _TRI7) + PI * PI * (
        _csc2(PI / 7.0)
        - 7.0 * _csc2(2.0 * PI / 7.0)
        - _csc2(3.0 * PI / 7.0)
        + _csc2(3.0 * PI / 14.0)
        + _csc2(5.0 * PI / 14.0)
        - _csc2(PI / 14.0)
    )
    return lhs, rhs


def _chk_eq2_10c() -> tuple[float, float]:
    rhs = -4.0 * _tri(2 / 7) + _tri(1 / 7) - PI * PI * _csc2(PI / 7.0)
    return _tri(5 / 14), rhs + 4.0 * PI * PI * _csc2(2.0 * PI / 7.0)


# ---------------------------------------------------------------------------
# Lemma 2 family


def _cl2_of_a(a: float) -> float:
    """Cl_2(theta(a)), theta(a) = acos((1 - a^2)/(1 + a^2)): the right side of
    the Lemma 2 and Catalan representations."""
    return _shared(cl2, math.acos((1.0 - a * a) / (1.0 + a * a))).value


def _chk_l2a(a: float) -> tuple[float, float]:
    q = _quad(lambda u: math.log((u + a) / (u - a)) / (1.0 + u * u), a, math.inf, a)
    return q, _cl2_of_a(a)


def _chk_l2b1(a: float) -> tuple[float, float]:
    s = alternating_sum(
        lambda k: _shared(harmonic, k + 1) / (a ** (2 * (k + 1)) * (2 * k + 3)),
        tol=1e-13,
    ).value
    return 2.0 * math.atan(1.0 / a) * LN2 - s / a, _cl2_of_a(a)


def _chk_l2b2(a: float) -> tuple[float, float]:
    s = alternating_sum(
        lambda k: _shared(digamma, k + 1.0).value / (a ** (2 * (k + 1)) * (2 * k + 3)),
        tol=1e-13,
    ).value
    cot = math.atan(1.0 / a)
    lhs = (
        cot * (2.0 * LN2 + GAMMA - 2.0)
        + (2.0 - GAMMA) / a
        - math.log(1.0 + 1.0 / (a * a)) / a
        - s / a
    )
    return lhs, _cl2_of_a(a)


def _chk_l2c() -> tuple[float, float]:
    a = 2.0
    cot = math.atan(1.0 / a)
    q = _quad(
        lambda y: (y * math.atan(1.0 / (a * y)) - cot) / ((1.0 - y * y) * y), 1.0, math.inf, 1.0
    )
    # prefactor 2, not the printed 2a: the representation follows from the
    # harmonic-number series via H_j = int_0^1 (1-u^j)/(1-u) du with
    # u = 1/y^2, which carries no stray factor of a
    return 2.0 * cot * LN2 + 2.0 * q, _cl2_of_a(a)


# ---------------------------------------------------------------------------
# Catalan checks


def _chk_cat_2_32(a: float) -> tuple[float, float]:
    # corrected display: no cot^-1(a) ln(a) term, and the integral carries a
    # factor a.  Derivation: expand 2 acoth(u/a) under Eq. (1.8) by the
    # rational integral representation and do the u integral exactly
    q = _quad(lambda t: math.log(1.0 - t * t) / (1.0 + a * a * t * t), 0.0, 1.0, 1.0)
    lhs = (math.log(a * a + 1.0) - 2.0 * math.log(a)) * math.atan(a) - a * q
    return lhs, _cl2_of_a(a)


def _chk_cat_2_34() -> tuple[float, float]:
    # same correction as the integral form, expanded as a geometric series:
    # the sum enters with weight a^(2j+1) and a plus sign
    a = 0.5
    s = alternating_sum(
        lambda k: a ** (2 * k + 1) * (digamma(k + 1.5).value + GAMMA) / (2 * k + 1),
        tol=1e-13,
    ).value
    lhs = (math.log(a * a + 1.0) - 2.0 * math.log(a)) * math.atan(a) + s
    return lhs, _cl2_of_a(a)


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

_PP = math.sqrt(5.0 + 2.0 * math.sqrt(5.0))
_PM = math.sqrt(5.0 - 2.0 * math.sqrt(5.0))
_BP = math.sqrt(10.0 + math.sqrt(2.0)) / 2.0
_BM = math.sqrt(10.0 - math.sqrt(2.0)) / 2.0
_ISQ2 = 1.0 / math.sqrt(2.0)


def _gauss_row(ref: str, terms: tuple[tuple[int, int], ...], den: int, count: int) -> tuple:
    """The row of a quadratic Gauss sum, chi(x) sqrt(N)/2 at x = 1 .. count: N
    is den, or 2 den if some multiplier m is odd, and chi, the odd real primitive
    character mod N (tau(chi) = i sqrt(N); Davenport, Multiplicative Number
    Theory, ch. 2 and 9), takes the row's signs at m N/(2 den)."""
    n = den if all(m % 2 == 0 for m, _ in terms) else 2 * den
    chi = {m * n // (2 * den): sg for m, sg in terms}  # 0 < k < N/2; chi(-k) = -chi(k)
    root = math.sqrt(n) / 2.0
    values = [(chi.get(x % n, 0) - chi.get(-x % n, 0)) * root for x in range(1, count + 1)]
    return ref, terms, den, values


# the set-membership identities, whose source displays give only the value
# sets.  Each entry is the check's paper_ref, the (multiplier, sign) pairs,
# the denominator d and the values sum(sign * sin(multiplier * x * pi / d))
# takes at x = 1, 2, ...: derived, or resolved once at high precision
_SINES: dict[str, tuple[str, tuple[tuple[int, int], ...], int, list[float]]] = {
    "sine7": _gauss_row("Eq. (2.7)", ((2, 1), (4, 1), (6, -1)), 7, 6),
    "sine10": _gauss_row("Eq. (2.44)", ((1, 1), (3, 1), (7, 1), (9, 1)), 10, 20),
    "sine12": _gauss_row("Eq. (2.45)", ((1, 1), (5, 1), (7, 1), (11, 1)), 12, 24),
    "sine11": _gauss_row("Eq. (2.46)", ((2, 1), (4, -1), (6, 1), (8, 1), (10, 1)), 11, 22),
    "sine15": _gauss_row("Eq. (2.47), corrected sign", ((2, 1), (4, 1), (8, 1), (14, -1)), 15, 15),
    "sine5a": (
        "Eq. (2.48)", ((1, 1), (2, 1), (3, 1), (4, 1)), 5,
        [_PP, 0.0, _PM, 0.0, 0.0, 0.0, -_PM, 0.0, -_PP, 0.0],
    ),
    "sine5b": (
        "Eq. (2.49)", ((1, 1), (2, -1), (3, -1), (4, 1)), 5,
        [-_PM, 0.0, _PP, 0.0, 0.0, 0.0, -_PP, 0.0, _PM, 0.0],
    ),
    "sine8a": ("Eq. (2.50), extended set", ((1, 1), (3, 1), (7, 1)), 8, [
        _BP, _ISQ2, _BM, -1.0, _BM, _ISQ2, _BP, 0.0,
        -_BP, -_ISQ2, -_BM, 1.0, -_BM, -_ISQ2, -_BP, 0.0,
    ]),
    "sine8b": ("Eq. (2.51), extended set", ((1, 1), (5, 1), (7, 1)), 8, [
        _BP, -_ISQ2, _BM, 1.0, _BM, -_ISQ2, _BP, 0.0,
        -_BP, _ISQ2, -_BM, -1.0, -_BM, _ISQ2, -_BP, 0.0,
    ]),
}


def _sine(terms: tuple, den: int, x: int, want: float) -> tuple[float, float]:
    return math.fsum(sg * math.sin(m * x * PI / den) for m, sg in terms), want


def _chk_cheb7(x: float) -> tuple[float, float]:
    # the two cubics whose roots are +-sin(2k pi/7), and their product T_7(x)/64x
    s2, s4, s6 = (math.sin(k * PI / 7.0) for k in (2, 4, 6))
    p1 = (x - s2) * (x - s4) * (x + s6)
    p2 = (x - s6) * (x + s2) * (x + s4)
    t7 = (64.0 * x**7 - 112.0 * x**5 + 56.0 * x**3 - 7.0 * x) / (64.0 * x)
    return _worst((
        (p1, x**3 - SQRT7 / 2.0 * x**2 + SQRT7 / 8.0),
        (p2, x**3 + SQRT7 / 2.0 * x**2 - SQRT7 / 8.0),
        (p1 * p2, t7),
    ))


def _csc_sum(n: int) -> float:
    return math.fsum(_csc2(j * PI / n) for j in range(1, (n - 1) // 2 + 1))


# ---------------------------------------------------------------------------
# misc identities


def _chk_mult(m: int) -> tuple[float, float]:
    x = 1.0 / m
    return _tri(m * x), math.fsum(_tri(x + k / m) for k in range(m)) / (m * m)


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
    lhs = 2.0 * cl2(2.0 * tp).value - 3.0 * cl2(2.0 * tp - t7).value
    return lhs - cl2(3.0 * t7 - 2.0 * tp).value + 6.0 * cl2(PI + t7).value, 0.0


def _chk_eq4_3() -> tuple[float, float]:
    chi = dirichlet.CHI7

    def sides(q: int) -> tuple[float, float]:
        lhs = (
            clausen_sin(q, 2.0 * PI / 7.0).value
            + clausen_sin(q, 4.0 * PI / 7.0).value
            - clausen_sin(q, 6.0 * PI / 7.0).value
        )
        terms = (chi[p] * hurwitz_zeta(float(q), p / 7.0, tol=1e-11).value for p in range(1, 7))
        return lhs, SQRT7 / 2.0 / 7.0**q * math.fsum(terms)

    lhs2, rhs2 = sides(2)
    alt = SQRT7 / 2.0 * _l7()
    return _worst([(lhs2, rhs2), (lhs2, alt), sides(3), sides(4)])


# ---------------------------------------------------------------------------
# Lemma 4 / BBP family


def _re_li3_closed() -> float:
    return LN2**3 / 48.0 - 5.0 / 192.0 * PI * PI * LN2 + 35.0 / 64.0 * ZETA3


# The sides that several checks share, each computed once per ledger run:
# Li_3((1 + i)/2) (L4b, L4c, eq2.41, li3-binom), the BBP sums (L4c, eq2.39,
# eq2.40, eq2.41), I1 (P1-3.9trunc, P1-3.10) and I7 (P1, conj-L7).
def _li3_half() -> complex:
    from .polylog import polylog_complex

    return _shared(polylog_complex, 3, complex(0.5, 0.5), 1e-13).value


def _bbp_sum(name: str) -> float:
    return _shared(_bbp.eval_bbp_sum, _bbp.REGISTRY[name]).value


def _int_2_38(p: int) -> float:
    """The integral of (y - 1) ln(y / sqrt 2)^p / (y^4 - 2y^3 + 4y - 4) over [0, 1]."""

    def f(y: float) -> float:
        return (y - 1.0) * math.log(y / math.sqrt(2.0)) ** p / (y**4 - 2.0 * y**3 + 4.0 * y - 4.0)

    return _quad(f, 0.0, 1.0, 0.0)


def _residue_sum(k: int, s: int) -> float:
    """sum_j 16^-j / (8j + k)^s, the BBP sum of residue class k alone."""
    coeffs = tuple(int(i == k) for i in range(1, 9))
    return _shared(_bbp.eval_bbp_sum, _bbp.BBPFormula(s, coeffs, 1.0)).value


def _log_moment(k: int, p: int) -> float:
    """2^(k/2) times the integral of x^(k-1) ln(x)^p / (1 - x^8) over [0, 1/sqrt 2]."""
    q = _quad(lambda x: x ** (k - 1) * math.log(x) ** p / (1.0 - x**8), 0.0, _ISQ2, 0.0)
    return 2.0 ** (k / 2.0) * q


def _chk_eq2_40(k: int) -> tuple[float, float]:
    rhs = LN2 * LN2 * _residue_sum(k, 1) + 4.0 * LN2 * _residue_sum(k, 2)
    return _log_moment(k, 2), 0.25 * (rhs + 8.0 * _residue_sum(k, 3))


def _chk_eq2_41() -> tuple[float, float]:
    s1, s2, s3 = (_bbp_sum(name) for name in ("pi-degree1", "eq2.35-sum", "eq2.37-sum"))
    lhs = 8.0 * s3 + 4.0 * LN2 * s2 + LN2 * LN2 * s1
    re_rhs = 16.0 * CATALAN * LN2 - PI * LN2 * LN2 + 32.0 * _li3_half().imag + 14.0 * ZETA3
    im_rhs = (
        2.0 / 3.0 * LN2**3
        - 5.0 / 6.0 * PI * PI * LN2
        - 32.0 * _re_li3_closed()
        + 14.0 * 1.25 * ZETA3
    )
    return _worst([(lhs, re_rhs), (im_rhs, 0.0), (lhs, 64.0 * _int_2_38(2))])


def _chk_li3_binom() -> tuple[float, float]:
    re_sum, im_sum = _bbp.li3_binomial_sums(tol=1e-12)
    return _worst([(re_sum.value, _re_li3_closed()), (im_sum.value, _li3_half().imag)])


# ---------------------------------------------------------------------------
# Proposition 1 / 2 chains


def _i1() -> float:
    return _shared(integrals.integral_I1_split, 1e-10)[0].value


def _i7() -> float:
    return _shared(integrals.integral_I7, 1e-10).value


def _chk_p1_3_11() -> tuple[float, float]:
    import cmath

    c = integrals.CONSTANTS
    val = cmath.log((1.0 - c.v_minus * c.r73) / (1.0 - c.v_plus * c.r73))
    return abs(val - 2.0j * c.omega_plus.raw), 0.0


def _chk_p2(a: float, b: float) -> tuple[float, float]:
    q = integrals.integral_I_ab(a, b, 1e-10).value
    f1 = integrals.i_ab_closed_omega(a, b).value
    f2 = _shared(integrals.i_ab_closed_theta12, a, b).value
    return _worst(((q, f1), (q, f2), (f1, f2)))


def _chk_c2(a: float, b: float) -> tuple[float, float]:
    # 2 sqrt(1 - b^2) I(a, b) = 2 Im Li_2(e^{i theta'}/a) + 2 omega ln a, with
    # theta' = acos(-b) and omega = atan(sqrt(1 - b^2)/(a + b)): I(a, b) by its
    # theta_1/theta_2 Clausen form, Im Li_2 by polylog_complex on the chain's branch
    root = math.sqrt(1.0 - b * b)
    im = im_li2_polar(PolarPoint(1.0 / a, math.acos(-b))).value
    lhs = _shared(integrals.i_ab_closed_theta12, a, b).value * 2.0 * root
    return lhs, 2.0 * im + 2.0 * math.atan(root / (a + b)) * math.log(a)


def _chk_c3(c: float, t: float) -> tuple[float, float]:
    lhs, rhs = integrals.corollary3(c, t, 1e-10)
    return lhs.value, rhs


# ---------------------------------------------------------------------------
# the ledger: one _Check row per check.  pair(*point) gives (lhs, rhs) at one
# point of grid, () for a scalar row, and run_check reports the worst pair, by
# |lhs - rhs| / |rhs| when rel is set.  A pair looks its kernels up by name as
# it runs, so a kernel rebound between runs is the one the next run calls

_CLOSED = 1e-12
_QUAD = 1e-10
_CHAIN = 1e-9

_Check = namedtuple("_Check", "id tag paper_ref tol pair grid rel", defaults=(((),), False))


def _points(*xs: float) -> tuple[tuple[float], ...]:
    """The grid of one-argument points xs."""
    return tuple((x,) for x in xs)


_P2_GRID = tuple((a, b) for a in (0.1, 0.6, 1.2, 2.0, 3.0) for b in (-0.9, -0.3, 0.4, 0.9))

_CHECKS: tuple[_Check, ...] = (
    _Check("L1a", "lemma1", "Eq. (1.2) vs (1.3a)", _CLOSED, lambda: (
        _shared(dirichlet.l7_series).value, _l7())),
    _Check("L1b", "lemma1", "Eq. (1.3b)", _CLOSED, _chk_l1b),
    _Check("L1c", "lemma1", "Eq. (1.3c)", _CLOSED, lambda: (
        _l7(), 2.0 / 49.0 * (_tri_sum(7, _TRI7) + (_csc2(3.0 * PI / 7.0) - 4.0) * PI * PI))),
    _Check("L1d", "lemma1", "Eq. (1.4)", _CLOSED, lambda: (
        dirichlet.l7_hurwitz(tol=1e-12).value, _l7())),
    _Check("L1e-1", "lemma1", "Eq. (1.5) first integral", _QUAD, lambda: (
        -_l1e(lambda u: _poly7(u, (1, 1, -1, 1, -1, -1)) / (1.0 - u**7), 1.0), _l7())),
    _Check("L1e-2", "lemma1", "Eq. (1.5) second integral", _QUAD, lambda: (
        -_l1e(lambda u: _poly7(u, (1, 2, 1, 2, 1)) / _poly7(u, _ONES7)), _l7())),
    # the printed numerator reads u(1 + u - u^4 - u^5); the u term must be
    # u^2 or the identity fails by 2.7e-2 (see repository notes)
    _Check("L1e-3", "lemma1", "Eq. (1.5) third integral, corrected", _QUAD, lambda: (
        1.0 - _l1e(lambda u: u * _poly7(u, (1, 0, 1, 0, -1, -1)) / _poly7(u, _ONES7)), _l7())),
    _Check("L1f", "lemma1", "Eq. (1.6), corrected display", 1e-10, _chk_l1f),
    _Check("eq2.6", "lemma1", "Eq. (2.6)", _CLOSED, lambda: (
        _cl2_combo7(), _tri_sum(14, _TRI14) / (56.0 * SQRT7))),
    _Check("eq2.10a", "lemma1", "Eq. (2.10a)", 1e-10, lambda: (
        _tri(1 / 14), 4.0 * _tri(1 / 7) + _tri(3 / 7) - PI * PI * _csc2(4.0 * PI / 7.0))),
    _Check("eq2.10b", "lemma1", "Eq. (2.10b)", 1e-10, lambda: (
        _tri(3 / 14), 4.0 * _tri(3 / 7) + _tri(2 / 7) - PI * PI * _csc2(2.0 * PI / 7.0))),
    _Check("eq2.10c", "lemma1", "Eq. (2.10c)", 1e-10, _chk_eq2_10c),
    _Check("L2a", "lemma2", "Eq. (1.8)", _QUAD, _chk_l2a,
           _points(0.5, 1.0, math.sqrt(3.0), SQRT7, 3.0)),
    _Check("L2b-1", "lemma2", "Eq. (1.9a)", 1e-10, _chk_l2b1, _points(1.5, 2.0, 3.0)),
    _Check("L2b-2", "lemma2", "Eq. (1.9b)", 1e-10, _chk_l2b2, _points(1.5, 2.0, 3.0)),
    _Check("L2c", "lemma2", "Eq. (1.10), corrected prefactor", _QUAD, _chk_l2c),
    _Check("cat-2.28a", "lemma3", "Eq. (2.28a), corrected", _QUAD, lambda: (
        catalan_value("eq2.28a"), CATALAN)),
    _Check("cat-2.28b", "lemma3", "Eq. (2.28b)", 1e-10, _chk_cat_2_28b),
    _Check("cat-2.28c", "lemma3", "Eq. (2.28c)", _QUAD, lambda: (
        catalan_value("eq2.28c"), CATALAN)),
    _Check("C1", "catalan", "Eq. (1.11)", 1e-10, lambda: (catalan_value("eq1.11"), CATALAN)),
    _Check("cat-2.22", "catalan", "Eq. (2.22)", _QUAD, lambda: (
        catalan_value("eq2.22"), CATALAN)),
    _Check("cat-2.25", "catalan", "Eq. (2.25)", 1e-10, lambda: (
        catalan_value("eq2.25"), CATALAN)),
    _Check("cat-2.27", "catalan", "Eq. (2.27)", _QUAD, lambda: (
        catalan_value("eq2.27"), CATALAN)),
    _Check("cat-2.32", "catalan", "Eq. (2.32), corrected", _QUAD, _chk_cat_2_32,
           _points(0.7, 1.0, 2.0)),
    _Check("cat-2.33", "catalan", "Eq. (2.33)", _QUAD, lambda: (
        catalan_value("eq2.33"), CATALAN)),
    _Check("cat-2.34", "catalan", "Eq. (2.34), corrected", 1e-10, _chk_cat_2_34),
    _Check("eq2.30", "catalan", "Eq. (2.30)", _CLOSED, _chk_eq2_30),
    *(
        _Check(cid, "sine", ref, _CLOSED, _sine,
               tuple((terms, den, x, want) for x, want in enumerate(values, start=1)))
        for cid, (ref, terms, den, values) in _SINES.items()
    ),
    _Check("cheb7", "sine", "Eqs. (2.8a)-(2.8b)", 1e-13, _chk_cheb7,
           _points(*(-0.9 + 0.2 * i for i in range(10)))),
    _Check("csc7", "sine", "Eq. (2.3)", _CLOSED, lambda: (_csc_sum(7), 8.0)),
    _Check("csc14", "sine", "Eq. (2.11)", _CLOSED, lambda: (_csc_sum(14), 32.0)),
    _Check("cscN", "sine", "csc^2 sum, n = 3..20", _CLOSED, lambda n: (
        _csc_sum(n), (n * n - 1) / 6.0 - (1.0 + (-1.0) ** n) / 4.0), _points(*range(3, 21))),
    _Check("refl", "misc", "Eq. (2.2)", 1e-10, lambda x: (
        _tri(1.0 - x), -_tri(x) + PI * PI * _csc2(PI * x)),
        _points(*(i / 10.0 for i in range(1, 10)))),
    _Check("dup", "misc", "Eq. (2.9)", 1e-10, lambda x: (
        2.0 * _tri(2.0 * x), 0.5 * (_tri(x) + _tri(x + 0.5))),
        _points(*(i / 10.0 for i in range(1, 31))), rel=True),
    _Check("mult", "misc", "Eq. (2.12)", 1e-10, _chk_mult, _points(*range(2, 8)), rel=True),
    _Check("zeta2", "misc", "Eq. (2.13)", _CLOSED, lambda: (
        PI * PI / 6.0, math.fsum(_tri((k + 1) / 7.0) for k in range(7)) / 49.0)),
    _Check("eq1.12b", "misc", "Eq. (1.12b), corrected", 1e-14, _chk_eq1_12b),
    _Check("eq4.1", "misc", "Eq. (4.1)", _CLOSED, _chk_eq4_1),
    _Check("eq4.3", "misc", "Eq. (4.3), q = 2, 3, 4", 1e-10, _chk_eq4_3),
    _Check("conj-L7", "misc", "Eq. (1.2), conjectural", _CHAIN, lambda: (
        _i7(), _shared(dirichlet.l7_series).value)),
    _Check("L4a", "lemma4", "Eq. (2.35)", _CLOSED, lambda: (
        _bbp.closed_form_value(_bbp.REGISTRY["eq2.35-sum"]).value, cl2(PI / 2.0).value)),
    _Check("L4b", "lemma4", "Eq. (2.36)", _CLOSED, lambda: (_li3_half().real, _re_li3_closed())),
    _Check("L4c", "lemma4", "Eq. (2.37)", 1e-10, lambda: (
        8.0 * _bbp_sum("eq2.37-sum"),
        -PI * PI / 2.0 * LN2 + 14.0 * ZETA3 + 32.0 * _li3_half().imag)),
    _Check("eq2.38", "lemma4", "Eq. (2.38)", _QUAD, lambda: (
        -4.0 * _int_2_38(1), CATALAN + PI * PI / 32.0)),
    _Check("eq2.39", "lemma4", "Eq. (2.39)", _QUAD, lambda k: (
        _residue_sum(k, 2) + LN2 / 2.0 * _residue_sum(k, 1), -_log_moment(k, 1)),
        _points(1, 4, 5, 6)),
    _Check("eq2.40", "lemma4", "Eq. (2.40)", _QUAD, _chk_eq2_40, _points(1, 4, 5, 6)),
    _Check("eq2.41", "lemma4", "Eq. (2.41)", _CHAIN, _chk_eq2_41),
    _Check("li3-binom", "lemma4", "binomial double sums", _CLOSED, _chk_li3_binom),
    _Check("P1", "prop1", "Eq. (1.13)", _CHAIN, lambda: (
        _i7(), integrals.i7_closed_form().value)),
    _Check("P1-3.3", "prop1", "Eq. (3.3)", _CHAIN, lambda: (
        integrals.integral_In_vform(1, 1e-10).value, integrals.integral_In(1, 1e-10).value)),
    _Check("P1-3.9trunc", "prop1", "Eq. (3.9), L = 60", 1e-8, lambda: (
        integrals.i1_series_truncated(1, 60), _i1())),
    _Check("P1-3.10", "prop1", "Eq. (3.10)", _CHAIN, lambda: (
        integrals.i1_polylog_form(1).value, _i1())),
    _Check("P1-3.11", "prop1", "Eq. (3.11)", _CLOSED, _chk_p1_3_11),
    _Check("P2", "prop2", "Eqs. (4.6)-(4.7)", _CHAIN, _chk_p2, _P2_GRID),
    _Check("C2", "prop2", "Eq. (4.10)", _CHAIN, _chk_c2, _P2_GRID),
    _Check("C3", "prop2", "Eq. (4.11)", _QUAD, _chk_c3,
           ((1.0, PI / 3.0), (2.0, PI / 2.0), (math.e, 0.1), (0.5, 2.5))),
)

_REGISTRY = {row.id: row for row in _CHECKS}

# conjectural identities: they report supports-conjecture or error, never pass or fail
_CONJECTURES = {"conj-L7"}


def check_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str, tol_override: float | None = None) -> CheckRecord:
    """Execute one ledger check and report its record."""
    if check_id not in _REGISTRY:
        raise UnknownCheckError(check_id)
    row = _REGISTRY[check_id]
    tol = row.tol if tol_override is None else tol_override
    check_tol(tol, "tolerance")
    note = ""
    start = time.perf_counter()
    try:
        lhs, rhs = _worst((row.pair(*point) for point in row.grid), row.rel)
    except Exception as exc:
        lhs = rhs = math.nan
        note = f"{type(exc).__name__}: {exc}"
    finally:
        if not _in_run_all:
            _memo.clear()
    elapsed = int((time.perf_counter() - start) * 1000.0)
    residual = math.inf if note else abs(lhs - rhs)
    if note:
        status = "error"
    elif check_id in _CONJECTURES:
        status = "supports-conjecture" if residual <= tol else "error"
    else:
        status = "pass" if residual <= tol else "fail"
    return CheckRecord(check_id, row.paper_ref, lhs, rhs, residual, tol, status, elapsed, note)


def run_all(tag: str | None = None, tol_scale: float | None = None) -> list[CheckRecord]:
    """Run every ledger check, optionally filtered by tag, sorted by id."""
    global _in_run_all
    if tag is not None and tag not in TAGS:
        raise DomainError(f"unknown tag {tag!r}; valid tags: {', '.join(TAGS)}")
    scale = 1.0 if tol_scale is None else float(tol_scale)
    check_tol(scale, "tol_scale")
    _in_run_all = True
    try:
        return [
            run_check(cid, tol_override=_REGISTRY[cid].tol * scale)
            for cid in check_ids()
            if tag is None or _REGISTRY[cid].tag == tag
        ]
    finally:
        _in_run_all = False
        _memo.clear()


def aggregate_pass(records: list[CheckRecord]) -> bool:
    """True iff every non-conjecture record passes (conjectures are ignored
    unless they errored)."""
    return not any(r.status in ("fail", "error") for r in records)


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
