"""Core special functions.

Clausen functions of every order, digamma/trigamma/polygamma, the Hurwitz
zeta function, harmonic numbers, the imaginary part of the dilogarithm in
polar form, and the integer-order upper incomplete gamma function.  All
evaluations are pure double precision; every routine that iterates reports an
error bound and raises on non-convergence.

Every Clausen value, ``cl2`` included, comes from one kernel: the real or
imaginary part of the expansion of Li_s(e^{i theta}) about theta = 0, or, at
|theta| > 2 pi/3, of Li_s(-e^{ix}) about x = pi - |theta| = 0, where the
terms of both fall by at most 1/9 a step.  A table cached per order, parity and centre
picks its coefficients from ``bernoulli._log_tables``, the sign of (-theta^2)^j folded in,
H_{s-1}/(s-1)! in the theta^{s-1} term, and the coefficient of theta^{s-1}
ln theta (or of theta^{s-1}, for the polynomial kinds); about pi, the
-eta(s - k)/k!, with no log term.  The head, up to theta^s, is summed by
Horner's rule in theta^2, the tail in one pass until its terms are
negligible.  psi and psi' shift x up to 10, then sum their asymptotic series
through B_18; a negative x reflects through sin or tan of the exact
x - round(x).  Each bound adds the first term left out to a roundoff term
proportional to the sum of |terms|.
"""

from __future__ import annotations

import math
from functools import cache

from .bernoulli import _EM_TERMS, _STOP, TAYLOR_K_MAX, _euler_maclaurin, _log_tables, zeta_int
from .constants import EPS, GAMMA, PI, PI_LO
from .errors import ConvergenceError, DomainError, check_tol, is_int
from .result import _UP, Angle, EvalResult, PolarPoint, RationalAngle, exact, reduce_angle, rounded
from .result import log as ball_log
from .result import no_ball
from .result import sin as ball_sin

_PI = rounded(PI)

# ---------------------------------------------------------------------------
# digamma / trigamma / polygamma

# The asymptotic series of psi and psi' sum through B_18 at x >= 10.  There
# the B_20 term, the first left out, is below _TRUNC = |B_20|/10^20 of
# psi'(x) > 1/x, and of |terms| > ln 10 > 1 for psi; for real x > 0 the
# remainder is smaller than that term and has its sign.  The roundoff bounds
# count in u = EPS/2, the unit roundoff.
_TRUNC = 174611 / 330 / 1e20
# the terms of either series summed: its two leading ones and B_2 .. B_18
_ASYMPTOTIC_TERMS = 11


def _digamma(x: float) -> tuple[float, float, int]:
    """psi(x), a bound on its error, and the recurrence shifts plus the
    asymptotic terms summed."""
    if x <= 0.0:
        if x == -math.inf:
            raise DomainError("digamma(-inf) is undefined")
        # x - round(x) is exact, so tan(pi x) = tan(pi r) keeps its digits at
        # the poles' sides, where tan(PI * x) would not
        r = x - round(x)
        if r == 0.0:
            raise DomainError(f"digamma pole at {x}")
        c = PI / math.tan(PI * r)
        b, err, effort = _digamma(1.0 - x)
        # PI * r is within 1.4u of pi r, which moves c by
        # 1.4u pi |pi r| / sin^2(pi r) <= 2.2u (pi + |c|); tan, PI and the
        # division add 3.4u of c.  Rounding 1 - x moves psi(1 - x) by at most
        # u (1 - x) psi'(1 - x) <= 2u, and the subtraction adds u (|b| + |c|).
        return b - c, err + EPS * (3.5 * abs(c) + abs(b) + 5.0), effort
    acc = 0.0
    n = 0.0
    y = x
    while y < 10.0:  # a nan ends here too
        acc += 1.0 / y
        n += 1.0
        y = x + n  # one rounding, not n
    # psi(y) ~ ln y - 1/(2y) - sum B_2n/(2n y^2n)
    inv = 1.0 / y
    i2 = inv * inv
    tail = inv * (0.5 + inv * (1 / 12 + i2 * (-1 / 120 + i2 * (1 / 252 + i2 * (-1 / 240 + i2 * (
        1 / 132 + i2 * (-691 / 32760 + i2 * (1 / 12 + i2 * (-3617 / 8160 + i2 * 43867 / 14364)))))))))
    lg = math.log(y)
    mag = acc + lg + tail
    # each 1/(x+k) and ln y carries 2u of rounding (u of it from the rounded
    # y), and each of the n + 2 additions u of mag
    return lg - acc - tail, ((n + 5.0) * 0.5 * EPS + _TRUNC) * mag, int(n) + _ASYMPTOTIC_TERMS


def _at_ball(kernel, x: EvalResult, slope) -> EvalResult:
    """kernel at the ball x's midpoint, its bound plus the radius times slope(t),
    a bound on |kernel'| over the ball, falling in t, at t <= its least point."""
    t = math.nextafter(x.value - x.err_bound, 0.0)
    if not t > 0.0:
        raise DomainError("a ball argument must lie in x > 0")
    r = kernel(x.value)
    try:
        charge = x.err_bound * slope(t) * _UP if x.err_bound else 0.0
        return EvalResult(r.value, r.err_bound + charge, r.effort, r.method)
    except (OverflowError, DomainError):  # the slope, or the bound, is no double
        raise OverflowError("a ball argument's charge overflows double precision") from None


def digamma(x: float) -> EvalResult:
    """psi(x) by recurrence shift and the Bernoulli asymptotic series."""
    no_ball(x, "digamma")
    v, err, effort = _digamma(float(x))
    if not math.isfinite(v):
        if math.isnan(v):  # only a nan x gives a nan
            raise DomainError(f"digamma({x}) is undefined")
        raise OverflowError(f"digamma({x}) overflows double precision")
    return EvalResult(v, err, effort, "asymptotic")


def _trigamma(x: float) -> tuple[float, float, int]:
    """psi'(x), a bound on its error, and the recurrence shifts plus the
    asymptotic terms summed."""
    if x <= 0.0:
        if x == -math.inf:
            raise DomainError("trigamma(-inf) is undefined")
        r = x - round(x)  # exact: see _digamma
        if r == 0.0:
            raise DomainError(f"trigamma pole at {x}")
        a = PI / math.sin(PI * r)
        a *= a
        b, err, effort = _trigamma(1.0 - x)
        # PI * r, sin, the division and the square leave a within 5.2 EPS
        # relative; rounding 1 - x moves psi'(1 - x) by at most EPS of itself,
        # and the subtraction adds EPS/2 of a + b
        return a - b, err + EPS * (6.0 * a + 2.0 * b), effort
    acc = 0.0
    n = 0.0
    y = x
    while y < 10.0:  # a nan ends here too
        t = 1.0 / y  # squared after the division, so that a tiny x overflows to inf
        acc += t * t
        n += 1.0
        y = x + n
    # psi'(y) ~ 1/y + 1/(2y^2) + sum B_2n / y^(2n+1)
    inv = 1.0 / y
    i2 = inv * inv
    v = acc + inv * (1.0 + inv * (0.5 + inv * (1 / 6 + i2 * (-1 / 30 + i2 * (1 / 42 + i2 * (
        -1 / 30 + i2 * (5 / 66 + i2 * (-691 / 2730 + i2 * (7 / 6 + i2 * (
            -3617 / 510 + i2 * 43867 / 798))))))))))
    # every term is positive save the small Bernoulli ones, so v stands in for
    # the sum of |terms|: each 1/(x+k)^2 carries 5u of rounding (2u of it
    # from the rounded x + k), the series 4u, and the n additions u of v each
    return v, ((n + 6.0) * 0.5 * EPS + _TRUNC) * v, int(n) + _ASYMPTOTIC_TERMS


def trigamma(x: float | EvalResult) -> EvalResult:
    """psi'(x) by recurrence shift and the Bernoulli asymptotic series; a ball
    x > 0 is charged through |psi''(t)| = 2 sum (t + k)^-3 <= 2/t^3 + 1/t^2."""
    if isinstance(x, EvalResult):
        return _at_ball(trigamma, x, lambda t: (2.0 / t + 1.0) / t / t)
    v, err, effort = _trigamma(float(x))
    if not math.isfinite(v):
        if math.isnan(v):  # only a nan x gives a nan
            raise DomainError(f"trigamma({x}) is undefined")
        raise OverflowError(f"trigamma({x}) overflows double precision")
    return EvalResult(v, err, effort, "asymptotic")


def polygamma(n: int, x: float) -> EvalResult:
    """psi^(n)(x); n >= 1 delegates to the Hurwitz zeta route."""
    if not is_int(n) or n < 0:
        raise DomainError("polygamma order must be an integer >= 0")
    no_ball(x, "polygamma")
    if n == 0:
        return digamma(x)
    if x <= 0.0:
        raise DomainError("polygamma of order >= 1 requires x > 0")
    # |psi^(n)(x)| > n! x^(-n-1), whose logarithm this is; ln of the largest double is 709.78
    if math.lgamma(n + 1.0) - (n + 1.0) * math.log(x) > 709.8:
        raise OverflowError(f"polygamma({n}, {x}) overflows double precision")
    scale = x ** (-n - 1.0)  # the leading term of the sum
    if x < math.inf and _em_underflows(n + 1.0, x):  # hurwitz_zeta refuses an infinite x
        raise OverflowError(f"polygamma({n}, {x}): zeta({n + 1}, {x}) underflows double precision")
    # a tol relative to the sum: at large n and x it lies far below any absolute one
    hz = hurwitz_zeta(n + 1.0, x, tol=1e-14 * scale)
    v = hz
    # n! in pieces a double holds: min(n, 170)!, then each factor past 170
    for piece in (math.factorial(min(n, 170)), *range(171, n + 1)):
        if math.isinf(v.value * piece):
            raise OverflowError(f"polygamma({n}, {x}) overflows double precision")
        v = v * piece
    if n % 2 == 0:
        v = -v
    return EvalResult(v.value, v.err_bound, hz.effort, "hurwitz-zeta")


# ---------------------------------------------------------------------------
# Hurwitz zeta


def _em_underflows(s: float, a: float) -> bool:
    """Whether ``bernoulli._euler_maclaurin``'s terms for zeta(s, a) may lose
    their bits: the least power of z = a + N it forms, z^-(s + 1 + 2 _EM_TERMS)
    at the first z, about max(a, 10), is subnormal.  Never for a <= 1, where
    the value, at least a^-s >= 1, dwarfs all that an underflow loses."""
    return a > 1.0 and max(a, 10.0) ** (-s - 1.0 - 2 * _EM_TERMS) < 2.0**-1022


def hurwitz_zeta(s: float, a: float | EvalResult, tol: float = 1e-13) -> EvalResult:
    """zeta(s, a) = sum_{k>=0} (k+a)^-s by Euler-Maclaurin with remainder bound.

    ``bernoulli._euler_maclaurin`` sums from z = a + N, with N doubling from
    max(0, 10 - a) until the remainder is below tol/2 or the roundoff floor,
    4 EPS of the head and the integral.  The value exceeds its first term
    a^-s, and 1 for a <= 1, so a tol at or above the smaller of the two would
    certify no digit: such a tol is replaced by 1e-14 of it, the relative
    target ``polygamma`` passes.  A ball a > 0 is charged through
    |d zeta(s, t)/dt| = s zeta(s + 1, t) <= (s/t + 1) t^-s.
    """
    if isinstance(a, EvalResult):
        return _at_ball(lambda m: hurwitz_zeta(s, m, tol), a, lambda t: (s / t + 1.0) * t**-s)
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError("hurwitz_zeta requires finite s and a")
    if s <= 1.0:
        raise DomainError("hurwitz_zeta requires s > 1")
    if a <= 0.0:
        raise DomainError("hurwitz_zeta requires a > 0")
    check_tol(tol)
    if _em_underflows(s, a):
        raise OverflowError(f"hurwitz_zeta({float(s)}, {float(a)}) underflows double precision")
    lead = max(a, 1.0) ** -s  # not subnormal, as the check above shows
    if tol >= lead:
        tol = 1e-14 * lead
    N = max(0, int(math.ceil(10.0 - a)))
    for _ in range(60):
        try:
            total, rem, mag = _euler_maclaurin(s, a, N)
        except OverflowError:  # a power (a + k)^-s or their sum
            raise OverflowError(
                f"hurwitz_zeta({float(s)}, {float(a)}) overflows double precision"
            ) from None
        floor = 4.0 * EPS * mag
        if rem <= max(tol / 2.0, floor) or N > 100000:
            err = rem + floor
            # only the truncation remainder is negotiable; the roundoff floor
            # is intrinsic to double precision, so a floor-dominated result is
            # returned with its honest (larger) error bound
            if rem > tol:
                raise ConvergenceError(
                    f"hurwitz_zeta({s}, {a}): error bound {err:g} exceeds tol {tol:g}"
                )
            return EvalResult(total, err, N + _EM_TERMS, "euler-maclaurin")
        N = max(N + 8, 2 * N)
    raise ConvergenceError("hurwitz_zeta failed to converge")


def harmonic(j: int) -> float:
    """Partial sum H_j = sum_{k=1..j} 1/k; H_0 = 0."""
    if not is_int(j) or j < 0:
        raise DomainError("harmonic needs an integer j >= 0")
    return math.fsum(1.0 / k for k in range(1, j + 1))


# ---------------------------------------------------------------------------
# Clausen functions


def _reduction_slack(th: float, d: float, tol: float) -> float:
    """A bound on what an error d in the reduced angle th can move a Clausen
    value of order >= 2.

    Their derivatives are Clausen values of one order less: at most pi^2/6,
    or -ln|2 sin(t/2)|, which stays below ln(pi/(2|t|)) for 0 < |t| <= pi/4.
    """
    m = abs(th) - d
    # the logarithms of quotients are taken as differences, which a tiny m or
    # d (a ball's radius may be subnormal) cannot overflow
    if m > 0.0:
        slack = d * max(1.65, math.log(0.5 * PI) - math.log(m))
    else:
        # the interval reaches 0: integrate 1.65 + ln(pi/(2|t|)) over the
        # worst stretch of length d, the one centred on 0
        slack = d * (2.65 + math.log(PI) - math.log(d))
    if slack > tol:
        raise ConvergenceError(f"angle reduction error {slack:g} exceeds tol {tol:g}")
    return slack


_Table = tuple[tuple[tuple[float, float], ...], float, bool, tuple[float, ...], float]


@cache
def _clausen_table(s: int, odd: bool) -> tuple[_Table, ...]:
    """The coefficients of the Clausen kernel for order s and one parity,
    about theta = 0 and about theta = pi: indexed by whether the centre is pi.

    ``bernoulli._log_tables`` holds Li_s(e^w) = sum_k c_k w^k - ln(-w)
    w^{s-1}/(s-1)!, and at w = i theta the terms are real at even k and
    imaginary at odd k.  So the sine (odd, p = 1) or cosine (p = 0) part
    is sum_j c_{2j+p} (-theta^2)^j theta^p + g theta^{s-1} L, where g is the
    part of -(i)^{s-1}/(s-1)! or of (i pi/2)(i)^{s-1}/(s-1)! that the parity
    picks.  When s - 1 has parity p, L = ln theta and the first holds;
    otherwise L = 1, the second holds, and c_k vanishes past k = s, so the
    sum is a polynomial.

    About pi the variable is x = pi - theta, and the same tables hold
    Li_s(-e^{ix}) = sum_k c'_k (ix)^k, with no log term: Cl_s(pi - x) is
    -Im (sine) or Re (cosine) of it, so the same sum of c'_{2j+p} (-x^2)^j x^p,
    its sign flipped for the sine, with g = 0 and L = 1.  Past k = s only odd
    k - s survive there too, so for the finite kinds it is also a polynomial
    of degree s.

    Each table: the c_{2j+p} (-1)^j for 2j + p <= s, highest first, for
    Horner's rule in theta^2, each with its magnitude; g; whether
    L = ln theta; and the magnitudes of the tail's c_{2j+p} (-1)^j for
    2j + p > s, which share one sign, with that sign: the shared tail less its
    closing 0.  It ends below _STOP |c_0| at |w| = 2.44, or 1.64 about pi, past
    the kernel's 2 pi/3 and pi/3, so a sum stops by its end: a cosine sum's
    |terms| exceed |c_0|, and a sine sum's x |c_1| > x |c_0|/2.44, or /1.64.
    """
    p = 1 if odd else 0
    top = s - (s - p) % 2  # the head's highest k
    if top > TAYLOR_K_MAX:
        # c_top needs top! as a double; no factorial is formed yet
        raise OverflowError(f"Cl_{s}: order too large for double precision")
    infinite = (s - p) % 2 == 1
    rot = (-1.0 if infinite else 0.5j * PI) * 1j ** (s - 1) / math.factorial(s - 1)
    tables = []
    # (centre is pi, sign, g, L = ln theta)
    for minus, turn, g, log in ((False, 1, rot.imag if odd else rot.real, infinite),
                                (True, -1 if odd else 1, 0.0, False)):
        coeffs, _, tail, tail_abs = _log_tables(s, minus)  # c_k at index -1 - k
        head = [turn * (-1) ** (k // 2) * coeffs[-1 - k] for k in range(top, p - 1, -2)]
        # an infinite kind's tail, k = s + 1, s + 3, ... <= TAYLOR_K_MAX, has parity p
        n = (TAYLOR_K_MAX + 1 - s) // 2 if infinite else 0
        sign = turn * (-1) ** ((s + 1) // 2) * math.copysign(1.0, tail[0]) if n else 1.0
        tables.append((tuple((a, abs(a)) for a in head), g, log, tail_abs[:n], sign))
    return tuple(tables)


# the kernel expands about pi past this |theta|, where the ratio
# (theta/2 pi)^2 of an infinite kind's terms about 0 reaches that of its terms
# about pi, ((pi - theta)/pi)^2: 1/9.  A finite kind, a polynomial either way,
# keeps its digits near pi only about pi.
_SWITCH = 2.0 * PI / 3.0


def _clausen(s: int, odd: bool, theta: Angle | float, tol: float, method: str) -> EvalResult:
    """Im (odd) or Re (not odd) of Li_s(e^{i theta}) for integer s >= 2, from
    the expansion about theta = 0, or about theta = pi at |theta| > 2 pi/3,
    that ``_clausen_table`` describes.  A ball theta adds its radius to the
    reduction's error.

    The head, up to theta^s, is summed by Horner's rule in theta^2.  The tail
    is summed in one pass that stops at its first term below _STOP times the
    head's sum of |terms|.  Its callers check tol.
    """
    th, d = reduce_angle(theta)
    slack = _reduction_slack(th, d, tol) if d else 0.0
    flip = False
    if th < 0.0:
        th = -th
        flip = odd
    if odd and th == 0.0:
        return EvalResult(0.0, slack, 0, method)  # a sine sum vanishes at 0
    if th == 0.0:
        v = zeta_int(s)
        return EvalResult(v, 4.0 * EPS * abs(v) + slack, 0, method)
    minus = th > _SWITCH
    if minus:
        # pi - th = (PI - th) + (pi - PI), the first difference exact; x takes
        # one rounding, and PI_LO is within 0.46 EPS x of pi - PI.  The slope
        # of Cl_s is a Clausen value of order s - 1, at most pi^2/6 here, so
        # x's error moves the value by at most 2 EPS x
        th = (PI - th) + PI_LO
        slack += 2.0 * EPS * th
    head, g, log, tail, sign = _clausen_table(s, odd)[minus]
    x2 = th * th
    acc = mag = 0.0
    for a, b in head:
        acc = acc * x2 + a
        mag = mag * x2 + b
    if odd:
        acc *= th
        mag *= th
    pw = th ** (s - 1)
    gt = g * pw
    if log:
        gt *= math.log(th)
    acc += gt
    mag += abs(gt)
    limit = _STOP * mag
    pw *= x2
    t = rest = 0.0
    m = 0
    for d in tail:
        t = d * pw
        rest += t
        m += 1
        if t <= limit:
            break
        pw *= x2
    mag += rest
    # Truncation: past k = s, |c_{k+2}| theta^2 <= |c_k| (theta/2 pi)^2 =
    # |c_k| r2, or |c'_{k+2}| x^2 <= |c'_k| (x/pi)^2 about pi, so the terms
    # left out sum to at most t r2/(1 - r2).
    # Roundoff: a head term of power k takes at most 1.5k + 1 roundings from
    # Horner's steps and the rounded theta^2, and its coefficient up to
    # (0.18 (s - k) + 2) EPS from zeta(s - k), whose pi^(s-k) carries that;
    # the g and tail terms, a few powers and products, take fewer, and a c'_k
    # one more.  All stay below (s + 4) EPS of the sum of |terms|, which near
    # pi is several times |value| about 0, as the terms cancel there.
    r2 = x2 / (PI * PI if minus else 4.0 * PI * PI)
    err = t * r2 / (1.0 - r2) + (s + 4) * EPS * mag + slack
    if err > tol:
        raise ConvergenceError(f"Cl_{s}: error bound {err:g} exceeds tol {tol:g}")
    v = acc + sign * rest
    # effort: the head's terms, the g term unless it shares theta^{s-1} with
    # the folded c_{s-1} or is 0 (about pi), and the tail's
    return EvalResult(-v if flip else v, err, len(head) + (not (log or minus)) + m, method)


def cl2(theta: Angle | EvalResult | float, tol: float = 1e-13) -> EvalResult:
    """Cl_2(theta) = sum sin(n theta)/n^2.

    The Clausen kernel at order 2, after reduction to [0, pi]: there its
    series is the Bernoulli-accelerated expansion
    ``theta - theta ln theta + sum_n zeta(2n) theta^(2n+1) / (n (2n+1) (2pi)^2n)``.
    A ball theta's radius is charged through |Cl_2'(t)| = |ln|2 sin(t/2)||
    over the ball, as the reduction's error is.
    """
    check_tol(tol)
    return _clausen(2, True, theta, tol, "bernoulli-series")


def clausen_sin(s: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Generalized sine Clausen value sum_{n>=1} sin(n theta)/n^s, s >= 2."""
    if type(s) is not int or s < 2:  # errors.is_int, inline
        raise DomainError("clausen_sin requires order >= 2")
    check_tol(tol)
    return _clausen(s, True, theta, tol, "log-expansion")


def clausen_cos(s: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Generalized cosine Clausen value sum_{n>=1} cos(n theta)/n^s, s >= 2."""
    if type(s) is not int or s < 2:  # errors.is_int, inline
        raise DomainError("clausen_cos requires order >= 2")
    check_tol(tol)
    return _clausen(s, False, theta, tol, "log-expansion")


def cl_even(q: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Cl_{2q}(theta) = sum sin(n theta)/n^{2q} for q >= 1."""
    check_tol(tol)  # a bad tol is refused before anything else
    if not is_int(q) or q < 1:
        raise DomainError("cl_even requires an integer q >= 1")
    return clausen_sin(2 * q, theta, tol)


def cl_odd(r: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Cl_{2r+1}(theta) = sum cos(n theta)/n^{2r+1} for r >= 1."""
    check_tol(tol)  # a bad tol is refused before anything else
    if not is_int(r) or r < 1:
        raise DomainError("cl_odd requires an integer r >= 1")
    return clausen_cos(2 * r + 1, theta, tol)


def cl2_rational(angle: RationalAngle, tol: float = 1e-11) -> EvalResult:
    """Cl_2(p pi / q) as a finite trigamma sum.

    Valid for p even and q odd with q >= 3:
    ``-(1/4q^2) sum_{k=1}^{q-1} [psi'(1 - k/2q) + psi'(1/2 - k/2q)] sin(k p pi / q)``.
    Arguments outside that domain are rejected, not extended.
    """
    p, q = angle.p, angle.q
    if q < 3 or q % 2 == 0 or p % 2 != 0:
        raise DomainError("cl2_rational requires p even and q odd with q >= 3")
    check_tol(tol)
    total = 0.0
    for k in range(1, q):
        ab = trigamma(exact(2 * q - k) / (2 * q)) + trigamma(exact(q - k) / (2 * q))
        # sin(k p pi / q) = +-sin(m pi / q) with m reduced exactly to [0, q/2]
        m = k * p % (2 * q)
        sign = 1.0
        if m > q:
            m -= q
            sign = -1.0
        total = total + ab * (sign * ball_sin(min(m, q - m) * _PI / q))
    v = -total / (4.0 * q * q)
    if v.err_bound > tol:
        raise ConvergenceError(f"cl2_rational: error bound {v.err_bound:g} exceeds tol {tol:g}")
    return EvalResult(v.value, v.err_bound, q - 1, "trigamma-sum")


# ---------------------------------------------------------------------------
# Im Li_2 in polar form


def im_li2_polar(z: PolarPoint, tol: float = 1e-12) -> EvalResult:
    """Im Li_2(r e^{i theta}) via the Clausen decomposition.

    ``omega ln r + (1/2)[Cl_2(2 omega) - Cl_2(2 omega + 2 theta) + Cl_2(2 theta)]``
    with omega the *principal* arctangent of r sin(theta) / (1 - r cos(theta)).
    For r > 1 this reproduces the branch used throughout the tetrahedral
    integral chain, which differs from the principal polylogarithm branch.

    The denominator is formed as (1 - r) + 2 r sin^2(theta/2), which keeps its
    digits where r cos(theta) is near 1.  The bound carries the rounding of
    omega through each term it enters, the rounding of 2 omega + 2 theta, and
    the reduction of theta through the slope -ln|1 - z| of the whole value.
    For r > 1, where the denominator's sign is within its error, it also
    carries the branch's jump of pi ln r.  Raises ConvergenceError when the
    bound, the jump aside, exceeds tol.
    """
    check_tol(tol)
    r = z.r
    th, d = reduce_angle(z.theta)
    if r == 0.0:
        return EvalResult(0.0, 0.0, 0, "clausen-decomposition")
    num = r * math.sin(th)
    half = 2.0 * r * math.sin(0.5 * th) ** 2
    den = (1.0 - r) + half
    # sin and the products put <= 3 EPS on num and on half; 1 - r and the sum
    # one rounding each
    d_num = 3.0 * EPS * abs(num)
    d_den = EPS * (0.5 * abs(1.0 - r) + 3.0 * half + 0.5 * abs(den))
    if den == 0.0:
        if num == 0.0:
            raise DomainError("im_li2_polar: branch-undefined point")
        omega = math.copysign(PI / 2.0, num)
    else:
        omega = math.atan(num / den)
    # omega moves by the perturbation of (den, num) across its distance m to 0,
    # plus the quotient's and atan's roundings
    m = math.hypot(num, den)
    d_omega = (abs(den) / m) * (d_num / m) + (abs(num) / m) * (d_den / m) + 1.5 * EPS * abs(omega)
    w = EvalResult(omega, d_omega, 0, "")
    cl = cl2(2.0 * w, tol) - cl2(2.0 * w + 2.0 * th, tol) + cl2(2.0 * th, tol)
    v = w * ball_log(r) + 0.5 * cl
    err = v.err_bound
    if d:
        # d/dtheta Im Li_2(r e^{i theta}) = -ln|1 - z|, and on the reduction's
        # interval |1 - z| lies in [near, 1 + r]
        near = m - 2.0 * (d_num + d_den) - r * d
        if near > 0.0:
            err += d * max(math.log1p(r), -math.log(near))
        else:
            # the interval reaches z = 1, where |1 - z| >= (2/pi) sqrt(r) |theta|:
            # integrate -ln of that over the worst stretch, the one centred on 0
            err += 2.0 * d * (1.0 + math.log(PI / (2.0 * math.sqrt(r) * d)) + math.log1p(r))
    if err > tol:
        raise ConvergenceError(f"im_li2_polar: error bound {err:g} exceeds tol {tol:g}")
    if r > 1.0 and abs(den) <= d_den + r * d:
        # the denominator may have the other sign, and omega the other branch;
        # no tol removes that doubt about the point itself, so it is charged
        # after the tol check, as hurwitz_zeta's roundoff floor is
        err += PI * math.log(r)
    return EvalResult(v.value, err, v.effort, "clausen-decomposition")


# ---------------------------------------------------------------------------
# incomplete gamma


def incomplete_gamma_upper_int(n: int, x: float) -> float:
    """Gamma(n+1, x) = n! e^-x sum_{m=0}^n x^m/m! for integer n >= 0, real x."""
    if not is_int(n) or n < 0:
        raise DomainError("incomplete_gamma_upper_int needs an integer n >= 0")
    try:
        ex = math.exp(-x)
    except OverflowError as exc:
        raise OverflowError(f"exp(-x) overflows for x = {x}") from exc
    s = 1.0
    term = 1.0
    for m in range(1, n + 1):
        term *= x / m
        s += term
    v = math.factorial(n) * ex * s
    if not math.isfinite(v):
        raise OverflowError(f"Gamma({n + 1}, {x}) overflows double precision")
    return v


__all__ = [
    "cl2",
    "cl_even",
    "cl_odd",
    "clausen_sin",
    "clausen_cos",
    "cl2_rational",
    "digamma",
    "trigamma",
    "polygamma",
    "hurwitz_zeta",
    "harmonic",
    "im_li2_polar",
    "incomplete_gamma_upper_int",
    "GAMMA",
]
