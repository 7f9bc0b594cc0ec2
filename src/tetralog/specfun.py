"""Core special functions.

Clausen functions of even and odd order, digamma/trigamma/polygamma, the
Hurwitz zeta function, harmonic numbers, the imaginary part of the
dilogarithm in polar form, and the integer-order upper incomplete gamma
function.  All evaluations are pure double precision; every routine that
iterates reports an error bound and raises on non-convergence.
"""

from __future__ import annotations

import math

from .bernoulli import TAYLOR_K_MAX, LazyTable, bernoulli_number, zeta_int, zeta_taylor
from .constants import EPS, GAMMA, PI, TWO_PI
from .errors import ConvergenceError, DomainError
from .result import Angle, EvalResult, PolarPoint, RationalAngle, reduce_angle

# ---------------------------------------------------------------------------
# digamma / trigamma / polygamma


def _digamma(x: float) -> float:
    if x <= 0.0:
        if x == math.floor(x):
            raise DomainError(f"digamma pole at {x}")
        return _digamma(1.0 - x) - PI / math.tan(PI * x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    # psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n})
    inv2 = 1.0 / (x * x)
    s = -inv2 * (
        1.0 / 12
        + inv2
        * (
            -1.0 / 120
            + inv2 * (1.0 / 252 + inv2 * (-1.0 / 240 + inv2 * (1.0 / 132 - inv2 * 691.0 / 32760)))
        )
    )
    return acc + math.log(x) - 0.5 / x + s


def digamma(x: float) -> EvalResult:
    """psi(x) by recurrence shift and the Bernoulli asymptotic series."""
    v = _digamma(float(x))
    return EvalResult(v, 4.0 * EPS * max(1.0, abs(v)), 0, "asymptotic")


def _trigamma(x: float) -> float:
    if x <= 0.0:
        if x == math.floor(x):
            raise DomainError(f"trigamma pole at {x}")
        s = math.sin(PI * x)
        return PI * PI / (s * s) - _trigamma(1.0 - x)
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    # psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n} x^{-2n-1}
    inv = 1.0 / x
    inv2 = inv * inv
    s = inv * (
        1.0
        + inv * 0.5
        + inv2
        * (
            1.0 / 6
            + inv2
            * (
                -1.0 / 30
                + inv2 * (1.0 / 42 + inv2 * (-1.0 / 30 + inv2 * (5.0 / 66 - inv2 * 691.0 / 2730)))
            )
        )
    )
    return acc + s


def trigamma(x: float) -> EvalResult:
    """psi'(x) by recurrence shift and the Bernoulli asymptotic series."""
    v = _trigamma(float(x))
    return EvalResult(v, 4.0 * EPS * abs(v), 0, "asymptotic")


def polygamma(n: int, x: float) -> EvalResult:
    """psi^(n)(x); n >= 1 delegates to the Hurwitz zeta route."""
    if n < 0:
        raise DomainError("polygamma order must be >= 0")
    if n == 0:
        return digamma(x)
    if x <= 0.0:
        raise DomainError("polygamma of order >= 1 requires x > 0")
    hz = hurwitz_zeta(n + 1.0, x, tol=1e-14 * max(1.0, x ** (-n - 1.0)))
    sign = -1.0 if n % 2 == 0 else 1.0
    fac = math.factorial(n)
    return EvalResult(sign * fac * hz.value, fac * hz.err_bound, hz.effort, "hurwitz-zeta")


# ---------------------------------------------------------------------------
# Hurwitz zeta


# B_{2j}/(2j)!, the Euler-Maclaurin correction coefficients
_EM_COEFFS = LazyTable(lambda j: float(bernoulli_number(2 * j)) / math.factorial(2 * j))


def hurwitz_zeta(s: float, a: float, tol: float = 1e-13) -> EvalResult:
    """zeta(s, a) = sum_{k>=0} (k+a)^-s by Euler-Maclaurin with remainder bound."""
    if s <= 1.0:
        raise DomainError("hurwitz_zeta requires s > 1")
    if a <= 0.0:
        raise DomainError("hurwitz_zeta requires a > 0")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    M = 10
    N = max(0, int(math.ceil(10.0 - a)))
    b = _EM_COEFFS
    # remainder bounded by the magnitude of the first omitted term
    poch_rem = 1.0
    for i in range(2 * M + 1):
        poch_rem *= s + i
    for _ in range(60):
        z = a + N
        rem = abs(b[M + 1] * poch_rem) * z ** (-(s + 2 * M + 1))
        head = math.fsum((a + k) ** (-s) for k in range(N))
        floor = 4.0 * EPS * (abs(head) + z ** (1.0 - s) / (s - 1.0))
        if rem <= max(tol / 2.0, floor) or N > 100000:
            total = head + z ** (1.0 - s) / (s - 1.0) + 0.5 * z ** (-s)
            poch = s
            for j in range(1, M + 1):
                total += b[j] * poch * z ** (-(s + 2 * j - 1))
                poch *= (s + 2 * j - 1) * (s + 2 * j)
            err = rem + floor
            # only the truncation remainder is negotiable; the roundoff floor
            # is intrinsic to double precision, so a floor-dominated result is
            # returned with its honest (larger) error bound
            if rem > tol:
                raise ConvergenceError(
                    f"hurwitz_zeta({s}, {a}): error bound {err:g} exceeds tol {tol:g}"
                )
            return EvalResult(total, err, N + M, "euler-maclaurin")
        N = max(N + 8, 2 * N)
    raise ConvergenceError("hurwitz_zeta failed to converge")


def harmonic(j: int) -> float:
    """Partial sum H_j = sum_{k=1..j} 1/k; H_0 = 0."""
    if j < 0:
        raise DomainError("harmonic needs j >= 0")
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
    if m > 0.0:
        slack = d * max(1.65, math.log(PI / (2.0 * m)))
    else:
        # the interval reaches 0: integrate 1.65 + ln(pi/(2|t|)) over the
        # worst stretch of length d, the one centred on 0
        slack = d * (2.65 + math.log(PI / d))
    if slack > tol:
        raise ConvergenceError(f"angle reduction error {slack:g} exceeds tol {tol:g}")
    return slack


# zeta(2n)/(n(2n+1)), the coefficients of cl2's Bernoulli-accelerated series
_CL2_COEFFS = LazyTable(lambda n: zeta_int(2 * n) / (n * (2 * n + 1)))


def cl2(theta: Angle | float, tol: float = 1e-13) -> EvalResult:
    """Cl_2(theta) = sum sin(n theta)/n^2.

    Evaluated through the Bernoulli-accelerated expansion
    ``theta - theta ln theta + sum zeta(2n) theta^(2n+1) / (n (2n+1) (2pi)^2n)``
    after reduction to [0, pi]; the defining series is kept as a test oracle.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    th, d = reduce_angle(theta)
    slack = _reduction_slack(th, d, tol) if d else 0.0
    sign = 1.0
    if th < 0.0:
        th, sign = -th, -1.0
    if th == 0.0:
        return EvalResult(0.0, slack, 0, "bernoulli-series")
    if th == PI:
        # the double PI falls 1.2e-16 short of pi, where Cl_2' = -ln 2
        return EvalResult(0.0, EPS + slack, 0, "bernoulli-series")
    c = _CL2_COEFFS
    lg = th * math.log(th)
    total = th - lg
    mag = th + abs(lg)
    ratio = (th / TWO_PI) ** 2
    power = th * ratio
    term = 0.0
    n = 0
    for n in range(1, 200):
        term = c[n] * power
        total += term
        mag += term
        if term < 0.25 * EPS * mag:
            break
        power *= ratio
    # the positive terms fall at least by ratio, which bounds the tail; the
    # roundoff floor scales with the magnitudes summed, since near pi they cancel
    err = 2.0 * term * ratio / (1.0 - ratio) + 4.0 * EPS * mag + slack
    if err > tol:
        raise ConvergenceError(f"cl2: error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(sign * total, err, n, "bernoulli-series")


def _clausen_series(s: int, odd: bool, th: float) -> tuple[float, float, int]:
    """Im (odd) or Re (not odd) of Li_s(e^{i theta}) for integer s >= 2, theta in (0, pi].

    With w = i theta the expansion of ``bernoulli.zeta_taylor`` has real terms
    at even k and imaginary terms at odd k, so each part is a real series of
    one parity, ``sum_j c_{2j+p} (-theta^2)^j theta^p``.  When k - s is even,
    every coefficient past k = s vanishes and the sum is a polynomial.
    """
    c = zeta_taylor(s)
    # head w^{s-1}/(s-1)! (H_{s-1} - ln(-w)), with ln(-w) = ln theta - i pi/2
    q = th ** (s - 1) / math.factorial(s - 1)
    a = harmonic(s - 1) - math.log(th)
    head = q * complex(a, PI / 2.0) * 1j ** (s - 1)  # i^(s-1) is exact
    total = head.imag if odd else head.real
    mag = q * (abs(a) + PI / 2.0)
    finite = (s % 2 == 1) == odd
    p = th if odd else 1.0
    step = -th * th
    term = 0.0
    n = 0
    for k in range(1 if odd else 0, (s if finite else TAYLOR_K_MAX) + 1, 2):
        term = c[k] * p
        total += term
        mag += abs(term)
        n += 1
        if k > s and abs(term) < 0.25 * EPS * mag:
            break
        p *= step
    # past k = s, |c_{k+2}| theta^2 <= |c_k| r2, which bounds the tail; the
    # roundoff floor scales with the magnitudes summed, since near pi they cancel
    r2 = (th / TWO_PI) ** 2
    trunc = 0.0 if finite else 2.0 * abs(term) * r2 / (1.0 - r2)
    # effort: the head and every nonzero term (an infinite sum passes c_{s-1} = 0)
    return total, trunc + 6.0 * EPS * mag, n + finite


def _clausen(s: int, kind: str, theta: Angle | float, tol: float) -> EvalResult:
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    th, d = reduce_angle(theta)
    slack = _reduction_slack(th, d, tol) if d else 0.0
    odd = kind == "sin"
    sign = 1.0
    if th < 0.0:
        th = -th
        if odd:
            sign = -1.0
    if th == 0.0:
        if odd:
            return EvalResult(0.0, slack, 0, "log-expansion")
        if s < 2:
            raise DomainError("cosine Clausen series diverges at theta = 0 for s < 2")
        v = zeta_int(s)
        return EvalResult(v, 4.0 * EPS * abs(v) + slack, 0, "log-expansion")
    if s > 171:
        # the head's 1/(s-1)! is below the double range; (s-1)! alone would take
        # unbounded time to form for a huge s
        raise OverflowError(f"Cl_{s}: order too large for double precision")
    v, err, effort = _clausen_series(s, odd, th)
    err += slack
    if err > tol:
        raise ConvergenceError(f"Cl_{s}: error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(sign * v, err, effort, "log-expansion")


def clausen_sin(s: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Generalized sine Clausen value sum_{n>=1} sin(n theta)/n^s, s >= 2."""
    if s < 2:
        raise DomainError("clausen_sin requires order >= 2")
    return _clausen(s, "sin", theta, tol)


def clausen_cos(s: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Generalized cosine Clausen value sum_{n>=1} cos(n theta)/n^s, s >= 2."""
    if s < 2:
        raise DomainError("clausen_cos requires order >= 2")
    return _clausen(s, "cos", theta, tol)


def cl_even(q: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Cl_{2q}(theta) = sum sin(n theta)/n^{2q} for q >= 1."""
    if q < 1:
        raise DomainError("cl_even requires q >= 1")
    return clausen_sin(2 * q, theta, tol)


def cl_odd(r: int, theta: Angle | float, tol: float = 1e-12) -> EvalResult:
    """Cl_{2r+1}(theta) = sum cos(n theta)/n^{2r+1} for r >= 1."""
    if r < 1:
        raise DomainError("cl_odd requires 2r+1 >= 3")
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
    total = 0.0
    mag = 0.0
    for k in range(1, q):
        t = _trigamma(1.0 - k / (2.0 * q)) + _trigamma(0.5 - k / (2.0 * q))
        term = t * math.sin(k * p * PI / q)
        total += term
        mag += abs(term)
    v = -total / (4.0 * q * q)
    err = 8.0 * EPS * mag / (4.0 * q * q)
    if err > tol:
        raise ConvergenceError(f"cl2_rational: error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(v, err, q - 1, "trigamma-sum")


# ---------------------------------------------------------------------------
# Im Li_2 in polar form


def im_li2_polar(z: PolarPoint, tol: float = 1e-12) -> EvalResult:
    """Im Li_2(r e^{i theta}) via the Clausen decomposition.

    ``omega ln r + (1/2)[Cl_2(2 omega) - Cl_2(2 omega + 2 theta) + Cl_2(2 theta)]``
    with omega the *principal* arctangent of r sin(theta) / (1 - r cos(theta)).
    For r > 1 this reproduces the branch used throughout the tetrahedral
    integral chain, which differs from the principal polylogarithm branch.
    """
    r = z.r
    th = z.theta.reduced
    if r == 0.0:
        return EvalResult(0.0, 0.0, 0, "clausen-decomposition")
    num = r * math.sin(th)
    den = 1.0 - r * math.cos(th)
    if den == 0.0:
        if num == 0.0:
            raise DomainError("im_li2_polar: branch-undefined point")
        omega = math.copysign(PI / 2.0, num)
    else:
        omega = math.atan(num / den)
    parts = [
        cl2(2.0 * omega, tol),
        cl2(2.0 * omega + 2.0 * th, tol),
        cl2(2.0 * th, tol),
    ]
    v = omega * math.log(r) + 0.5 * (parts[0].value - parts[1].value + parts[2].value)
    err = 0.5 * sum(p.err_bound for p in parts) + 4.0 * EPS * abs(omega * math.log(r))
    return EvalResult(v, err, sum(p.effort for p in parts), "clausen-decomposition")


# ---------------------------------------------------------------------------
# incomplete gamma


def incomplete_gamma_upper_int(n: int, x: float) -> float:
    """Gamma(n+1, x) = n! e^-x sum_{m=0}^n x^m/m! for integer n >= 0, real x."""
    if n < 0:
        raise DomainError("incomplete_gamma_upper_int needs n >= 0")
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
