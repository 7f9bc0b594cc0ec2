"""The tetrahedral integral family and its closed forms.

The central object is the logarithmic integral

    I7 = (24 / 7 sqrt 7) * integral_{pi/3}^{pi/2} ln|(tan t + sqrt 7)/(tan t - sqrt 7)| dt

together with the generalized powers I(n), the split I(n) = I1(n) + I2(n)
at the interior singularity, the polylogarithmic closed form of I1(n), and
the two-parameter family I(a, b) = integral_a^inf ln y dy / (y^2 + 2by + 1).

The closed forms and the truncated series import the Clausen, polylog and
incomplete-gamma kernels when they run, so the quadratures load only
``quad``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import EPS, PI, SQRT7, ULP0
from .errors import DomainError, QuadratureError, check_tol, is_int
from .quad import _NARROW, QuadProblem, integrate
from .result import Angle, EvalResult, asin, atan, exact, log, rounded, sqrt

_PI = rounded(PI)
_SQRT7 = rounded(SQRT7)
# t* = atan sqrt 7, theta_plus = atan(sqrt 7/3) and omega_plus = t* - 2 pi/3, as balls
_T_STAR = atan(_SQRT7)
_THETA = atan(_SQRT7 / 3.0)
_OMEGA = _T_STAR - 2.0 * _PI / 3.0


class Paper7Constants(
    namedtuple(
        "Paper7Constants",
        "r73 theta_plus theta_minus omega_plus omega_minus v_plus v_minus theta7",
    )
):
    """The fixed constants of the I7 evaluation.

    r73 = (sqrt 7 + sqrt 3)/(sqrt 7 - sqrt 3); theta_pm = +-atan(sqrt 7 / 3)
    are the arguments of the unit numbers v_pm = (3 +- i sqrt 7)/4;
    omega_plus = atan(sqrt 7) - 2 pi/3; theta7 = 2 atan(sqrt 7).
    A named tuple, as ``BBPFormula`` is; tests/test_integrals.py checks the
    relations among its fields.
    """

    __slots__ = ()


CONSTANTS = Paper7Constants(
    r73=(5.0 + math.sqrt(21.0)) / 2.0,
    theta_plus=Angle(_THETA.value),
    theta_minus=Angle(-_THETA.value),
    omega_plus=Angle(_OMEGA.value),
    omega_minus=Angle(-_OMEGA.value),
    v_plus=complex(3.0, SQRT7) / 4.0,
    v_minus=complex(3.0, -SQRT7) / 4.0,
    theta7=Angle(2.0 * _T_STAR.value),
)

_I7_SCALE = 24.0 / (7.0 * _SQRT7)

# I(n) = integral_{pi/3}^{pi/2} ln^n|(tan t + sqrt 7)/(tan t - sqrt 7)| dt is
# singular only at t* = atan sqrt 7.  In the distance x = t - t* the ratio is
# sin(2 t* + x)/sin x = (sqrt 7 - 3 tan x)/(4 tan x), as sin 2t* = sqrt 7/4 and
# cos 2t* = -3/4: t* leaves the integrand, whose singularity x = 0 doubles
# hold exactly, and moves only the limits: balls that carry the roundings of
# t* and of PI/3 or PI/2.
_LOWER = _PI / 3.0 - _T_STAR
_UPPER = _PI / 2.0 - _T_STAR
_AT_SINGULARITY = exact(0.0)


def _integral_x(n: int, lower: EvalResult, upper: EvalResult, tol: float) -> EvalResult:
    """The integral of ln^n|(sqrt 7 - 3 tan x)/(4 tan x)| between two of the
    limits above.

    The bound adds to ``integrate``'s what those moves shift the value by,
    and what SQRT7's rounding in the integrand does: with sqrt 7 - 3 tan x
    >= 1.5 it moves the logarithm, which is >= 0 here, by < EPS, so its
    n-th power by < n EPS times its (n-1)-th, whose integral the power mean
    bounds by width (I(n)/width)^((n-1)/n).  Raises QuadratureError when
    the bound exceeds tol.
    """
    check_tol(tol)  # a bad tol is refused before anything else
    if not is_int(n) or n < 0:
        raise DomainError("I(n) requires an integer n >= 0")

    def f(x: float) -> float:
        u = math.tan(x)
        return math.log(abs((SQRT7 - 3.0 * u) / (4.0 * u))) ** n

    a, b = lower.value, upper.value
    r = integrate(QuadProblem(f, a, b, (0.0,), tol))
    err = r.err_bound + sum(x.err_bound * abs(f(x.value)) for x in (lower, upper) if x.err_bound)
    if n:
        width = b - a
        err += n * EPS * width * ((abs(r.value) + r.err_bound) / width) ** (1.0 - 1.0 / n)
    if err > tol:
        raise QuadratureError(f"I({n}): error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(r.value, err, r.effort, r.method)


def integral_I7(tol: float = 1e-10) -> EvalResult:
    """The scaled integral I7 = (24 / 7 sqrt 7) I(1) by quadrature."""
    check_tol(tol)  # before scaling, so that an error names the caller's tol
    r = integral_In(1, tol / _I7_SCALE.value)
    i7 = _I7_SCALE * r
    return EvalResult(i7.value, i7.err_bound, r.effort, r.method)


def integral_In(n: int, tol: float = 1e-10) -> EvalResult:
    """I(n): the n-th log power integral, by quadrature in the distance to t*.

    At the default tol it succeeds for n <= 8; from n = 9 on the rounding of
    the quadrature sum alone exceeds that tol, so a larger one is needed.
    """
    return _integral_x(n, _LOWER, _UPPER, tol)


def integral_I1_split(tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """(I1(1), I2(1)): the integral I(1) split at the interior singularity."""
    return _integral_x(1, _LOWER, _AT_SINGULARITY, tol), _integral_x(
        1, _AT_SINGULARITY, _UPPER, tol
    )


def integral_In_vform(n: int, tol: float = 1e-10) -> EvalResult:
    """I(n) in the rational v-variable:

    (sqrt 7 / 2) [ int_{r73}^inf ln^n v/(2v^2-3v+2) dv + int_1^inf ln^n v/(2v^2+3v+2) dv ].

    As ``integral_In``, it succeeds at the default tol for n <= 8.
    """
    if not is_int(n) or n < 0:
        raise DomainError("integral_In_vform requires an integer n >= 0")
    r73 = CONSTANTS.r73
    p1 = integrate(
        QuadProblem(
            lambda v: math.log(v) ** n / (2.0 * v * v - 3.0 * v + 2.0),
            r73,
            math.inf,
            (),
            tol,
        )
    )
    p2 = integrate(
        QuadProblem(
            lambda v: math.log(v) ** n / (2.0 * v * v + 3.0 * v + 2.0),
            1.0,
            math.inf,
            (1.0,) if n >= 1 else (),
            tol,
        )
    )
    v = _SQRT7 / 2.0 * (p1 + p2)
    return EvalResult(v.value, v.err_bound, v.effort, "v-form quadrature")


def i2_closed_form() -> EvalResult:
    """I2(1) = -Cl_2(pi + theta_plus)."""
    from .specfun import cl2

    return -cl2(_PI + _THETA)


def _clausen_form(scale: float | EvalResult, x, y, z, method: str) -> EvalResult:
    """scale (Cl_2(x) - Cl_2(y) + Cl_2(z)).  The closed forms take no tol, so
    their Clausen values take one that no bound reaches."""
    from .specfun import cl2

    v = scale * (cl2(x, 1e300) - cl2(y, 1e300) + cl2(z, 1e300))
    return EvalResult(v.value, v.err_bound, v.effort, method)


def i1_clausen_form() -> EvalResult:
    """I1(1) = (1/2)[Cl_2(2 omega_plus) - Cl_2(2 omega_plus + 2 theta_plus) + Cl_2(2 theta_plus)]."""
    w, t = 2.0 * _OMEGA, 2.0 * _THETA
    return _clausen_form(0.5, w, w + t, t, "clausen")


def i7_closed_form() -> EvalResult:
    """I7 = (24/7 sqrt 7)(I1(1) + I2(1)) in Clausen values.

    By Cl_2's duplication formula the sum is the paper's Cl_2(theta_plus)
    + (1/2)[Cl_2(2 omega_plus) - Cl_2(2 omega_plus + 2 theta_plus)].
    """
    v = _I7_SCALE * (i1_clausen_form() + i2_closed_form())
    return EvalResult(v.value, v.err_bound, v.effort, "clausen")


def i1_polylog_form(n: int, tol: float = 1e-10) -> EvalResult:
    """Closed polylogarithmic form of I1(n) for n in {1, 2}.

    I1(n) = (-1)^n (i/2) { sum_{j=0}^{n-1} (n!/j!) lam^j
                [Li_{n+1-j}(Z+) - Li_{n+1-j}(Z-) + Q_{n+1-j}] + lam^n D }
    with lam = ln(1/r73), Z+- = r73/v_mp, Q_s the polylog inversion
    remainders P_s(Z-) - P_s(Z+), and D the branch-resolved logarithm
    D = ln(1 - v_plus/r73) - ln(1 - v_minus/r73).
    The assembled value is real up to rounding; the imaginary residue is
    asserted below 1e-10 and discarded.  The bound covers the arithmetic from
    the doubles r73 and v_pm on, not what their own rounding moves I1(n) by.
    """
    if not is_int(n) or n not in (1, 2):
        raise DomainError("i1_polylog_form supports n in {1, 2}")
    check_tol(tol)
    from .polylog import _inversion_remainder, polylog_complex

    r73 = CONSTANTS.r73
    vp, vm = exact(CONSTANTS.v_plus), exact(CONSTANTS.v_minus)
    zp = r73 / CONSTANTS.v_minus
    zm = r73 / CONSTANTS.v_plus
    lam = -log(r73)
    acc = 0.0j
    lam_j = 1.0  # lam^j
    for j in range(n):
        s = n + 1 - j
        lp = polylog_complex(s, zp, tol=1e-13)
        lm = polylog_complex(s, zm, tol=1e-13)
        pm = EvalResult(*_inversion_remainder(s, zm), "")
        pp = EvalResult(*_inversion_remainder(s, zp), "")
        acc = acc + math.factorial(n) / math.factorial(j) * lam_j * (lp - lm + pm - pp)
        lam_j = lam_j * lam
    dlog = log(1.0 - vp / r73) - log(1.0 - vm / r73)
    total = (-1.0) ** n * 0.5j * (acc + lam_j * dlog)
    if abs(total.value.imag) > 1e-10:
        raise QuadratureError(f"i1_polylog_form imaginary residue {total.value.imag:g} too large")
    if total.err_bound > tol:
        raise QuadratureError(
            f"i1_polylog_form error bound {total.err_bound:g} exceeds tol {tol:g}"
        )
    return EvalResult(total.value.real, total.err_bound, total.effort, "polylog")


def i1_series_truncated(n: int, terms: int = 60) -> float:
    """Truncated convergent series for I1(n) (geometric rate 1/r73).

    I1(n) = -(2 sqrt 7)/(8 (v+ - v-)) sum_{l>=1} (v-^l - v+^l)
            Gamma(n+1, l ln r73) / l^{n+1},
    obtained from the y = 1/v variable, which keeps every geometric-series
    argument inside the unit disk.
    """
    if not is_int(n) or n < 0:
        raise DomainError("i1_series_truncated requires an integer n >= 0")
    if not is_int(terms) or terms < 1:
        raise DomainError("i1_series_truncated needs an integer terms >= 1")
    from .specfun import incomplete_gamma_upper_int

    r73 = CONSTANTS.r73
    vp, vm = CONSTANTS.v_plus, CONSTANTS.v_minus
    lnr = math.log(r73)
    acc = 0.0j
    for ell in range(1, terms + 1):
        g = incomplete_gamma_upper_int(n, ell * lnr)
        acc += (vm**ell - vp**ell) * g / ell ** (n + 1)
    return (-(2.0 * SQRT7) / (8.0 * (vp - vm)) * acc).real


# ---------------------------------------------------------------------------
# the two-parameter family I(a, b)


def _check_ab(name: str, a: float, b: float) -> None:
    """Refuse an (a, b) outside the family's domain, in the words of ``name``."""
    if not 0.0 <= a < math.inf:
        raise DomainError(f"{name} requires a finite a >= 0, got a = {a!r}")
    if not abs(b) < 1.0:
        raise DomainError(f"{name} requires |b| < 1")


def integral_I_ab(a: float, b: float, tol: float = 1e-10) -> EvalResult:
    """I(a, b) = integral_a^inf ln y dy / (y^2 + 2by + 1) by quadrature.

    y -> 1/y maps ln y dy / (y^2 + 2by + 1) to its negative, so I(0, b) = 0
    and I(a, b) = -integral_0^c ln u du / (u^2 + 2bu + 1), c = min(a, 1/a):
    one finite panel for every a > 0, or its series where c < 2^-1021.
    """
    check_tol(tol)
    _check_ab("integral_I_ab", a, b)
    if a == 0.0:
        return exact(0.0)
    # (u + b)^2 + (1 - b)(1 + b): two terms >= 0, so no cancellation at the
    # peak u = -b as b nears -1, which is declared, as corollary3 declares x = c
    k = (1.0 - b) * (1.0 + b)

    def f(u: float) -> float:
        return -math.log(u) / ((u + b) * (u + b) + k)

    c, charge, rest = a, 0.0, tol
    if a > 1.0:
        # 1/a rounds by at most ulp(1/a), which moves the value by |f(1/a)|
        # ulp(1/a) at most: the rest of tol, less an ulp for the sum, is the panel's
        c = 1.0 / a
        charge = abs(f(c)) * math.ulp(c)
        rest = math.nextafter(tol - charge, 0.0)
        if not rest > 0.0:
            raise QuadratureError(
                f"integral_I_ab: the rounding of 1/a alone, {charge:g}, reaches tol {tol:g}"
            )
    if c < _NARROW:
        # 1/(u^2 + 2bu + 1) is 1 within 3u on (0, c), so the value is c (1 - ln c)
        # within integral_0^c -3u ln u du <= 3c^2 (|ln c| + 1), far below ULP0.
        # The log, 1 - ln c and the product cost 3 EPS of it, and a subnormal
        # product's rounding and the terms left out one ULP0 each
        v = c * (1.0 - math.log(c))
        err = 3.0 * EPS * v + 2.0 * ULP0
        if err > rest:
            raise QuadratureError(f"integral_I_ab: bound {err + charge:g} exceeds tol {tol:g}")
        return EvalResult(v, err + charge, 1, "series")
    r = integrate(QuadProblem(f, 0.0, c, (0.0, -b) if 0.0 < -b < c else (0.0,), rest))
    return EvalResult(r.value, r.err_bound + charge, r.effort, r.method)


def i_ab_closed_omega(a: float, b: float) -> EvalResult:
    """Closed form of I(a, b) through the angles theta_plus(b), omega_plus(a, b)."""
    _check_ab("i_ab_closed_omega", a, b)
    bb = exact(b)
    root = sqrt((1.0 - bb) * (1.0 + bb))
    theta = -atan(root / b) if b != 0.0 else -_PI / 2.0
    omega = atan(root / (a + bb)) if a + b != 0.0 else _PI / 2.0
    return _clausen_form(
        0.5 / root, 2.0 * omega, 2.0 * omega + 2.0 * theta, 2.0 * theta, "clausen-omega"
    )


def i_ab_closed_theta12(a: float, b: float) -> EvalResult:
    """Closed form of I(a, b) through theta_1 = asin(b) and theta_2(a, b)."""
    _check_ab("i_ab_closed_theta12", a, b)
    bb = exact(b)
    root = sqrt((1.0 - bb) * (1.0 + bb))
    t1 = asin(b)
    if a > 0.0:
        # 1/a is exact at a power of two, where a charge for its rounding would
        # dominate the bound next to b = -1
        recip = 1.0 / a if math.frexp(a)[0] == 0.5 else 1.0 / exact(a)
        t2 = atan((recip + bb) / root)
    else:
        t2 = _PI / 2.0
    return _clausen_form(
        0.5 / root, 2.0 * t2 - 2.0 * t1, _PI - 2.0 * t1, _PI - 2.0 * t2, "clausen-theta12"
    )


def corollary3(c: float, t: float, tol: float = 1e-10) -> tuple[EvalResult, float]:
    """integral_0^inf ln x dx/(x^2 + 2xc cos t + c^2) and its closed form (ln c / c)(t / sin t)."""
    if not c > 0.0:
        raise DomainError("corollary3 requires c > 0")
    if not 0.0 < t < PI:
        raise DomainError("corollary3 requires 0 < t < pi")
    # below 2^-511 the denominator underflows next to x = c, and past sqrt of
    # the largest double every node's term is 0: a zero bound on a wrong value
    if not (c >= 2.0**-511 and c * c < math.inf):
        raise QuadratureError(f"corollary3: c = {c!r} is out of reach in double precision")
    # x^2 + 2 x c cos t + c^2 = (x - c)^2 + 4 x c cos^2(t/2): two terms >= 0, so
    # no cancellation as t nears pi, where 1 + cos t would keep few digits
    k = 4.0 * c * math.cos(0.5 * t) ** 2
    lhs = integrate(
        QuadProblem(
            lambda x: math.log(x) / ((x - c) * (x - c) + k * x),
            0.0,
            math.inf,
            (0.0, c),
            tol,
        )
    )
    rhs = (math.log(c) / c) * (t / math.sin(t))
    return lhs, rhs


__all__ = [
    "Paper7Constants",
    "CONSTANTS",
    "integral_I7",
    "integral_In",
    "integral_In_vform",
    "integral_I1_split",
    "i1_polylog_form",
    "i1_series_truncated",
    "i1_clausen_form",
    "i2_closed_form",
    "i7_closed_form",
    "integral_I_ab",
    "i_ab_closed_omega",
    "i_ab_closed_theta12",
    "corollary3",
]
