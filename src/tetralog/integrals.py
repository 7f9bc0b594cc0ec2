"""The tetrahedral integral family and its closed forms.

The central object is the logarithmic integral

    I7 = (24 / 7 sqrt 7) * integral_{pi/3}^{pi/2} ln|(tan t + sqrt 7)/(tan t - sqrt 7)| dt

together with the generalized powers I(n), the split I(n) = I1(n) + I2(n)
at the interior singularity, the polylogarithmic closed form of I1(n), and
the two-parameter family I(a, b) = integral_a^inf ln y dy / (y^2 + 2by + 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import EPS, PI, SQRT3, SQRT7
from .errors import DomainError, QuadratureError
from .polylog import _inversion_remainder, polylog_complex
from .quad import QuadProblem, integrate
from .result import Angle, EvalResult
from .specfun import _clausen_triple, cl2, incomplete_gamma_upper_int


@dataclass(frozen=True)
class Paper7Constants:
    """The fixed constants of the I7 evaluation, self-validated on creation.

    r73 = (sqrt 7 + sqrt 3)/(sqrt 7 - sqrt 3); theta_pm = +-atan(sqrt 7 / 3)
    are the arguments of the unit numbers v_pm = (3 +- i sqrt 7)/4;
    omega_plus = atan(sqrt 7) - 2 pi/3; theta7 = 2 atan(sqrt 7).
    """

    r73: float
    theta_plus: Angle
    theta_minus: Angle
    omega_plus: Angle
    omega_minus: Angle
    v_plus: complex
    v_minus: complex
    theta7: Angle

    def __post_init__(self) -> None:
        tol = 1e-14
        checks = [
            abs(self.r73 - (SQRT7 + SQRT3) / (SQRT7 - SQRT3)),
            abs(self.omega_plus.raw - (math.atan(SQRT7) - 2.0 * PI / 3.0)),
            abs(self.omega_minus.raw + self.omega_plus.raw),
            abs(self.v_plus * self.v_minus - 1.0),
            abs(self.v_plus - cmath.exp(1j * self.theta_plus.raw)),
            abs(self.v_plus - complex(3.0, SQRT7) / 4.0),
            abs(self.v_minus - complex(3.0, -SQRT7) / 4.0),
            abs(self.theta7.raw - 2.0 * math.atan(SQRT7)),
            abs(2.0 * self.omega_plus.raw - (self.theta7.raw - 4.0 * PI / 3.0)),
        ]
        worst = max(checks)
        if worst > tol:
            raise DomainError(f"Paper7Constants invariant violated by {worst:g}")


CONSTANTS = Paper7Constants(
    r73=(5.0 + math.sqrt(21.0)) / 2.0,
    theta_plus=Angle(math.atan(SQRT7 / 3.0)),
    theta_minus=Angle(-math.atan(SQRT7 / 3.0)),
    omega_plus=Angle(math.atan(SQRT7) - 2.0 * PI / 3.0),
    omega_minus=Angle(2.0 * PI / 3.0 - math.atan(SQRT7)),
    v_plus=complex(3.0, SQRT7) / 4.0,
    v_minus=complex(3.0, -SQRT7) / 4.0,
    theta7=Angle(2.0 * math.atan(SQRT7)),
)

_I7_SCALE = 24.0 / (7.0 * SQRT7)


def _log_ratio_u(u: float) -> float:
    return math.log(abs((u + SQRT7) / (u - SQRT7)))


def integral_I7(tol: float = 1e-10) -> EvalResult:
    """The scaled integral I7 by quadrature in the u = tan t variable."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    inner = integrate(
        QuadProblem(
            lambda u: _log_ratio_u(u) / (1.0 + u * u),
            SQRT3,
            math.inf,
            (SQRT7,),
            tol / _I7_SCALE,
        )
    )
    return EvalResult(
        _I7_SCALE * inner.value, _I7_SCALE * inner.err_bound, inner.effort, inner.method
    )


def integral_In(n: int, tol: float = 1e-10) -> EvalResult:
    """I(n): the n-th log power integral, evaluated in both variables.

    The t-form over [pi/3, pi/2] and the u-form over [sqrt 3, inf) are both
    computed and must agree within their combined error bounds; the u-form
    value is returned.
    """
    if n < 0:
        raise DomainError("integral_In requires n >= 0")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    t_star = math.atan(SQRT7)

    def f_t(t: float) -> float:
        s, c = math.sin(t), math.cos(t)
        return math.log(abs((s + SQRT7 * c) / (s - SQRT7 * c))) ** n

    def f_u(u: float) -> float:
        return _log_ratio_u(u) ** n / (1.0 + u * u)

    r_t = integrate(QuadProblem(f_t, PI / 3.0, PI / 2.0, (t_star,), tol))
    r_u = integrate(QuadProblem(f_u, SQRT3, math.inf, (SQRT7,), tol))
    gap = abs(r_t.value - r_u.value)
    allowed = r_t.err_bound + r_u.err_bound + 1e-15 * max(1.0, abs(r_u.value))
    if gap > allowed:
        raise QuadratureError(
            f"t-form and u-form of I({n}) disagree by {gap:g} (allowed {allowed:g})"
        )
    return r_u


def integral_I1_split(tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """(I1(1), I2(1)): the integral I(1) split at the interior singularity."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    i1 = integrate(
        QuadProblem(
            lambda u: math.log((SQRT7 + u) / (SQRT7 - u)) / (1.0 + u * u),
            SQRT3,
            SQRT7,
            (SQRT7,),
            tol,
        )
    )
    i2 = integrate(
        QuadProblem(
            lambda u: math.log((u + SQRT7) / (u - SQRT7)) / (1.0 + u * u),
            SQRT7,
            math.inf,
            (SQRT7,),
            tol,
        )
    )
    return i1, i2


def integral_In_vform(n: int, tol: float = 1e-10) -> EvalResult:
    """I(n) in the rational v-variable:

    (sqrt 7 / 2) [ int_{r73}^inf ln^n v/(2v^2-3v+2) dv + int_1^inf ln^n v/(2v^2+3v+2) dv ].
    """
    if n < 0:
        raise DomainError("integral_In_vform requires n >= 0")
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
    half = SQRT7 / 2.0
    return EvalResult(
        half * (p1.value + p2.value),
        half * (p1.err_bound + p2.err_bound),
        p1.effort + p2.effort,
        "v-form quadrature",
    )


def i2_closed_form() -> EvalResult:
    """I2(1) = -Cl_2(pi + theta_plus)."""
    c = cl2(PI + CONSTANTS.theta_plus.raw)
    return EvalResult(-c.value, c.err_bound, c.effort, c.method)


def i1_clausen_form() -> EvalResult:
    """I1(1) = (1/2)[Cl_2(2 omega_plus) - Cl_2(2 omega_plus + 2 theta_plus) + Cl_2(2 theta_plus)]."""
    w = CONSTANTS.omega_plus.raw
    t = CONSTANTS.theta_plus.raw
    # w = atan(SQRT7) - 2 PI/3 and t = atan(SQRT7/3) are within 4 EPS and 2 EPS
    # of omega_plus and theta_plus
    arg = 2.0 * w + 2.0 * t
    v, err, effort = _clausen_triple(
        (2.0 * w, 8.0 * EPS), (arg, (12.0 + 0.5 * abs(arg)) * EPS), (2.0 * t, 4.0 * EPS)
    )
    return EvalResult(0.5 * v, 0.5 * err, effort, "clausen")


def i7_closed_form() -> EvalResult:
    """I7 = (24/7 sqrt 7) { Cl_2(theta_plus) + (1/2)[Cl_2(2 omega_plus) - Cl_2(2 omega_plus + 2 theta_plus)] }."""
    w = CONSTANTS.omega_plus.raw
    t = CONSTANTS.theta_plus.raw
    parts = [cl2(t), cl2(2.0 * w), cl2(2.0 * w + 2.0 * t)]
    v = _I7_SCALE * (parts[0].value + 0.5 * (parts[1].value - parts[2].value))
    return EvalResult(
        v,
        _I7_SCALE * sum(p.err_bound for p in parts),
        sum(p.effort for p in parts),
        "clausen",
    )


def i1_polylog_form(n: int, tol: float = 1e-10) -> EvalResult:
    """Closed polylogarithmic form of I1(n) for n in {1, 2}.

    I1(n) = (-1)^n (i/2) { sum_{j=0}^{n-1} (n!/j!) lam^j
                [Li_{n+1-j}(Z+) - Li_{n+1-j}(Z-) + Q_{n+1-j}] + lam^n D }
    with lam = ln(1/r73), Z+- = r73/v_mp, Q_s the polylog inversion
    remainders P_s(Z-) - P_s(Z+), and D the branch-resolved logarithm
    D = ln(1 - v_plus/r73) - ln(1 - v_minus/r73).
    The assembled value is real up to rounding; the imaginary residue is
    asserted below 1e-10 and discarded.
    """
    if n not in (1, 2):
        raise DomainError("i1_polylog_form supports n in {1, 2}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    r73 = CONSTANTS.r73
    zp = r73 / CONSTANTS.v_minus
    zm = r73 / CONSTANTS.v_plus
    lam = -math.log(r73)
    acc = 0.0j
    err = 0.0
    effort = 0
    for j in range(n):
        s = n + 1 - j
        lp = polylog_complex(s, zp, tol=1e-13)
        lm = polylog_complex(s, zm, tol=1e-13)
        pm, pm_err, pm_n = _inversion_remainder(s, zm)
        pp, pp_err, pp_n = _inversion_remainder(s, zp)
        coeff = math.factorial(n) / math.factorial(j) * lam**j
        acc += coeff * (lp.value - lm.value + pm - pp)
        err += abs(coeff) * (lp.err_bound + lm.err_bound + pm_err + pp_err)
        effort += lp.effort + lm.effort + pm_n + pp_n
    dlog = cmath.log(1.0 - CONSTANTS.v_plus / r73) - cmath.log(1.0 - CONSTANTS.v_minus / r73)
    acc += lam**n * dlog
    total = (-1.0) ** n * 0.5j * acc
    if abs(total.imag) > 1e-10:
        raise QuadratureError(f"i1_polylog_form imaginary residue {total.imag:g} too large")
    if err > tol:
        raise QuadratureError(f"i1_polylog_form error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(total.real, err, effort, "polylog")


def i1_series_truncated(n: int, terms: int = 60) -> float:
    """Truncated convergent series for I1(n) (geometric rate 1/r73).

    I1(n) = -(2 sqrt 7)/(8 (v+ - v-)) sum_{l>=1} (v-^l - v+^l)
            Gamma(n+1, l ln r73) / l^{n+1},
    obtained from the y = 1/v variable, which keeps every geometric-series
    argument inside the unit disk.
    """
    if n < 0:
        raise DomainError("i1_series_truncated requires n >= 0")
    if terms < 1:
        raise DomainError("need at least one term")
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


def integral_I_ab(a: float, b: float, tol: float = 1e-10) -> EvalResult:
    """I(a, b) = integral_a^inf ln y dy / (y^2 + 2by + 1) by quadrature."""
    if not a >= 0.0:
        raise DomainError("integral_I_ab requires a >= 0")
    if not abs(b) < 1.0:
        raise DomainError("integral_I_ab requires |b| < 1")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    sing = (0.0,) if a == 0.0 else ()
    return integrate(
        QuadProblem(
            lambda y: math.log(y) / (y * y + 2.0 * b * y + 1.0),
            a,
            math.inf,
            sing,
            tol,
        )
    )


def i_ab_closed_omega(a: float, b: float) -> EvalResult:
    """Closed form of I(a, b) through the angles theta_plus(b), omega_plus(a, b)."""
    if not a >= 0.0 or not abs(b) < 1.0:
        raise DomainError("i_ab_closed_omega requires a >= 0 and |b| < 1")
    root = math.sqrt((1.0 - b) * (1.0 + b))
    theta = -math.atan(root / b) if b != 0.0 else -PI / 2.0
    omega = math.atan(root / (a + b)) if a + b != 0.0 else PI / 2.0
    # root is within EPS of itself, root/b within 1.5 EPS and root/(a + b)
    # within 2 EPS; a relative error e in q moves atan(q) by e q/(1 + q^2) =
    # e sin(2t)/2, and atan adds an ulp of t
    d_theta = EPS * (0.75 * abs(math.sin(2.0 * theta)) + abs(theta))
    d_omega = EPS * (abs(math.sin(2.0 * omega)) + abs(omega))
    arg = 2.0 * omega + 2.0 * theta
    cl, err, effort = _clausen_triple(
        (2.0 * omega, 2.0 * d_omega),
        (arg, 2.0 * (d_omega + d_theta) + 0.5 * EPS * abs(arg)),
        (2.0 * theta, 2.0 * d_theta),
    )
    scale = 0.5 / root
    v = scale * cl
    # root, the division and the product put 2 EPS of v on it
    return EvalResult(v, scale * err + 2.0 * EPS * abs(v), effort, "clausen-omega")


def i_ab_closed_theta12(a: float, b: float) -> EvalResult:
    """Closed form of I(a, b) through theta_1 = asin(b) and theta_2(a, b)."""
    if not a >= 0.0 or not abs(b) < 1.0:
        raise DomainError("i_ab_closed_theta12 requires a >= 0 and |b| < 1")
    root = math.sqrt((1.0 - b) * (1.0 + b))
    t1 = math.asin(b)
    d1 = EPS * abs(t1)
    if a > 0.0:
        n = 1.0 / a + b
        t2 = math.atan(n / root)
        # unless a is a power of two, 1/a's rounding moves n by EPS/2a, which
        # reaches t2 through the slope 1/(1 + q^2) = root^2/(root^2 + n^2) times 1/root
        exact = math.frexp(a)[0] == 0.5
        d2 = 0.0 if exact else 0.5 * EPS * root / (a * (root * root + n * n))
    else:
        t2, d2 = PI / 2.0, 0.0
    # the sum, root and the quotient leave q = n/root within 2 EPS of itself,
    # which moves t2 by EPS sin(2 t2), as in i_ab_closed_omega; atan adds an ulp
    d2 += EPS * (abs(math.sin(2.0 * t2)) + abs(t2))
    x, y, z = 2.0 * t2 - 2.0 * t1, PI - 2.0 * t1, PI - 2.0 * t2
    # PI is 0.56 EPS short of pi
    cl, err, effort = _clausen_triple(
        (x, 2.0 * (d2 + d1) + 0.5 * EPS * abs(x)),
        (y, (0.6 + 0.5 * abs(y)) * EPS + 2.0 * d1),
        (z, (0.6 + 0.5 * abs(z)) * EPS + 2.0 * d2),
    )
    scale = 0.5 / root
    v = scale * cl
    return EvalResult(v, scale * err + 2.0 * EPS * abs(v), effort, "clausen-theta12")


def corollary3(c: float, t: float, tol: float = 1e-10) -> tuple[EvalResult, float]:
    """integral_0^inf ln x dx/(x^2 + 2xc cos t + c^2) and its closed form (ln c / c)(t / sin t)."""
    if not c > 0.0:
        raise DomainError("corollary3 requires c > 0")
    if not 0.0 < t < PI:
        raise DomainError("corollary3 requires 0 < t < pi")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
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
