"""Dirichlet L-values at s = 2: L(2, chi_-7) by three independent routes, and
Catalan's constant G = L(2, chi_-4) by nine.

chi_-7 is the quadratic character mod 7 with chi(1, 2, 4) = +1 and
chi(3, 5, 6) = -1; the value L(2) is the conjectured closed form of the
tetrahedral integral this library evaluates.  Each route imports the
kernels it calls when it runs: the chi_-7 routes and the Catalan routes
eq1.11 and eq2.25 the special functions, the other Catalan routes the
accelerator, the quadrature or the BBP sums, and none loads another's.
"""

from __future__ import annotations

import math

from .constants import EPS, LN2, PI
from .errors import ConvergenceError, DomainError, check_tol
from .result import EvalResult, exact, rounded

CHI7 = (0, 1, 1, -1, 1, -1, -1)  # chi_-7(k) for k mod 7
_PI = rounded(PI)
_LN2 = rounded(LN2)


def l7_series(tol: float = 1e-13) -> EvalResult:
    """Sum chi(k)/k^2 directly over some whole periods, Hurwitz-zeta tail."""
    check_tol(tol)
    from .specfun import hurwitz_zeta

    J = 8
    # the 56 quotients, of |sum| < 1.7, round by under 1.7 u in all, and fsum
    # by u/2 more: an EPS
    head = EvalResult(math.fsum(CHI7[k % 7] / k**2 for k in range(1, 7 * J + 1)), EPS, 0, "")
    tail = sum(CHI7[p] * hurwitz_zeta(2.0, J + exact(p) / 7.0, tol=tol / 12.0) / 49.0
               for p in range(1, 7))
    v = head + tail
    if v.err_bound > tol:
        raise ConvergenceError(f"l7_series: error bound {v.err_bound:g} exceeds tol {tol:g}")
    return EvalResult(v.value, v.err_bound, 7 * J + 6, "series+hurwitz-tail")


def l7_trigamma() -> EvalResult:
    """(1/49)[psi'(1/7) + psi'(2/7) - psi'(3/7) + psi'(4/7) - psi'(5/7) - psi'(6/7)]."""
    from .specfun import trigamma

    total = sum(CHI7[p] * trigamma(exact(p) / 7.0) / 49.0 for p in range(1, 7))
    return EvalResult(total.value, total.err_bound, 6, "trigamma")


def l7_hurwitz(tol: float = 1e-13) -> EvalResult:
    """(1/49) sum_p chi(p) zeta(2, p/7)."""
    check_tol(tol)
    from .specfun import hurwitz_zeta

    total = sum(CHI7[p] * hurwitz_zeta(2.0, exact(p) / 7.0, tol=tol / 12.0) / 49.0
                for p in range(1, 7))
    if total.err_bound > tol:
        raise ConvergenceError(f"l7_hurwitz: error bound {total.err_bound:g} exceeds tol {tol:g}")
    return EvalResult(total.value, total.err_bound, total.effort, "hurwitz-zeta")


# ---------------------------------------------------------------------------
# Catalan's constant


def _route(r: EvalResult, method: str) -> EvalResult:
    return EvalResult(r.value, r.err_bound, r.effort, method)


def catalan_result(method: str) -> EvalResult:
    """The Catalan constant by one of the nine independent routes, with the
    route's own error bound."""
    if method == "eq2.35":
        from .bbp import REGISTRY, closed_form_value

        return _route(closed_form_value(REGISTRY["eq2.35-sum"]), method)
    if method in ("series", "eq1.11", "eq2.25"):
        from .accel import alternating_sum

        if method == "series":
            # G = sum (-1)^j / (2j+1)^2
            return _route(alternating_sum(lambda k: 1.0 / (2 * k + 1) ** 2, tol=1e-13), method)
        if method == "eq1.11":
            # G = (pi/2) ln 2 + sum_{j>=1} (-1)^j H_j/(2j+1)
            from .specfun import harmonic

            s = alternating_sum(lambda k: harmonic(k + 1) / (2 * k + 3), tol=1e-13)
            return _route(_PI / 2.0 * _LN2 - s, method)

        from .specfun import digamma

        def term(k: int) -> float:
            return (digamma(k / 2.0 + 0.75).value - digamma(k / 2.0 + 0.25).value) / (2 * k + 1)

        s = alternating_sum(term, tol=1e-13)
        return _route(-_PI / 4.0 * _LN2 + 0.5 * s, method)

    def eq2_28a(phi: float) -> float:
        # eq2.28a, corrected (the printed form misses the series' odd powers):
        # G = -int_0^1 x ln(x/sqrt2) / ((1 - x^2/2) sqrt(1-x^2)) dx, evaluated
        # after x = sin(phi), which removes the algebraic endpoint
        s = math.sin(phi)
        return s * math.log(s / math.sqrt(2.0)) / (1.0 - 0.5 * s * s)

    # G = c + k * the integral of f over [lo, hi], singular at sing
    routes = {
        "eq2.22": (lambda u: math.log(1.0 + u) / ((1.0 + u) * math.sqrt(u)),
                   0.0, 1.0, (0.0,), _PI / 2.0 * _LN2, -0.5),
        "eq2.27": (lambda u: math.atanh(1.0 / u) / (1.0 + u * u), 1.0, math.inf, (1.0,), 0.0, 2.0),
        "eq2.28a": (eq2_28a, 0.0, PI / 2.0, (0.0,), 0.0, -1.0),
        "eq2.28c": (lambda y: math.asin(y / math.sqrt(2.0)) / ((y + 1.0) * math.sqrt(2.0 - y * y)),
                    0.0, 1.0, (), _PI / 4.0 * _LN2, 2.0),
        "eq2.33": (lambda t: math.log(1.0 - t * t) / (1.0 + t * t),
                   0.0, 1.0, (1.0,), _PI / 4.0 * _LN2, -1.0),
    }
    if method not in routes:
        raise DomainError(f"unknown Catalan route {method!r}")
    from .quad import QuadProblem, integrate

    f, lo, hi, sing, c, k = routes[method]
    return _route(c + k * integrate(QuadProblem(f, lo, hi, sing, 1e-11)), method)


def catalan_value(method: str) -> float:
    """The Catalan constant by one of the nine independent routes."""
    return catalan_result(method).value


__all__ = ["CHI7", "l7_series", "l7_trigamma", "l7_hurwitz", "catalan_result", "catalan_value"]
