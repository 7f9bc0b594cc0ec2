"""The Dirichlet L-value L(2, chi_-7) by three independent routes.

chi_-7 is the quadratic character mod 7 with chi(1, 2, 4) = +1 and
chi(3, 5, 6) = -1; the value L(2) is the conjectured closed form of the
tetrahedral integral this library evaluates.
"""

from __future__ import annotations

import math

from .constants import EPS
from .errors import DomainError
from .result import EvalResult
from .specfun import hurwitz_zeta, trigamma

CHI7 = (0, 1, 1, -1, 1, -1, -1)  # chi_-7(k) for k mod 7


def l7_series(tol: float = 1e-13) -> EvalResult:
    """Sum chi(k)/k^2 directly over some whole periods, Hurwitz-zeta tail."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    J = 8
    head = math.fsum(CHI7[k % 7] / k**2 for k in range(1, 7 * J + 1))
    tail = 0.0
    tail_err = 0.0
    for p in range(1, 7):
        hz = hurwitz_zeta(2.0, J + p / 7.0, tol=tol / 12.0)
        tail += CHI7[p] * hz.value / 49.0
        tail_err += hz.err_bound / 49.0
    err = tail_err + 8.0 * EPS
    return EvalResult(head + tail, err, 7 * J + 6, "series+hurwitz-tail")


def l7_trigamma() -> EvalResult:
    """(1/49)[psi'(1/7) + psi'(2/7) - psi'(3/7) + psi'(4/7) - psi'(5/7) - psi'(6/7)]."""
    total = 0.0
    err = 0.0
    for p in range(1, 7):
        t = trigamma(p / 7.0)
        total += CHI7[p] * t.value / 49.0
        err += t.err_bound / 49.0
    return EvalResult(total, err, 6, "trigamma")


def l7_hurwitz(tol: float = 1e-13) -> EvalResult:
    """(1/49) sum_p chi(p) zeta(2, p/7)."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    total = 0.0
    err = 0.0
    effort = 0
    for p in range(1, 7):
        hz = hurwitz_zeta(2.0, p / 7.0, tol=tol / 12.0)
        total += CHI7[p] * hz.value / 49.0
        err += hz.err_bound / 49.0
        effort += hz.effort
    return EvalResult(total, err, effort, "hurwitz-zeta")


__all__ = ["CHI7", "l7_series", "l7_trigamma", "l7_hurwitz"]
