"""Convergence acceleration for slowly convergent alternating series."""

from collections.abc import Callable

from .errors import ConvergenceError, check_tol
from .result import EvalResult

# the highest acceleration order tried before giving up
_MAX_ORDER = 120


def alternating_sum(term: Callable[[int], float], tol: float = 1e-12) -> EvalResult:
    """Sum ``sum_{k>=0} (-1)^k term(k)`` with Chebyshev-weighted acceleration.

    Uses the Cohen-Rodriguez Villegas-Zagier scheme.  Each acceleration is
    linear in the terms, so ``term(k)`` may take either sign (L2b-2's first
    term is psi(1)/(3a^2) < 0).  Its error provably decays like
    (3+sqrt(8))^-n only when the terms are the moments of a positive measure
    on [0, 1] (CVZ 2000, Prop. 1), and not every caller's terms are: those
    of eq1.11 and L2b-1 fail the Hausdorff test.  So ``err_bound`` is an
    empirical estimate, the difference of two acceleration orders ten
    apart, floored at 1e-16 of the value; it is not a proof.
    """
    check_tol(tol)
    terms: list[float] = []  # term(k) at index k, each evaluated once

    def cvz(n: int) -> float:
        terms.extend(term(k) for k in range(len(terms), n))
        d = (3.0 + 8.0**0.5) ** n
        d = (d + 1.0 / d) / 2.0
        b, c, s = -1.0, -d, 0.0
        for k in range(n):
            c = b - c
            s += c * terms[k]
            b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
        return s / d

    prev = cvz(24)
    n = 34
    while n <= _MAX_ORDER:
        cur = cvz(n)
        err = abs(cur - prev)
        if err <= tol / 4.0:
            err = max(err, 1e-16 * abs(cur))
            if err > tol:
                raise ConvergenceError(
                    f"alternating series: error bound {err:g} exceeds tol {tol:g}"
                )
            return EvalResult(cur, err, n, "cvz-alternating")
        prev = cur
        n += 10
    raise ConvergenceError(
        f"alternating series did not stabilise to {tol:g} by order {_MAX_ORDER}"
    )
