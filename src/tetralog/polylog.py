"""Integer-order polylogarithms on the complex plane.

Three regimes stitched together: the defining power series inside |z| <= 0.8,
a logarithmic expansion around z = 1 on the annulus 0.8 < |z| < 1.25, and the
Bernoulli-polynomial inversion formula outside.  The principal branch is used
throughout (cut along [1, infinity)).
"""

from __future__ import annotations

import cmath
import math

from .bernoulli import TAYLOR_K_MAX, bernoulli_poly, zeta_int, zeta_taylor
from .constants import EPS, PI, TWO_PI
from .errors import ConvergenceError, DomainError
from .result import EvalResult
from .specfun import harmonic


def _li_series(s: int, z: complex) -> tuple[complex, float, int]:
    total = 0.0j
    zk = z
    k = 1
    for k in range(1, 800):
        term = zk / k**s
        total += term
        zk *= z
        if abs(term) < 0.25 * EPS * abs(total):
            break
    r = abs(z)
    err = max(abs(zk) / (k + 1) ** s * 2.0 / (1.0 - r), 4.0 * EPS * abs(total))
    return total, err, k


def _li_log_expansion(s: int, w: complex) -> tuple[complex, float, int]:
    """Li_s(e^w) for |w| < 2 pi, s >= 2 integer, via the ln(-w) expansion."""
    c = zeta_taylor(s)
    total = w ** (s - 1) / math.factorial(s - 1) * (harmonic(s - 1) - cmath.log(-w))
    wk = 1.0 + 0.0j
    scale = abs(total)
    term_mag = 0.0
    k = 0
    for k in range(0, TAYLOR_K_MAX + 1):
        ck = c[k]
        if ck != 0.0:
            term = ck * wk
            total += term
            term_mag = abs(term)
            scale = max(scale, abs(total))
            if k > s + 6 and term_mag < 0.25 * EPS * scale:
                break
        wk *= w
    ratio = abs(w) / TWO_PI
    err = max(term_mag * ratio / (1.0 - ratio) * 2.0, 8.0 * EPS * scale)
    return total, err, k


def _inversion_remainder(s: int, z: complex) -> complex:
    """P_s(z) = -(2 pi i)^s / s! * B_s(1/2 + ln(-z)/(2 pi i)), principal branch,
    so that Li_s(z) = (-1)^{s+1} Li_s(1/z) + P_s(z)."""
    twopii = complex(0.0, TWO_PI)
    return -(twopii**s) / math.factorial(s) * bernoulli_poly(s, 0.5 + cmath.log(-z) / twopii)


def polylog_complex(s: int, z: complex, tol: float = 1e-12) -> EvalResult:
    """Li_s(z) for integer s >= 2, principal branch.

    Points on the cut z in [1, inf) take the limit from below the cut for
    the imaginary part of the inversion formula, matching cmath.log.
    """
    if s < 2:
        raise DomainError("polylog_complex requires integer order >= 2")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return EvalResult(0.0 + 0.0j, 0.0, 0, "series")
    if z == 1.0:
        v = complex(zeta_int(s), 0.0)
        return EvalResult(v, 4.0 * EPS * abs(v), 0, "zeta")
    if r <= 0.8:
        v, err, n = _li_series(s, z)
        method = "series"
    elif r < 1.25:
        v, err, n = _li_log_expansion(s, cmath.log(z))
        method = "log-expansion"
    else:
        if not math.isfinite(r):  # a nan lands here too, and would recurse without end
            raise DomainError(f"polylog_complex needs a finite z, got {z!r}")
        sub = polylog_complex(s, 1.0 / z, tol=tol)
        inner, ierr, n = sub.value, sub.err_bound, sub.effort
        corr = _inversion_remainder(s, z)
        sign = -1.0 if s % 2 == 0 else 1.0
        v = sign * inner + corr
        err = ierr + 16.0 * EPS * abs(corr)
        method = "inversion"
    if err > tol:
        raise ConvergenceError(f"polylog_complex: error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(v, err, n, method)


__all__ = ["polylog_complex"]
