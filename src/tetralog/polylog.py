"""Integer-order polylogarithms on the complex plane.

Three regimes, each a polynomial summed by Horner's rule (the layout of
Crandall, "Note on fast polylogarithm computation", 2006):

* ``|z| <= RHO``: the power series sum_k z^k / k^s, its coefficients read from
  a per-order table of 1/k^s;
* ``RHO < |z| < OUTER``: a log expansion about the nearer of z = 1 and z = -1.
  Where Re z >= -|z|/2, that of Li_s(e^w) about w = ln z = 0, on the
  ``zeta_taylor`` coefficients: a head of s + 1 terms in w, one of which
  carries H_{s-1} - ln(-w), and a tail in w^2, whose terms shrink at least by
  (|w|/2 pi)^2 from one to the next.  Where Re z < -|z|/2, that of
  Li_s(-e^v) about v = ln(-z) = 0, on the ``eta_taylor`` coefficients: the
  same layout with no log term, its tail shrinking by (|v|/pi)^2.  On the
  switch |arg z| = 2 pi/3 both ratios are 1/9 at |z| = 1.  Both tables are
  ``bernoulli._log_tables``, which the Clausen kernel reads too;
* ``|z| >= OUTER``: inversion, Li_s(z) = (-1)^{s+1} Li_s(1/z) + P_s(z), with
  the series kernel on 1/z and the remainder P_s a polynomial in
  L = ln(-z) of floor(s/2) + 1 real coefficients, summed in L^2.  Orders above
  TAYLOR_K_MAX have no expansion table, so they take it from |z| >= 1/RHO.

Each series fixes its term count before summing: a real loop over the term
magnitudes stops at the first term below EPS/4 of their running sum, and that
sum of |terms| bounds the roundoff.  The principal branch is used throughout
(cut along [1, infinity)).
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from itertools import count

from .bernoulli import _STOP, OUTER, TAYLOR_K_MAX, _log_tables, bernoulli_poly_central, zeta_int
from .constants import EPS, PI, TWO_PI, ULP0
from .errors import ConvergenceError, DomainError, check_tol
from .result import EvalResult, no_ball

RHO = 0.5  # the series runs for |z| <= RHO


@cache
def _inv_powers(s: int) -> tuple[float, ...]:
    """(0, 1, 1/2^s, 1/3^s, ...), each correctly rounded, through the first k
    with RHO^{k-1}/k^s <= _STOP.  A series on |z| <= RHO stops by then, as
    its first term is |z|; one on a rounded 1/z, a hair outside, may reach the
    end, and the tail from there is in its bound."""
    a = [0.0]
    for k in count(1):
        a.append(1 / k**s)
        if RHO ** (k - 1) * a[k] <= _STOP:
            return tuple(a)


def _li_series(s: int, z: complex) -> tuple[complex, float, int]:
    """Li_s(z) = sum_k z^k/k^s for |z| < 1, as (value, err_bound, terms)."""
    a = _inv_powers(s)
    r = abs(z)
    rk, mag = 1.0, 0.0
    for n in range(1, len(a)):
        rk *= r
        t = rk * a[n]
        if t <= _STOP * mag:
            break
        mag += t
    acc = 0j
    for ak in a[n - 1 : 0 : -1]:
        acc = acc * z + ak
    # The terms shrink at least by r, so t/(1 - r) bounds the tail.  Horner
    # carries a rounding made at term k through k steps, and a rounded z (as
    # 1/z is) moves term k by k times its relative error: both are multiples
    # of sum k |term_k| <= mag/(1 - r).
    return acc * z, (t + 5.0 * EPS * mag) / (1.0 - r), n - 1


def _li_log_expansion(s: int, z: complex, minus: bool) -> tuple[complex, float, int]:
    """Li_s(z), RHO < |z| < OUTER, as (value, err_bound, terms).  About z = 1,
    at w = ln z: sum_{k<=s} c_k w^k - ln(-w) w^{s-1}/(s-1)! + w^{s+1} sum_m
    d_m w^{2m}.  About z = -1 (``minus``), at w = ln(-z): the same sums of
    c'_k, with no log term.  The coefficients are ``bernoulli._log_tables``'s."""
    if s > TAYLOR_K_MAX:  # c_s = zeta(0)/s! needs s! as a double
        raise OverflowError(f"Li_{s}: order too large for double precision")
    head, head_abs, tail, tail_abs = _log_tables(s, minus)
    w = cmath.log(-z if minus else z)
    aw = abs(w)
    mag = 0.0
    for a in head_abs:
        mag = mag * aw + a
    wk = aw ** (s - 1)
    if not minus:
        lc = cmath.log(-w) / math.factorial(s - 1)
        mag += abs(lc) * wk
    aw2 = aw * aw
    wk *= aw2
    # mag >= |c_0|, so this ends by the tail's last term (see bernoulli._log_tables)
    for m in count():
        t = tail_abs[m] * wk
        if t <= _STOP * mag:
            break
        mag += t
        wk *= aw2
    w2 = w * w
    acc = 0j
    for d in reversed(tail[:m]):
        acc = acc * w2 + d
    for a in head:
        acc = acc * w + a
    # The tail's terms shrink at least by q, as |d_{m+1}/d_m| <= 1/(2 pi)^2, or
    # 1/pi^2 about -1, and (s + 4) EPS mag covers the rounding of w and of the
    # Horner steps, and the one more rounding of each c'_k.
    if minus:
        return acc, t / (1.0 - (aw / PI) ** 2) + (s + 4) * EPS * mag, m + s + 1
    q = (aw / TWO_PI) ** 2
    err = t / (1.0 - q) + (s + 4) * EPS * mag
    return acc - lc * w ** (s - 1), err, m + s + 1


@cache
def _remainder_coeffs(s: int) -> tuple[float, ...]:
    """a_i of P_s(z) = sum_i a_i L^{s-2i}, i = 0 .. s//2, L = ln(-z).

    P_s(z) = -(2 pi i)^s/s! B_s(1/2 + L/(2 pi i)), and B_s(1/2 + y) =
    sum_i b_i y^{s-2i}, so a_i = -(2 pi i)^{2i} b_i/s! = -(-4)^i b_i pi^{2i}/s!.
    Each |a_i| is below 2, but the double pi^{2i} it is formed with overflows
    from 2i = 621, so orders s >= 622 raise OverflowError, before the exact
    Bernoulli polynomial, whose size and cost grow with s, is built.
    """
    try:
        PI ** (2 * (s // 2))  # the highest power of pi taken
    except OverflowError:
        raise OverflowError(f"Li_{s}: order too large for double precision") from None
    return tuple(
        -((-4) ** i) * num / (den * math.factorial(s)) * PI ** (2 * i)
        for i, (num, den) in enumerate(bernoulli_poly_central(s))
    )


def _inversion_remainder(s: int, z: complex) -> tuple[complex, float, int]:
    """P_s(z) = -(2 pi i)^s / s! * B_s(1/2 + ln(-z)/(2 pi i)), principal branch,
    so that Li_s(z) = (-1)^{s+1} Li_s(1/z) + P_s(z); as (value, err_bound, terms).

    Horner runs in L^2 over the s//2 + 1 coefficients.  The bound is (s + 4) EPS
    times sum_i |a_i| |L|^{s-2i}: the rounding of L moves the term of power p
    by p times itself, and pi^{2i} carries up to 2i + 1 roundings into a_i."""
    L = cmath.log(-z)
    L2 = L * L
    aL2 = abs(L2)
    acc = 0j
    mag = 0.0
    for a in _remainder_coeffs(s):
        acc = acc * L2 + a
        mag = mag * aL2 + abs(a)
    if s % 2:
        acc *= L
        mag *= abs(L)
    return acc, (s + 4) * EPS * mag, s // 2 + 1


def polylog_complex(s: int, z: complex, tol: float = 1e-12) -> EvalResult:
    """Li_s(z) for integer s >= 2, principal branch.

    ``effort`` counts every term summed: the series terms, the head and tail
    of the log expansion about z = 1 or z = -1, or the series on 1/z plus the
    s//2 + 1 terms of the inversion remainder.  Points on the cut z in
    (1, inf) take the limit from the side the sign of their zero imaginary
    part names, from above for +0.0j, as cmath.log does, in every regime.
    """
    if type(s) is not int or s < 2:  # errors.is_int, inline
        raise DomainError("polylog_complex requires integer order >= 2")
    check_tol(tol)
    no_ball(z, "polylog_complex")
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return EvalResult(0.0 + 0.0j, 0.0, 0, "series")
    if z == 1.0:
        v = complex(zeta_int(s), 0.0)
        return EvalResult(v, 4.0 * EPS * abs(v), 0, "zeta")
    if r <= RHO:
        v, err, n = _li_series(s, z)
        method = "series"
    elif r < OUTER if s <= TAYLOR_K_MAX else r * RHO < 1.0:
        v, err, n = _li_log_expansion(s, z, z.real < -0.5 * r)
        method = "log-expansion"
    else:
        if not math.isfinite(r):  # a nan lands here too
            raise DomainError(f"polylog_complex needs a finite z, got {z!r}")
        inner, err, n = _li_series(s, 1.0 / z)
        corr, cerr, cn = _inversion_remainder(s, z)
        v = corr - inner if s % 2 == 0 else corr + inner
        err += cerr + EPS * abs(v)
        n += cn
        method = "inversion"
    if err < ULP0:
        err = ULP0
    if err > tol:
        raise ConvergenceError(f"polylog_complex: error bound {err:g} exceeds tol {tol:g}")
    return EvalResult(v, err, n, method)


__all__ = ["polylog_complex"]
