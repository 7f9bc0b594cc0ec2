"""Bernoulli numbers, Bernoulli polynomials about 1/2, and the integer zeta table.

Bernoulli numbers are generated exactly, as integer (numerator, denominator)
pairs (B_1 = -1/2 convention), from the integer tangent-number triangle, and
cached; everything downstream consumes double-precision projections, each
one correctly rounded int/int division, cached entry by entry as sums reach
them.  ``fractions`` is imported only by ``bernoulli_number``, which hands out
``Fraction`` objects.  The one Euler-Maclaurin sum for zeta(s, a) lives here
too, since ``zeta_int`` and ``specfun.hurwitz_zeta`` both evaluate it, and
so does the one Taylor table of Li_s(+-e^w) per order and centre that the
polylog and Clausen kernels read (``_log_tables``).
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import TYPE_CHECKING

from .constants import EPS, LN2, PI
from .errors import DomainError, is_int

if TYPE_CHECKING:
    from fractions import Fraction


# The Brent-Harvey tangent-number triangle (Brent and Harvey, "Fast computation
# of Bernoulli, Tangent and Secant numbers", 2011), kept as its last column so
# that it grows by one row per new number: in a snapshot (column, numbers) of
# n rows, column[i] is entry n of the triangle's row i + 1, and numbers holds
# B_0, B_2, ..., B_2n as (numerator, denominator) pairs in lowest terms,
# denominators positive.  A snapshot is never changed, only replaced whole.
_TABLE: tuple[tuple[int, ...], tuple[tuple[int, int], ...]] = ((), ((1, 1),))


def bernoulli_ratio(n: int) -> tuple[int, int]:
    """Exact Bernoulli number B_n (B_1 = -1/2) as (numerator, denominator),
    in lowest terms with the denominator positive.

    Row 1 of the triangle holds (j - 1)! at entry j, and row k >= 2 holds
    (j - k) R_k(j - 1) + (j - k + 2) R_{k-1}(j) at entries j >= k; entry k of
    row k is the tangent number T_k, with tan x = sum_k T_k x^(2k-1)/(2k-1)!,
    and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  All of it is integer.
    Each new row makes a new snapshot, published in one assignment, so a
    caller that races or re-enters this only repeats work.
    """
    global _TABLE
    if n < 0:
        raise DomainError("Bernoulli numbers need n >= 0")
    if n == 1:
        return -1, 2
    if n % 2 == 1:
        return 0, 1
    col, numbers = _TABLE
    while len(numbers) <= n // 2:
        rows = len(col)
        new = [col[0] * rows if rows else 1]
        # entries 1 .. rows of the last column; row rows + 1 has no entry rows
        for i, c in enumerate((*col, 0)[1:], 1):
            new.append((rows - i) * c + (rows + 2 - i) * new[i - 1])
        col, k = tuple(new), rows + 1
        num, den = 2 * k * new[-1], 4**k * (4**k - 1)
        g = math.gcd(num, den)
        numbers = (*numbers, ((num if k % 2 else -num) // g, den // g))
        _TABLE = col, numbers
    return numbers[n // 2]


@lru_cache(maxsize=None, typed=True)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if not is_int(n):
        raise DomainError("bernoulli_number requires an integer n")
    from fractions import Fraction

    return Fraction(*bernoulli_ratio(n))


def bernoulli_poly_central(n: int) -> tuple[tuple[int, int], ...]:
    """Exact b_i, i = 0 .. n//2, with B_n(1/2 + y) = sum_i b_i y^{n-2i}, as
    (numerator, denominator) pairs with positive denominators.

    B_n(1/2 + y) = sum_j C(n, j) B_j(1/2) y^{n-j}, and B_j(1/2) = (2^{1-j} - 1) B_j
    vanishes for odd j, so only the even indices survive; 2^{1-2i} - 1 is
    (2 - 4^i)/4^i.
    """
    return tuple(
        (math.comb(n, 2 * i) * (2 - 4**i) * num, 4**i * den)
        for i, (num, den) in enumerate(map(bernoulli_ratio, range(0, n + 1, 2)))
    )


_EM_TERMS = 10  # Euler-Maclaurin corrections summed; one more bounds the rest


@cache
def _em_coeffs() -> tuple[tuple[float, ...], float]:
    """The Euler-Maclaurin coefficients B_2j/(2j)! for j = 1 .. _EM_TERMS, and
    the next one, which bounds the remainder."""
    b = []
    for j in range(1, _EM_TERMS + 2):
        num, den = bernoulli_ratio(2 * j)
        b.append(num / den / math.factorial(2 * j))
    return tuple(b[:-1]), b[-1]


def _euler_maclaurin(s: float, a: float, N: int) -> tuple[float, float, float]:
    """zeta(s, a) for s > 1 by Euler-Maclaurin from z = a + N, as (value, bound
    on the remainder, value less z^-s/2 and the corrections: the head and the
    integral, which ``hurwitz_zeta``'s roundoff floor scales with).

    The value is one fsum of the head sum_{k<N} (a+k)^-s, the integral
    z^{1-s}/(s-1), z^-s/2, and the sum of the corrections b_j s (s+1) ...
    (s+2j-2) z^{-(s+2j-1)}, j = 1 .. _EM_TERMS.  The remainder is bounded by
    the magnitude of the first correction left out.  The corrections carry
    their power along by z^-2 and are added in turn, which puts under 12 EPS
    of rounding on their sum; for s <= 6 and z >= 10 they total under 3 % of
    the integral.
    """
    z = a + N
    zs = z**-s
    terms = [(a + k) ** -s for k in range(N)]
    if zs == 0.0:
        # z^-s is below 2^-1075 (within pow's rounding), and zeta(s, z) <=
        # z^-s (1 + z/(s - 1)): the remainder is the whole tail, charged at
        # twice that, and no correction is formed (their Pochhammer factor
        # s (s + 1) ... would overflow for s >= 1e15)
        total = math.fsum(terms)
        return total, 2.0**-1074 * (1.0 + z / (s - 1.0)), total
    b, b_rem = _em_coeffs()
    inv2 = 1.0 / (z * z)
    corr = 0.0
    poch = u = s
    zp = zs / z
    for bj in b:
        corr += bj * poch * zp
        poch *= (u + 1.0) * (u + 2.0)
        u += 2.0
        zp *= inv2
    terms += (z * zs / (s - 1.0), 0.5 * zs, corr)
    total = math.fsum(terms)
    return total, abs(b_rem * poch) * zp, total - 0.5 * zs - corr


@lru_cache(maxsize=None, typed=True)
def zeta_int(n: int) -> float:
    """Riemann zeta at an integer argument n != 1.

    n >= 2 by ``_euler_maclaurin`` from z = 10, where the remainder is below
    1e-19 of the value; nonpositive n via zeta(-m) = -B_{m+1}/(m+1).  The
    direct sum, not the closed form |B_n| (2 pi)^n / (2 n!) at even n, since
    PI**n would carry n times PI's relative error into the value.  The
    cache is typed, so 2.0 or True never reaches the entry of 2 or 1.
    """
    if not is_int(n):
        raise DomainError("zeta_int requires an integer n")
    if n == 1:
        raise DomainError("zeta(1) is a pole")
    if n == 0:
        # zeta(-m) = -B_{m+1}/(m+1) assumes the B_1 = +1/2 convention; this
        # module uses B_1 = -1/2, so the m = 0 case must be pinned by hand
        return -0.5
    if n < 0:
        num, den = bernoulli_ratio(1 - n)
        return -num / (den * (1 - n))
    return _euler_maclaurin(float(n), 1.0, 9)[0]


TAYLOR_K_MAX = 170  # largest k with k! representable as a double


@cache
def zeta_taylor(s: int, k: int) -> float:
    """Coefficient c_k of Li_s(e^w) about w = 0: c_k = zeta(s - k)/k!, save
    c_{s-1} = H_{s-1}/(s-1)!.

    ``Li_s(e^w) = sum_k c_k w^k - ln(-w) w^{s-1}/(s-1)!`` for integer s >= 2
    and |w| < 2 pi (Lewin 1981).  For k > s, c_k vanishes unless k - s is odd.
    Defined for k <= TAYLOR_K_MAX.  The polylog and Clausen kernels both read
    their coefficients here.
    """
    if k == s - 1:
        # H_{s-1}/(s-1)!, exact until this one rounding
        f = math.factorial(s - 1)
        return sum(f // j for j in range(1, s)) / (f * f)
    return zeta_int(s - k) / math.factorial(k)


def eta_taylor(s: int, k: int) -> float:
    """Coefficient c'_k of Li_s(-e^v) about v = 0: c'_k = -eta(s - k)/k!, with
    eta(m) = (1 - 2^{1-m}) zeta(m), so c'_k = (2^{k+1-s} - 1) c_k, save
    c'_{s-1} = -eta(1)/(s-1)! = -ln 2/(s-1)!.

    ``Li_s(-e^v) = sum_k c'_k v^k`` for integer s >= 2 and |v| < pi, with no
    log term (Lewin 1981, ch. 4).  Past k = s only k - s odd survives, and
    |c'_k| = 2 (k-s)! lambda(k-s+1)/(pi^{k-s+1} k!), lambda(m) = (1 - 2^{-m})
    zeta(m) falling in m, so |c'_{k+2}| <= |c'_k|/pi^2.  Defined for
    k <= TAYLOR_K_MAX; each value takes one rounding more than c_k.
    """
    if k == s - 1:
        return -LN2 / math.factorial(s - 1)
    return (2.0 ** (k + 1 - s) - 1.0) * zeta_taylor(s, k)


_STOP = 0.25 * EPS  # a term below _STOP times the running sum of |terms| ends a sum
OUTER = 3.5  # the polylog log expansions serve |z| < OUTER


@cache
def _log_tables(s: int, minus: bool) -> tuple[tuple[float, ...], ...]:
    """The one Taylor table of Li_s(e^w) about w = 0, or of Li_s(-e^w) when
    ``minus``, for s <= TAYLOR_K_MAX + 1: its head c_t, ..., c_0 (``zeta_taylor``
    or ``eta_taylor``), t = min(s, TAYLOR_K_MAX), and its tail d_m = c_{s+1+2m},
    each followed by its magnitudes.

    The tail runs to its first term below _STOP |c_0| at the widest |w| of the
    polylog regime, |z| < OUTER and |arg z| <= 2 pi/3 (2.44), or |arg(-z)| <
    pi/3 when ``minus`` (1.64), so a sum whose |terms| exceed |c_0| stops by
    its end at any smaller |w|.  Past k = TAYLOR_K_MAX a term is below 1e-40
    for |w| < 3.3, so one more term, 0, ends the tail there."""
    coeff = eta_taylor if minus else zeta_taylor
    head = tuple(coeff(s, k) for k in range(min(s, TAYLOR_K_MAX), -1, -1))
    widest = abs(complex(math.log(OUTER), (1.0 if minus else 2.0) * PI / 3.0))
    tail = []
    for k in range(s + 1, TAYLOR_K_MAX + 3, 2):
        tail.append(coeff(s, k) if k <= TAYLOR_K_MAX else 0.0)
        if abs(tail[-1]) * widest**k < _STOP * abs(head[-1]):
            break
    return head, tuple(map(abs, head)), tuple(tail), tuple(map(abs, tail))
