"""Bernoulli numbers, Bernoulli polynomials about 1/2, and the integer zeta table.

Bernoulli numbers are generated exactly as fractions (B_1 = -1/2 convention)
and cached; everything downstream consumes double-precision projections,
tabulated in ``LazyTable`` objects that fill entry by entry as sums reach them.
"""

import math
from collections.abc import Callable
from fractions import Fraction
from functools import cache, lru_cache

from .constants import PI
from .errors import DomainError


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if n < 0:
        raise DomainError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


class LazyTable(dict):
    """Doubles indexed by int, each computed by ``entry`` the first time it is read."""

    def __init__(self, entry: Callable[[int], float]) -> None:
        super().__init__()
        self._entry = entry

    def __missing__(self, k: int) -> float:
        v = self[k] = self._entry(k)
        return v


def bernoulli_poly_central(n: int) -> tuple[Fraction, ...]:
    """Exact b_i, i = 0 .. n//2, with B_n(1/2 + y) = sum_i b_i y^{n-2i}.

    B_n(1/2 + y) = sum_j C(n, j) B_j(1/2) y^{n-j}, and B_j(1/2) = (2^{1-j} - 1) B_j
    vanishes for odd j, so only the even indices survive.
    """
    return tuple(
        math.comb(n, 2 * i) * (Fraction(2) ** (1 - 2 * i) - 1) * bernoulli_number(2 * i)
        for i in range(n // 2 + 1)
    )


@lru_cache(maxsize=None)
def zeta_int(n: int) -> float:
    """Riemann zeta at an integer argument n != 1.

    Even n >= 2 via the Bernoulli closed form, odd n >= 3 by direct
    summation with an Euler-Maclaurin tail, nonpositive n via zeta(-m) =
    -B_{m+1}/(m+1).
    """
    if n == 1:
        raise DomainError("zeta(1) is a pole")
    if n == 0:
        # zeta(-m) = -B_{m+1}/(m+1) assumes the B_1 = +1/2 convention; this
        # module uses B_1 = -1/2, so the m = 0 case must be pinned by hand
        return -0.5
    if n < 0:
        m = -n
        return float(-bernoulli_number(m + 1) / (m + 1))
    if n % 2 == 0:
        b = bernoulli_number(n)
        return float(
            Fraction(abs(b.numerator), b.denominator)
            * Fraction(2) ** (n - 1)
            / math.factorial(n)
        ) * PI**n
    # odd n >= 3: direct sum to K, Euler-Maclaurin tail from K
    K = 50
    s = math.fsum(k ** (-float(n)) for k in range(1, K))
    s += K ** (1.0 - n) / (n - 1) + 0.5 * K ** (-float(n))
    poch = float(n)
    for j in (1, 2, 3):
        s += (
            float(bernoulli_number(2 * j))
            / math.factorial(2 * j)
            * poch
            * K ** (-(n + 2.0 * j - 1.0))
        )
        poch *= (n + 2 * j - 1) * (n + 2 * j)
    return s


TAYLOR_K_MAX = 170  # largest k with k! representable as a double


@cache
def zeta_taylor(s: int) -> LazyTable:
    """Coefficients c_k = zeta(s - k)/k! of Li_s(e^w) about w = 0, with c_{s-1} = 0.

    ``Li_s(e^w) = w^{s-1}/(s-1)! (H_{s-1} - ln(-w)) + sum_k c_k w^k`` for
    integer s >= 2 and |w| < 2 pi (Lewin 1981).  For k > s, c_k vanishes
    unless k - s is odd.  Entries exist for k <= TAYLOR_K_MAX.
    """
    return LazyTable(lambda k: 0.0 if k == s - 1 else zeta_int(s - k) / math.factorial(k))
