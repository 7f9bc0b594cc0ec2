"""Bernoulli numbers, Bernoulli polynomials about 1/2, and the integer zeta table.

Bernoulli numbers are generated exactly as fractions (B_1 = -1/2 convention)
from the integer tangent-number triangle, and cached; everything downstream
consumes double-precision projections, tabulated in ``LazyTable`` objects that
fill entry by entry as sums reach them.
"""

import math
from collections.abc import Callable
from fractions import Fraction
from functools import cache, lru_cache

from .errors import DomainError


# The Brent-Harvey tangent-number triangle (Brent and Harvey, "Fast computation
# of Bernoulli, Tangent and Secant numbers", 2011), kept as its last column so
# that it grows by one row per new number: after n rows, _TANGENT_COLUMN[i] is
# entry n of the triangle's row i + 1, and _B_EVEN holds B_0, B_2, ..., B_2n.
_TANGENT_COLUMN: list[int] = []
_B_EVEN: list[Fraction] = [Fraction(1)]


def _grow_b_even() -> None:
    """Append the next even-index Bernoulli number to _B_EVEN.

    Row 1 of the triangle holds (j - 1)! at entry j, and row k >= 2 holds
    (j - k) R_k(j - 1) + (j - k + 2) R_{k-1}(j) at entries j >= k; entry k of
    row k is the tangent number T_k, with tan x = sum_k T_k x^(2k-1)/(2k-1)!,
    and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  All of it is integer.
    """
    col = _TANGENT_COLUMN
    n = len(col)
    new = [col[0] * n if n else 1]
    col.append(0)  # row n + 1 has no entry n
    for i in range(1, n + 1):
        new.append((n - i) * col[i] + (n + 2 - i) * new[i - 1])
    col[:] = new
    k = n + 1
    b = Fraction(2 * k * new[-1], 4**k * (4**k - 1))
    _B_EVEN.append(b if k % 2 else -b)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if n < 0:
        raise DomainError("Bernoulli numbers need n >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    while len(_B_EVEN) <= n // 2:
        _grow_b_even()
    return _B_EVEN[n // 2]


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

    n >= 2 by direct summation with an Euler-Maclaurin tail, nonpositive n
    via zeta(-m) = -B_{m+1}/(m+1).  The direct sum, not the closed form
    |B_n| (2 pi)^n / (2 n!) at even n, since PI**n would carry n times PI's
    relative error into the value.
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
    # direct sum to K, Euler-Maclaurin tail from K
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
    """Coefficients c_k of Li_s(e^w) about w = 0: c_k = zeta(s - k)/k!, save
    c_{s-1} = H_{s-1}/(s-1)!.

    ``Li_s(e^w) = sum_k c_k w^k - ln(-w) w^{s-1}/(s-1)!`` for integer s >= 2
    and |w| < 2 pi (Lewin 1981).  For k > s, c_k vanishes unless k - s is odd.
    Entries exist for k <= TAYLOR_K_MAX.  The polylog and Clausen kernels both
    read their coefficients here.
    """

    def entry(k: int) -> float:
        if k == s - 1:
            # H_{s-1}/(s-1)!, exact until this one rounding
            return float(sum(Fraction(1, j) for j in range(1, s)) / math.factorial(s - 1))
        return zeta_int(s - k) / math.factorial(k)

    return LazyTable(entry)
