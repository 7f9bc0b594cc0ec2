"""Independent reference values, computed with mpmath at 30 significant digits.

mpmath is the benchmark's oracle and is never used by the library itself.
Each function returns the exact-enough value of one object the library
computes; the workloads compare against these after the timed region.
"""

from __future__ import annotations

import functools

import mpmath

_DPS = 30
_CHI7 = (0, 1, 1, -1, 1, -1, -1)


def _mp(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        with mpmath.workdps(_DPS):
            return complex(fn(*args))

    return wrapper


@_mp
def clausen(order: int, kind: str, theta: float):
    return mpmath.clsin(order, theta) if kind == "sin" else mpmath.clcos(order, theta)


@_mp
def trigamma(x: float):
    return mpmath.psi(1, x)


@_mp
def hurwitz_zeta(s: float, a: float):
    return mpmath.zeta(s, a)


@_mp
def polylog(s: int, z: complex):
    return mpmath.polylog(s, z)


@functools.cache
@_mp
def catalan():
    return mpmath.catalan


@functools.cache
@_mp
def l7():
    return sum(_CHI7[p] * mpmath.zeta(2, mpmath.mpf(p) / 7) for p in range(1, 7)) / 49


@functools.cache
@_mp
def i7():
    """The defining t-integral, split at its interior log singularity."""
    r7 = mpmath.sqrt(7)

    def f(t):
        u = mpmath.tan(t)
        return mpmath.log(abs((u + r7) / (u - r7)))

    pts = [mpmath.pi / 3, mpmath.atan(r7), mpmath.pi / 2]
    return 24 / (7 * r7) * mpmath.quad(f, pts)


@_mp
def i_ab(a: float, b: float):
    """integral_a^inf ln y dy / (y^2 + 2by + 1)."""
    pts = [a, a + 1, mpmath.inf] if a > 0 else [0, 1, mpmath.inf]
    return mpmath.quad(lambda y: mpmath.log(y) / (y * y + 2 * b * y + 1), pts)


class HexDigits:
    """Fractional hex digits of the registry's pure sums, where mpmath can afford them.

    ``pi-degree1`` is pi itself; ``eq2.35-sum`` is 4G + pi^2/8 - (pi ln 2)/2
    with G the Catalan constant, affordable up to about 10^4 hex digits.
    ``eq2.37-sum`` needs a high-precision Im Li3((1+i)/2) and is never
    computed here; it is checked by overlap instead.
    """

    LIMITS = {"pi-degree1": 60_000, "eq2.35-sum": 10_000}
    _GUARD = 24

    def __init__(self) -> None:
        self._cache: dict[str, tuple[int, int]] = {}  # formula -> (hex digits, scaled int)

    def affordable(self, formula: str, position: int, count: int) -> bool:
        return position + count <= self.LIMITS.get(formula, -1)

    def reserve(self, formula: str, end: int) -> None:
        """Compute once to cover every position below ``end``."""
        have = self._cache.get(formula, (0, 0))[0]
        if end <= have:
            return
        ndig = end + self._GUARD
        with mpmath.workprec(4 * ndig + 64):
            if formula == "pi-degree1":
                x = +mpmath.pi
            else:
                x = 4 * mpmath.catalan + mpmath.pi**2 / 8 - mpmath.pi * mpmath.ln2 / 2
            scaled = int(mpmath.floor(x * mpmath.mpf(2) ** (4 * ndig)))
        self._cache[formula] = (ndig, scaled)

    def digits(self, formula: str, position: int, count: int) -> str:
        self.reserve(formula, position + count)
        ndig, scaled = self._cache[formula]
        shift = 4 * (ndig - position - count)
        return format((scaled >> shift) & ((1 << (4 * count)) - 1), f"0{count}X")
