"""Shared value types: evaluation results and angle/point wrappers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EPS, PI, PI_DIGITS
from .errors import DomainError


@dataclass(frozen=True, init=False)
class EvalResult:
    """A computed value with an estimated absolute error bound.

    ``err_bound`` is an estimate of ``|value - exact|``; ``effort`` counts
    series terms or quadrature nodes; ``method`` is a short tag naming the
    evaluation route.
    """

    value: float | complex
    err_bound: float
    effort: int
    method: str

    def __init__(self, value: float | complex, err_bound: float, effort: int, method: str) -> None:
        # every kernel call builds one, so the checks read the arguments and
        # the fields go straight into __dict__, past the frozen __setattr__
        if value - value != 0:  # 0 exactly when every part, real or complex, is finite
            raise DomainError("EvalResult value must be finite")
        if not 0.0 <= err_bound < math.inf:  # a nan fails too
            raise DomainError("EvalResult err_bound must be finite and >= 0")
        if effort < 0:
            raise DomainError("EvalResult effort must be >= 0")
        fields = self.__dict__
        fields["value"] = value
        fields["err_bound"] = err_bound
        fields["effort"] = effort
        fields["method"] = method


@dataclass(frozen=True)
class Angle:
    """An angle in radians; ``reduce_angle`` reduces it to (-pi, pi]."""

    raw: float


# 2 pi as _TWO_PI_NUM / 2^_TWO_PI_BITS, within 2^-1129: a double angle has fewer
# than 2^1022 turns, so its reduction by this value is off by under 2^-107
_TWO_PI_BITS = 1130
_TWO_PI_NUM = (int(PI_DIGITS) << (_TWO_PI_BITS + 1)) // 10 ** (len(PI_DIGITS) - 1)


def reduce_angle(theta: Angle | float) -> tuple[float, float]:
    """theta reduced modulo 2 pi to (-pi, pi], and a bound on the absolute
    error of that reduction.

    |theta| <= pi is returned as is, with no error, but -PI as PI.  Beyond, the
    turn count and the remainder are exact integer arithmetic on the double
    theta and a 1129-bit 2 pi, so the one rounding is to the result.  A nan or
    infinite theta raises DomainError.
    """
    if isinstance(theta, Angle):
        theta = theta.raw
    if abs(theta) <= PI:
        # -PI and PI, each 1.2e-16 inside pi, are 2.4e-16 apart modulo 2 pi
        return (theta, 0.0) if theta > -PI else (PI, 2.0 * EPS)
    if not math.isfinite(theta):
        raise DomainError(f"an angle of {theta} has no reduction")
    num, den = theta.as_integer_ratio()
    scaled = num << _TWO_PI_BITS
    turn = _TWO_PI_NUM * den
    n = (2 * scaled + turn) // (2 * turn)  # nearest to theta / 2 pi
    r = (scaled - n * turn) / (den << _TWO_PI_BITS)
    # the rounding to r, and 2^-107 for the truncated 2 pi
    err = EPS * abs(r) + 2.0**-106
    if not -PI < r <= PI:
        # the exact remainder can fall between PI (1.2e-16 short of pi) and
        # pi, or their negatives, 2.4e-16 from PI modulo 2 pi
        r, err = PI, err + 2.0 * EPS
    return r, err


def as_angle(theta: Angle | float) -> Angle:
    return theta if isinstance(theta, Angle) else Angle(float(theta))


@dataclass(frozen=True)
class RationalAngle:
    """The angle p*pi/q in canonical form (q > 0, gcd(p, q) = 1)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise DomainError("RationalAngle needs q != 0")
        p, q = self.p, self.q
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p //= g
            q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def radians(self) -> float:
        return self.p * PI / self.q


@dataclass(frozen=True)
class PolarPoint:
    """The complex point r * exp(i*theta) with r >= 0."""

    r: float
    theta: Angle

    def __post_init__(self) -> None:
        if not (self.r >= 0.0):
            raise DomainError("PolarPoint needs r >= 0")
        if not isinstance(self.theta, Angle):
            object.__setattr__(self, "theta", as_angle(self.theta))
