"""Shared value types: evaluation results and angle/point wrappers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import PI, TWO_PI
from .errors import DomainError


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if isinstance(self.value, complex):
            ok = math.isfinite(self.value.real) and math.isfinite(self.value.imag)
        else:
            ok = math.isfinite(self.value)
        if not ok:
            raise DomainError("EvalResult value must be finite")
        if not (math.isfinite(self.err_bound) and self.err_bound >= 0.0):
            raise DomainError("EvalResult err_bound must be finite and >= 0")
        if self.effort < 0:
            raise DomainError("EvalResult effort must be >= 0")


@dataclass(frozen=True)
class Angle:
    """An angle in radians together with its reduction to (-pi, pi]."""

    raw: float
    reduced: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reduced", reduce_angle(self.raw))


def reduce_angle(theta: Angle | float) -> float:
    """theta reduced modulo 2 pi to (-pi, pi], without building an Angle."""
    if isinstance(theta, Angle):
        return theta.reduced
    r = math.remainder(float(theta), TWO_PI)
    return r + TWO_PI if r <= -PI else r


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
