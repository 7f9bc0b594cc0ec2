"""Shared value types: evaluation results, their ball arithmetic, and
angle/point wrappers."""

from __future__ import annotations

import cmath
import math

from .constants import EPS, PI, PI_DIGITS
from .errors import DomainError, is_int


class _Record:
    """A frozen value record: what ``@dataclass(frozen=True)`` gives, without
    importing ``dataclasses`` (and the ``inspect`` behind it) or generating
    code when a class is defined.

    A subclass names its fields, in order, in ``__match_args__`` and writes
    them into ``self.__dict__`` in its own ``__init__``.  Records compare,
    hash and print by that field tuple, and refuse to be changed.  Their
    ``__dataclass_fields__`` table is built by ``dataclasses.make_dataclass``
    the first time it is read, so ``dataclasses.fields``, ``replace`` (through
    ``__init__``, which validates again), ``asdict``, ``astuple`` and
    ``is_dataclass`` work on them, and load ``dataclasses`` only then.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__dataclass_fields__ = _FieldTable()

    def _key(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = self.__dict__
        args = ", ".join([f"{name}={fields[name]!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _FieldTable:
    """A record class's ``__dataclass_fields__``: built on first read, from
    the class's field names, annotations and ``__init__`` defaults, and then
    stored on the class in place of this descriptor."""

    def __get__(self, obj, cls) -> dict:
        import dataclasses

        spec = [(name, cls.__annotations__[name]) for name in cls.__match_args__]
        defaults = cls.__init__.__defaults__ or ()
        for i, default in enumerate(defaults, len(spec) - len(defaults)):
            spec[i] += (dataclasses.field(default=default),)
        table = dataclasses.make_dataclass(cls.__name__, spec, frozen=True).__dataclass_fields__
        cls.__dataclass_fields__ = table
        return table


class EvalResult(_Record):
    """A computed value with an estimated absolute error bound.

    ``err_bound`` is an estimate of ``|value - exact|``; ``effort`` counts
    series terms, or for quadrature the refinement levels ``integrate``
    spent; ``method`` is a short tag naming the evaluation route.
    """

    value: float | complex
    err_bound: float
    effort: int
    method: str
    __match_args__ = ("value", "err_bound", "effort", "method")

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

    # ball arithmetic, with value the midpoint and err_bound the radius: the
    # result holds every result of its operands' balls, by the rule set out
    # beside _UP below
    def __add__(self, other):
        return _apply(_add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return _apply(_mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _apply(_div, self, other)

    def __rtruediv__(self, other):
        return _apply(_div, other, self)

    def __neg__(self) -> EvalResult:
        return EvalResult(-self.value, self.err_bound, self.effort, self.method)

    def __float__(self) -> float:
        return float(self.value)  # a real ball's midpoint


# A ball operation adds its operands' propagated radii and its own rounding:
# half an ulp of each part of a correctly rounded result, more where complex
# arithmetic rounds several times.  Its radius is rounded up: 16 EPS of it
# covers the radius's own roundings, and _TINY those that underflow.
_UP = 1.0 + 16.0 * EPS
_TINY = 2.0**-1070


def _parts(x):
    """(value, radius, effort) of a ball or of a bare number, which is exact,
    save an int that a double does not hold."""
    if isinstance(x, EvalResult):
        return x.value, x.err_bound, x.effort
    if isinstance(x, int):
        return float(x), float(abs(x - int(float(x)))), 0
    return (x, 0.0, 0) if isinstance(x, (float, complex)) else None


def _half_ulp(v: float | complex) -> float:
    if isinstance(v, complex):
        return 0.5 * (math.ulp(v.real) + math.ulp(v.imag))
    return 0.5 * math.ulp(v)


def _abs(x: float | complex) -> tuple[float, float]:
    """Bounds on |x| from below and above: abs of a complex x rounds by an
    ulp, and by up to _TINY where it underflows."""
    a = abs(x)
    if isinstance(x, complex):
        return a * (1.0 - 2.0 * EPS) - _TINY, a * (1.0 + 2.0 * EPS) + _TINY
    return a, a


def _add(x, rx, y, ry):
    v = x + y
    return v, rx + ry + _half_ulp(v)


def _mul(x, rx, y, ry):
    v = x * y
    ax, ay = _abs(x)[1], _abs(y)[1]
    if isinstance(x, complex) and isinstance(y, complex):
        rnd = 2.0 * EPS * (ax * ay)  # over sqrt(2) gamma_2 |x| |y| (Higham 2002, 3.6)
    else:
        rnd = _half_ulp(v)
    return v, ax * ry + ay * rx + rx * ry + rnd


def _div(x, rx, y, ry):
    gap = _abs(y)[0] - ry  # the divisor ball's least |t|
    if not gap > 0.0:
        raise DomainError("a ball divisor must exclude 0")
    v = x / y
    av = _abs(v)[1]
    rnd = _half_ulp(v)
    if isinstance(y, complex):
        if gap > 2.0**1020:  # Smith's denominator, up to 2|y|, would overflow
            raise OverflowError("a complex quotient overflows double precision")
        # Smith's algorithm rounds its ratio, denominator and numerators: < 10 u |v|
        rnd = 6.0 * EPS * av + _TINY * av / gap
    # an underflow before the division by gap grows by 1/gap
    return v, (rx + av * ry + _TINY) / gap + rnd


def _apply(op, a, b):
    """op on the values and radii of a and b, each a ball or a bare number."""
    pa, pb = _parts(a), _parts(b)
    if pa is None or pb is None:
        return NotImplemented
    v, r = op(pa[0], pa[1], pb[0], pb[1])
    method = a.method if isinstance(a, EvalResult) else b.method
    return EvalResult(v, r * _UP + _TINY, pa[2] + pb[2], method)


def _lift(f, x, slope) -> EvalResult:
    """f at the ball or number x: slope(value, radius) bounds what the radius
    moves f by, and one ulp covers f's own rounding, as libm's functions are
    not correctly rounded."""
    v, r, effort = _parts(x)
    fv = f(v)
    rad = slope(v, r) + 2.0 * _half_ulp(fv)
    return EvalResult(fv, rad * _UP + _TINY, effort, getattr(x, "method", ""))


def sqrt(x: EvalResult | float) -> EvalResult:
    """sqrt of a real ball: |sqrt t - sqrt v| = |t - v|/(sqrt t + sqrt v) <=
    |t - v|/sqrt v, and sqrt |t| at v = 0."""
    return _lift(math.sqrt, x, lambda v, r: r / math.sqrt(v) if v else math.sqrt(r))


def sin(x: EvalResult | float) -> EvalResult:
    """sin of a real ball, whose slope is at most 1."""
    return _lift(math.sin, x, lambda v, r: r)


def _atan_slope(v: float, r: float) -> float:
    m = min(max(abs(v) - r, 0.0), 1e150)  # the ball's least |t|, or less
    return r / (1.0 + m * m)


def atan(x: EvalResult | float) -> EvalResult:
    """atan of a real ball, whose slope 1/(1 + t^2) is largest at its least |t|."""
    return _lift(math.atan, x, _atan_slope)


def _asin_slope(v: float, r: float) -> float:
    m = abs(v) + r  # the ball's greatest |t|, where the slope 1/sqrt(1 - t^2) is largest
    if m < 1.0:
        return r / math.sqrt((1.0 - m) * (1.0 + m))
    return PI if r else 0.0


def asin(x: EvalResult | float) -> EvalResult:
    """asin of a real ball; one that reaches +-1 is charged asin's range."""
    return _lift(math.asin, x, _asin_slope)


def _log_slope(v: float | complex, r: float) -> float:
    near = _abs(v)[0] - r  # the ball's least |t|, where the slope 1/|t| is largest
    if not near > 0.0:
        raise DomainError("the logarithm of a ball that holds 0")
    if not isinstance(v, complex):
        return r / near
    # cmath.log's ln|z| also carries the rounding of |z|, or of the log1p
    # argument it takes near |z| = 1: under 2 EPS |z| as a move of z
    move = (r + 2.0 * EPS * abs(v)) / near
    if v.real < r and abs(v.imag) <= r:
        move += 2.0 * PI  # the ball may cross the branch cut
    return move


def log(x: EvalResult | float | complex) -> EvalResult:
    """ln of a real ball, or the principal ln of a complex one."""
    return _lift(cmath.log if isinstance(_parts(x)[0], complex) else math.log, x, _log_slope)


def no_ball(x, name: str) -> None:
    """Refuse a ball argument to a kernel with no ball form, which would read
    its midpoint and drop its radius."""
    if isinstance(x, EvalResult):
        raise DomainError(f"{name} has no ball form: it cannot charge a ball argument's radius")


def exact(x: float | complex) -> EvalResult:
    """x, a number a double holds, as a ball of radius 0."""
    return EvalResult(x, 0.0, 0, "exact")


def rounded(x: float) -> EvalResult:
    """x, a constant rounded once to the nearest double, as a ball of half an ulp."""
    return EvalResult(x, _half_ulp(x) * _UP, 0, "rounded")


class Angle(_Record):
    """An angle in radians; ``reduce_angle`` reduces it to (-pi, pi]."""

    raw: float
    __match_args__ = ("raw",)

    def __init__(self, raw: float) -> None:
        self.__dict__["raw"] = raw


# 2 pi as _TWO_PI_NUM / 2^_TWO_PI_BITS, within 2^-1129: a double angle has fewer
# than 2^1022 turns, so its reduction by this value is off by under 2^-107
_TWO_PI_BITS = 1130
_TWO_PI_NUM = (int(PI_DIGITS) << (_TWO_PI_BITS + 1)) // 10 ** (len(PI_DIGITS) - 1)


def reduce_angle(theta: Angle | EvalResult | float) -> tuple[float, float]:
    """theta reduced modulo 2 pi to (-pi, pi], whose doubles are [-PI, PI],
    and a bound on the absolute error of that reduction, plus theta's radius
    if it is a ball.

    |theta| <= PI is returned as is, with no error.  Beyond, the turn count
    and the remainder are exact integer arithmetic on the double theta and a
    1129-bit 2 pi, so the one rounding is to the result.  A nan or infinite
    theta raises DomainError.
    """
    if isinstance(theta, EvalResult):
        th, d = reduce_angle(theta.value)
        return th, d + theta.err_bound
    if isinstance(theta, Angle):
        theta = theta.raw
    if abs(theta) <= PI:
        return theta, 0.0
    if not math.isfinite(theta):
        raise DomainError(f"an angle of {theta} has no reduction")
    num, den = theta.as_integer_ratio()
    scaled = num << _TWO_PI_BITS
    turn = _TWO_PI_NUM * den
    n = (2 * scaled + turn) // (2 * turn)  # nearest to theta / 2 pi
    r = (scaled - n * turn) / (den << _TWO_PI_BITS)
    # the rounding to r, and 2^-107 for the truncated 2 pi
    err = EPS * abs(r) + 2.0**-106
    if abs(r) > PI:
        # the exact remainder can fall between PI (1.2e-16 short of pi) and
        # pi, or their negatives, and round past +-PI: PI is then within
        # 2.4e-16 of it modulo 2 pi
        r, err = PI, err + 2.0 * EPS
    return r, err


def as_angle(theta: Angle | float) -> Angle:
    return theta if isinstance(theta, Angle) else Angle(float(theta))


class RationalAngle(_Record):
    """The angle p*pi/q in canonical form (q > 0, gcd(p, q) = 1)."""

    p: int
    q: int
    __match_args__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if not (is_int(p) and is_int(q)):
            raise DomainError("RationalAngle needs integers p and q")
        if q == 0:
            raise DomainError("RationalAngle needs q != 0")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p //= g
            q //= g
        fields = self.__dict__
        fields["p"] = p
        fields["q"] = q


class PolarPoint(_Record):
    """The complex point r * exp(i*theta) with r >= 0."""

    r: float
    theta: Angle
    __match_args__ = ("r", "theta")

    def __init__(self, r: float, theta: Angle | float) -> None:
        if not (r >= 0.0):
            raise DomainError("PolarPoint needs r >= 0")
        fields = self.__dict__
        fields["r"] = r
        fields["theta"] = as_angle(theta)
