"""The EvalResult contract: a frozen record of four fields that refuses a
non-finite value, a negative or non-finite bound and a negative effort; the
dataclass protocol that it and the other value records (Angle,
RationalAngle, PolarPoint, QuadProblem) answer; and its ball arithmetic,
whose every result holds the exact result of every point of its operands'
balls."""

import cmath
import copy
import dataclasses
import math
import pickle
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetralog import result
from tetralog.constants import LN2, PI, SQRT7
from tetralog.errors import DomainError
from tetralog.quad import QuadProblem
from tetralog.result import Angle, EvalResult, PolarPoint, RationalAngle


def test_positional_and_keyword_construction_agree():
    by_position = EvalResult(1.5, 1e-16, 3, "series")
    by_keyword = EvalResult(method="series", effort=3, err_bound=1e-16, value=1.5)
    assert by_position == by_keyword
    assert (by_position.value, by_position.err_bound, by_position.effort, by_position.method) == (
        1.5,
        1e-16,
        3,
        "series",
    )


def test_fields_keep_their_order():
    assert [f.name for f in dataclasses.fields(EvalResult)] == [
        "value",
        "err_bound",
        "effort",
        "method",
    ]


def test_replace_and_asdict():
    r = EvalResult(2.0, 0.5, 1, "a")
    moved = dataclasses.replace(r, value=3.0)
    assert moved == EvalResult(3.0, 0.5, 1, "a")
    assert r.value == 2.0
    assert dataclasses.asdict(moved) == {"value": 3.0, "err_bound": 0.5, "effort": 1, "method": "a"}
    with pytest.raises(DomainError):
        dataclasses.replace(r, err_bound=-1.0)


def test_equality_hash_and_repr():
    r = EvalResult(1j, 0.0, 0, "m")
    assert r == EvalResult(1j, 0.0, 0, "m")
    assert r != EvalResult(1j, 0.0, 1, "m")
    assert hash(r) == hash(EvalResult(1j, 0.0, 0, "m"))
    assert len({r, EvalResult(1j, 0.0, 0, "m")}) == 1
    assert repr(r) == "EvalResult(value=1j, err_bound=0.0, effort=0, method='m')"


@pytest.mark.parametrize("name", ["value", "err_bound", "effort", "method"])
def test_fields_are_frozen(name):
    r = EvalResult(1.0, 0.0, 0, "m")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(r, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(r, name)


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        complex(math.nan, 0.0),
        complex(math.inf, 0.0),
        complex(0.0, math.inf),
        complex(0.0, -math.inf),
        complex(0.0, math.nan),
    ],
)
def test_non_finite_value_refused(value):
    with pytest.raises(DomainError, match="value must be finite"):
        EvalResult(value, 0.0, 0, "m")


@pytest.mark.parametrize("err_bound", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
def test_bad_err_bound_refused(err_bound):
    with pytest.raises(DomainError, match="err_bound must be finite and >= 0"):
        EvalResult(1.0, err_bound, 0, "m")


def test_negative_effort_refused():
    with pytest.raises(DomainError, match="effort must be >= 0"):
        EvalResult(1.0, 0.0, -1, "m")


def test_edge_values_accepted():
    assert EvalResult(-0.0, 0.0, 0, "m").err_bound == 0.0
    assert EvalResult(complex(1e308, -1e308), 1e308, 10**9, "m").effort == 10**9
    assert EvalResult(5e-324, 5e-324, 0, "").value == 5e-324


def test_copy_and_pickle_round_trip():
    r = EvalResult(complex(1.0, -2.0), 3e-16, 7, "series")
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin is not r


# ---------------------------------------------------------------------------
# the other value records, with the fields and repr they had as dataclasses

_RECORDS = [
    (Angle(1.25), ("raw",), "Angle(raw=1.25)"),
    (RationalAngle(-4, -6), ("p", "q"), "RationalAngle(p=2, q=3)"),
    (PolarPoint(2.0, 0.5), ("r", "theta"), "PolarPoint(r=2.0, theta=Angle(raw=0.5))"),
    (
        QuadProblem(abs, 0.0, math.inf, (3, 1.0), 1e-9),
        ("integrand", "lower", "upper", "singular_points", "tol"),
        "QuadProblem(integrand=<built-in function abs>, lower=0.0, upper=inf,"
        " singular_points=(1.0, 3.0), tol=1e-09)",
    ),
]
_by_record = pytest.mark.parametrize(
    ("record", "names", "text"), _RECORDS, ids=[type(r).__name__ for r, _, _ in _RECORDS]
)


@_by_record
def test_record_fields_equality_hash_and_repr(record, names, text):
    cls = type(record)
    assert tuple(f.name for f in dataclasses.fields(cls)) == cls.__match_args__ == names
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    twin = cls(*(getattr(record, name) for name in names))
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert record != tuple(getattr(record, name) for name in names)
    assert repr(record) == text


def test_quad_problem_field_defaults():
    fields = dataclasses.fields(QuadProblem)
    assert [f.default for f in fields[3:]] == [(), 1e-10]
    assert all(f.default is dataclasses.MISSING for f in fields[:3])


@_by_record
def test_record_is_frozen(record, names, text):
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == text


@_by_record
def test_record_copy_and_pickle_round_trip(record, names, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
        assert repr(twin) == text


def test_record_replace_validates_again():
    q = QuadProblem(abs, 0.0, 4.0, (3.0,))
    assert dataclasses.replace(q, singular_points=(2, 1.0)).singular_points == (1.0, 2.0)
    with pytest.raises(DomainError, match="outside"):
        dataclasses.replace(q, lower=3.5)
    with pytest.raises(DomainError, match="finite lower limit"):
        dataclasses.replace(q, lower=-math.inf)
    assert q.singular_points == (3.0,) and q.lower == 0.0
    r = RationalAngle(1, 3)
    assert dataclasses.replace(r, q=-6) == RationalAngle(-1, 6)
    with pytest.raises(DomainError, match="q != 0"):
        dataclasses.replace(r, q=0)
    pt = PolarPoint(1.0, Angle(0.5))
    assert dataclasses.replace(pt, theta=0.25).theta == Angle(0.25)
    with pytest.raises(DomainError, match="r >= 0"):
        dataclasses.replace(pt, r=-1.0)
    assert dataclasses.replace(Angle(1.0), raw=2.0) == Angle(2.0)


def test_record_asdict_and_astuple():
    pt = PolarPoint(2.0, 0.5)
    assert dataclasses.asdict(pt) == {"r": 2.0, "theta": {"raw": 0.5}}
    assert dataclasses.astuple(pt) == (2.0, (0.5,))
    assert dataclasses.asdict(RationalAngle(-4, -6)) == {"p": 2, "q": 3}
    assert dataclasses.astuple(QuadProblem(abs, 0.0, 1.0)) == (abs, 0.0, 1.0, (), 1e-10)


# ---------------------------------------------------------------------------
# ball arithmetic

_DOUBLES = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


def _radius(draw, magnitude):
    """0, or magnitude 2^-k, or at least a tiny absolute radius."""
    k = draw(st.integers(-1, 60))
    return 0.0 if k < 0 else max(magnitude * 2.0**-k, draw(st.sampled_from([0.0, 5e-324, 1e-300])))


@st.composite
def _real_balls(draw):
    x = draw(_DOUBLES)
    return x, _radius(draw, abs(x))


@st.composite
def _complex_balls(draw):
    z = complex(draw(_DOUBLES), draw(_DOUBLES))
    return z, _radius(draw, abs(z))


def _ball(x, r):
    return EvalResult(x, r, 1, "m")


def _q(z):
    """An exact point: a Fraction, or a pair of them."""
    if isinstance(z, tuple):
        return z
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    return Fraction(z)


def _real_points(x, r):
    return [Fraction(x) + s * Fraction(r) for s in (-1, 0, 1)]


# on the circle |u| = 1, exactly
_UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
          (Fraction(-4, 5), Fraction(3, 5)), (Fraction(-3, 5), Fraction(-4, 5))]


def _complex_points(z, r):
    c, f = _q(z), Fraction(r)
    return [c] + [(c[0] + f * u, c[1] + f * v) for u, v in _UNITS]


def _points(x, r):
    return _complex_points(x, r) if isinstance(x, complex) else _real_points(x, r)


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    d = b[0] ** 2 + b[1] ** 2
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


_EXACT = {
    operator.add: (operator.add, lambda a, b: (a[0] + b[0], a[1] + b[1])),
    operator.sub: (operator.sub, lambda a, b: (a[0] - b[0], a[1] - b[1])),
    operator.mul: (operator.mul, _cmul),
    operator.truediv: (operator.truediv, _cdiv),
}


def _holds(z, exact):
    """Whether the ball z holds the exact number (a Fraction or a pair)."""
    r = Fraction(z.err_bound)
    if isinstance(exact, tuple):
        c = _q(complex(z.value))
        return (exact[0] - c[0]) ** 2 + (exact[1] - c[1]) ** 2 <= r * r
    return abs(exact - Fraction(z.value)) <= r


def _check(op, x, rx, y, ry, is_complex):
    try:
        z = op(_ball(x, rx), _ball(y, ry))
    except (DomainError, OverflowError):
        # a divisor ball that holds 0, or a result beyond double precision
        assume(False)
    assert z.value == op(x, y)  # the same float expression
    assert z.effort == 2 and z.method == "m"
    real_op, complex_op = _EXACT[op]
    for p in _points(x, rx):
        for q in _points(y, ry):
            if op is operator.truediv and (q == 0 or q == (0, 0)):
                continue
            if is_complex:
                p2 = p if isinstance(p, tuple) else (p, Fraction(0))
                q2 = q if isinstance(q, tuple) else (q, Fraction(0))
                assert _holds(z, complex_op(p2, q2)), (x, rx, y, ry, p, q)
            else:
                assert _holds(z, real_op(p, q)), (x, rx, y, ry, p, q)


_OPS = st.sampled_from(list(_EXACT))


@settings(max_examples=400, deadline=None)
@given(_OPS, _real_balls(), _real_balls())
def test_real_operations_hold_the_exact_result(op, a, b):
    _check(op, *a, *b, is_complex=False)


@settings(max_examples=300, deadline=None)
@given(_OPS, _complex_balls(), st.one_of(_complex_balls(), _real_balls()))
def test_complex_operations_hold_the_exact_result(op, a, b):
    _check(op, *a, *b, is_complex=True)


@settings(max_examples=100, deadline=None)
@given(_real_balls(), st.sampled_from([2, 7.0, -0.5, 10**17 + 1]))
def test_bare_numbers_enter_exactly(a, n):
    x, r = a
    z = _ball(x, r) * n
    assert z.value == x * n
    exact = n if isinstance(n, int) else Fraction(n)  # an int beyond 2^53 is charged its rounding
    assert all(_holds(z, p * exact) for p in _real_points(x, r))
    assert (n - _ball(x, r)).value == n - x
    assert (n / _ball(1.0 + abs(x), 0.0)).value == n / (1.0 + abs(x))


def test_float_is_the_midpoint():
    assert float(EvalResult(1.5, 0.25, 3, "m")) == 1.5
    with pytest.raises(TypeError):
        float(EvalResult(1j, 0.0, 0, "m"))


def test_negation_is_exact():
    z = -EvalResult(complex(1.5, -2.0), 0.25, 3, "m")
    assert z == EvalResult(complex(-1.5, 2.0), 0.25, 3, "m")


def test_ball_divisor_holding_zero_refused():
    with pytest.raises(DomainError, match="exclude 0"):
        EvalResult(1.0, 0.0, 0, "") / EvalResult(1e-3, 1e-3, 0, "")


def test_rounded_constants_hold_their_exact_values():
    with mpmath.workdps(50):
        for c, exact in ((PI, mpmath.pi), (SQRT7, mpmath.sqrt(7)), (LN2, mpmath.log(2))):
            b = result.rounded(c)
            assert abs(mpmath.mpf(b.value) - exact) <= b.err_bound


def _fraction_mpf(p):
    return mpmath.mpf(p.numerator) / p.denominator


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["sqrt", "sin", "atan", "asin", "log"]), _real_balls())
def test_lifted_functions_hold_the_exact_result(name, a):
    x, r = a
    lo, hi = {"sqrt": (0.0, math.inf), "asin": (-1.0, 1.0), "log": (0.0, math.inf)}.get(
        name, (-math.inf, math.inf))
    if name in ("sqrt", "log"):
        x = abs(x)
    elif name == "asin":
        x = math.fmod(x, 1.0)
    assume(lo <= x <= hi and not (name == "log" and x == 0.0))
    try:
        z = getattr(result, name)(_ball(x, r))
    except DomainError:
        assert name == "log" and r >= x * (1.0 - 4e-16)  # the ball reaches 0
        return
    assert z.value == getattr(math, name)(x)
    points = [p for p in _real_points(x, r) if lo <= p <= hi and not (name == "log" and p == 0)]
    with mpmath.workprec(400):
        exact = [getattr(mpmath, name)(_fraction_mpf(p)) for p in points]
    for e in exact:
        assert abs(mpmath.mpf(z.value) - e) <= z.err_bound, (name, x, r)


@settings(max_examples=150, deadline=None)
@given(_complex_balls())
def test_complex_log_holds_the_exact_result(a):
    z0, r = a
    assume(z0 != 0 and not (z0.imag == 0.0 and z0.real < 0.0))  # a signed zero picks a side
    try:
        z = result.log(_ball(z0, r))
    except DomainError:
        return  # the ball holds 0
    assert z.value == cmath.log(z0)
    for p in _complex_points(z0, r):
        if p[0] == 0 and p[1] == 0:
            continue
        with mpmath.workprec(400):
            e = mpmath.log(mpmath.mpc(_fraction_mpf(p[0]), _fraction_mpf(p[1])))
        assert abs(mpmath.mpc(z.value) - e) <= z.err_bound, (z0, r, p)
