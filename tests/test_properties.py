"""Property-based tests for the special-function invariants, and for the
honesty of every reported error bound against a 30-digit mpmath oracle."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tetralog
from tetralog.constants import PI_DIGITS, PI_LO
from tetralog.polylog import OUTER, RHO, _inversion_remainder, polylog_complex
from tetralog.result import reduce_angle
from tetralog.specfun import (
    cl2,
    clausen_cos,
    clausen_sin,
    digamma,
    hurwitz_zeta,
    polygamma,
    trigamma,
)

PI = math.pi


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=PI - 1e-6))
def test_cl2_oddness(theta):
    assert abs(cl2(-theta).value + cl2(theta).value) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-PI, max_value=PI))
def test_cl2_periodicity(theta):
    assert abs(cl2(theta + 2.0 * PI).value - cl2(theta).value) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-3, max_value=PI - 1e-3))
def test_cl2_duplication(theta):
    lhs = 0.5 * cl2(2.0 * theta).value - cl2(theta).value + cl2(PI - theta).value
    assert abs(lhs) < 1e-11


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2.0, 3.0, 4.0]),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_hurwitz_shift(s, a):
    lhs = hurwitz_zeta(s, a).value
    rhs = hurwitz_zeta(s, a + 1.0).value + a ** (-s)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_trigamma_reflection(x):
    lhs = trigamma(x).value + trigamma(1.0 - x).value
    rhs = PI * PI / math.sin(PI * x) ** 2
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0))
def test_trigamma_duplication(x):
    lhs = 2.0 * trigamma(2.0 * x).value
    rhs = 0.5 * (trigamma(x).value + trigamma(x + 0.5).value)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_trigamma_multiplication(m, x):
    lhs = trigamma(m * x).value
    rhs = math.fsum(trigamma(x + k / m).value for k in range(m)) / (m * m)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


# ---------------------------------------------------------------------------
# error bounds against the oracle: |value - exact| <= err_bound


def _oracle(fn, *args, extra_digits=0):
    with mpmath.workdps(30 + extra_digits):
        return complex(fn(*args))


def _clausen_oracle(fn, s, theta):
    # mpmath sums through Li_s(e^{i theta}) and loses about -log10|theta|
    # digits to cancellation, so a tiny theta gets that many more
    lost = max(0, math.ceil(-math.log10(abs(theta)))) if theta else 0
    return _oracle(fn, s, theta, extra_digits=lost)


def _assert_honest(r, exact):
    assert abs(r.value - exact) <= r.err_bound, (r, exact)


# theta anywhere on (-pi, pi], or within 1e-3 of 0, pi or -pi
thetas = st.one_of(
    st.floats(min_value=-PI, max_value=PI).filter(lambda t: t > -PI),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1e-3).map(lambda d: PI - d),
    st.floats(min_value=0.0, max_value=1e-3).map(lambda d: d - PI).filter(lambda t: t > -PI),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=8), thetas)
def test_clausen_sin_bound_is_honest(s, theta):
    _assert_honest(clausen_sin(s, theta), _clausen_oracle(mpmath.clsin, s, theta))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=8), thetas)
def test_clausen_cos_bound_is_honest(s, theta):
    _assert_honest(clausen_cos(s, theta), _clausen_oracle(mpmath.clcos, s, theta))


@settings(max_examples=300, deadline=None)
@given(thetas)
def test_cl2_bound_is_honest(theta):
    _assert_honest(cl2(theta), _clausen_oracle(mpmath.clsin, 2, theta))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1.5, max_value=6.0),
    st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
)
def test_hurwitz_zeta_bound_is_honest(s, log_a):
    a = math.exp(log_a)
    _assert_honest(hurwitz_zeta(s, a), _oracle(mpmath.zeta, s, a))


def _psi_oracle(m, x):
    with mpmath.workdps(40):
        return float(mpmath.psi(m, x))


# x log-uniform on [1e-2, 1e2], as the benchmark draws it; on (-20, 0), short
# of where 1/x^2 overflows; and within 1e-12 .. 1e-1 of a negative integer,
# where sin(pi x) and tan(pi x) need the exact x - round(x)
psi_positive = st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)).map(math.exp)
psi_negative = st.one_of(
    st.floats(min_value=-20.0, max_value=-1e-100),
    st.tuples(
        st.integers(min_value=-20, max_value=-1),
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=math.log(1e-12), max_value=math.log(1e-1)),
    ).map(lambda t: t[0] + t[1] * math.exp(t[2])),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(psi_positive, psi_negative))
def test_trigamma_bound_is_honest(x):
    assume(x != math.floor(x))
    _assert_honest(trigamma(x), _psi_oracle(1, x))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        psi_positive,
        psi_negative,
        # about the root of psi at 1.4616, where |psi| is far below its terms
        st.floats(min_value=1.4606, max_value=1.4626),
    )
)
def test_digamma_bound_is_honest(x):
    assume(x != math.floor(x))
    _assert_honest(digamma(x), _psi_oracle(0, x))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), psi_positive)
def test_polygamma_bound_is_honest(n, x):
    _assert_honest(polygamma(n, x), _psi_oracle(n, x))


def _li_oracle(s, z):
    exact = _oracle(mpmath.polylog, s, z)
    if z.real > 1.0 and z.imag == 0.0 and math.copysign(1.0, z.imag) > 0.0:
        # on the cut, +0j takes the limit from above; mpmath's real z, from below
        exact = exact.conjugate()
    return exact


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# arg z uniform, or within a few ulps of the switch between the expansions
# about z = 1 and z = -1, Re z = -|z|/2, at arg z = +-2 pi/3
SWITCH = 2.0 * PI / 3.0
switch_angles = st.tuples(
    st.sampled_from([SWITCH, -SWITCH]), st.integers(min_value=-4, max_value=4)
).map(lambda t: _ulps_from(*t))
args = st.one_of(st.floats(min_value=-PI, max_value=PI), switch_angles)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=math.log(RHO), max_value=math.log(OUTER)).map(math.exp),
    args,
)
@example(4, 1.1, PI)
def test_polylog_log_expansion_bound_is_honest(s, r, phi):
    z = cmath.rect(r, phi)
    assume(RHO < abs(z) < OUTER and z != 1.0)
    res = polylog_complex(s, z)
    assert res.method == "log-expansion"
    _assert_honest(res, _li_oracle(s, z))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.one_of(
        st.floats(min_value=0.0, max_value=RHO, exclude_min=True),
        st.floats(min_value=math.log(1e-300), max_value=math.log(RHO)).map(math.exp),
    ),
    st.floats(min_value=-PI, max_value=PI),
)
def test_polylog_series_bound_is_honest(s, r, phi):
    z = cmath.rect(r, phi)
    assume(0.0 < abs(z) <= RHO)
    res = polylog_complex(s, z)
    assert res.method == "series"
    _assert_honest(res, _li_oracle(s, z))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=math.log(OUTER), max_value=math.log(100.0)),
    st.floats(min_value=-PI, max_value=PI),
)
def test_polylog_inversion_bound_is_honest(s, log_r, phi):
    z = cmath.rect(math.exp(log_r), phi)
    assume(abs(z) >= OUTER)
    res = polylog_complex(s, z)
    assert res.method == "inversion"
    _assert_honest(res, _li_oracle(s, z))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=math.log(100.0)),
    st.floats(min_value=-PI, max_value=PI),
)
@example(3, 0.0, -PI)
def test_inversion_remainder_bound_is_honest(s, log_r, phi):
    z = cmath.rect(math.exp(log_r), phi)
    value, err, _ = _inversion_remainder(s, z)
    # B_s(1/2 + y) cancels to ~|y| for small y, and |y| reaches 2e-17 at z = -1
    # (phi = +-PI), so 60 digits keep 40 after the cancellation
    with mpmath.workdps(60):
        L = mpmath.log(-z)
        if z.imag == 0.0 and math.copysign(1.0, z.imag) > 0.0:
            L = mpmath.conj(L)  # cmath.log(-z) sits below its cut at -0.0j; mpmath, above
        y = L / (2j * mpmath.pi)
        exact = complex(-((2j * mpmath.pi) ** s) / mpmath.factorial(s) * mpmath.bernpoly(s, 0.5 + y))
    assert abs(value - exact) <= err, (value, err, exact)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from([RHO, OUTER]),
    st.integers(min_value=-4, max_value=4),
    st.floats(min_value=-PI, max_value=PI),
)
def test_polylog_bound_is_honest_at_the_seams(s, seam, ulps, phi):
    z = cmath.rect(_ulps_from(seam, ulps), phi)
    _assert_honest(polylog_complex(s, z), _li_oracle(s, z))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.booleans(), switch_angles)
def test_clausen_bound_is_honest_at_the_switch(s, sine, theta):
    # the infinite kinds switch from the expansion about 0 to the one about pi
    # at |theta| = 2 pi/3; the finite kinds keep one polynomial
    fn, ref = (clausen_sin, mpmath.clsin) if sine else (clausen_cos, mpmath.clcos)
    _assert_honest(fn(s, theta), _clausen_oracle(ref, s, theta))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * PI))
def test_finite_clausen_kinds_match_closed_forms(theta):
    # the polynomials cancel to ~1e-15 in doubles, so they are evaluated in mpmath
    with mpmath.workdps(30):
        t, pi = mpmath.mpf(theta), mpmath.pi
        cos2 = float(pi**2 / 6 - pi * t / 2 + t**2 / 4)
        sin3 = float(pi**2 * t / 6 - pi * t**2 / 4 + t**3 / 12)
    assert abs(clausen_cos(2, theta).value - cos2) <= 4e-15
    assert abs(clausen_sin(3, theta).value - sin3) <= 4e-15


def test_import_builds_no_table():
    src = str(Path(tetralog.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import tetralog\n"
        "from tetralog import bernoulli, specfun\n"
        "print(bernoulli.bernoulli_number.cache_info().currsize,"
        " bernoulli.zeta_int.cache_info().currsize,"
        " bernoulli.zeta_taylor.cache_info().currsize,"
        " bernoulli._em_coeffs.cache_info().currsize, specfun._clausen_table.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0"] * 5


# theta log-uniform on [pi, 1e300], either sign
far_thetas = st.tuples(
    st.floats(min_value=math.log(PI), max_value=math.log(1e300)), st.sampled_from([1.0, -1.0])
).map(lambda t: t[1] * math.exp(t[0]))


def _reduced_exactly(theta):
    # a double has at most 309 integer digits, so 360 digits leave 50 after them
    with mpmath.workdps(360):
        t = mpmath.mpf(theta)
        return t - 2 * mpmath.pi * mpmath.nint(t / (2 * mpmath.pi))


def _far_oracle(fn, s, theta):
    t = _reduced_exactly(theta)
    with mpmath.workdps(40):
        return complex(fn(s, t))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_reduce_angle_is_within_its_bound(theta):
    r, err = reduce_angle(theta)
    assert -PI <= r <= PI
    with mpmath.workdps(360):
        d = abs(_reduced_exactly(theta) - r)
        d = min(d, 2 * mpmath.pi - d)
    assert d <= err


def test_pi_digits():
    with mpmath.workdps(len(PI_DIGITS) + 10):
        assert mpmath.nstr(mpmath.pi, len(PI_DIGITS) + 5).replace(".", "").startswith(PI_DIGITS)


def test_pi_low_part():
    with mpmath.workdps(50):
        assert PI_LO == float(mpmath.pi - PI)


@settings(max_examples=200, deadline=None)
@given(far_thetas)
def test_cl2_bound_is_honest_beyond_pi(theta):
    _assert_honest(cl2(theta), _far_oracle(mpmath.clsin, 2, theta))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.booleans(), far_thetas)
def test_clausen_bound_is_honest_beyond_pi(s, sine, theta):
    fn, ref = (clausen_sin, mpmath.clsin) if sine else (clausen_cos, mpmath.clcos)
    _assert_honest(fn(s, theta), _far_oracle(ref, s, theta))
