"""Unit tests for the special-function kernel.

Reference values were frozen from independent high-precision evaluations
(50+ decimal digits) and from exhaustive direct summation with proven tail
bounds.
"""

import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from tetralog.constants import EPS, LN2, PI_LO
from tetralog.errors import DomainError
from tetralog.polylog import polylog_complex
from tetralog.result import EvalResult, PolarPoint, RationalAngle, exact
from tetralog.specfun import (
    cl2,
    cl2_rational,
    cl_even,
    cl_odd,
    clausen_cos,
    clausen_sin,
    digamma,
    harmonic,
    hurwitz_zeta,
    im_li2_polar,
    incomplete_gamma_upper_int,
    polygamma,
    trigamma,
)

PI = math.pi

# frozen high-precision references
CL2_PI_3 = 1.0149416064096536250212025542745
CATALAN = 0.91596559417721901505460351493238
ZETA5 = 1.036927755143369926331365486457


class TestCl2:
    def test_value_at_pi_third(self):
        assert abs(cl2(PI / 3.0).value - CL2_PI_3) < 1e-14

    def test_value_at_pi_half_is_catalan(self):
        assert abs(cl2(PI / 2.0).value - CATALAN) < 1e-14

    def test_values_at_zero_and_pi(self):
        # PI falls PI_LO short of pi, where the slope of Cl_2 is -ln 2
        assert cl2(0.0).value == 0.0
        assert cl2(PI).value == pytest.approx(PI_LO * LN2, rel=1e-15)
        assert cl2(-PI).value == -cl2(PI).value

    def test_oddness(self):
        for i in range(1, 20):
            th = i * PI / 20.0
            assert abs(cl2(-th).value + cl2(th).value) < 1e-15

    def test_periodicity(self):
        for th in (0.3, 1.2, 2.9):
            assert abs(cl2(th + 2.0 * PI).value - cl2(th).value) < 1e-12

    def test_error_bound_reported(self):
        r = cl2(1.0)
        assert 0.0 <= r.err_bound < 1e-12
        assert r.method == "bernoulli-series"

    def test_against_direct_sine_series(self):
        th = 0.77
        direct = math.fsum(math.sin(k * th) / k**2 for k in range(1, 200000))
        assert abs(cl2(th).value - direct) < 1e-9  # raw series is O(1/N)


class TestGeneralizedClausen:
    def test_sine_order3_matches_direct_series(self):
        # order 3 exercises the zeta(0) coefficient of the log expansion
        th = 1.0
        exact = PI * PI / 6.0 * th - PI * th * th / 4.0 + th**3 / 12.0
        assert abs(clausen_sin(3, th).value - exact) < 1e-14

    def test_sine_order4(self):
        th = PI / 2.0
        direct = math.fsum(math.sin(k * th) / k**4 for k in range(1, 50000))
        assert abs(clausen_sin(4, th).value - direct) < 1e-12

    def test_cosine_order2_at_zero_is_zeta2(self):
        assert abs(clausen_cos(2, 0.0).value - PI * PI / 6.0) < 1e-14

    def test_cosine_order3(self):
        th = 2.0
        direct = math.fsum(math.cos(k * th) / k**3 for k in range(1, 50000))
        assert abs(clausen_cos(3, th).value - direct) < 1e-12

    def test_order_below_two_rejected(self):
        with pytest.raises(DomainError):
            clausen_sin(1, 0.5)
        with pytest.raises(DomainError):
            clausen_cos(1, 0.5)

    def test_even_odd_wrappers(self):
        assert abs(cl_even(1, PI / 2.0).value - CATALAN) < 1e-14
        # sum_k cos(k pi/2)/k^5 = -15 zeta(5)/512
        assert abs(cl_odd(2, PI / 2.0).value + 15.0 * ZETA5 / 512.0) < 1e-14


class TestDigammaTrigamma:
    def test_digamma_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        ref = -0.57721566490153286060651209008240 - 2.0 * math.log(2.0)
        assert abs(digamma(0.5).value - ref) < 1e-14

    def test_digamma_one(self):
        assert abs(digamma(1.0).value + 0.57721566490153286060651209008240) < 1e-14

    def test_digamma_recurrence(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(digamma(x + 1.0).value - digamma(x).value - 1.0 / x) < 1e-13

    def test_trigamma_one(self):
        assert abs(trigamma(1.0).value - PI * PI / 6.0) < 1e-14

    def test_trigamma_reflection(self):
        for x in (0.1, 0.25, 0.4):
            lhs = trigamma(x).value + trigamma(1.0 - x).value
            rhs = PI * PI / math.sin(PI * x) ** 2
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_trigamma_small_argument(self):
        # psi'(1/14) dominated by 1/x^2 = 196
        v = trigamma(1.0 / 14.0).value
        assert abs(v - 197.48838829279771504) < 1e-10

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_effort_counts_shifts_and_terms(self, fn):
        # x below 10 is shifted up n times past it, then 11 asymptotic terms
        # are summed; x <= 0 is reflected to 1 - x
        assert fn(10.0).effort == fn(1e300).effort == 11
        assert fn(9.5).effort == 1 + 11
        assert fn(0.5).effort == 10 + 11
        assert fn(-0.5).effort == fn(1.5).effort == 9 + 11

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            trigamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.0)


class TestPolygamma:
    def test_matches_trigamma(self):
        for x in (0.2, 1.0, 3.5):
            assert abs(polygamma(1, x).value - trigamma(x).value) < 1e-11 * abs(
                trigamma(x).value
            )

    def test_tetragamma_one(self):
        # psi''(1) = -2 zeta(3)
        ref = -2.0 * 1.2020569031595942853997381615114
        assert abs(polygamma(2, 1.0).value - ref) < 1e-12

    def test_order_zero_is_digamma(self):
        assert abs(polygamma(0, 2.5).value - digamma(2.5).value) < 1e-13


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        assert abs(hurwitz_zeta(2.0, 1.0).value - PI * PI / 6.0) < 1e-14

    def test_shift_identity(self):
        for s in (2.0, 3.0, 4.0):
            for a in (0.3, 1.1, 2.7):
                lhs = hurwitz_zeta(s, a).value
                rhs = hurwitz_zeta(s, a + 1.0).value + a ** (-s)
                assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_relates_to_trigamma(self):
        for a in (1.0 / 7.0, 0.5, 1.25):
            assert abs(hurwitz_zeta(2.0, a).value - trigamma(a).value) < 1e-11 * abs(
                trigamma(a).value
            )

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)

    @pytest.mark.parametrize(
        "s, a",
        [(2.0, math.inf), (2.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
         (2.0, -math.inf), (-math.inf, 1.0)],
    )
    def test_non_finite_arguments_rejected(self, s, a):
        with pytest.raises(DomainError):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize("s", [1e15, 1e17, 1e308])
    def test_huge_order(self, s):
        # z^-s underflows from z = 10 on: the value is the head, and its bound
        # charges the tail below 2^-1074 (1 + z/(s - 1))
        import mpmath

        r = hurwitz_zeta(s, 1.0)
        with mpmath.workdps(60):
            assert abs(r.value - mpmath.zeta(mpmath.mpf(s), 1)) <= r.err_bound, r
        assert r.err_bound <= 8 * EPS

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_polygamma_of_non_finite_x_rejected(self, x):
        with pytest.raises(DomainError):
            polygamma(3, x)


class TestRationalClausen:
    def test_matches_cl2_on_valid_grid(self):
        for q in (3, 5, 7, 9):
            for p in range(2, 2 * q, 2):
                r = RationalAngle(p, q)
                assert abs(cl2_rational(r).value - cl2(p * PI / q).value) < 1e-11

    @pytest.mark.parametrize("q", range(3, 60, 2))
    def test_bound_is_honest(self, q):
        import mpmath

        for p in range(2, 2 * q, 2):
            r = cl2_rational(RationalAngle(p, q))
            with mpmath.workdps(40):
                exact = mpmath.clsin(2, mpmath.pi * p / q)
                assert abs(r.value - exact) <= r.err_bound, (p, q, r)

    def test_rejects_odd_numerator(self):
        with pytest.raises(DomainError):
            cl2_rational(RationalAngle(1, 3))

    def test_rejects_even_denominator(self):
        with pytest.raises(DomainError):
            cl2_rational(RationalAngle(2, 4))

    @pytest.mark.parametrize(
        "call",
        [
            cl2,
            lambda t: clausen_sin(3, t),
            lambda t: clausen_cos(3, t),
            lambda t: cl_even(1, t),
            lambda t: cl_odd(1, t),
            lambda t: PolarPoint(0.5, t),
        ],
        ids=["cl2", "clausen_sin", "clausen_cos", "cl_even", "cl_odd", "PolarPoint"],
    )
    def test_radian_readers_refuse_it(self, call):
        # a p pi/q angle is no number of radians; cl2_rational is its reader
        with pytest.raises(DomainError, match="not an angle in radians: use cl2_rational"):
            call(RationalAngle(2, 7))


class TestImLi2Polar:
    def test_frozen_value(self):
        got = im_li2_polar(PolarPoint(0.5, PI / 3.0)).value
        assert abs(got - 0.4828536569574443324342206) < 1e-12

    def test_against_direct_series(self):
        for r in (0.1, 0.5, 0.9):
            for th in (0.4, 1.5, 2.8):
                direct = math.fsum(
                    r**k * math.sin(k * th) / k**2 for k in range(1, 4000)
                )
                got = im_li2_polar(PolarPoint(r, th)).value
                assert abs(got - direct) < 1e-10


def _im_li2_polar_oracle(r, theta):
    """The same branch formula at 50 digits, theta reduced exactly."""
    import mpmath

    with mpmath.workdps(400):  # enough to reduce any double angle
        t = mpmath.mpf(theta)
        t -= 2 * mpmath.pi * mpmath.floor((t + mpmath.pi) / (2 * mpmath.pi))
    with mpmath.workdps(50):
        r, t = mpmath.mpf(r), +t
        num, den = r * mpmath.sin(t), 1 - r * mpmath.cos(t)
        om = mpmath.atan(num / den) if den else mpmath.sign(num) * mpmath.pi / 2
        cl = lambda x: mpmath.clsin(2, x)  # noqa: E731
        return om * mpmath.log(r) + (cl(2 * om) - cl(2 * om + 2 * t) + cl(2 * t)) / 2


def _ulps_off(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("r", [0.3, 0.9, 1.0, 1.7, 4.0])
@pytest.mark.parametrize(
    "theta", [0.7 + 2 * PI * 12345, -7.5, 123.456, 1e6, 1e10, -1e18, 2e300, PI, -PI, 1e-10]
)
def test_im_li2_polar_bound_beyond_pi(r, theta):
    # the reduction of theta and the rounding of omega are in the bound
    res = im_li2_polar(PolarPoint(r, theta))
    assert abs(res.value - _im_li2_polar_oracle(r, theta)) <= res.err_bound


@pytest.mark.parametrize("r", [1.0000001, 1.2, 2.0, 5.0])
@pytest.mark.parametrize("ulps", range(-4, 5))
@pytest.mark.parametrize("turns", [0, 1000])
def test_im_li2_polar_bound_near_branch_line(r, ulps, turns):
    # near r cos(theta) = 1 the denominator's sign, and so the branch of
    # omega, may be wrong by rounding: the bound carries the jump pi ln r
    t = _ulps_off(math.acos(1.0 / r), ulps)
    for theta in (t + 2 * PI * turns, -t):
        res = im_li2_polar(PolarPoint(r, theta))
        assert abs(res.value - _im_li2_polar_oracle(r, theta)) <= res.err_bound


def test_im_li2_polar_matches_polylog():
    # two kernels for Im Li_2(r e^{i theta}): the Clausen decomposition and
    # polylog_complex, on a seeded grid that crosses r = 1 and |theta| =
    # 2 pi/3, so that each kernel runs about both of its centres.  Where
    # r cos(theta) > 1, im_li2_polar takes the branch the tetrahedral chain
    # uses, which differs from the principal one by -sign(theta) pi ln r.
    rng = random.Random(20)
    for i in range(1500):
        r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        if i % 2:
            theta = rng.uniform(-PI, PI)
        else:
            theta = rng.choice([1.0, -1.0]) * (2.0 * PI / 3.0 + rng.uniform(-0.05, 0.05))
        a = im_li2_polar(PolarPoint(r, theta))
        b = polylog_complex(2, cmath.rect(r, theta))
        jump = -math.copysign(PI * math.log(r), theta) if r * math.cos(theta) > 1.0 else 0.0
        assert abs(a.value - b.value.imag - jump) <= a.err_bound + b.err_bound, (r, theta)


@pytest.mark.parametrize(
    "call",
    [lambda t: clausen_cos(3, t), cl2, lambda t: im_li2_polar(PolarPoint(0.5, t))],
    ids=["clausen_cos", "cl2", "im_li2_polar"],
)
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_raises(call, theta):
    # an angle with no reduction has no value, not a certified one
    with pytest.raises(ValueError, match="has no reduction"):
        call(theta)


class TestIncompleteGamma:
    def test_recurrence(self):
        # with f(n, x) = Gamma(n+1, x): f(n, x) = n f(n-1, x) + x^n e^-x
        for n in (1, 2, 5):
            for x in (0.5, 2.0, 10.0):
                lhs = incomplete_gamma_upper_int(n, x)
                rhs = n * incomplete_gamma_upper_int(n - 1, x) + x**n * math.exp(-x)
                assert abs(lhs - rhs) <= 1e-14 * abs(lhs)

    def test_at_zero_is_factorial(self):
        assert incomplete_gamma_upper_int(4, 0.0) == 24.0


def test_harmonic_numbers():
    assert harmonic(1) == 1.0
    assert abs(harmonic(4) - 25.0 / 12.0) < 1e-15


class TestClausenKernel:
    """cl2 and clausen_* share one table-driven kernel."""

    ANGLES = [
        -PI + 1e-15, -3.0, -2.0, -1.0, -0.3, -1e-8, -1e-300, 0.0,
        1e-300, 1e-8, 0.3, PI / 3.0, 1.0, 2.0, 3.0, PI - 1e-12, PI, -PI,
    ]

    def test_cl2_is_clausen_sin_order_two(self):
        grid = self.ANGLES + [-PI + 2.0 * PI * i / 997.0 for i in range(1, 998)]
        for th in grid:
            a, b = cl2(th), clausen_sin(2, th)
            assert abs(a.value - b.value) <= a.err_bound + b.err_bound, th
            assert a.effort == b.effort

    def test_methods(self):
        assert cl2(1.0).method == "bernoulli-series"
        assert cl2(0.0).method == "bernoulli-series"
        assert cl2(PI).method == "bernoulli-series"
        assert clausen_sin(2, 1.0).method == "log-expansion"
        assert clausen_cos(3, 1.0).method == "log-expansion"

    def test_sine_kinds_at_zero_and_pi(self):
        # a sine sum vanishes at 0, but not at PI, PI_LO short of pi: there
        # it is about PI_LO eta(s - 1), which the expansion about pi keeps
        import mpmath

        for s in (2, 3, 4, 7):
            r = clausen_sin(s, 0.0)
            assert (r.value, r.err_bound, r.effort) == (0.0, 0.0, 0)
            for th in (PI, -PI):
                r = clausen_sin(s, th)
                with mpmath.workdps(40):
                    exact = mpmath.clsin(s, mpmath.mpf(th))
                    err = float(abs(r.value - exact))
                assert err <= 1e-15 * float(abs(exact)), (s, th)
                assert err <= r.err_bound, (s, th)

    @pytest.mark.parametrize(
        ("fn", "s", "effort"),
        # a polynomial: its terms of one parity up to theta^s, and the head's
        # monomial theta^(s-1), which the expansion about pi has not
        [(clausen_cos, 2, 3), (clausen_sin, 3, 3), (clausen_cos, 4, 4), (clausen_sin, 5, 4),
         (clausen_sin, 7, 5), (clausen_cos, 8, 6)],
    )
    def test_effort_of_a_polynomial(self, fn, s, effort):
        for th in (1e-8, 0.5, 2.0):
            assert fn(s, th).effort == effort
        assert fn(s, 3.1).effort == effort - 1

    @pytest.mark.parametrize("s", range(2, 10))
    def test_finite_kinds_keep_their_digits_near_pi(self, s):
        # the finite kinds, polynomials whose terms about 0 cancel there, to
        # O(pi - |theta|) for the sine kind, are summed about pi
        import mpmath

        fn, oracle = (clausen_sin, mpmath.clsin) if s % 2 else (clausen_cos, mpmath.clcos)
        near = [PI, math.nextafter(PI, 0.0)]
        near += [PI - d for d in (0.5, 1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 1e-15)]
        for th in near + [-t for t in near]:
            r = fn(s, th)
            with mpmath.workdps(40):
                exact = oracle(s, mpmath.mpf(th))
                err = float(abs(r.value - exact))
            assert abs(exact) > 1e-300
            assert err <= 1e-15 * float(abs(exact)), (s, th)
            assert err <= r.err_bound, (s, th)

    @pytest.mark.parametrize(
        ("fn", "s", "head"),
        # the head (folded into the theta^(s-1) term) and the terms below it
        [(clausen_sin, 2, 1), (clausen_cos, 3, 2), (clausen_sin, 4, 2), (clausen_cos, 5, 3),
         (clausen_sin, 8, 4)],
    )
    def test_effort_of_an_infinite_sum(self, fn, s, head):
        # an angle by 0 or by pi stops at the first tail term of its expansion;
        # the effort rises up to 2 pi/3, where the kernel switches from the
        # expansion about 0 to the one about pi, and falls after it
        assert fn(s, 1e-8).effort == fn(s, PI - 1e-9).effort == head + 1
        rising = [fn(s, th).effort for th in (1e-8, 0.1, 0.5, 1.0, 2.0, 2.0 * PI / 3.0)]
        falling = [fn(s, th).effort for th in (2.0 * PI / 3.0 + 1e-9, 2.2, 2.5, 3.0, PI - 1e-9)]
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)
        assert rising[-1] >= falling[0]
        assert rising[-1] > head + 8

    def test_cl2_effort_counts_head_and_terms(self):
        assert cl2(1e-8).effort == 2
        assert cl2(0.0).effort == 0
        # theta - theta ln theta, then zeta(2n) theta^(2n+1)/(n (2n+1) (2 pi)^2n),
        # which falls by (theta/2 pi)^2 = 1/16 a term at theta = pi/2: 2^-54
        # of the head takes about 13
        assert 11 <= cl2(PI / 2.0).effort <= 15

    @pytest.mark.parametrize("s", range(2, 21))
    @pytest.mark.parametrize("odd", [True, False])
    def test_tail_premises(self, s, odd):
        from tetralog.bernoulli import eta_taylor, zeta_taylor
        from tetralog.specfun import _clausen_table

        infinite = (s % 2 == 0) == odd
        tables = _clausen_table(s, odd)
        # every kind has a table about 0 and one about pi
        assert len(tables) == 2
        for minus, (head, g, log, tail, sign) in enumerate(tables):
            # about pi there is no log term, and no g term at all
            assert log == (infinite and not minus)
            assert (g == 0.0) == minus
            assert all(b == abs(a) for a, b in head)
            if not infinite:
                # a polynomial about either centre: past k = s the terms of
                # its parity vanish
                assert tail == ()
                coeff = eta_taylor if minus else zeta_taylor
                assert all(coeff(s, k) == 0.0 for k in range(s + 2, s + 12, 2))
                continue
            # the signed tail c_k (-1)^(k//2), k = s+1, s+3, ..., shares one
            # sign (about pi, c'_k, negated for the sine kind) ...
            coeff, turn, radius = (
                (eta_taylor, -1 if odd else 1, PI) if minus else (zeta_taylor, 1, 2.0 * PI)
            )
            ks = range(s + 1, s + 2 * len(tail), 2)
            signed = [turn * (-1) ** (k // 2) * coeff(s, k) for k in ks]
            assert all(math.copysign(1.0, v) == sign for v in signed)
            assert list(tail) == [abs(v) for v in signed]
            # ... and falls at least by (2 pi)^2 a step, or pi^2 about pi,
            # which bounds the truncation
            for lo, hi in zip(tail, tail[1:]):
                assert hi * radius**2 <= lo * (1.0 + 1e-12)

    @pytest.mark.parametrize("s", range(2, 172))
    def test_sums_stop_within_the_shared_tables(self, s):
        from tetralog.bernoulli import _STOP, OUTER, _log_tables
        from tetralog.specfun import _clausen_table

        switch = 2.0 * PI / 3.0
        # each centre's widest argument: theta = 2 pi/3 about 0 and the float
        # past it about pi (x = pi/3); |z| an ulp inside OUTER on either side
        # of the switch arg z = 2 pi/3 for the log expansion
        beyond = math.nextafter(switch, 4.0)
        for minus, theta, arg in ((False, switch, switch), (True, beyond, beyond)):
            coeffs, _, shared, _ = _log_tables(s, minus)
            if s <= 170:
                r = polylog_complex(s, cmath.rect(math.nextafter(OUTER, 0.0), arg), tol=1.0)
                assert r.method == "log-expansion"
                # the index of the tail term that stops the sum
                assert r.effort - s - 1 < len(shared)
            for odd, fn in ((True, clausen_sin), (False, clausen_cos)):
                if odd and s == 171:
                    continue  # no table: its head needs c_171
                head, _, log, tail, _ = _clausen_table(s, odd)[minus]
                summed = fn(s, theta, tol=1.0).effort - len(head) - (not (log or minus))
                assert summed <= len(tail) <= len(shared)
                if tail and summed == len(tail):
                    # the last term stops the sum: it is below _STOP times
                    # the least sum of |terms| there, |c_0| for the cosine
                    # kind and x |c_1| for the sine kind, x = theta or pi - theta
                    x = PI - theta if minus else theta
                    least = x * abs(coeffs[-2]) if odd else abs(coeffs[-1])
                    assert tail[-1] * x ** (s - 1 + 2 * summed) <= _STOP * least

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_subnormal_angles_keep_a_bound(self, s):
        # (s + 4) EPS of the terms underflows there, yet the value is still
        # rounded: Cl_2 = theta - theta ln theta and the sine kind of order s
        # = zeta(s - 1) theta, up to theta^2 terms far below 2^-1074
        import mpmath

        rng = random.Random(f"subnormal-clausen-{s}")
        angles = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300]
        angles += [10.0 ** rng.uniform(-323.5, -300.0) for _ in range(40)]
        with mpmath.workdps(60):
            for th in angles + [-th for th in angles]:
                t = mpmath.mpf(th)
                want = t - t * mpmath.log(abs(t)) if s == 2 else mpmath.zeta(s - 1) * t
                r = cl2(th) if s == 2 else clausen_sin(s, th)
                assert r.err_bound >= 2.0**-1074
                assert abs(r.value - want) <= r.err_bound, (th, r)


class TestPsiEdges:
    @pytest.mark.parametrize("x", [1e-155, 1e-200, 5e-324, -1e-200, -5e-324])
    def test_trigamma_overflow(self, x):
        with pytest.raises(OverflowError, match=r"trigamma\(.*\) overflows double precision"):
            trigamma(x)

    def test_digamma_overflow(self):
        with pytest.raises(OverflowError, match="overflows double precision"):
            digamma(5e-324)

    def test_tiny_but_finite(self):
        assert trigamma(1e-150).value == pytest.approx(1e300, rel=1e-15)
        assert digamma(1e-300).value == pytest.approx(-1e300, rel=1e-15)

    @pytest.mark.parametrize("x", [10.0, 10.5, 12.0, 15.0, 20.0])
    def test_asymptotic_series_to_an_ulp(self, x):
        # no shift here: the B_16 term alone is 6.7e-16 of psi'(10), so a
        # wrong coefficient up to there shows
        import mpmath

        for m, fn in ((1, trigamma), (0, digamma)):
            with mpmath.workdps(40):
                exact = float(mpmath.psi(m, x))
            assert abs(fn(x).value - exact) <= 2.5e-16 * abs(exact)

    def test_poles(self):
        for x in (0.0, -0.0, -1.0, -7.0, -2.0**52, -1e300):
            with pytest.raises(DomainError):
                trigamma(x)
            with pytest.raises(DomainError):
                digamma(x)

    @pytest.mark.parametrize("fn", [digamma, trigamma], ids=["digamma", "trigamma"])
    @pytest.mark.parametrize("x", [-math.inf, math.nan], ids=["-inf", "nan"])
    def test_non_finite_argument_is_a_domain_error(self, fn, x):
        with pytest.raises(DomainError, match=rf"^{fn.__name__}\({x}\) is undefined$"):
            fn(x)

    def test_positive_infinity(self):
        with pytest.raises(OverflowError, match=r"^digamma\(inf\) overflows double precision$"):
            digamma(math.inf)
        assert trigamma(math.inf).value == 0.0

    @pytest.mark.parametrize(
        "s, a, text",
        [(2, 1e-320, "2.0, 1e-320"), (2.0, 5e-324, "2.0, 5e-324"), (1e308, 1e-300, "1e+308, 1e-300")],
    )
    def test_hurwitz_zeta_overflow(self, s, a, text):
        message = f"hurwitz_zeta({text}) overflows double precision"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize(
        "s, a, text",
        [(2, 1e300, "2.0, 1e+300"), (139.0, 117.13458414539913, "139.0, 117.13458414539913")],
    )
    def test_hurwitz_zeta_underflow_is_refused(self, s, a, text):
        # the Euler-Maclaurin powers would be subnormal or 0, and drop out of
        # the value and its bound: zeta(2, 1e300) came out 0 +- 0
        message = f"hurwitz_zeta({text}) underflows double precision"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize("s, a", [(400.0, 1.0), (400.0, 0.75), (1000.0, 0.999)])
    def test_hurwitz_zeta_of_high_order_at_small_a(self, s, a):
        # at a <= 1 the head term a^-s >= 1 carries the value, and the
        # powers that underflow lose nothing it holds
        import mpmath

        r = hurwitz_zeta(s, a)
        with mpmath.workdps(40):
            assert abs(r.value - mpmath.zeta(s, a)) <= r.err_bound <= 1e-15 * r.value

    @pytest.mark.parametrize("s, a", [(200.0, 9.5), (280.0, 9.99)])
    def test_hurwitz_zeta_of_a_value_below_tol(self, s, a):
        # the value, about a^-s, lies far below the default tol, which would
        # certify no digit of it: the sum runs to 1e-14 of a^-s instead
        import mpmath

        r = hurwitz_zeta(s, a)
        with mpmath.workdps(40):
            assert abs(r.value - mpmath.zeta(s, a)) <= r.err_bound <= 1e-14 * r.value

    @pytest.mark.parametrize("x", [1e-320, 1e-80])
    def test_polygamma_overflow(self, x):
        with pytest.raises(OverflowError, match=rf"^polygamma\(3, {x}\) overflows double precision$"):
            polygamma(3, x)

    @pytest.mark.parametrize("n, x", [(170, 0.5), (171, 1.0), (250, 2.0), (10**4, 1.5)])
    def test_polygamma_overflow_of_the_value(self, n, x):
        # psi^(n)(x) itself is beyond the largest double
        message = rf"^polygamma\({n}, {x}\) overflows double precision$"
        with pytest.raises(OverflowError, match=message):
            polygamma(n, x)

    @pytest.mark.parametrize("n, x", [(250, 20.0), (100, 1e3), (3, 1e80)])
    def test_polygamma_underflow_is_refused(self, n, x):
        # the Euler-Maclaurin terms of zeta(n + 1, x) would be subnormal
        with pytest.raises(OverflowError, match=r"underflows double precision$"):
            polygamma(n, x)

    @pytest.mark.parametrize(
        "n, x", [(171, 2.0), (250, 10.0), (200, 3.5), (100, 10.0), (60, 80.0), (5, 1e3)]
    )
    def test_polygamma_of_high_order(self, n, x):
        # past order 170 n! is no double, but psi^(n)(x) can be one; a tol
        # relative to the sum keeps the digits where its terms are tiny
        import mpmath

        r = polygamma(n, x)
        with mpmath.workdps(40):
            exact = mpmath.polygamma(n, x)
            assert abs(r.value - exact) <= r.err_bound <= 1e-13 * abs(exact)


def _ball_ends(b):
    import mpmath

    v, r = mpmath.mpf(b.value), mpmath.mpf(b.err_bound)
    return v - r, v + r


def _balls(x):
    """Balls about x of radius 0, one ulp and 1e-12 relative."""
    return [EvalResult(x, r, 0, "") for r in (0.0, math.ulp(x), 1e-12 * x)]


class TestBallForms:
    """trigamma and hurwitz_zeta charge a ball argument's radius through a
    slope bound; the other kernels refuse a ball."""

    @pytest.mark.parametrize("x", [1e-3, 1 / 7, 0.5, 2.3, 10.0, 37.1, 1e5])
    def test_trigamma_holds_both_ends(self, x):
        import mpmath

        for b in _balls(x):
            r = trigamma(b)
            assert r.value == trigamma(x).value
            with mpmath.workdps(40):
                for t in _ball_ends(b):
                    assert abs(r.value - mpmath.psi(1, t)) <= r.err_bound, (b, t)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("a", [1e-3, 1 / 7, 0.5, 2.3, 37.1, 1e5])
    def test_hurwitz_zeta_holds_both_ends(self, s, a):
        import mpmath

        for b in _balls(a):
            r = hurwitz_zeta(s, b)
            assert r.value == hurwitz_zeta(s, a).value
            with mpmath.workdps(40):
                for t in _ball_ends(b):
                    assert abs(r.value - mpmath.zeta(s, t)) <= r.err_bound, (b, t)

    def test_radius_zero_is_the_float_call(self):
        assert trigamma(exact(0.3)) == trigamma(0.3)
        assert hurwitz_zeta(2.5, exact(0.7)) == hurwitz_zeta(2.5, 0.7)

    @pytest.mark.parametrize("q", [3, 7, 11, 30])
    def test_rational_points(self, q):
        # exact(p)/q is p/q rounded once, and its ball holds p/q itself
        import mpmath

        for p in range(1, q):
            x = exact(p) / q
            psi1, z2 = trigamma(x), hurwitz_zeta(2.0, x)
            with mpmath.workdps(40):
                t = mpmath.mpf(p) / q
                assert abs(psi1.value - mpmath.psi(1, t)) <= psi1.err_bound, p
                assert abs(z2.value - mpmath.zeta(2, t)) <= z2.err_bound, p

    def test_l7_points_are_charged(self):
        # zeta(2, J + p/7), as l7_series takes it
        import mpmath

        for p in range(1, 7):
            r = hurwitz_zeta(2.0, 8 + exact(p) / 7.0)
            with mpmath.workdps(40):
                assert abs(r.value - mpmath.zeta(2, 8 + mpmath.mpf(p) / 7)) <= r.err_bound

    @pytest.mark.parametrize(
        "b", [(1e-3, 1e-3), (0.5, 0.6), (-2.5, 0.1), (0.0, 0.0), (1e-300, 1e-300)]
    )
    def test_ball_reaching_zero_is_refused(self, b):
        ball = EvalResult(b[0], b[1], 0, "")
        with pytest.raises(DomainError, match="^a ball argument must lie in x > 0$"):
            trigamma(ball)
        with pytest.raises(DomainError, match="^a ball argument must lie in x > 0$"):
            hurwitz_zeta(2.0, ball)

    def test_charge_overflow(self):
        # the midpoint's value is a double, but the slope at the least point is not
        ball = EvalResult(1e-100, 1e-100 * (1.0 - 1e-10), 0, "")
        with pytest.raises(OverflowError, match="overflows double precision$"):
            trigamma(ball)
        with pytest.raises(OverflowError, match="overflows double precision$"):
            hurwitz_zeta(4.0, EvalResult(1e-60, 1e-60 * (1.0 - 1e-10), 0, ""))

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: digamma(b),
            lambda b: polygamma(0, b),
            lambda b: polygamma(2, b),
            lambda b: polylog_complex(2, b),
        ],
        ids=["digamma", "polygamma-0", "polygamma-2", "polylog_complex"],
    )
    def test_kernels_without_a_ball_form_refuse_one(self, call):
        # psi moves by ~4.9e-3 and Li_2 by ~1.2e-3 across these balls, which
        # reading the midpoint would drop
        for b in (EvalResult(0.5, 1e-3, 0, ""), EvalResult(0.3, 1e-3, 0, "")):
            with pytest.raises(DomainError, match="has no ball form"):
                call(b)

    def test_float_of_a_ball_is_its_midpoint(self):
        assert float(EvalResult(0.5, 1e-3, 0, "")) == 0.5


def test_bernoulli_numbers_match_mpmath():
    import mpmath

    from tetralog.bernoulli import bernoulli_number

    for n in range(201):
        assert bernoulli_number(n) == Fraction(*mpmath.bernfrac(n)), n


def test_zeta_int_matches_mpmath():
    import mpmath

    from tetralog.bernoulli import zeta_int

    for n in range(2, 171):
        v = zeta_int(n)
        with mpmath.workdps(40):
            exact = mpmath.zeta(n)
            assert abs(v - exact) <= EPS / 2 * exact, n  # correctly rounded
        # never below 1, and above it for n <= 53, where zeta(n) - 1 exceeds
        # half an ulp of 1
        assert v > 1.0 if n <= 53 else v >= 1.0, n


class TestClausenOrderLimit:
    """A kernel table needs c_k = zeta(s - k)/k! as doubles, so k <= 170."""

    @pytest.mark.parametrize(
        ("fn", "s"),
        [(clausen_sin, 171), (clausen_sin, 172), (clausen_cos, 172), (clausen_cos, 10**9)],
    )
    def test_order_too_large(self, fn, s):
        with pytest.raises(OverflowError, match=f"^Cl_{s}: order too large for double precision$"):
            fn(s, 1.0)

    def test_last_cosine_order(self):
        # the cosine head of order 171 stops at k = 170
        r = clausen_cos(171, 1.0)
        assert (r.value.hex(), r.err_bound.hex(), r.effort) == (
            "0x1.14a280fb5068cp-1",
            "0x1.0e0a032f3feb2p-44",
            86,
        )
