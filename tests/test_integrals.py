"""Unit tests for the central integral family and its closed forms.

Reference values were frozen from independent high-precision evaluation.
"""

import cmath
import math

import pytest

from tetralog.errors import DomainError, QuadratureError
from tetralog.integrals import (
    CONSTANTS,
    Paper7Constants,
    corollary3,
    i1_clausen_form,
    i1_polylog_form,
    i1_series_truncated,
    i2_closed_form,
    i7_closed_form,
    i_ab_closed_omega,
    i_ab_closed_theta12,
    integral_I1_split,
    integral_I7,
    integral_I_ab,
    integral_In,
    integral_In_vform,
)

PI = math.pi
L7 = 1.1519254705444910471016923973205
CATALAN = 0.91596559417721901505460351493238
I_N1 = 0.8889149278163532635989041542035
I_N2 = 2.280790061674083622045645922519
I1_SPLIT = 0.4038942572647920457114287298466
I2_SPLIT = 0.4850206705515612178874754243569


class TestConstants:
    def test_invariants(self):
        s7, s3 = math.sqrt(7.0), math.sqrt(3.0)
        c = CONSTANTS
        gaps = [
            abs(c.r73 - (s7 + s3) / (s7 - s3)),
            abs(c.omega_plus.raw - (math.atan(s7) - 2.0 * PI / 3.0)),
            abs(c.omega_minus.raw + c.omega_plus.raw),
            abs(c.v_plus * c.v_minus - 1.0),
            abs(c.v_plus - cmath.exp(1j * c.theta_plus.raw)),
            abs(c.v_plus - complex(3.0, s7) / 4.0),
            abs(c.v_minus - complex(3.0, -s7) / 4.0),
            abs(c.theta7.raw - 2.0 * math.atan(s7)),
            abs(2.0 * c.omega_plus.raw - (c.theta7.raw - 4.0 * PI / 3.0)),
        ]
        assert max(gaps) < 1e-14

    def test_named_tuple(self):
        assert isinstance(CONSTANTS, tuple)
        assert CONSTANTS._fields == (
            "r73", "theta_plus", "theta_minus", "omega_plus", "omega_minus",
            "v_plus", "v_minus", "theta7",
        )
        assert CONSTANTS == Paper7Constants(*CONSTANTS)
        assert CONSTANTS.theta_minus.raw == -CONSTANTS.theta_plus.raw

    def test_r73(self):
        s7, s3 = math.sqrt(7.0), math.sqrt(3.0)
        assert abs(CONSTANTS.r73 - (s7 + s3) / (s7 - s3)) < 1e-14

    def test_omega_plus_value(self):
        assert abs(CONSTANTS.omega_plus.raw + 0.88496589950500667867) < 1e-14

    def test_v_roots(self):
        # v_pm are the roots of 2v^2 - 3v + 2
        for v in (CONSTANTS.v_plus, CONSTANTS.v_minus):
            assert abs(2.0 * v * v - 3.0 * v + 2.0) < 1e-14


class TestMainIntegral:
    def test_quadrature_value(self):
        r = integral_I7()
        assert abs(r.value - L7) < 1e-10

    def test_closed_form(self):
        assert abs(i7_closed_form().value - L7) < 1e-13

    def test_power_zero_is_exact(self):
        assert abs(integral_In(0).value - PI / 6.0) < 1e-12

    def test_power_one(self):
        assert abs(integral_In(1).value - I_N1) < 1e-10

    def test_power_two(self):
        assert abs(integral_In(2).value - I_N2) < 1e-9

    def test_vform_agrees(self):
        for n in (1, 2):
            assert abs(integral_In_vform(n).value - integral_In(n).value) < 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            integral_In(-1)

    def test_vform_negative_power_rejected(self):
        with pytest.raises(DomainError):
            integral_In_vform(-1)

    @pytest.mark.parametrize(("n", "tol"), [(7, 1e-12), (8, 1e-12), (9, 1e-10)])
    def test_vform_raises_where_its_estimate_exceeds_tol(self, n, tol):
        with pytest.raises(QuadratureError, match="exceeds tol"):
            integral_In_vform(n, tol)


class TestSplitPieces:
    def test_split_values(self):
        i1, i2 = integral_I1_split()
        assert abs(i1.value - I1_SPLIT) < 1e-10
        assert abs(i2.value - I2_SPLIT) < 1e-10

    def test_pieces_sum_to_whole(self):
        i1, i2 = integral_I1_split()
        assert abs(i1.value + i2.value - integral_In(1).value) < 1e-9

    def test_second_piece_clausen_form(self):
        assert abs(i2_closed_form().value - I2_SPLIT) < 1e-13

    def test_first_piece_clausen_form(self):
        assert abs(i1_clausen_form().value - I1_SPLIT) < 1e-13

    def test_polylog_form(self):
        assert abs(i1_polylog_form(1).value - I1_SPLIT) < 1e-12

    def test_polylog_form_second_power(self):
        # must agree with the truncated-series route at the same power
        assert abs(i1_polylog_form(2).value - i1_series_truncated(2)) < 1e-10

    def test_series_truncated(self):
        assert abs(i1_series_truncated(1) - I1_SPLIT) < 1e-12

    def test_polylog_form_invalid_power(self):
        with pytest.raises(DomainError):
            i1_polylog_form(3)


class TestParametricFamily:
    def test_catalan_special_case(self):
        # a = 1, b = 0 reduces to the Catalan constant
        assert abs(integral_I_ab(1.0, 0.0).value - CATALAN) < 1e-10

    def test_zero_exponent_pair_vanishes(self):
        for b in (-0.5, 0.0, 0.5):
            assert abs(integral_I_ab(0.0, b).value) < 1e-10

    def test_frozen_value(self):
        assert abs(integral_I_ab(2.0, 0.25).value - 0.75268253158646744701103) < 1e-10

    def test_closed_forms_match_quadrature(self):
        for a, b in ((0.5, 0.3), (2.0, -0.6), (1.0, 0.0), (3.0, 0.9)):
            q = integral_I_ab(a, b).value
            assert abs(i_ab_closed_omega(a, b).value - q) < 1e-9
            assert abs(i_ab_closed_theta12(a, b).value - q) < 1e-9

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            integral_I_ab(-1.0, 0.0)
        with pytest.raises(DomainError):
            integral_I_ab(1.0, 1.0)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_a_rejected_by_name(self, a):
        with pytest.raises(DomainError, match="requires a finite a >= 0, got a = "):
            integral_I_ab(a, 0.5)


class TestLogTangentCorollary:
    def test_examples(self):
        for c, t in ((1.0, PI / 3.0), (2.0, PI / 2.0), (math.e, 0.1)):
            lhs, rhs = corollary3(c, t)
            assert abs(lhs.value - rhs) < 1e-10

    @pytest.mark.parametrize(
        "c, t",
        [
            (0.12946811722728552, 3.0878797212997737),
            (0.1298427672939307, 3.091305233251941),
            (0.1041169508778581, 3.087947159877866),
        ],
    )
    def test_sharp_peak_at_small_c_near_pi(self, c, t):
        # the integrand peaks sharply at x = c when t is near pi
        lhs, rhs = corollary3(c, t)
        assert abs(lhs.value - rhs) <= 1e-9 * abs(rhs)

    def test_rhs_formula(self):
        c, t = 2.0, 1.0
        _, rhs = corollary3(c, t)
        assert abs(rhs - math.log(c) / c * t / math.sin(t)) < 1e-15


def _iab_exact(a, b):
    """I(a, b) by its Clausen closed form at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        root = mpmath.sqrt(1 - b * b)
        th = -mpmath.atan(root / b) if b else -mpmath.pi / 2
        om = mpmath.atan(root / (a + b)) if a + b else mpmath.pi / 2
        cl = lambda x: mpmath.clsin(2, x)  # noqa: E731
        return (cl(2 * om) - cl(2 * om + 2 * th) + cl(2 * th)) / (2 * root)


def test_quadrature_bounds_hold_against_closed_forms():
    # integral_I_ab and corollary3 over the ranges compute-warm.quad draws
    # from: a = 0 (a log endpoint) or a in (0, 3], |b| < 0.95, c log-uniform
    # on [0.1, 10], t in (0.05, pi - 0.05)
    import random

    import mpmath

    # near t = pi, where x^2 + 2xc cos t + c^2 would keep few digits of 1 + cos t
    for c, t in ((0.10590372551968084, 3.073692977629021), (0.1554731230632715, 3.075912103534484),
                 (2.0724583032423616, 3.0737653597429446)):
        lhs, _ = corollary3(c, t)
        with mpmath.workdps(30):
            exact = mpmath.log(c) / c * mpmath.mpf(t) / mpmath.sin(t)
        assert abs(lhs.value - exact) <= lhs.err_bound, (c, t)
    rng = random.Random(9)
    for i in range(200):
        a = 0.0 if i % 3 == 0 else 3.0 * (1.0 - rng.random())
        b = rng.uniform(-0.95, 0.95)
        r = integral_I_ab(a, b)
        assert abs(r.value - _iab_exact(a, b)) <= r.err_bound, (a, b)
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        t = rng.uniform(0.05, PI - 0.05)
        lhs, _ = corollary3(c, t)
        with mpmath.workdps(30):
            exact = mpmath.log(c) / c * mpmath.mpf(t) / mpmath.sin(t)
        assert abs(lhs.value - exact) <= lhs.err_bound, (c, t)


def _iab_quad_exact(a, b):
    """I(a, b) by 40-digit mpmath quadrature, split at the peak y = -b."""
    import mpmath

    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        k = (1 - b) * (1 + b)
        points = [a, -b, mpmath.inf] if -b > a else [a, mpmath.inf]
        return mpmath.quad(lambda y: mpmath.log(y) / ((y + b) ** 2 + k), points)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_iab_at_zero_next_to_b_minus_one_is_zero(tol):
    # y -> 1/y maps I(0, b) to -I(0, b), so it is 0; the panel from 0 pairs
    # those nodes, so the peak at y = -b, of width ~7e-3, cancels as well
    r = integral_I_ab(0.0, -0.999975374854862, tol)
    assert abs(r.value) <= r.err_bound <= 1e-14


def test_corollary3_at_large_c_holds_its_bound():
    # a tail cut at y ~ 2^53 would drop up to ~4e-15 of ln x / x^2, uncharged
    import mpmath

    c, t = 196.03244175249583, 2.3056248266235735
    lhs, _ = corollary3(c, t)
    with mpmath.workdps(40):
        exact = mpmath.log(c) / c * mpmath.mpf(t) / mpmath.sin(t)
    assert _mp_error(lhs.value, exact) <= lhs.err_bound


def _corollary3_exact(c, t):
    import mpmath

    with mpmath.workdps(40):
        return mpmath.log(c) / c * mpmath.mpf(t) / mpmath.sin(t)


def test_corollary3_at_small_c_ends_at_its_rounding_floor():
    # |value| ~ 881, so tol 1e-12 is ~5 ulps: the tail's levels settle one ulp
    # apart, within the rounding of their sum, and the panel ends there
    c, t = 0.0058584110749913465, 0.1527199233766555
    lhs, _ = corollary3(c, t, 1e-12)
    assert _mp_error(lhs.value, _corollary3_exact(c, t)) <= lhs.err_bound


def test_corollary3_charges_what_the_stops_at_its_peak_drop():
    # the peak f(c) ~ -3.8e4 sits at the declared point x = c, and the sides
    # that end within ulp(c)/2 of it drop up to ~2e-12 of the integral, which
    # the panels now charge
    c, t = 0.30916232191628507, 3.1235228221502296
    exact = _corollary3_exact(c, t)
    lhs, _ = corollary3(c, t, 1e-10)
    assert _mp_error(lhs.value, exact) <= lhs.err_bound
    try:
        lhs, _ = corollary3(c, t, 1e-12)
    except QuadratureError:
        return
    assert _mp_error(lhs.value, exact) <= lhs.err_bound


def test_corollary3_bounds_hold_over_wide_ranges():
    # c log-uniform on [1e-3, 1e3] and t in (0, pi), at three tolerances:
    # every call that returns does so inside its bound
    import random

    rng = random.Random(5)
    for _ in range(600):
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, PI)
        exact = _corollary3_exact(c, t)
        for tol in (1e-8, 1e-10, 1e-12):
            try:
                lhs, _ = corollary3(c, t, tol)
            except QuadratureError:
                continue
            assert _mp_error(lhs.value, exact) <= lhs.err_bound, (c, t, tol)


def test_iab_bounds_hold_over_wide_ranges():
    # a = 0 or log-uniform on [1e-3, 1e2], 1 - |b| log-uniform on [1e-5, 1],
    # at three tolerances, where the peak y = -b narrows to width ~sqrt(1 - b^2):
    # every call returns, inside its bound
    import random

    rng = random.Random(15)
    for i in range(150):
        a = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-3.0, 2.0)
        b = math.copysign(1.0 - 10.0 ** rng.uniform(-5.0, 0.0), rng.random() - 0.5)
        exact = _iab_quad_exact(a, b)
        for tol in (1e-8, 1e-10, 1e-12):
            r = integral_I_ab(a, b, tol)
            assert _mp_error(r.value, exact) <= r.err_bound, (a, b, tol)


# I(a, b) at large a, references from int_0^{1/a} -ln u du / (1 + 2bu + u^2)
# summed term by term at 80 digits.  On the tail map y = a + s/(1 - s) the
# mass sits at 1 - s ~ 1/a, between few nodes, and from a ~ 1e154 y^2
# overflows; integral_I_ab integrates that finite panel in u = 1/y instead
@pytest.mark.parametrize(
    "a, b, ref",
    [
        (1e12, 0.5, "2.863102111591448269765793318210826254946e-11"),
        (1e12, -0.5, "2.863102111594261371877386173031647843297e-11"),
        (1e20, 0.5, "4.705170185988091368012707058438787958362e-19"),
        (1e200, 0.5, "4.615170185988091507420106119261221790783e-198"),
        (1e308, 0.5, "7.101962086421660628912310676025139669142e-306"),
    ],
    ids=["1e12-b+", "1e12-b-", "1e20", "1e200", "1e308"],
)
def test_iab_at_large_a(a, b, ref):
    r = integral_I_ab(a, b)
    assert _mp_error(r.value, ref) <= r.err_bound


# integrate's known bound misses (ROADMAP items 15 and 20): each returns a
# value outside its err_bound.  They fail strictly, so the fix flips them.
# corollary3 with pi - t < 1e-3, references (ln c / c)(t / sin t) at 40 digits
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="x - c loses the peak's digits (ROADMAP item 15)"
)
@pytest.mark.parametrize(
    "c, t, ref",
    [
        # 6.16e-11 off against a bound of 5.55e-11
        (16.310836477448827, 3.140764527423353, "649.1597869763425239808833501765527197362"),
        # 4.53e-11 off against 4.43e-11
        (12.419274560337369, 3.1408459760955827, "853.2741714938016754174387713721467025913"),
    ],
    ids=["c16.3", "c12.4"],
)
def test_corollary3_known_miss_next_to_t_pi(c, t, ref):
    lhs, _ = corollary3(c, t, 1e-10)
    assert _mp_error(lhs.value, ref) <= lhs.err_bound


def test_closed_form_bounds_hold_near_unit_b():
    # a in [0, 100], |b| up to 1 - 1e-6, half of it log-uniform in 1 - |b|,
    # where the closed forms divide by sqrt(1 - b^2) and asin(b) nears pi/2;
    # at the first point 1 - b*b would keep only 12 of its digits
    import random

    rng = random.Random(11)
    points = [(29.69, 0.99993105)]
    for i in range(400):
        a = 0.0 if i % 10 == 0 else rng.uniform(0.0, 100.0)
        if i % 2:
            b = rng.uniform(-1.0, 1.0) * (1.0 - 1e-6)
        else:
            b = math.copysign(1.0 - 10.0 ** rng.uniform(-6.0, -1.0), rng.random() - 0.5)
        points.append((a, b))
    for a, b in points:
        exact = _iab_exact(a, b)
        for form in (i_ab_closed_omega, i_ab_closed_theta12):
            r = form(a, b)
            assert abs(r.value - exact) <= r.err_bound, (form.__name__, a, b)


def test_theta12_bound_next_to_b_minus_one_with_exact_reciprocal():
    # 1/a + b cancels next to b = -1; at a power of two 1/a is exact, so the
    # bound charges it no rounding, which would dominate it there (1.65)
    a, b = 1.0, -(1.0 - 2.0**-53)
    r = i_ab_closed_theta12(a, b)
    assert abs(r.value - _iab_exact(a, b)) <= r.err_bound <= 1e-5


def _log_ratio_integral(n, part=None):
    """I(n) by its t-form at 40 digits, split at t*; part 0 or 1 is the
    stretch before or after t* alone."""
    import mpmath

    with mpmath.workdps(40):
        ts = mpmath.atan(mpmath.sqrt(7))
        f = lambda t: mpmath.log(abs(mpmath.sin(t + ts) / mpmath.sin(t - ts))) ** n  # noqa: E731
        points = [mpmath.pi / 3, ts, mpmath.pi / 2]
        return mpmath.quad(f, points if part is None else points[part : part + 2])


def _mp_error(value, exact):
    """|value - exact| at 40 digits; exact an mpf or a decimal string."""
    import mpmath

    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - mpmath.mpf(exact)))


def _clausen_halves():
    """(I1(1), I2(1)) by their Clausen closed forms at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        theta = mpmath.atan(mpmath.sqrt(7) / 3)
        omega = mpmath.atan(mpmath.sqrt(7)) - 2 * mpmath.pi / 3
        cl = lambda x: mpmath.clsin(2, x)  # noqa: E731
        return (cl(2 * omega) - cl(2 * omega + 2 * theta) + cl(2 * theta)) / 2, -cl(mpmath.pi + theta)


def _i7_exact():
    import mpmath

    with mpmath.workdps(40):
        return 24 / (7 * mpmath.sqrt(7)) * sum(_clausen_halves())


class TestBoundsAgainstMpmath:
    """Every err_bound of the I(n) family holds against 40-digit mpmath."""

    @pytest.mark.parametrize("n", range(9))
    def test_integral_In(self, n):
        r = integral_In(n)
        assert _mp_error(r.value, _log_ratio_integral(n)) <= r.err_bound <= 1e-10

    def test_split_halves(self):
        i1, i2 = integral_I1_split()
        assert _mp_error(i1.value, _log_ratio_integral(1, 0)) <= i1.err_bound
        assert _mp_error(i2.value, _log_ratio_integral(1, 1)) <= i2.err_bound

    def test_integral_I7(self):
        r = integral_I7()
        assert _mp_error(r.value, _i7_exact()) <= r.err_bound <= 1e-10

    def test_clausen_halves(self):
        exact1, exact2 = _clausen_halves()
        for r, exact in ((i1_clausen_form(), exact1), (i2_closed_form(), exact2)):
            assert _mp_error(r.value, exact) <= r.err_bound

    def test_i7_closed_form(self):
        # against the Clausen closed form, not L_-7(2): I7 = L_-7(2) is conjectural
        r = i7_closed_form()
        assert _mp_error(r.value, _i7_exact()) <= r.err_bound <= 1e-13

    @pytest.mark.parametrize("n", range(9))
    def test_vform(self, n):
        r = integral_In_vform(n)
        assert _mp_error(r.value, _log_ratio_integral(n)) <= r.err_bound
