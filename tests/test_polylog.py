"""Unit tests for complex polylogarithm evaluation across its three regions."""

import cmath
import math
import time

import pytest

from tetralog.bernoulli import TAYLOR_K_MAX, eta_taylor
from tetralog.constants import EPS
from tetralog.errors import DomainError
from tetralog.polylog import _li_log_expansion, polylog_complex

ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942853997381615114
# Li_3((1+i)/2), frozen from high-precision evaluation
LI3_HALF_I_RE = 0.4861595370855600789667215
LI3_HALF_I_IM = 0.5700774070887689781956098
LI3_HALF = 0.53721319360804020767577252605574


class TestSpecialPoints:
    def test_zero(self):
        assert polylog_complex(2, 0.0).value == 0.0

    def test_one_is_zeta(self):
        assert abs(polylog_complex(2, 1.0).value - ZETA2) < 1e-14
        assert abs(polylog_complex(3, 1.0).value - ZETA3) < 1e-14

    def test_dilog_at_half(self):
        ref = ZETA2 / 2.0 - math.log(2.0) ** 2 / 2.0
        assert abs(polylog_complex(2, 0.5).value - ref) < 1e-14

    def test_trilog_at_half(self):
        assert abs(polylog_complex(3, 0.5).value - LI3_HALF) < 1e-14

    def test_dilog_at_minus_one(self):
        assert abs(polylog_complex(2, -1.0).value + ZETA2 / 2.0) < 1e-14


class TestRegions:
    def test_series_region(self):
        v = polylog_complex(3, complex(0.5, 0.5), tol=1e-13).value
        assert abs(v.real - LI3_HALF_I_RE) < 1e-13
        assert abs(v.imag - LI3_HALF_I_IM) < 1e-13

    def test_annulus_region_on_circle(self):
        # |z| = 1, exercised via the log expansion
        th = 2.0 * math.pi / 7.0
        z = cmath.exp(1j * th)
        v = polylog_complex(2, z).value
        direct_im = math.fsum(math.sin(k * th) / k**2 for k in range(1, 300000))
        assert abs(v.imag - direct_im) < 1e-9

    def test_inversion_region_real_axis(self):
        # Li_2(x) + Li_2(1/x) = -pi^2/6 - ln^2(-x)/2 for x < -1
        x = -3.7
        lhs = polylog_complex(2, x).value + polylog_complex(2, 1.0 / x).value
        rhs = -ZETA2 - 0.5 * cmath.log(complex(-x, 0.0)) ** 2
        assert abs(lhs - rhs) < 1e-13

    def test_inversion_region_complex(self):
        # square identity: Li_2(z) + Li_2(-z) = Li_2(z^2)/2 across regions
        z = complex(1.3, 1.1)
        lhs = polylog_complex(2, z).value + polylog_complex(2, -z).value
        rhs = 0.5 * polylog_complex(2, z * z).value
        assert abs(lhs - rhs) < 1e-12

    def test_landen_consistency_degree3(self):
        # Li_3(z) + Li_3(-z) = Li_3(z^2)/4
        for z in (complex(0.4, 0.3), complex(1.6, 0.9), complex(0.0, 2.0)):
            lhs = polylog_complex(3, z).value + polylog_complex(3, -z).value
            rhs = 0.25 * polylog_complex(3, z * z).value
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 6])
@pytest.mark.parametrize("r", [1e-320, 1e-200])
@pytest.mark.parametrize("theta", [0.0, 1.0, -2.0, math.pi / 2, math.pi])
def test_tiny_z_stops_once_terms_underflow(s, r, theta):
    z = cmath.rect(r, theta)
    res = polylog_complex(s, z)
    assert res.value == z
    assert res.effort <= 2


@pytest.mark.parametrize("s", [2, 3, 4])
def test_subnormal_z_keeps_a_bound(s):
    # (s + 4) EPS of the terms underflows there, yet the value is still rounded
    import mpmath

    with mpmath.workdps(60):
        for z in (1e-320, 5e-324, 1e-310j, -1e-320, 1e-310 + 1e-310j):
            r = polylog_complex(s, z)
            want = mpmath.polylog(s, mpmath.mpc(z))
            assert r.err_bound >= 2.0**-1074
            assert abs(r.value - want) <= r.err_bound, (z, r)


class TestOrderLimit:
    """The log expansion needs c_s = zeta(0)/s!, so it stops at s = 170."""

    @pytest.mark.parametrize("z", [0.9, 0.9j, -0.7])
    @pytest.mark.parametrize("s", [171, 172, 200])
    def test_log_expansion_order_too_large(self, s, z):
        with pytest.raises(OverflowError, match=f"^Li_{s}: order too large for double precision$"):
            polylog_complex(s, z)

    def test_last_log_expansion_order(self):
        r = polylog_complex(170, 0.9)
        assert (r.value, r.err_bound.hex(), r.method) == (
            0.9,
            "0x1.82aaaaaaaaaabp-45",
            "log-expansion",
        )

    def test_series_needs_no_factorial(self):
        r = polylog_complex(200, 0.3)
        assert (r.value, r.err_bound.hex(), r.method) == (0.3, "0x1.1249249249249p-51", "series")

    @pytest.mark.parametrize("s", [171, 200])
    @pytest.mark.parametrize("z", [2.0, -2.0, 2.0j, -2.5j, 3.0])
    def test_orders_without_a_table_keep_the_inversion_from_two(self, s, z):
        # Li_s(z) = z + z^2/2^s + ...: the terms past z^2 are below 1e-100
        r = polylog_complex(s, z, tol=1e-10)
        assert r.method == "inversion"
        assert abs(r.value - (z + z * z / 2**s)) <= r.err_bound
        if abs(z) > 2.0:
            return
        # an ulp inside |z| = 2 is the log expansion's, which has no table here
        inside = math.nextafter(2.0, 0.0) * (z / 2.0)
        with pytest.raises(OverflowError, match=f"^Li_{s}: order too large for double precision$"):
            polylog_complex(s, inside, tol=1e-10)

    @pytest.mark.parametrize("s", [622, 700, 10**4])
    def test_inversion_order_too_large(self, s):
        # pi^{2 floor(s/2)} overflows a double from s = 622; the check comes
        # before the Bernoulli polynomial, whose cost grows with s
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"^Li_{s}: order too large for double precision$"):
            polylog_complex(s, 3.0)
        assert time.perf_counter() - start < 1.0

    def test_last_inversion_order(self):
        r = polylog_complex(621, 3.0, tol=1e-11)
        assert r.method == "inversion"
        assert abs(r.value - 3.0) <= r.err_bound


class TestExpansionAboutMinusOne:
    """Li_s(-e^v) = sum_k c'_k v^k, c'_k = -eta(s - k)/k!, for Re z < -|z|/2."""

    @pytest.mark.parametrize("s", range(2, 21))
    def test_coefficients_match_mpmath(self, s):
        import mpmath

        for k in range(0, s + 30):
            with mpmath.workdps(40):
                exact = -mpmath.altzeta(s - k) / mpmath.factorial(k)
                assert abs(eta_taylor(s, k) - exact) <= 2.5 * EPS * abs(exact), k

    @pytest.mark.parametrize("s", range(2, 21))
    def test_tail_premise(self, s):
        # past k = s only k - s odd survives, and |c'_{k+2}| <= |c'_k|/pi^2,
        # which bounds the truncation by the first term left out
        for k in range(s + 1, TAYLOR_K_MAX - 1):
            c, c2 = eta_taylor(s, k), eta_taylor(s, k + 2)
            if (k - s) % 2 == 0:
                assert c == 0.0, k
            else:
                assert abs(c2) * math.pi**2 <= abs(c) * (1.0 + 1e-12), k

    @pytest.mark.parametrize("s", [2, 3, 4, 7])
    def test_centres_meet_at_the_switch(self, s):
        # on Re z = -|z|/2 both expansions converge, their tails by 1/9 a step
        # at |z| = 1; they agree within their bounds there
        for r in (0.6, 1.0, 2.0, 3.4):
            for phi in (2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0):
                z = cmath.rect(r, phi)
                a, ea, _ = _li_log_expansion(s, z, False)
                b, eb, _ = _li_log_expansion(s, z, True)
                assert abs(a - b) <= ea + eb, (r, phi)


class TestValidation:
    def test_order_below_two_rejected(self):
        with pytest.raises(DomainError):
            polylog_complex(1, 0.5)

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            polylog_complex(2, 0.5, tol=0.0)

    def test_error_bound_and_method_reported(self):
        r = polylog_complex(2, complex(0.3, 0.2))
        assert r.err_bound < 1e-12
        assert r.method == "series"
        r2 = polylog_complex(2, complex(4.0, 1.0))
        assert r2.method == "inversion"
