"""Unit tests for complex polylogarithm evaluation across its three regions."""

import cmath
import math

import pytest

from tetralog.errors import DomainError
from tetralog.polylog import polylog_complex

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
