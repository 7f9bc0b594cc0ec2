"""Unit tests for the quadratic-character L-value routes."""

from fractions import Fraction

import pytest

from tetralog.dirichlet import CHI7, l7_hurwitz, l7_series, l7_trigamma

L7 = 1.1519254705444910471016923973205


def test_character_is_multiplicative_mod7():
    for a in range(1, 7):
        for b in range(1, 7):
            assert CHI7[a] * CHI7[b] == CHI7[(a * b) % 7]


def test_series_route():
    r = l7_series()
    assert abs(r.value - L7) < 1e-13
    assert r.err_bound < 1e-12


def test_trigamma_route():
    assert abs(l7_trigamma().value - L7) < 1e-13


def test_hurwitz_route():
    assert abs(l7_hurwitz(tol=1e-12).value - L7) < 1e-12


def test_routes_mutually_consistent():
    a = l7_series().value
    b = l7_trigamma().value
    c = l7_hurwitz(tol=1e-12).value
    assert abs(a - b) < 1e-12
    assert abs(a - c) < 1e-12


# (1/49) sum chi(k) psi'(k/7) in 40-digit mpmath
L7_40 = Fraction("1.151925470544491047101692397320549964798")


@pytest.mark.parametrize("route", [l7_series, l7_trigamma, l7_hurwitz])
def test_bound_is_honest(route):
    r = route()
    assert abs(Fraction(r.value) - L7_40) <= Fraction(r.err_bound) <= 1e-14
