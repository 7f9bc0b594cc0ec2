"""Unit tests for the adaptive quadrature engine."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import tetralog
from tetralog import quad
from tetralog.constants import EPS
from tetralog.errors import DomainError, QuadratureError
from tetralog.quad import QuadProblem, integrate

PI = math.pi
CATALAN = 0.91596559417721901505460351493238


class TestSmoothIntegrands:
    def test_polynomial(self):
        r = integrate(QuadProblem(lambda x: x * x, 0.0, 1.0))
        assert abs(r.value - 1.0 / 3.0) < 1e-13
        assert r.method == "tanh-sinh"

    def test_oscillatory(self):
        r = integrate(QuadProblem(math.sin, 0.0, PI, tol=1e-12))
        assert abs(r.value - 2.0) < 1e-12

    def test_value_is_builtin_float(self):
        r = integrate(QuadProblem(math.cos, 0.0, 1.0))
        assert r.method == "tanh-sinh"
        assert type(r.value) is float
        assert type(r.err_bound) is float

    def test_error_bound_honest(self):
        r = integrate(QuadProblem(lambda x: math.exp(-x * x), 0.0, 2.0))
        exact = 0.88208139076242077587536155018614  # sqrt(pi)/2 erf(2)
        assert abs(r.value - exact) <= max(r.err_bound, 1e-13)


class TestSingularEndpoints:
    def test_log_singularity_left(self):
        r = integrate(QuadProblem(math.log, 0.0, 1.0, (0.0,), 1e-12))
        assert abs(r.value + 1.0) < 1e-12
        assert "tanh-sinh" in r.method

    def test_inverse_sqrt_left(self):
        r = integrate(
            QuadProblem(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, (0.0,), 1e-11)
        )
        assert abs(r.value - 2.0) < 1e-11

    def test_interior_singularity_split(self):
        # int_0^2 ln|x-1| dx = -2
        r = integrate(
            QuadProblem(lambda x: math.log(abs(x - 1.0)), 0.0, 2.0, (1.0,), 1e-11)
        )
        assert abs(r.value + 2.0) < 1e-11

    def test_split_equals_whole(self):
        f = lambda x: math.log(x) * math.cos(x)  # noqa: E731
        whole = integrate(QuadProblem(f, 0.0, 2.0, (0.0,), 1e-12))
        left = integrate(QuadProblem(f, 0.0, 1.0, (0.0,), 1e-12))
        right = integrate(QuadProblem(f, 1.0, 2.0, (), 1e-12))
        assert abs(whole.value - left.value - right.value) <= (
            whole.err_bound + left.err_bound + right.err_bound + 1e-14
        )

    def test_non_integrable_detected(self):
        with pytest.raises(QuadratureError):
            integrate(QuadProblem(lambda x: 1.0 / x, 0.0, 1.0, (0.0,), 1e-10))


@pytest.mark.parametrize(
    "f", [lambda x: math.log(x - 1.0), lambda x: math.log(2.0 - x)], ids=["ln-left", "ln-right"]
)
def test_log_at_an_undeclared_end(f):
    # no point is declared, so the nodes that round onto the end are taken
    # at the float next to it, where ln is finite, instead of being dropped
    r = integrate(QuadProblem(f, 1.0, 2.0, (), 1e-10))
    assert abs(r.value + 1.0) <= r.err_bound


class TestSemiInfinite:
    def test_gaussian_tail(self):
        r = integrate(QuadProblem(lambda x: math.exp(-x * x), 0.0, math.inf, tol=1e-12))
        assert abs(r.value - math.sqrt(PI) / 2.0) < 1e-12

    def test_rational_tail(self):
        r = integrate(
            QuadProblem(lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, tol=1e-12)
        )
        assert abs(r.value - PI / 2.0) < 1e-12

    def test_singular_lower_endpoint_with_infinite_upper(self):
        # int_1^inf acoth(u)/(1+u^2) du = G/2, log-singular at u = 1
        r = integrate(
            QuadProblem(
                lambda u: math.atanh(1.0 / u) / (1.0 + u * u),
                1.0,
                math.inf,
                (1.0,),
                1e-11,
            )
        )
        assert abs(r.value - CATALAN / 2.0) < 1e-11

    def test_matches_truncation_plus_tail_bound(self):
        f = lambda x: math.exp(-x)  # noqa: E731
        r = integrate(QuadProblem(f, 0.0, math.inf, tol=1e-12))
        cutoff = integrate(QuadProblem(f, 0.0, 40.0, tol=1e-12))
        assert abs(r.value - (cutoff.value + math.exp(-40.0))) < 1e-10


class TestRefinement:
    def test_halving_tol_does_not_worsen(self):
        exact = -1.0
        f = math.log
        e_loose = abs(
            integrate(QuadProblem(f, 0.0, 1.0, (0.0,), 1e-6)).value - exact
        )
        e_tight = abs(
            integrate(QuadProblem(f, 0.0, 1.0, (0.0,), 1e-12)).value - exact
        )
        assert e_tight <= e_loose + 1e-15


class TestValidation:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            QuadProblem(math.sin, 1.0, 0.0)

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            QuadProblem(math.sin, 0.0, 1.0, (), 0.0)

    @pytest.mark.parametrize(
        ("f", "upper"), [(lambda x: 1.0 / (1.0 + x * x), math.inf), (math.exp, 0.0)]
    )
    def test_infinite_lower_limit_rejected(self, f, upper):
        # integrate maps only (c, inf); on the whole line it would return 0 +- 0
        with pytest.raises(DomainError, match="^QuadProblem needs a finite lower limit$"):
            integrate(QuadProblem(f, -math.inf, upper))

    def test_singular_point_outside_range_rejected(self):
        with pytest.raises(DomainError):
            QuadProblem(math.sin, 0.0, 1.0, (2.0,))

    def test_budget_exhaustion_raises(self):
        # ~16 000 oscillations need more panels than the fixed budget allows;
        # a panel whose estimate stalls bisects from level 4 on, not after its
        # 10th level, which spent 2.2 M integrand calls here
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.sin(1000.0 * x)

        with pytest.raises(QuadratureError, match="budget exhausted"):
            integrate(QuadProblem(f, 0.0, 100.0, (), 1e-13))
        assert calls[0] <= 600_000

    def test_gauss_piece_at_its_rounding_floor_is_not_bisected(self):
        # levels of x^2 on [1000, 1001] settle within the rounding of a sum of
        # ~1e6, which neither refining nor halving the panel lowers: the panel
        # ends at that floor, and a tol below it raises at once instead of
        # spending the whole subdivision budget
        exact = Fraction(1001**3 - 1000**3, 3)
        for tol in (1e-9, 1e-8):
            r = integrate(QuadProblem(lambda x: x * x, 1000.0, 1001.0, (), tol))
            assert abs(Fraction(r.value) - exact) <= Fraction(r.err_bound)
        calls = [0]

        def f(x):
            calls[0] += 1
            return x * x

        with pytest.raises(QuadratureError, match="combined error estimate"):
            integrate(QuadProblem(f, 1000.0, 1001.0, (), 1e-10))
        assert calls[0] <= 120

    def test_stalled_tail_is_named_by_its_range(self):
        # cos y / (1 + y^2) keeps oscillating on the mapped panel (0, 1)
        f = lambda y: math.cos(y) / (1.0 + y * y)  # noqa: E731
        with pytest.raises(
            QuadratureError, match=r"^tanh-sinh panel \[2\.5, inf\) stalled above tol 5e-07$"
        ):
            integrate(QuadProblem(f, 0.0, math.inf, (2.5,), 1e-6))

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(QuadProblem(lambda x: float("nan"), 0.0, 1.0))


def _tanh_sinh_reference(f, a, b, level):
    """Per-node tanh-sinh sum of one refinement level, nodes computed afresh."""
    step = 0.5**level
    total = 0.0
    k = 0 if level == 0 else 1
    while k * step <= 6.1:
        t = k * step
        ch = math.cosh(t)
        q = 0.5 * math.pi * math.sinh(t)
        if q > 350.0:
            break
        for qq in (q,) if k == 0 else (q, -q):
            d = 1.0 + math.exp(2.0 * abs(qq))
            x = b - 2.0 * (0.5 * (b - a)) / d if qq >= 0.0 else a + 2.0 * (0.5 * (b - a)) / d
            if a < x < b:
                total += 0.5 * math.pi * ch * (1.0 / math.cosh(qq) ** 2) * f(x)
        k += 1 if level == 0 else 2
    return total


def test_tanh_sinh_tables_reproduce_per_node_sums():
    f = lambda x: math.log(x) / (x * x + 0.4 * x + 1.0)  # noqa: E731
    for a, b in ((0.0, 1.0), (0.25, 3.5)):
        v, _, levels = quad._tanh_sinh_panel(f, a, b, 1e-12, 10)
        h = 0.5 * (b - a)
        s_ref = h * _tanh_sinh_reference(f, a, b, 0)
        for level in range(1, levels + 1):
            s_ref = 0.5 * s_ref + h * 0.5**level * _tanh_sinh_reference(f, a, b, level)
        assert v == s_ref


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _tail_mapped(g, c):
    """g on (c, inf) compactified, y = c + s/(1 - s), as a plain integrand on (0, 1)."""
    return lambda s: g(c + s / (1.0 - s)) / ((1.0 - s) * (1.0 - s))


@pytest.mark.parametrize(
    "f, a, b",
    [
        (math.log, 0.0, 1.0),
        (lambda x: math.log(x) ** 2, 0.0, 1.0),
        (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
        (lambda x: math.log(abs(x - 1.0)), 1.0, 2.5),
        (lambda x: math.log(abs(x - 1.0)), -0.5, 1.0),
        (math.exp, 0.0, 1.0),
        (math.cos, 0.5, 2.0),
        # corollary3's left panel at c = 2, t = pi/2: f = 0 at the centre node x = 1
        (lambda x: math.log(x) / (x * x + 4.0), 0.0, 2.0),
        (_tail_mapped(lambda y: math.log(y) / (y * y + 0.6 * y + 1.0), 1.0), 0.0, 1.0),
    ],
    ids=["ln", "ln2", "inv-sqrt", "ln-left-a1", "ln-right-b1", "exp", "cos", "zero-centre", "tail"],
)
def test_tanh_sinh_stopped_sides_sum_as_every_node(f, a, b):
    # the sides stop only where the remaining terms round away, so the panel
    # equals the per-node sum over every node, bit for bit, with fewer calls
    g, calls = _counted(f)
    v, _, levels = quad._tanh_sinh_panel(g, a, b, 1e-12, 10)
    g_ref, ref_calls = _counted(f)
    h = 0.5 * (b - a)
    s_ref = h * _tanh_sinh_reference(g_ref, a, b, 0)
    for level in range(1, levels + 1):
        s_ref = 0.5 * s_ref + h * 0.5**level * _tanh_sinh_reference(g_ref, a, b, level)
    assert v == s_ref
    assert calls[0] <= ref_calls[0]
    if a == 0.0:
        # the left side stops long before x ~ 1e-304
        assert calls[0] < 0.9 * ref_calls[0]


def _half_line_by_panels(f, a, sing, tol):
    """integrate(QuadProblem(f, a, inf, sing, tol)) rebuilt panel by panel: the
    finite panels up to m, the largest of a and the singular points, then
    the tail (m, inf) as one tanh-sinh panel."""
    m = max((a, *sing))
    cuts = sorted({a, m, *sing})
    per_panel = tol / len(cuts)  # len(cuts) - 1 finite panels and the tail
    total = err = 0.0
    effort = 0
    for lo, hi in zip(cuts, cuts[1:]):
        left = quad._MAX_SUBDIVISIONS - effort
        v, e, n = quad._tanh_sinh_panel(f, lo, hi, per_panel, left, lo in sing, hi in sing)
        total += v
        err += e
        effort += n
    v, e, n = quad._tanh_sinh_panel(f, m, math.inf, per_panel, quad._MAX_SUBDIVISIONS - effort)
    return total + v, err + e, effort + n


def _tail_reference(f, c, level):
    """Per-node tanh-sinh sum of one level of the tail (c, inf), nodes computed
    afresh: every far node s = 1 - r down to r = 1e-150 and every near node
    s = r whose y = c + s/(1 - s) lies above c."""
    step = 0.5**level
    total = 0.0
    k = 0 if level == 0 else 1
    while k * step <= 6.1:
        t = k * step
        ch = math.cosh(t)
        q = 0.5 * math.pi * math.sinh(t)
        if q > 350.0:
            break
        w = 0.5 * math.pi * ch * (1.0 / math.cosh(q) ** 2)
        r = 1.0 / (1.0 + math.exp(2.0 * q))
        if r >= 1e-150:
            total += w * (f(c + (1.0 - r) / r) / (r * r))
        if k:
            y = c + r / (1.0 - r)
            if y > c:
                total += w * (f(y) / ((1.0 - r) * (1.0 - r)))
        k += 1 if level == 0 else 2
    return total


def _i_ab_integrand(b):
    return lambda y: math.log(y) / (y * y + 2.0 * b * y + 1.0)


def _corollary3_integrand(c, t):
    k = 4.0 * c * math.cos(0.5 * t) ** 2
    return lambda x: math.log(x) / ((x - c) * (x - c) + k * x)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize(
    "f, a, sing",
    [
        (_i_ab_integrand(0.3), 0.0, (0.0,)),
        (_i_ab_integrand(-0.6), 0.5, ()),
        (_i_ab_integrand(-0.2), 1.0, ()),
        (_corollary3_integrand(2.0, 1.0), 0.0, (0.0, 2.0)),
        (_corollary3_integrand(0.3, 2.9), 0.0, (0.0, 0.3)),
        (lambda y: 1.0 / (1.0 + y * y), 0.0, ()),
        (lambda y: math.exp(-y), 0.0, ()),
        # the tail starts at a log singularity, which its near side must not sample
        (lambda y: math.log(abs(y - 1.0)) / (1.0 + y * y), 0.0, (1.0,)),
    ],
    ids=["iab-a0", "iab-a0.5", "iab-a1", "cor3-c2", "cor3-c0.3", "cauchy", "exp", "ln-at-base"],
)
def test_half_line_is_its_panels_plus_the_mapped_tail(f, a, sing, tol):
    r = integrate(QuadProblem(f, a, math.inf, sing, tol))
    assert (r.value, r.err_bound, r.effort) == _half_line_by_panels(f, a, sing, tol)


@pytest.mark.parametrize(
    "f, c",
    [
        (lambda y: math.log(y) / (y * y), 1.0),
        (_i_ab_integrand(0.3), 0.0),
        (_corollary3_integrand(0.3, 2.9), 0.3),
        (lambda y: 1.0 / (1.0 + y * y), 0.0),
        (lambda y: math.exp(-y), 2.0),
        (lambda y: math.log(y - 1.0) / (y * y), 1.0),
    ],
    ids=["ln-over-square", "iab-a0", "cor3-at-c", "cauchy", "exp", "ln-at-base"],
)
def test_tail_panel_sums_as_every_node(f, c):
    # the tail's sides stop only where the remaining terms round away, so the
    # panel equals the per-node sum over every node, bit for bit
    v, _, levels = quad._tanh_sinh_panel(f, c, math.inf, 1e-12, 10)
    s_ref = 0.5 * _tail_reference(f, c, 0)
    for level in range(1, levels + 1):
        s_ref = 0.5 * s_ref + 0.5 * 0.5**level * _tail_reference(f, c, level)
    assert v == s_ref


@pytest.mark.parametrize("level", range(7))
def test_tail_level_holds_the_maps_values(level):
    # each cached entry is the tail map's arithmetic at its node, bit for bit;
    # the far value is missing only below r = 1e-150, the near one only at the
    # centre node
    nodes = quad._tanh_sinh_level(level)
    cached = quad._tail_level(level)
    assert len(cached) == len(nodes)
    for i, ((d, w), (cw, u_far, rr, u_near, oo)) in enumerate(zip(nodes, cached)):
        r = 1.0 / d
        assert cw == w
        assert rr == r * r
        assert oo == (1.0 - r) * (1.0 - r)
        assert u_far == (None if r < 1e-150 else (1.0 - r) / r)
        assert u_near == (None if level == i == 0 else r / (1.0 - r))
    assert cached[-1][1] is None  # every level reaches past r = 1e-150


@pytest.mark.parametrize(
    "f",
    [lambda y: math.log(y) / (y * y), lambda y: 1.0 / (1.0 + y * y)],
    ids=["ln-over-square", "cauchy"],
)
def test_tail_far_side_samples_past_2_53(f):
    # 1 - s is taken as the node's own distance r, not from the rounded s, so
    # the far side reaches y ~ 1/r beyond the 2^53 where 1 - s would round to 0
    ys = _abscissae(QuadProblem(f, 1.0, math.inf, (), 1e-12))
    assert max(ys) > 2.0**60


def test_log_over_square_tail_is_one():
    # the integral of ln y / y^2 beyond 2^53 is (ln 2^53 + 1) / 2^53 ~ 4e-15,
    # which a far side cut there would drop without charging for it
    r = integrate(QuadProblem(lambda y: math.log(y) / (y * y), 1.0, math.inf, (), 1e-12))
    assert abs(r.value - 1.0) <= r.err_bound
    assert abs(r.value - 1.0) <= 4.0 * EPS


def _abscissae(problem):
    """The abscissae at which integrate(problem) calls its integrand, in order."""
    seen = []

    def g(x):
        seen.append(x)
        return problem.integrand(x)

    integrate(QuadProblem(g, problem.lower, problem.upper, problem.singular_points, problem.tol))
    return seen


def _bad_at(f, xs, value):
    bad = set(xs)
    return lambda x: value if x in bad else f(x)


_LOG_PANEL = QuadProblem(math.log, 0.0, 1.0, (0.0,), 1e-12)
_CAUCHY_HALF_LINE = QuadProblem(lambda y: 1.0 / (1.0 + y * y), 0.0, math.inf, (0.0,), 1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "problem, where",
    [
        (_LOG_PANEL, lambda x: x > 0.5),  # right side, b - r
        (_LOG_PANEL, lambda x: x < 0.5),  # left side, a + r
        (_CAUCHY_HALF_LINE, lambda y: y > 1.0),  # the tail's far side, in y
    ],
    ids=["right", "left", "tail"],
)
@pytest.mark.parametrize("pick", [2, -1], ids=["early", "last"])
def test_non_finite_value_names_its_abscissa(problem, where, value, pick):
    xs = [x for x in _abscissae(problem) if where(x)]
    x = xs[pick]
    f = _bad_at(problem.integrand, [x], value)
    with pytest.raises(QuadratureError, match=f"^integrand not finite at x = {re.escape(repr(x))}$"):
        integrate(QuadProblem(f, problem.lower, problem.upper, problem.singular_points, problem.tol))


def test_first_non_finite_abscissa_is_named():
    # two bad abscissae on opposite sides of one level: the one walked first
    xs = _abscissae(_LOG_PANEL)
    first, later = xs[3], xs[6]
    f = _bad_at(math.log, [later, first], math.nan)
    with pytest.raises(QuadratureError, match=f"x = {re.escape(repr(first))}$"):
        integrate(QuadProblem(f, 0.0, 1.0, (0.0,), 1e-12))


@pytest.mark.parametrize(
    "f, mf, a, b, sing",
    [
        (math.cos, mpmath.cos, 0.0, 1.0, ()),
        (math.exp, mpmath.exp, 0.0, 1.0, ()),
        (math.sin, mpmath.sin, 0.0, PI, ()),
        (math.exp, mpmath.exp, 0.0, 1.0, (0.0,)),
        (math.log, mpmath.log, 0.0, 1.0, (0.0,)),
        (lambda x: math.log(x) ** 2, lambda x: mpmath.log(x) ** 2, 0.0, 1.0, (0.0,)),
        (lambda x: 1.0 / math.sqrt(x), lambda x: 1 / mpmath.sqrt(x), 0.0, 1.0, (0.0,)),
        (lambda x: math.exp(-x), lambda x: mpmath.exp(-x), 0.0, math.inf, ()),
        (lambda x: 1.0 / (1.0 + x * x), lambda x: 1 / (1 + x * x), 0.0, math.inf, ()),
    ],
    ids=["cos", "exp", "sin", "exp-ts", "ln", "ln2", "inv-sqrt", "exp-tail", "cauchy-tail"],
)
def test_error_bound_has_rounding_floor(f, mf, a, b, sing):
    # when the refinement estimate is ~0 (rules that agree exactly), the
    # bound still covers the rounding of the sum
    r = integrate(QuadProblem(f, a, b, sing, 1e-13))
    with mpmath.workdps(40):
        exact = mpmath.quad(mf, [a, b if math.isfinite(b) else mpmath.inf])
        miss = abs(r.value - exact)
    assert r.err_bound > 0.0
    assert miss <= r.err_bound


def test_import_does_not_load_numpy():
    src = str(Path(tetralog.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, tetralog; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
