"""Adaptive quadrature for integrands with declared logarithmic singularities.

The interval is split at every declared singular point.  Panels that touch a
singular point are handled with a tanh-sinh (double-exponential) transform,
which never samples the endpoints; regular panels use adaptive Gauss-Legendre
bisection.  A semi-infinite range is cut at m, the largest of its lower end and
the singular points, and [m, inf) is one tanh-sinh panel (0, 1) of
f(m + s/(1-s)) / (1-s)^2, the exp-sinh rule of Takahasi and Mori (Publ. RIMS 9,
1974); the level loop applies that map itself, so a tail node costs one call
of f, as a finite one does.

Each side of a tanh-sinh level (right b - r, left a + r, interleaved node by
node) stops on its own: at its first abscissa that rounds onto the endpoint,
or at its first node whose weight is below 1e-12 and whose term w f is at
most 2^-60 of the level's running sum.  Such a term rounds away when added,
and the weights fall double-exponentially beyond it, so the level sums the
same value as a walk over every node, while an endpoint at 0 is sampled only
as far as its terms still count (not down to x ~ 1e-304).  The weight gate
keeps a side going while the sum is small, e.g. when the integrand vanishes
at the centre node.  On the tail the far side, s = 1 - r, takes 1 - s as r
itself, which is exact, so it samples y ~ 1/r well past 2^53, where 1 - s
taken from the rounded s is 0.  It stops by the term rule, or at r < 1e-150,
where r^2 would leave the normal range; that stop drops the integral beyond
y ~ 1e150, at most sup |y^2 f(y)| * 1e-150.  The near side, s = r, stops
where m + s/(1 - s) rounds onto m, which may be a singular point.
Finiteness is tested once per level, on its sum of |w f|, which any
non-finite term makes non-finite; only then is the level walked again, each
value tested, to name the first abscissa (y, on the tail) at which f is not
finite.

Error estimates are the difference of successive refinement levels inflated
by a fixed safety factor of 10; they are conservative, not rigorous bounds.
Each panel's estimate is at least 4 EPS times its sum of |w f|, the
rounding of the sum, so agreeing rules never report a zero error.  A Gauss
piece whose 10- and 21-point values differ by no more than 4 EPS times the
two rules' sums of |w f| is accepted with that as its estimate: halving it
keeps each half's rounding in proportion to its value, so bisection could
never meet a tolerance below it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .constants import EPS
from .errors import DomainError, QuadratureError, check_tol
from .result import EvalResult, _Record


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence (|x| < 1)."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """The n-point Gauss-Legendre rule on [-1, 1] as ascending (node, weight) pairs.

    Newton iteration on P_n from the Tricomi initial guesses (the classic
    ``gauleg``); the weight 2 / ((1 - x^2) P_n'(x)^2) is taken at the converged
    node, and the rule is mirrored so it is exactly symmetric.
    """
    upper = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        dx = 1.0
        while abs(dx) > 1e-15:
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
        dp = _legendre(n, x)[1]
        upper.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    middle = [(0.0, 2.0 / _legendre(n, 0.0)[1] ** 2)] if n % 2 else []
    return tuple([(-x, w) for x, w in upper] + middle + upper[::-1])


_GL_LO = _gauss_legendre(10)
_GL_HI = _gauss_legendre(21)

_SAFETY = 10.0

# the tanh-sinh stopping rule of the module docstring: 2^-60 of a sum is under
# 1/64 of half its ulp, so a term that small leaves the sum as it is
_TAIL_WEIGHT = 1e-12
_ROUNDS_AWAY = 2.0**-60
# the tail's far side ends at 1 - s = r below this, where r^2 leaves the normal range
_FAR_END = 1e-150

# the rounding floor of a panel's error bound, per unit of its sum of |w f|
_ROUNDING = 4.0 * EPS

# panel refinements one integrate() call may spend before it gives up
_MAX_SUBDIVISIONS = 4000


@functools.cache
def _tanh_sinh_level(level: int) -> tuple[tuple[float, float], ...]:
    """(1 + exp(2q), pi/2 cosh t sech^2 q), q = pi/2 sinh t, for the tanh-sinh
    nodes t = k 2^-level <= 6.1 new at ``level`` (k odd above level 0).

    Cached, so each level is built once, the first time a panel refines to it.
    """
    step = 0.5**level
    k, stride = (0, 1) if level == 0 else (1, 2)
    nodes = []
    while k * step <= 6.1:
        t = k * step
        ch = math.cosh(t)
        q = 0.5 * math.pi * math.sinh(t)
        if q > 350.0:
            break
        nodes.append((1.0 + math.exp(2.0 * q), 0.5 * math.pi * ch * (1.0 / math.cosh(q) ** 2)))
        k += stride
    return tuple(nodes)


class QuadProblem(_Record):
    """An integration request over [lower, upper] (lower finite, upper may be math.inf)."""

    integrand: Callable[[float], float]
    lower: float
    upper: float
    singular_points: tuple[float, ...]
    tol: float
    __match_args__ = ("integrand", "lower", "upper", "singular_points", "tol")

    def __init__(
        self,
        integrand: Callable[[float], float],
        lower: float,
        upper: float,
        singular_points: tuple[float, ...] = (),
        tol: float = 1e-10,
    ) -> None:
        if not lower < upper:
            raise DomainError("QuadProblem needs lower < upper")
        if lower == -math.inf:
            raise DomainError("QuadProblem needs a finite lower limit")
        check_tol(tol)
        pts = tuple(sorted(float(x) for x in singular_points))
        for x in pts:
            if not (lower <= x <= upper):
                raise DomainError(f"singular point {x} outside [{lower}, {upper}]")
        fields = self.__dict__
        fields["integrand"] = integrand
        fields["lower"] = lower
        fields["upper"] = upper
        fields["singular_points"] = pts
        fields["tol"] = tol


class _Budget:
    """The panel refinements one integrate() call has left."""

    __slots__ = ("left",)

    def __init__(self, left: int) -> None:
        self.left = left

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise QuadratureError("subdivision budget exhausted before reaching tolerance")


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    """f, raising QuadratureError at the first abscissa where it is not finite."""

    def g(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise QuadratureError(f"integrand not finite at x = {x!r}")
        return fx

    return g


def _tanh_sinh_panel(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    budget: _Budget,
    c: float | None = None,
) -> tuple[float, float, int]:
    """Integrate f over the open panel (a, b) by the double-exponential rule.

    With a tail base c the panel is (0, 1) and the integrand is f on (c, inf)
    compactified, f(c + s/(1 - s)) / (1 - s)^2.
    """
    h = 0.5 * (b - a)
    h2 = 2.0 * h
    tail_weight, rounds_away = _TAIL_WEIGHT, _ROUNDS_AWAY

    def level_sum(level: int, f: Callable[[float], float]) -> tuple[float, float]:
        # abscissae via distance to the nearer endpoint for endpoint precision;
        # the pair is unrolled because this loop dominates the quadrature time.
        # Each side stops by the rule in the module docstring.  Returns the
        # sums of w f and of |w f|
        total = 0.0
        mag = 0.0
        right = left = True
        for d, w in _tanh_sinh_level(level):
            r = h2 / d
            if right:
                x = b - r
                if x >= b:
                    right = False
                elif x > a:
                    t = w * f(x)
                    if w < tail_weight and abs(t) <= rounds_away * abs(total):
                        right = False
                    else:
                        total += t
                        mag += abs(t)
            if d == 2.0:  # the centre node t = 0 has no mirror image
                continue
            if left:
                x = a + r
                if x <= a:
                    left = False
                elif x < b:
                    t = w * f(x)
                    if w < tail_weight and abs(t) <= rounds_away * abs(total):
                        left = False
                    else:
                        total += t
                        mag += abs(t)
            elif not right:
                break
        return total, mag

    def tail_level_sum(level: int, f: Callable[[float], float]) -> tuple[float, float]:
        # level_sum on (0, 1) with f taken at y = c + s/(1 - s); the far side
        # s = 1 - r divides by r itself, the near side s = r stops where y
        # rounds onto c, as the module docstring says
        total = 0.0
        mag = 0.0
        far = near = True
        for d, w in _tanh_sinh_level(level):
            r = 1.0 / d
            if far:
                if r < _FAR_END:
                    far = False
                else:
                    t = w * (f(c + (1.0 - r) / r) / (r * r))
                    if w < tail_weight and abs(t) <= rounds_away * abs(total):
                        far = False
                    else:
                        total += t
                        mag += abs(t)
            if d == 2.0:
                continue
            if near:
                om = 1.0 - r
                y = c + r / om
                if y <= c:
                    near = False
                else:
                    t = w * (f(y) / (om * om))
                    if w < tail_weight and abs(t) <= rounds_away * abs(total):
                        near = False
                    else:
                        total += t
                        mag += abs(t)
            elif not far:
                break
        return total, mag

    walk = level_sum if c is None else tail_level_sum

    def finite_level_sum(level: int) -> tuple[float, float]:
        # a non-finite f makes the sum of |w f| non-finite; only then is the
        # level walked again, each value tested, to name the first such
        # abscissa.  Finite values whose terms overflow keep their sums, which
        # no level then accepts
        s, m = walk(level, f)
        if not math.isfinite(m):
            walk(level, _checked(f))
        return s, m

    step = 1.0
    s_prev, m = finite_level_sum(0)
    s_prev *= h
    err_prev = math.inf
    grew = 0
    for level in range(1, 11):
        budget.spend()
        step *= 0.5
        s_new, m_new = finite_level_sum(level)
        s_cur = 0.5 * s_prev + h * step * s_new
        m = 0.5 * m + step * m_new
        err = _SAFETY * abs(s_cur - s_prev)
        if err <= tol:
            return s_cur, max(err, _ROUNDING * h * m), level
        if err > 4.0 * err_prev and level >= 4:
            grew += 1
            if grew >= 2:
                raise QuadratureError(
                    "error estimate diverging: singularity may be non-integrable"
                )
        else:
            grew = 0
        s_prev, err_prev = s_cur, err
    raise QuadratureError(f"tanh-sinh panel [{a}, {b}] stalled above tol {tol:g}")


def _gl_once(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float, float]:
    """The 21-point value on [a, b], its distance from the 10-point value, and
    the two rules' sums of |w f|, each scaled as the value is."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    lo = 0.0
    mag_lo = 0.0
    for x, w in _GL_LO:
        t = w * f(c + h * x)
        lo += t
        mag_lo += abs(t)
    hi = 0.0
    mag = 0.0
    for x, w in _GL_HI:
        t = w * f(c + h * x)
        hi += t
        mag += abs(t)
    return h * hi, abs(h * (hi - lo)), h * mag, h * mag_lo


def _gauss_panel(
    f: Callable[[float], float], a: float, b: float, tol: float, budget: _Budget
) -> tuple[float, float, int]:
    """Adaptive Gauss-Legendre bisection on a panel free of declared singularities."""
    total = 0.0
    err_total = 0.0
    mag_total = 0.0
    effort = 0
    stack = [(a, b, tol)]
    while stack:
        lo, hi, t = stack.pop()
        v, d, m, m_lo = _gl_once(f, lo, hi)
        effort += 31
        if not math.isfinite(v):
            raise QuadratureError(f"integrand not finite on [{lo}, {hi}]")
        e = _SAFETY * d
        if not (e <= t or hi - lo < 1e-14 * max(1.0, abs(lo), abs(hi))):
            floor = _ROUNDING * (m + m_lo)
            if not d <= floor:  # a nan d bisects, as it always has
                budget.spend()
                mid = 0.5 * (lo + hi)
                stack.append((lo, mid, 0.5 * t))
                stack.append((mid, hi, 0.5 * t))
                continue
            # the rules agree within their rounding, which no bisection lowers
            e = floor
        total += v
        err_total += e
        mag_total += m
    return total, max(err_total, _ROUNDING * mag_total), effort


def integrate(problem: QuadProblem) -> EvalResult:
    """Evaluate the integral described by ``problem``.

    Raises QuadratureError if the requested tolerance cannot be certified
    within the subdivision budget or the error estimate diverges.
    """
    f = problem.integrand
    a, b = problem.lower, problem.upper
    sing = {x for x in problem.singular_points if math.isfinite(x)}

    tail_base = None
    if math.isinf(b):
        # the finite panels end at the last cut; one mapped panel takes the rest
        tail_base = b = max({a} | sing)

    cuts = sorted({a, b} | sing)
    panels: list[tuple[float, float, bool]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        panels.append((lo, hi, lo in sing or hi in sing))

    budget = _Budget(_MAX_SUBDIVISIONS)
    n_panels = len(panels) + (1 if tail_base is not None else 0)
    per_panel = problem.tol / n_panels
    total = 0.0
    err = 0.0
    effort = 0
    methods = set()
    for lo, hi, is_sing in panels:
        if is_sing:
            v, e, n = _tanh_sinh_panel(f, lo, hi, per_panel, budget)
            methods.add("tanh-sinh")
        else:
            v, e, n = _gauss_panel(f, lo, hi, per_panel, budget)
            methods.add("gauss-legendre")
        total += v
        err += e
        effort += n
    if tail_base is not None:
        v, e, n = _tanh_sinh_panel(f, 0.0, 1.0, per_panel, budget, tail_base)
        methods.add("tanh-sinh")
        total += v
        err += e
        effort += n
    if err > problem.tol:
        raise QuadratureError(f"combined error estimate {err:g} exceeds tol {problem.tol:g}")
    return EvalResult(total, err, effort, "+".join(sorted(methods)))


__all__ = ["QuadProblem", "integrate"]
