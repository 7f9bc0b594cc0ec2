"""Adaptive quadrature for integrands with declared logarithmic singularities.

One rule serves every panel: tanh-sinh, the double-exponential rule of
Takahasi and Mori (Publ. RIMS 9, 1974).  The interval is split at every
declared singular point.  A semi-infinite range is cut at m, the largest of
its lower end and the singular points, and the last panel, the tail (m, inf),
is tanh-sinh on (0, 1) of f(m + s/(1-s)) / (1-s)^2, the exp-sinh rule; the
tail's walk applies that map itself, so a tail node costs one call of f, as a
finite one does.

Each side of a level (right b - r, left a + r, interleaved node by node)
stops on its own at its first node whose weight is below 1e-12 and whose
term w f is at most 2^-60 of the level's running sum.  Such a term rounds
away when added, and the weights fall double-exponentially beyond it, so the
level sums the same value as a walk over every node, while an endpoint at 0
is sampled only as far as its terms still count (not down to x ~ 1e-304).
The weight gate keeps a side going while the sum is small, e.g. when the
integrand vanishes at the centre node.  A side whose abscissa rounds onto its
end stops there if the end is a declared singular point, and the panel's
estimate is charged |f| at the side's last kept node times the distance of
its first dropped one, the mass the stop leaves out.  At any other end the
node is taken at the float next to the end, inside the panel, and the side
goes on by the term rule, so f is only ever evaluated strictly inside a
panel.  On the tail the near side, s = r, stops where y = m + s/(1 - s)
rounds onto m, declared or not, and charges what it drops in the same way,
which costs fewer calls than nodes from inside would.  The far side,
s = 1 - r, takes 1 - s as r itself, which is exact, so it samples y ~ 1/r
well past 2^53, where 1 - s taken from the rounded s is 0.  It stops by the
term rule, or at r < 1e-150, where r^2 would leave the normal range; that
stop drops the integral beyond y ~ 1e150, at most sup |y^2 f(y)| * 1e-150.
Finiteness is tested once per level, on its sum of |w f|, which any
non-finite term makes non-finite; only then is the level walked again, each
value tested, to name the first abscissa (y, on the tail) at which f is not
finite.

Error estimates are the difference of successive refinement levels inflated
by a fixed safety factor of 10; they are conservative, not rigorous bounds.
Each panel's estimate is at least 4 EPS times its sum of |w f|, the rounding
of the sum, so agreeing levels never report a zero error, and two levels
that differ by no more than that floor end the panel with the floor as its
estimate, since no refinement lowers it.  An estimate that grows 4x at two
levels running, from level 4 on, raises where the panel has a declared end to
blame (a tail always has one).  A finite panel still above its tol after 10
levels, or whose estimate has not halved for two levels running by level 4 or
later, is bisected at its midpoint, each half with half the tol, and the
halves are integrated left to right.  A tail never bisects.  Every level
past a panel's level 0 spends one of the call's 4000 refinements.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .constants import EPS
from .errors import DomainError, QuadratureError, check_tol
from .result import EvalResult, _record

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


@functools.cache
def _tail_level(level: int) -> tuple[tuple[float, float | None, float, float | None, float], ...]:
    """(w, (1 - r)/r, r^2, r/(1 - r), (1 - r)^2), r = 1/d, for each node (d, w)
    of ``_tanh_sinh_level(level)``: the tail's map at the far node s = 1 - r
    and the near node s = r.  (1 - r)/r is None where r < ``_FAR_END`` and
    r/(1 - r) at the centre node, which has no near side.
    """
    nodes = []
    for d, w in _tanh_sinh_level(level):
        r = 1.0 / d
        om = 1.0 - r
        far = None if r < _FAR_END else om / r
        near = None if d == 2.0 else r / om
        nodes.append((w, far, r * r, near, om * om))
    return tuple(nodes)


class QuadProblem(_record("QuadProblem", "integrand lower upper singular_points tol")):
    """An integration request over [lower, upper] (lower finite, upper may be
    math.inf): a named tuple, as ``EvalResult`` is, whose ``__new__`` sorts
    the singular points and refuses a bad range, point or tol."""

    __slots__ = ()

    def __new__(
        cls,
        integrand: Callable[[float], float],
        lower: float,
        upper: float,
        singular_points: tuple[float, ...] = (),
        tol: float = 1e-10,
    ) -> QuadProblem:
        if not lower < upper:
            raise DomainError("QuadProblem needs lower < upper")
        if lower == -math.inf:
            raise DomainError("QuadProblem needs a finite lower limit")
        check_tol(tol)
        pts = tuple(sorted(float(x) for x in singular_points))
        for x in pts:
            if not (lower <= x <= upper):
                raise DomainError(f"singular point {x} outside [{lower}, {upper}]")
        return tuple.__new__(cls, (integrand, lower, upper, pts, tol))


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    """f, raising QuadratureError at the first abscissa where it is not finite."""

    def g(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise QuadratureError(f"integrand not finite at x = {x!r}")
        return fx

    return g


def _finite_sum(
    f: Callable[[float], float], level: int, a: float, b: float, a_sing: bool, b_sing: bool
) -> tuple[float, float, float]:
    """The sums of w f and of |w f| over the nodes new at ``level`` on the
    panel (a, b), and the charge for what the sides drop at a declared end.

    Abscissae are taken via the distance to the nearer end for endpoint
    precision; the pair is unrolled because this loop dominates the quadrature
    time.  Each side stops, or takes its node from inside, by the rules in the
    module docstring.
    """
    h2 = 2.0 * (0.5 * (b - a))  # twice the panel's h, not b - a, below the normal range
    # the node taken where an abscissa rounds onto an end: the float inside an
    # undeclared end, or the other end, which the range test refuses
    a_in = b if a_sing else math.nextafter(a, b)
    b_in = a if b_sing else math.nextafter(b, a)
    tail_weight, rounds_away = _TAIL_WEIGHT, _ROUNDS_AWAY
    total = 0.0
    mag = 0.0
    drop = 0.0
    f_right = f_left = 0.0
    right = left = True
    for d, w in _tanh_sinh_level(level):
        r = h2 / d
        if right:
            x = b - r
            if x >= b:  # a declared end stops the side; others are kept inside
                if b_sing:
                    right = False
                    drop += abs(f_right) * r
                x = b_in
            if x > a:
                fx = f(x)
                t = w * fx
                if w < tail_weight and abs(t) <= rounds_away * abs(total):
                    right = False
                else:
                    total += t
                    mag += abs(t)
                    f_right = fx
        if d == 2.0:  # the centre node t = 0 has no mirror image
            continue
        if left:
            x = a + r
            if x <= a:
                if a_sing:
                    left = False
                    drop += abs(f_left) * r
                x = a_in
            if x < b:
                fx = f(x)
                t = w * fx
                if w < tail_weight and abs(t) <= rounds_away * abs(total):
                    left = False
                else:
                    total += t
                    mag += abs(t)
                    f_left = fx
        elif not right:
            break
    return total, mag, drop


def _tail_sum(f: Callable[[float], float], level: int, c: float) -> tuple[float, float, float]:
    """_finite_sum on (0, 1) with f taken at y = c + s/(1 - s), for the tail
    (c, inf).  The far side s = 1 - r divides by r itself; the near side
    s = r stops where y rounds onto c, declared or not, as the module
    docstring says.  The map's values at each node come from ``_tail_level``.
    """
    tail_weight, rounds_away = _TAIL_WEIGHT, _ROUNDS_AWAY
    total = 0.0
    mag = 0.0
    drop = 0.0
    f_near = 0.0
    far = near = True
    for w, u_far, rr, u_near, oo in _tail_level(level):
        if far:
            if u_far is None:
                far = False
            else:
                t = w * (f(c + u_far) / rr)
                if w < tail_weight and abs(t) <= rounds_away * abs(total):
                    far = False
                else:
                    total += t
                    mag += abs(t)
        if u_near is None:
            continue
        if near:
            y = c + u_near
            if y <= c:
                near = False
                drop += abs(f_near) * u_near
            else:
                fy = f(y)
                t = w * (fy / oo)
                if w < tail_weight and abs(t) <= rounds_away * abs(total):
                    near = False
                else:
                    total += t
                    mag += abs(t)
                    f_near = fy
        elif not far:
            break
    return total, mag, drop


def _tanh_sinh_panel(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    left: int,
    a_sing: bool = True,
    b_sing: bool = True,
) -> tuple[float | None, float, int]:
    """Integrate f over the open panel (a, b) by the double-exponential rule.

    ``a_sing`` and ``b_sing`` say whether a and b are declared singular
    points; b = inf makes the panel the tail (a, inf).  ``left`` is the number
    of levels the call may still spend.  Returns the value, its estimate and
    the levels spent; the value is None for a finite panel that is to be
    bisected.
    """
    tail = b == math.inf
    walk, ends = (_tail_sum, (a,)) if tail else (_finite_sum, (a, b, a_sing, b_sing))
    h = 0.5 if tail else 0.5 * (b - a)
    s_prev = m = 0.0
    err_prev = math.inf
    grew = stalled = 0
    for level in range(11):
        if level > left:
            raise QuadratureError("subdivision budget exhausted before reaching tolerance")
        # a non-finite f makes the sum of |w f| non-finite; only then is the
        # level walked again, each value tested, to name the first such
        # abscissa.  Finite values whose terms overflow keep their sums, which
        # no level then accepts
        sums = walk(f, level, *ends)
        if not math.isfinite(sums[1]):
            walk(_checked(f), level, *ends)
        s_new, m_new, drop = sums
        step = 0.5**level
        s_cur = 0.5 * s_prev + h * step * s_new
        m = 0.5 * m + step * m_new
        if level == 0:
            s_prev = s_cur
            continue
        diff = abs(s_cur - s_prev)
        floor = _ROUNDING * h * m
        err = _SAFETY * diff
        if err <= tol:
            return s_cur, max(err, floor) + drop, level
        if diff <= floor:
            # the levels agree within the rounding of their sum, which no
            # refinement lowers
            return s_cur, floor + drop, level
        grew = grew + 1 if err > 4.0 * err_prev and level >= 4 else 0
        if grew >= 2 and (a_sing or b_sing or tail):  # a tail has an end to blame
            raise QuadratureError(
                "error estimate diverging: singularity may be non-integrable"
            )
        # an estimate that grew 4x twice has not halved twice either
        stalled = stalled + 1 if err > 0.5 * err_prev else 0
        if stalled >= 2 and level >= 4 and not tail:
            return None, err, level  # not halved for two levels: bisect
        s_prev, err_prev = s_cur, err
    if tail:
        raise QuadratureError(f"tanh-sinh panel [{a}, inf) stalled above tol {tol:g}")
    return None, err, level


def integrate(problem: QuadProblem) -> EvalResult:
    """Evaluate the integral described by ``problem``.

    Raises QuadratureError if the requested tolerance cannot be certified
    within the subdivision budget or the error estimate diverges.
    """
    f = problem.integrand
    sing = {x for x in problem.singular_points if math.isfinite(x)}
    # a semi-infinite range ends in the tail panel (m, inf)
    cuts = sorted({problem.lower, problem.upper} | sing)
    per_panel = problem.tol / (len(cuts) - 1)
    total = err = 0.0
    spent = 0
    # popped left to right, halves included, so the panels add in order
    stack = [(lo, hi, per_panel) for lo, hi in zip(cuts, cuts[1:])][::-1]
    while stack:
        lo, hi, tol = stack.pop()
        left = _MAX_SUBDIVISIONS - spent
        v, e, levels = _tanh_sinh_panel(f, lo, hi, tol, left, lo in sing, hi in sing)
        spent += levels
        if v is None:
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi, 0.5 * tol), (lo, mid, 0.5 * tol)]
        else:
            total += v
            err += e
    if err > problem.tol:
        raise QuadratureError(f"combined error estimate {err:g} exceeds tol {problem.tol:g}")
    return EvalResult(total, err, spent, "tanh-sinh")


__all__ = ["QuadProblem", "integrate"]
