"""Base-16 BBP-type sums: evaluation and fractional hex digit extraction.

A registry holds the degree-2 and degree-3 binary formulas built on the
coefficient pattern (4, 0, 0, -2, -1, -1, 0, 0) over residues mod 8, plus
the classical degree-1 formula for pi.  One exact integer fixed-point sum,
as in Bailey, Borwein and Plouffe (Math. Comp. 66, 1997), is both
``eval_bbp_sum`` and the digit extraction's tail.  The extraction aborts on
carry ambiguity rather than ever emitting a wrong digit.  Its head sums one
fraction per batch of consecutive denominators, built by Horner's rule over
their product: one modular power and one floor division per batch, not per
term.  The floors lose less than |coefficient| units each, which the carry
test allows for.  From position 3000 on, where a split head ran faster than
the serial one for every registry formula, the head's batches are split into
parts summed in forked child processes, one per usable processor; integer
addition is exact, so the split cannot change a digit.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .constants import EPS, LN2, PI, ZETA3
from .errors import ConvergenceError, DomainError, PrecisionError, check_tol

# the functions that build an EvalResult import it themselves, so that digit
# extraction does not load ``result``, the ball arithmetic it does not use
if TYPE_CHECKING:
    from .result import EvalResult


class BBPFormula(namedtuple("BBPFormula", "degree coeffs scale affine_terms")):
    """sum_{j>=0} 16^-j sum_{k=1}^{8} coeffs[k-1]/(8j+k)^degree.

    ``scale`` multiplies the pure sum and ``affine_terms`` lists
    (constant-id, coefficient) add-ons such that
    scale * sum + sum(coeff * constant) equals the formula's target value.
    A named tuple, not a dataclass, so that ``digits`` loads no dataclasses:
    immutable, equal and hashed by value.
    """

    __slots__ = ()

    def __new__(
        cls,
        degree: int,
        coeffs: tuple[int, ...],
        scale: float,
        affine_terms: tuple[tuple[str, float], ...] = (),
    ) -> BBPFormula:
        if degree < 1:
            raise DomainError("BBP degree must be >= 1")
        if len(coeffs) != 8:
            raise DomainError("coeffs must have one entry per residue class mod 8")
        return super().__new__(cls, degree, coeffs, scale, affine_terms)


_PATTERN = (4, 0, 0, -2, -1, -1, 0, 0)

# every scale and coefficient is a dyadic rational, exact as a float
REGISTRY: dict[str, BBPFormula] = {
    "eq2.35-sum": BBPFormula(
        degree=2,
        coeffs=_PATTERN,
        scale=1 / 4,
        affine_terms=(("pi^2", -1 / 32), ("pi*ln2", 1 / 8)),
    ),
    "eq2.37-sum": BBPFormula(
        degree=3,
        coeffs=_PATTERN,
        scale=8.0,
        affine_terms=(
            ("pi^2*ln2", 1 / 2),
            ("zeta3", -14.0),
            ("im-li3-half-plus-half-i", -32.0),
        ),
    ),
    "pi-degree1": BBPFormula(degree=1, coeffs=_PATTERN, scale=1.0),
}


# the factors of each affine constant but the polylog one, as their nearest doubles
_FACTORS = {"pi^2": (PI, PI), "pi*ln2": (PI, LN2), "pi^2*ln2": (PI, PI, LN2), "zeta3": (ZETA3,)}


def _constant(name: str) -> EvalResult:
    """An affine-term constant as a ball: the product of its rounded factors,
    or the imaginary part of the polylog value."""
    from .result import EvalResult, rounded

    if name == "im-li3-half-plus-half-i":
        from .polylog import polylog_complex  # only this constant needs it; digits never does

        r = polylog_complex(3, complex(0.5, 0.5), tol=1e-13)
        return EvalResult(r.value.imag, r.err_bound, r.effort, r.method)
    if name not in _FACTORS:
        raise DomainError(f"unknown constant id {name!r}")
    first, *rest = map(rounded, _FACTORS[name])
    return math.prod(rest, start=first)


def closed_form_value(f: BBPFormula, tol: float = 1e-12) -> EvalResult:
    """scale * pure sum + the sum of the affine add-ons, in ball arithmetic."""
    from .result import EvalResult

    s = eval_bbp_sum(f, tol)
    affine = [c * _constant(name) for name, c in f.affine_terms]
    v = f.scale * s + sum(affine[1:], affine[0]) if affine else f.scale * s
    return EvalResult(v.value, v.err_bound, s.effort, "bbp+affine")


# eval_bbp_sum's fixed point: the sum loses a few hundred units, ~2^-72
_SUM_BITS = 80


def _fixed_sum(f: BBPFormula, position: int, bits: int, start: int) -> tuple[int, int, int]:
    """sum_{j >= start >= position} sum_k a_k floor(2^bits 16^(position - j) / (8j + k)^degree),
    each class k stopping at its first zero floor; with the |a_k|-weighted and
    the plain count of floors.  A floor times a drops less than |a| units, and
    a class's terms left out less than 16/15 |a|: each is below one unit and
    they shrink at least 16-fold."""
    s = f.degree
    one = 1 << bits
    acc = floors = terms = 0
    for k, a in enumerate(f.coeffs, start=1):
        if not a:
            continue
        j = start
        while t := one // (((8 * j + k) ** s) << (4 * (j - position))):
            acc += a * t
            j += 1
        floors += abs(a) * (j - start)
        terms += j - start
    return acc, floors, terms


def eval_bbp_sum(f: BBPFormula, tol: float = 1e-13) -> EvalResult:
    """The pure BBP sum: ``_fixed_sum`` from j = 0 at 2^-``_SUM_BITS``, rounded
    once to a double.  The bound is that sum's loss plus the rounding,
    |value - sum|, found exactly; ``effort`` counts the (j, k) terms summed."""
    from .result import EvalResult

    check_tol(tol)
    acc, floors, terms = _fixed_sum(f, 0, _SUM_BITS, 0)
    one = 1 << _SUM_BITS
    v = acc / one
    num, den = v.as_integer_ratio()
    units = floors + 16 * sum(map(abs, f.coeffs)) / 15 + abs(num * one - acc * den) / den
    err = units / one
    if err > tol:
        raise ConvergenceError(f"cannot reach tol {tol:g} in double precision")
    return EvalResult(v, err, terms, "bbp-sum")


_GUARD_HEX = 12
# The head takes one fraction, one modular power and one floor per batch of
# consecutive denominators whose product is about this many bits wide; the
# largest denominator, at j = position, sets the batch width.  Timed on the
# three registry formulas in two runs: at position 3e3 (1.7-5.5 us per
# position at 512 bits) 256 bits ran 9-28 % slower and 384-1024 bits within
# 10 %; at 3e4 (3.6-9.3 us per position) no width beat 512 on one formula
# in both runs, and 256 and 1024 bits ran up to 15-18 % slower on some.
_BATCH_BITS = 512
# Head positions per forked part: the head splits from 2 * _MIN_PART on, where
# the split head ran faster than the serial one for every registry formula.
# Serial / split time of 8-digit extractions on a 2-core x86 Linux host, the
# median of 101 paired, alternating calls (> 1: the split wins), at positions
# 2500 / 3000 / 3500: eq2.35-sum 1.16 / 1.24 / 1.37, eq2.37-sum 1.36 / 1.67 /
# 1.58, pi-degree1 1.03 / 1.14 / 1.27.  At 1500 and 2000 (two runs, 41 and
# 61 pairs) eq2.35-sum and pi-degree1 lost in one run or both (0.68-0.94).  Each child
# part adds its fork, pipe and reaping, 2.2-2.9 ms of processor time here, to
# the serial head's work.
_MIN_PART = 1500


def _batch_width(degree: int, position: int, k: int) -> int:
    """Head terms per batch in residue class k: as many as fit _BATCH_BITS
    at the largest denominator, (8 * position + k)^degree."""
    return max(1, _BATCH_BITS // ((8 * position + k) ** degree).bit_length())


def _head_part(f: BBPFormula, position: int, bits: int, part: int, parts: int) -> int:
    """The head's batches whose running index is part mod parts, summed mod 2^bits.

    The running index counts the batches of every nonzero residue class k in
    turn.  One fraction per batch: for j0 .. j1 - 1, with d_j = (8j + k)^degree,
    Horner's rule gives num/den = sum_j 16^(j1 - 1 - j)/d_j over den = prod d_j,
    and r = ``pow(16, position + 1 - j1, den)``.  Each d_j divides den, so
    r * num/den = sum_j 16^(position - j)/d_j (mod 1), and the batch adds
    a * floor(2^bits * frac(r * num/den)), within |a| of a times the exact
    value.  With ``parts == 1`` this is the whole head; the parts for part =
    0 .. parts - 1 add up to it mod 2^bits.
    """
    s = f.degree
    acc = 0
    index = itertools.count()
    for k, a in enumerate(f.coeffs, start=1):
        if not a:
            continue
        width = _batch_width(s, position, k)
        for j0 in range(0, position + 1, width):
            if next(index) % parts != part:
                continue
            j1 = min(j0 + width, position + 1)
            num, den = 0, 1
            for m in range(8 * j0 + k, 8 * j1 + k, 8):
                d = m**s
                num = (num * d << 4) + den
                den *= d
            r = pow(16, position + 1 - j1, den)
            acc += a * ((r * num % den << bits) // den)
    return acc % (1 << bits)


def _part_count(position: int) -> int:
    """One head part per usable processor, each of at least ``_MIN_PART``
    positions; one where there is no fork or another thread is running,
    since a forked copy of a threaded process may hold a lock forever."""
    threading = sys.modules.get("threading")
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), position // _MIN_PART))


def extract_hex_digits(f: BBPFormula, position: int, count: int) -> str:
    """Hex digits of frac(16^position * pure sum), ``count`` digits.

    Exact integer fixed point with ``_GUARD_HEX`` guard digits.  The j <=
    position head takes one fraction per batch of consecutive denominators
    d_j = (8j + k)^degree (``_head_part``): one modular power modulo their
    product and one floor division, which drops less than one unit, times
    the class's coefficient a.  The tail j > position is ``_fixed_sum``'s,
    one floor per term.  From position 2 * ``_MIN_PART`` = 3000 on, where
    splitting paid on every registry formula, on Linux and with no other
    thread running, the head's batches are dealt round-robin to one part per
    usable processor (at most position // ``_MIN_PART``), and all but one
    part run in forked child processes (``forked.forked_sum``).  The parts
    are exact integers summed mod 2^bits, so the digits and every
    PrecisionError are those of the serial sum.  The tail stays serial.  If
    the guard bits sit within sum |a| * (floors in a's class) units plus
    2^-20 of a digit carry boundary, the extraction raises PrecisionError
    instead of risking an off-by-one digit.
    """
    if position < 0:
        raise DomainError("position must be >= 0")
    if not 1 <= count <= 16:
        raise DomainError("count must be in 1..16")
    if all(a == 0 for a in f.coeffs):
        return "0" * count
    bits = 4 * (count + _GUARD_HEX)
    one = 1 << bits
    parts = _part_count(position)
    if parts == 1:
        acc = _head_part(f, position, bits, 0, 1)
    else:
        from .forked import forked_sum  # loaded only for a split head

        acc = forked_sum(lambda i, n: _head_part(f, position, bits, i, n), parts, (bits + 7) // 8)
    # the tail j > position is exact: its terms shrink below the fixed point
    tail_sum, floors, _ = _fixed_sum(f, position, bits, position + 1)
    acc += tail_sum
    for k, a in enumerate(f.coeffs, start=1):
        if a:
            floors += abs(a) * len(range(0, position + 1, _batch_width(f.degree, position, k)))
    acc %= one
    guard_bits = 4 * _GUARD_HEX
    unit = 1 << guard_bits
    # each floor, times its coefficient a, dropped less than |a| ulps, and the
    # tail past the last term less than 16/15 |a| ulps, well inside the 2^-20
    # margin; the carry is ambiguous if the guard block sits that close to
    # rolling over into the reported digits
    slack = floors + (unit >> 20)
    tail = acc & (unit - 1)
    if tail < slack or unit - tail < slack:
        raise PrecisionError(
            f"carry ambiguity at position {position}: guard digits too close to a boundary"
        )
    digits = acc >> guard_bits
    return format(digits, f"0{count}X")


def li3_binomial_sums(tol: float = 1e-12) -> tuple[EvalResult, EvalResult]:
    """The double binomial sums for Re and Im of Li_3((1+i)/2).

    Re = sum_n sum_m [C(n, 4m) - C(n, 4m+2)] / (2^n n^3),
    Im = sum_n sum_m [C(n, 4m+1) - C(n, 4m+3)] / (2^n n^3);
    the inner sums grow like 2^(n/2) so the terms decay like 2^(-n/2).
    The real-part inner sum must include the C(n, 0) term: expanding
    (1+i)^n binomially, the k = 0 mod 4 residue class starts at k = 0.
    Dropping it (i.e. starting at C(n, 4)) loses exactly Li_3(1/2).
    """
    from .result import EvalResult

    check_tol(tol)
    re_total = 0.0
    im_total = 0.0
    n_used = 0
    for n in range(1, 301):
        sr = 0
        si = 0
        for m in range(0, n // 4 + 1):
            sr += math.comb(n, 4 * m) - math.comb(n, 4 * m + 2)
            si += math.comb(n, 4 * m + 1) - math.comb(n, 4 * m + 3)
        w = 2.0**n * n**3
        re_total += sr / w
        im_total += si / w
        n_used = n
        tail = 8.0 * 2.0 ** (-n / 2.0) / n**3
        if tail <= tol / 4.0:
            break
    err = tail + 4.0 * EPS * n_used
    if err > tol:
        raise ConvergenceError(f"li3_binomial_sums: error bound {err:g} exceeds tol {tol:g}")
    return (
        EvalResult(re_total, err, n_used, "binomial-double-sum"),
        EvalResult(im_total, err, n_used, "binomial-double-sum"),
    )


__all__ = [
    "BBPFormula",
    "REGISTRY",
    "closed_form_value",
    "eval_bbp_sum",
    "extract_hex_digits",
    "li3_binomial_sums",
]
