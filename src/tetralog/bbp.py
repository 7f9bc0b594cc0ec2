"""Base-16 BBP-type sums: evaluation and fractional hex digit extraction.

A registry holds the degree-2 and degree-3 binary formulas built on the
coefficient pattern (4, 0, 0, -2, -1, -1, 0, 0) over residues mod 8, plus
the classical degree-1 formula for pi.  One exact integer fixed-point sum,
as in Bailey, Borwein and Plouffe (Math. Comp. 66, 1997), is both
``eval_bbp_sum`` and the digit extraction's tail.  The extraction aborts on
carry ambiguity rather than ever emitting a wrong digit.  Its head sums one
fraction per batch of consecutive denominators, built by Horner's rule over
their product: one modular power and one floor division per batch, not per
term.  Each residue class's j axis is cut into batches by a rule that does
not depend on the position (``_cuts``), so the full batches' fractions are
kept in a table per (degree, residue class) up to a bound.  An extraction
lists each class's head batches once, in a plan: the stored ones, then
placeholders for those it must build (``_head_batches``).  The carry test
counts the plan and the head sums it, so a warm extraction computes only
the modular powers, the floors and the batch cut off at its position.  The
floors lose less than |coefficient| units each, which the carry test allows
for.  From position 6000 on in a process's first extraction, and from 1000
on once the tables hold batches, where a split head ran faster than the
serial one for every registry formula, the plans' batches are split into
parts, one per usable processor, summed by long-lived forked workers
(``forked``) that this process keeps until it exits; integer addition is
exact, so the split cannot change a digit.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from bisect import bisect_right
from collections import namedtuple
from typing import TYPE_CHECKING

from .constants import EPS, LN2, PI, ZETA3
from .errors import ConvergenceError, DomainError, PrecisionError, check_tol, is_int

# the functions that build an EvalResult import it themselves, so that digit
# extraction does not load ``result``, the ball arithmetic it does not use
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

    from .result import EvalResult

    # a head plan's batch: (j1, num mod den, den), or (j1, None, None) to build
    Batch = tuple[int, int | None, int | None]


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
        # a float degree 2.0 would hash and compare equal to 2, and share its tables
        if not is_int(degree) or degree < 1:
            raise DomainError("BBP degree must be an integer >= 1")
        if len(coeffs) != 8:
            raise DomainError("coeffs must have one entry per residue class mod 8")
        if not all(map(is_int, coeffs)):
            raise DomainError("BBP coefficients must be integers")
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
# consecutive denominators whose product is at most this many bits wide (a
# lone denominator may be wider; ``_cuts``).  With the tables warm, at
# 3e3-4.5e3 256 / 384 / 768 bits ran 19-24 % / 4-8 % slower / 1-3 % faster
# than 512; at 2e4-3e4, 384 bits ran up to 11 % faster and 768 up to 12 %
# slower, in one run each.  In a later run 384 and 448 bits were within 3 %
# of 512, warm at 2e3-3e3 and with empty tables at 600-1400.
_BATCH_BITS = 512
# Class k's full batches at degree s, (j1, num mod den, den) in order of j1,
# kept once built, as long as s * j1 <= _TABLE_SPAN: up to position 196 607,
# 98 303 and 65 535 at degrees 1, 2 and 3, past the 2e4-5e4 band that
# digits-deep.deep extracts in.  A table's size grows with s times its
# positions, so each registry formula's four tables hold ~30 000 batches and
# ~8 MB resident at the bound.  Published as a new dict of tuples, never
# changed in place.
_TABLE_SPAN = 3 * 2**16
_TABLES: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}
# Head positions per forked part.  Serial / split time of 8-digit extractions
# on a 2-core x86 Linux host (> 1: the split wins), medians of 21 or 41
# paired, alternating calls.  A process's first extraction, which forks its
# worker, splits from 2 * _MIN_PART on: with the tables empty, at position
# 6000 eq2.35-sum ran 1.18-1.22, eq2.37-sum 1.24-1.30 and pi-degree1
# 1.05-1.06 (three runs); at 5000 pi-degree1 ran 1.02-1.07 and at 4000 0.91.
# Forking the worker and its first touch of the pages it reads add 1-3 ms
# here to the serial head's work.  Once the tables hold batches from an
# earlier extraction, the head splits from 2 * _MIN_WARM_PART on, where a
# split with a live worker ran faster for every registry formula: at
# position 1000 eq2.35-sum 1.51-1.67, eq2.37-sum 1.61-1.71 and pi-degree1
# 1.24-1.35 (four runs), at 2000 1.20-1.79; at 700 eq2.37-sum ran 1.01 and
# eq2.35-sum 0.98 in one run each.  An extraction that grows the tables
# forks the worker again (``forked``), which below 4000 costs more than the
# split saves, but happens once per growth.
_MIN_PART = 3000
_MIN_WARM_PART = 500


def _cuts(s: int, k: int, j: int) -> Iterator[int]:
    """The ends of residue class k's batches at degree s after the batch
    boundary j, in order.

    A batch takes terms in order while the sum of s * bit_length(8j + k)
    over them stays within _BATCH_BITS, and takes at least one.  That sum
    bounds the bits of the batch's product of (8j + k)^s.  It is counted per
    run of terms whose 8j + k have one bit length b, where every batch that
    starts inside the run takes _BATCH_BITS // (s * b) terms until the run
    is shorter.  The rule depends on s, k and j alone, never on a requested
    position.
    """
    room = _BATCH_BITS  # the bits left in the batch being cut
    while True:
        b = (8 * j + k).bit_length()
        end = ((1 << b) - k + 7) // 8  # the first j whose 8j + k has more bits
        cost = s * b
        take = room // cost
        if take < end - j:
            j += max(take, room == _BATCH_BITS)  # an empty batch takes one term
            yield j
            width = max(1, _BATCH_BITS // cost)
            yield from range(j + width, end + 1, width)
            j = end - (end - j) % width
            room = _BATCH_BITS
        room -= (end - j) * cost
        j = end


def _batch(s: int, k: int, j0: int, j1: int) -> tuple[int, int]:
    """(num, den) with den = prod (8j + k)^s and num/den = sum 16^(j1 - 1 - j)
    / (8j + k)^s over j0 <= j < j1, by Horner's rule."""
    num, den = 0, 1
    for m in range(8 * j0 + k, 8 * j1 + k, 8):
        d = m if s == 1 else m**s  # m**1 would cost a power per term
        num = (num * d << 4) + den
        den *= d
    return num, den


def _head_batches(s: int, k: int, n: int) -> list[Batch]:
    """Class k's head plan at degree s: the batches that cover its terms
    j < n, in order.  Each stored batch that ends by n is its table entry
    (j1, num mod den, den) (``_batch``); each later batch is a placeholder
    (j1, None, None), the last one cut off at n.  Below the table bound only
    that partial batch is a placeholder; past it every batch is.

    First class k's table grows, if it must, to hold every full batch that
    ends by n, as far as _TABLE_SPAN // s.  The grown table is a new tuple,
    published in a new dict in one assignment, so a reader holds a finished
    table whatever a racing or re-entering call does.
    """
    global _TABLES
    table = _TABLES.get((s, k), ())
    j0 = table[-1][0] if table else 0
    stop = min(n, _TABLE_SPAN // s)
    grown = []
    for j1 in _cuts(s, k, j0):
        if j1 > stop:
            break
        num, den = _batch(s, k, j0, j1)
        grown.append((j1, num % den, den))
        j0 = j1
    if grown:
        table += tuple(grown)
        if len(table) > len(_TABLES.get((s, k), ())):
            _TABLES = {**_TABLES, (s, k): table}
    plan: list[Batch] = list(table[: bisect_right(table, n, key=lambda batch: batch[0])])
    j0 = plan[-1][0] if plan else 0
    cuts = _cuts(s, k, j0)
    while j0 < n:
        j0 = min(next(cuts), n)
        plan.append((j0, None, None))
    return plan


def _head_part(
    s: int, n: int, plans: list[tuple[int, int, list[Batch]]], bits: int, part: int, parts: int
) -> int:
    """The batches of the head plans, (k, a, class k's plan) for each nonzero
    coefficient a, whose running index over all plans in turn is part mod
    parts, summed mod 2^bits; only a placeholder that this part owns is
    built.  With ``parts == 1`` this is the whole head; the parts for part =
    0 .. parts - 1 add up to it mod 2^bits.
    """
    acc = 0
    index = itertools.count()
    for k, a, plan in plans:
        j0 = 0
        for j1, num, den in plan:
            # For the batch j0 .. j1 - 1 with d_j = (8j + k)^s, num/den = sum_j
            # 16^(j1 - 1 - j)/d_j over den = prod d_j, and r = 16^(n - j1) mod
            # den.  Each d_j divides den, so r * num/den = sum_j 16^(n - 1 - j)/d_j
            # (mod 1), and the batch adds a * floor(2^bits * frac(r * num/den)),
            # within |a| of a times the exact value
            if next(index) % parts == part:
                if num is None:
                    num, den = _batch(s, k, j0, j1)
                acc += a * ((pow(16, n - j1, den) * num % den << bits) // den)
            j0 = j1
    return acc % (1 << bits)


def _plans(s: int, coeffs: Sequence[int], n: int) -> list[tuple[int, int, list[Batch]]]:
    """(k, a, class k's head plan) for each nonzero coefficient a."""
    return [(k, a, _head_batches(s, k, n)) for k, a in enumerate(coeffs, start=1) if a]


def _split_part(args: Sequence[int], part: int, parts: int) -> int:
    """Part ``part`` of ``parts`` of the head for args = (degree, n, bits,
    *coeffs), with the plans made again from the tables: the task by which
    ``forked.forked_sum`` computes each part, here and in its workers."""
    s, n, bits, *coeffs = args
    return _head_part(s, n, _plans(s, coeffs, n), bits, part, parts)


def _part_count(position: int) -> int:
    """One head part per usable processor, each of at least ``_MIN_PART``
    positions, or of ``_MIN_WARM_PART`` once the tables hold batches from an
    earlier extraction (read before this one's plans grow them); one where
    there is no fork or another thread is running, since a forked copy of a
    threaded process may hold a lock forever."""
    threading = sys.modules.get("threading")
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    least = _MIN_WARM_PART if _TABLES else _MIN_PART
    return max(1, min(len(os.sched_getaffinity(0)), position // least))


def extract_hex_digits(f: BBPFormula, position: int, count: int) -> str:
    """Hex digits of frac(16^position * pure sum), ``count`` digits.

    Exact integer fixed point with ``_GUARD_HEX`` guard digits.  The j <=
    position head takes one fraction per batch of consecutive denominators
    d_j = (8j + k)^degree (``_head_part``): one modular power modulo their
    product and one floor division, which drops less than one unit, times
    the class's coefficient a.  Each batch's product is at most
    ``_BATCH_BITS`` wide, bar a lone wider denominator; the cuts between
    batches depend on degree, k and j alone (``_cuts``).  Each class's full
    batches are kept in a table as long as degree * j <= ``_TABLE_SPAN``.
    Each nonzero class's head plan (``_head_batches``) is made once, here:
    its stored batches that end by position + 1, then placeholders for the
    batch cut off at position + 1 and those past the table, which the head
    builds.  The carry test counts the plans' batches, and the head sums
    them.  The tail j > position is ``_fixed_sum``'s, one floor per term.
    From position 2 * ``_MIN_PART`` = 6000 on in a process's first
    extraction, and from 2 * ``_MIN_WARM_PART`` = 1000 on once the tables
    hold batches, where splitting paid on every registry formula, on Linux
    and with no other thread running, the plans' batches are dealt
    round-robin to one part per usable processor (at most position //
    ``_MIN_PART`` or ``_MIN_WARM_PART``), and all but one part are summed by
    forked workers (``forked.forked_sum``), after this process has made the
    plans and grown the tables.  A worker makes the same plans from the
    tables it was forked with, and is forked again whenever the tables have
    grown since, so it only reads them; the workers live until the process
    exits.  The parts are exact integers summed mod 2^bits, so the digits and
    every PrecisionError are those of the serial sum.  The tail stays serial.  If
    the guard bits sit within sum |a| * (floors in a's class) units plus
    2^-20 of a digit carry boundary, the extraction raises PrecisionError
    instead of risking an off-by-one digit.
    """
    if not is_int(position) or position < 0:
        raise DomainError("position must be an integer >= 0")
    if not is_int(count) or not 1 <= count <= 16:
        raise DomainError("count must be an integer in 1..16")
    if all(a == 0 for a in f.coeffs):
        return "0" * count
    bits = 4 * (count + _GUARD_HEX)
    one = 1 << bits
    s, n = f.degree, position + 1
    parts = _part_count(position)  # before the plans, which may grow the tables
    # the plans, and the tables they read, are made here, before any fork
    plans = _plans(s, f.coeffs, n)
    floors = sum(abs(a) * len(plan) for _, a, plan in plans)
    if parts == 1:
        acc = _head_part(s, n, plans, bits, 0, 1)
    else:
        from .forked import forked_sum  # loaded only for a split head

        acc = forked_sum(_split_part, (s, n, bits, *f.coeffs), parts, _TABLES)
    # the tail j > position is exact: its terms shrink below the fixed point
    tail_sum, tail_floors, _ = _fixed_sum(f, position, bits, position + 1)
    acc += tail_sum
    floors += tail_floors
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
