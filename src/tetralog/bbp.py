"""Base-16 BBP-type sums: evaluation and fractional hex digit extraction.

A registry holds the degree-2 and degree-3 binary formulas built on the
coefficient pattern (4, 0, 0, -2, -1, -1, 0, 0) over residues mod 8, plus
the classical degree-1 formula for pi.  Digit extraction works in exact
integer fixed point and aborts on carry ambiguity rather than ever emitting
a wrong digit.  Its head takes one modular power per batch of consecutive
denominators, modulo their product; each term then exceeds its per-term
value by a multiple of the fixed point's one, which vanishes when the sum
is reduced mod one, so the digits are those of one modular power per term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .constants import EPS, LN2, PI, ZETA3
from .errors import DomainError, PrecisionError

# the functions that build an EvalResult import it themselves, so that digit
# extraction loads neither ``result`` nor the dataclasses behind it
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


def constant_value(name: str) -> float:
    """Resolve an affine-term constant id to its double value."""
    if name == "pi^2":
        return PI * PI
    if name == "pi*ln2":
        return PI * LN2
    if name == "pi^2*ln2":
        return PI * PI * LN2
    if name == "zeta3":
        return ZETA3
    if name == "im-li3-half-plus-half-i":
        from .polylog import polylog_complex  # only this constant needs it; digits never does

        return polylog_complex(3, complex(0.5, 0.5), tol=1e-13).value.imag
    raise DomainError(f"unknown constant id {name!r}")


def closed_form_value(f: BBPFormula, tol: float = 1e-12) -> EvalResult:
    """scale * pure sum + affine add-ons."""
    from .result import EvalResult

    s = eval_bbp_sum(f, tol)
    v = f.scale * s.value + math.fsum(c * constant_value(name) for name, c in f.affine_terms)
    return EvalResult(v, f.scale * s.err_bound + 8.0 * EPS, s.effort, "bbp+affine")


def eval_bbp_sum(f: BBPFormula, tol: float = 1e-13) -> EvalResult:
    """The pure BBP sum with a rigorous geometric tail bound <= tol."""
    from .result import EvalResult

    if tol <= 0.0:
        raise DomainError("tol must be positive")
    amax = sum(abs(a) for a in f.coeffs)
    if amax == 0:
        return EvalResult(0.0, 0.0, 0, "bbp-sum")
    total = 0.0
    j = 0
    for j in range(0, 200):
        inner = 0.0
        for k, a in enumerate(f.coeffs, start=1):
            if a:
                inner += a / (8 * j + k) ** f.degree
        total += inner / 16.0**j
        tail = amax / (8 * (j + 1)) ** f.degree / 16.0**j / 15.0
        if tail <= tol / 4.0:
            break
    err = tail + 4.0 * EPS * abs(total) * (j + 1)
    if err > tol:
        raise DomainError(f"cannot reach tol {tol:g} in double precision")
    return EvalResult(total, err, j + 1, "bbp-sum")


_GUARD_HEX = 12
# The head takes one modular power per batch of consecutive denominators whose
# product is about this many bits wide; the largest denominator, at
# j = position, sets the batch width.  At positions 3e3 and 3e4, 256-512 bits
# timed alike within noise, and 768 or more ran slower.
_BATCH_BITS = 512


def extract_hex_digits(f: BBPFormula, position: int, count: int) -> str:
    """Hex digits of frac(16^position * pure sum), ``count`` digits.

    Exact integer fixed point with ``_GUARD_HEX`` guard digits.  The
    j <= position head works in batches of consecutive denominators
    d_j = (8j + k)^degree: one ``pow(16, position + 1 - j1, prod d_j)`` for
    the batch j0 .. j1 - 1, whose residue mod each d_j, multiplied by
    16^(j1 - 1 - j), is congruent to 16^(position - j) mod d_j.  Each term
    thus exceeds the per-term floor(16^(position - j) mod d_j * 2^bits / d_j)
    by a multiple of 2^bits, which vanishes mod one: the digits are those of
    the per-term sum.  If the guard bits sit within 2^-20 of a digit carry
    boundary the extraction raises PrecisionError instead of risking an
    off-by-one digit.
    """
    if position < 0:
        raise DomainError("position must be >= 0")
    if not 1 <= count <= 16:
        raise DomainError("count must be in 1..16")
    if all(a == 0 for a in f.coeffs):
        return "0" * count
    bits = 4 * (count + _GUARD_HEX)
    one = 1 << bits
    acc = 0
    n_terms = 0
    s = f.degree
    for k, a in enumerate(f.coeffs, start=1):
        if not a:
            continue
        # head: j <= position, one pow per batch j0 .. j1 - 1
        width = max(1, _BATCH_BITS // ((8 * position + k) ** s).bit_length())
        for j0 in range(0, position + 1, width):
            j1 = min(j0 + width, position + 1)
            ds = [m**s for m in range(8 * j0 + k, 8 * j1 + k, 8)]
            r = pow(16, position + 1 - j1, math.prod(ds))
            shift = bits + 4 * (j1 - 1 - j0)
            t = 0
            for d in ds:
                t += ((r % d) << shift) // d
                shift -= 4
            acc += a * t
        n_terms += position + 1
        # tail: j > position, exact since terms shrink below the fixed point
        j = position + 1
        while True:
            d = ((8 * j + k) ** s) << (4 * (j - position))
            t = one // d
            if t == 0:
                break
            acc += a * t
            n_terms += 1
            j += 1
    acc %= one
    guard_bits = 4 * _GUARD_HEX
    unit = 1 << guard_bits
    # each floor division dropped < 1 ulp; carry is ambiguous if the guard
    # block sits that close to rolling over into the reported digits
    slack = n_terms + (unit >> 20)
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

    if tol <= 0.0:
        raise DomainError("tol must be positive")
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
    return (
        EvalResult(re_total, err, n_used, "binomial-double-sum"),
        EvalResult(im_total, err, n_used, "binomial-double-sum"),
    )


__all__ = [
    "BBPFormula",
    "REGISTRY",
    "constant_value",
    "closed_form_value",
    "eval_bbp_sum",
    "extract_hex_digits",
    "li3_binomial_sums",
]
