"""One integer rule: every public integer argument refuses a float, even an
integral one, and a bool with ``DomainError`` (``errors.is_int``), and takes
the int it stands for."""

import pytest

from tetralog.bbp import REGISTRY, BBPFormula, extract_hex_digits
from tetralog.bernoulli import bernoulli_number, zeta_int
from tetralog.errors import DomainError
from tetralog.integrals import (
    i1_polylog_form,
    i1_series_truncated,
    integral_In,
    integral_In_vform,
)
from tetralog.polylog import polylog_complex
from tetralog.result import RationalAngle
from tetralog.specfun import (
    cl_even,
    cl_odd,
    clausen_cos,
    clausen_sin,
    harmonic,
    incomplete_gamma_upper_int,
    polygamma,
)

PI_FORMULA = REGISTRY["pi-degree1"]
PATTERN = PI_FORMULA.coeffs

# argument name -> (a call that takes the argument, an int it accepts)
SUBJECTS = {
    "polylog_complex.s": (lambda v: polylog_complex(v, 0.7), 3),
    "polylog_complex.s-inversion": (lambda v: polylog_complex(v, 5.0), 3),
    "clausen_sin.s": (lambda v: clausen_sin(v, 1.0), 2),
    "clausen_cos.s": (lambda v: clausen_cos(v, 1.0), 3),
    "cl_even.q": (lambda v: cl_even(v, 1.0), 1),
    "cl_odd.r": (lambda v: cl_odd(v, 1.0), 1),
    "polygamma.n": (lambda v: polygamma(v, 2.0), 1),
    "harmonic.j": (harmonic, 2),
    "bernoulli_number.n": (bernoulli_number, 4),
    "zeta_int.n": (zeta_int, 2),
    "RationalAngle.p": (lambda v: RationalAngle(v, 3), 1),
    "RationalAngle.q": (lambda v: RationalAngle(1, v), 3),
    "incomplete_gamma_upper_int.n": (lambda v: incomplete_gamma_upper_int(v, 2.0), 1),
    "integral_In.n": (integral_In, 1),
    "integral_In_vform.n": (integral_In_vform, 1),
    "i1_polylog_form.n": (i1_polylog_form, 1),
    "i1_series_truncated.n": (lambda v: i1_series_truncated(v, 60), 1),
    "i1_series_truncated.terms": (lambda v: i1_series_truncated(1, v), 60),
    "extract_hex_digits.position": (lambda v: extract_hex_digits(PI_FORMULA, v, 8), 2),
    "extract_hex_digits.count": (lambda v: extract_hex_digits(PI_FORMULA, 2, v), 8),
    "BBPFormula.degree": (lambda v: BBPFormula(v, PATTERN, 1.0), 2),
    "BBPFormula.coeffs": (lambda v: BBPFormula(2, (v, *PATTERN[1:]), 1.0), 4),
}


@pytest.mark.parametrize("value", [2.0, 2.5, True], ids=["2.0", "2.5", "True"])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_integer_arguments_refuse_floats_and_bools(subject, value):
    call, valid = SUBJECTS[subject]
    call(valid)
    with pytest.raises(DomainError):
        call(value)
