"""tetralog: numerical certification of a family of Clausen-function,
Catalan-constant, Dirichlet-L and BBP-type identities surrounding the
integral I7 = (24/(7 sqrt 7)) * int_{pi/3}^{pi/2} ln|(tan t + sqrt 7)/(tan t - sqrt 7)| dt.

Importing the package loads none of its submodules: each public name is
imported from its home module the first time it is read (PEP 562), so a
command line process pays only for the modules it runs.
"""

import importlib

__version__ = "1.0.0"

# public name -> the submodule that defines it
_HOME = {
    "alternating_sum": "accel",
    "BBPFormula": "bbp",
    "REGISTRY": "bbp",
    "eval_bbp_sum": "bbp",
    "extract_hex_digits": "bbp",
    "li3_binomial_sums": "bbp",
    "catalan_value": "dirichlet",
    "l7_hurwitz": "dirichlet",
    "l7_series": "dirichlet",
    "l7_trigamma": "dirichlet",
    "ConvergenceError": "errors",
    "DomainError": "errors",
    "PrecisionError": "errors",
    "QuadratureError": "errors",
    "TetralogError": "errors",
    "UnknownCheckError": "errors",
    "CONSTANTS": "integrals",
    "integral_I7": "integrals",
    "integral_I_ab": "integrals",
    "integral_In": "integrals",
    "i7_closed_form": "integrals",
    "polylog_complex": "polylog",
    "QuadProblem": "quad",
    "integrate": "quad",
    "Angle": "result",
    "EvalResult": "result",
    "PolarPoint": "result",
    "RationalAngle": "result",
    "cl2": "specfun",
    "cl2_rational": "specfun",
    "cl_even": "specfun",
    "cl_odd": "specfun",
    "clausen_cos": "specfun",
    "clausen_sin": "specfun",
    "digamma": "specfun",
    "harmonic": "specfun",
    "hurwitz_zeta": "specfun",
    "im_li2_polar": "specfun",
    "polygamma": "specfun",
    "trigamma": "specfun",
    "CheckRecord": "verify",
    "TAGS": "names",
    "aggregate_pass": "verify",
    "check_ids": "verify",
    "run_all": "verify",
    "run_check": "verify",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
