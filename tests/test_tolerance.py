"""One tolerance rule for the whole library: every public callable that takes
a tolerance refuses nan, either infinity, either zero and a negative value
with ``DomainError``, through ``errors.check_tol``, before it does any work.
A valid tolerance is met, or the call raises ``ConvergenceError``.

The subjects are found, not listed: every public name (the package's
``__all__`` and each module's) whose signature has a parameter named
``tol...``.  A new evaluator therefore fails ``test_subjects_are_the_table``
until it gets a row below, and then the rejection tests.
"""

import importlib
import inspect
import math
import os
import pkgutil
import sys

import pytest

import tetralog
from tetralog.accel import alternating_sum
from tetralog.bbp import REGISTRY, closed_form_value, eval_bbp_sum, li3_binomial_sums
from tetralog.dirichlet import l7_hurwitz, l7_series
from tetralog.errors import ConvergenceError, DomainError, QuadratureError
from tetralog.integrals import (
    corollary3,
    i1_polylog_form,
    integral_I1_split,
    integral_I7,
    integral_I_ab,
    integral_In,
    integral_In_vform,
)
from tetralog.polylog import polylog_complex
from tetralog.quad import QuadProblem
from tetralog.result import PolarPoint, RationalAngle
from tetralog.specfun import (
    cl2,
    cl2_rational,
    cl_even,
    cl_odd,
    clausen_cos,
    clausen_sin,
    hurwitz_zeta,
    im_li2_polar,
)
from tetralog.verify import run_all, run_check

# name -> (the callable, valid sample arguments, its tolerance parameter)
SAMPLES = {
    "alternating_sum": (alternating_sum, (lambda k: 1.0 / (2 * k + 1) ** 2,), "tol"),
    "eval_bbp_sum": (eval_bbp_sum, (REGISTRY["pi-degree1"],), "tol"),
    "closed_form_value": (closed_form_value, (REGISTRY["eq2.35-sum"],), "tol"),
    "li3_binomial_sums": (li3_binomial_sums, (), "tol"),
    "l7_series": (l7_series, (), "tol"),
    "l7_hurwitz": (l7_hurwitz, (), "tol"),
    "integral_I7": (integral_I7, (), "tol"),
    "integral_In": (integral_In, (2,), "tol"),
    "integral_I1_split": (integral_I1_split, (), "tol"),
    "integral_In_vform": (integral_In_vform, (1,), "tol"),
    "i1_polylog_form": (i1_polylog_form, (1,), "tol"),
    "integral_I_ab": (integral_I_ab, (0.5, 0.25), "tol"),
    "corollary3": (corollary3, (2.0, 1.0), "tol"),
    "polylog_complex": (polylog_complex, (3, 0.5 + 0.5j), "tol"),
    "cl2": (cl2, (1.0,), "tol"),
    "cl2_rational": (cl2_rational, (RationalAngle(2, 7),), "tol"),
    "cl_even": (cl_even, (2, 1.0), "tol"),
    "cl_odd": (cl_odd, (1, 1.0), "tol"),
    "clausen_sin": (clausen_sin, (2, 1.0), "tol"),
    "clausen_cos": (clausen_cos, (3, 1.0), "tol"),
    "hurwitz_zeta": (hurwitz_zeta, (2.0, 0.5), "tol"),
    "im_li2_polar": (im_li2_polar, (PolarPoint(0.5, 1.0),), "tol"),
    "QuadProblem": (QuadProblem, (math.exp, 0.0, 1.0), "tol"),
    "run_check": (run_check, ("sine7",), "tol_override"),
    "run_all": (run_all, ("sine",), "tol_scale"),
}

# public names with a tol parameter that compute nothing: a ledger record
# stores the tolerance its check ran at
RECORDS = {"CheckRecord"}

BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]

# the most package functions a rejection may enter: the route to the check,
# of which integral_In -> _integral_x -> QuadProblem.__post_init__ ->
# check_tol is the longest
ROUTE = 4
PACKAGE = os.path.dirname(tetralog.__file__)


def _tolerance_parameters() -> dict[str, str]:
    """Each public name whose signature has a tol... parameter, with it."""
    public = {name: getattr(tetralog, name) for name in tetralog.__all__}
    for info in pkgutil.iter_modules(tetralog.__path__):
        module = importlib.import_module(f"tetralog.{info.name}")
        public.update((name, getattr(module, name)) for name in getattr(module, "__all__", ()))
    found = {}
    for name, obj in public.items():
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        tols = [p for p in params if p.startswith("tol")]
        if tols:
            (found[name],) = tols
    return found


def test_subjects_are_the_table():
    found = _tolerance_parameters()
    for name in RECORDS:
        found.pop(name)
    assert found == {name: param for name, (_, _, param) in SAMPLES.items()}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_arguments_are_valid(name):
    func, args, _ = SAMPLES[name]
    func(*args)


def _profiled(call) -> tuple[Exception | None, list[str]]:
    """What ``call()`` raised and the names of the package functions it entered."""
    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls.append(frame.f_code.co_name)

    raised = None
    sys.setprofile(profile)
    try:
        call()
    except Exception as exc:
        raised = exc
    finally:
        sys.setprofile(None)
    return raised, calls


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_bad_tolerance_rejected_before_any_work(name, tol):
    func, args, param = SAMPLES[name]
    raised, calls = _profiled(lambda: func(*args, **{param: tol}))
    assert type(raised) is DomainError, raised
    assert str(raised).endswith(f"must be finite and positive, got {tol!r}")
    # the rule itself refused it, and nothing but the route to it ran first
    assert calls[-1] == "check_tol", calls
    assert len(calls) <= ROUTE, calls


# evaluators whose bound once came back above a tol they were given, each as
# a function of tol to the results it returns
MET_OR_RAISED = {
    "alternating_sum": lambda tol: (alternating_sum(lambda k: 1.0 / (2 * k + 1) ** 2, tol),),
    "li3_binomial_sums": li3_binomial_sums,
    "l7_series": lambda tol: (l7_series(tol),),
    "l7_hurwitz": lambda tol: (l7_hurwitz(tol),),
    "integral_In": lambda tol: (integral_In(3, tol),),
    "integral_I1_split": integral_I1_split,
    "im_li2_polar": lambda tol: (im_li2_polar(PolarPoint(3.0, 2.0), tol),),
}


@pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15, 1e-17], ids=repr)
@pytest.mark.parametrize("name", sorted(MET_OR_RAISED))
def test_a_tolerance_is_met_or_the_call_raises(name, tol):
    try:
        results = MET_OR_RAISED[name](tol)
    except ConvergenceError as exc:
        assert isinstance(exc, QuadratureError) == name.startswith("integral"), exc
        return
    for r in results:
        assert r.err_bound <= tol, r
