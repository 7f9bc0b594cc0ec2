"""The ledger coverage matrix: which checks each kernel's value reaches.

Each kernel in turn is wrapped, in every ``tetralog`` module namespace that
binds it, by a function that scales its value by 1 + 1e-9 (1 + h/97), with h
in 0..996 a deterministic hash of the call's numeric arguments (a uniform
factor would cancel in homogeneous identities).  The checks whose status
then differs from the unperturbed ledger are the ones that certify the
kernel.  The table is pinned, so a change that leaves a kernel uncertified,
or makes a check that certified it stop looking, shows up here.
"""

import importlib
import pkgutil
import struct
import zlib

import pytest

import tetralog
from tetralog import verify
from tetralog.result import EvalResult, _Record

# (home module, name): the kernels the ledger reads, and three it does not read yet
KERNELS = (
    ("quad", "integrate"),
    ("specfun", "trigamma"),
    ("specfun", "_clausen"),
    ("specfun", "cl2"),
    ("dirichlet", "l7_trigamma"),
    ("dirichlet", "catalan_value"),
    ("accel", "alternating_sum"),
    ("polylog", "polylog_complex"),
    ("specfun", "hurwitz_zeta"),
    ("specfun", "digamma"),
    ("bbp", "eval_bbp_sum"),
    ("specfun", "clausen_cos"),
    ("specfun", "polygamma"),
    ("specfun", "im_li2_polar"),
    ("bernoulli", "zeta_int"),
)

# kernel -> the checks whose status it flips, as measured
MATRIX = {
    "integrate": ["C3", "L1e-1", "L1e-2", "L1e-3", "L2a", "L2c", "P1", "P1-3.10", "P2",
                  "cat-2.22", "cat-2.27", "cat-2.28a", "cat-2.28c", "cat-2.32", "cat-2.33",
                  "conj-L7", "eq2.38", "eq2.39", "eq2.40", "eq2.41"],
    "trigamma": ["L1a", "L1b", "L1c", "L1d", "L1e-1", "L1e-2", "L1e-3", "L1f", "dup", "eq2.10a",
                 "eq2.10b", "eq2.10c", "eq2.6", "eq4.3", "mult", "refl", "zeta2"],
    "_clausen": ["C2", "L2a", "L2b-1", "L2b-2", "L2c", "L4a", "P1", "P2", "cat-2.32", "cat-2.34",
                 "eq4.1", "eq4.3"],
    "cl2": ["C2", "L2a", "L2b-1", "L2b-2", "L2c", "L4a", "P1", "P2", "cat-2.32", "cat-2.34",
            "eq4.1"],
    "l7_trigamma": ["L1a", "L1b", "L1c", "L1d", "L1e-1", "L1e-2", "L1e-3", "eq4.3"],
    "catalan_value": ["C1", "cat-2.22", "cat-2.25", "cat-2.27", "cat-2.28a", "cat-2.28c",
                      "cat-2.33"],
    "alternating_sum": ["C1", "cat-2.25", "cat-2.34"],
    "polylog_complex": ["L4b", "L4c", "P1-3.10", "eq2.41", "li3-binom"],
    "hurwitz_zeta": ["L1a", "L1d", "eq4.3"],
    "digamma": ["L2b-2", "cat-2.25", "cat-2.28b", "cat-2.34"],
    "eval_bbp_sum": ["L4a", "L4c", "eq2.39", "eq2.40", "eq2.41"],
    "im_li2_polar": ["C2"],
    # no check reaches these yet
    "clausen_cos": [],
    "polygamma": [],
    "zeta_int": [],
}

# the checks that perturbing only the kernel's ball-argument calls flips:
# cl2_rational and the L(2, chi_-7) routes pass their rational points as balls
BALL_MATRIX = {
    "trigamma": ["L1a", "L1b", "L1c", "L1d", "L1e-1", "L1e-2", "L1e-3", "L1f", "eq2.6", "eq4.3"],
    "hurwitz_zeta": ["L1a", "L1d"],
}

MODULES = [
    importlib.import_module(f"tetralog.{m.name}") for m in pkgutil.iter_modules(tetralog.__path__)
]


def _numbers(args):
    """The float and int parts of a call's arguments, records and balls
    opened up, in order."""
    for a in args:
        if isinstance(a, bool):
            continue
        if isinstance(a, (int, float)):
            yield float(a)
        elif isinstance(a, complex):
            yield a.real
            yield a.imag
        elif isinstance(a, (EvalResult, _Record)):
            yield from _numbers(a.__dict__.values())
        elif isinstance(a, tuple):
            yield from _numbers(a)


def _factor(args, only_balls: bool) -> float:
    nums = list(_numbers(args))
    if only_balls and not any(isinstance(a, EvalResult) for a in args):
        return 1.0
    h = zlib.crc32(struct.pack(f"<{len(nums)}d", *nums)) % 997
    return 1.0 + 1e-9 * (1.0 + h / 97.0)


def _perturbed(kernel, only_balls: bool):
    def wrapper(*args, **kwargs):
        r = kernel(*args, **kwargs)
        f = _factor(args, only_balls)
        if isinstance(r, EvalResult):
            return EvalResult(r.value * f, r.err_bound, r.effort, r.method)
        return r * f

    return wrapper


def _statuses() -> dict[str, str]:
    return {r.id: r.status for r in verify.run_all()}


def _flipped(home: str, name: str, baseline: dict[str, str], only_balls=False) -> list[str]:
    kernel = getattr(importlib.import_module(f"tetralog.{home}"), name)
    bound = [m for m in MODULES if getattr(m, name, None) is kernel]
    wrapper = _perturbed(kernel, only_balls)
    try:
        for m in bound:
            setattr(m, name, wrapper)
        statuses = _statuses()
    finally:
        for m in bound:
            setattr(m, name, kernel)
    return sorted(cid for cid, status in statuses.items() if status != baseline[cid])


@pytest.fixture(scope="module")
def baseline() -> dict[str, str]:
    return _statuses()


@pytest.mark.parametrize(("home", "name"), KERNELS, ids=[k[1] for k in KERNELS])
def test_kernel_flips_its_checks(baseline, home, name):
    assert _flipped(home, name, baseline) == MATRIX[name]


@pytest.mark.parametrize("name", sorted(BALL_MATRIX))
def test_ball_arguments_are_certified(baseline, name):
    assert _flipped("specfun", name, baseline, only_balls=True) == BALL_MATRIX[name]


def test_unperturbed_ledger(baseline):
    assert list(baseline.values()).count("pass") == 63
    assert list(baseline.values()).count("supports-conjecture") == 1
