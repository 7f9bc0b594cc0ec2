"""Import budget: each command loads only the modules it runs, and the lazy
package namespace still binds every public name to its home module's object."""

import dis
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tetralog

SRC = str(Path(tetralog.__file__).resolve().parents[1])


def _printed_by(code: str) -> str:
    """What a fresh interpreter prints running ``code``."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    return set(_printed_by(f"import sys\n{code}\nprint(' '.join(sys.modules))").split())


def _loaded_after(code: str) -> set[str]:
    """The tetralog submodules a fresh interpreter holds after running ``code``."""
    return {
        m.removeprefix("tetralog.") for m in _modules_after(code) if m.startswith("tetralog.")
    }


def _cli(*argv: str) -> str:
    return (
        "import contextlib, io\n"
        "from tetralog.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0"
    )


def _after_cli(*argv: str) -> set[str]:
    return _loaded_after(_cli(*argv))


def test_import_tetralog_loads_no_submodule():
    assert _loaded_after("import tetralog") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "cl2", "--theta", "1"),
        ("eval", "cln", "--order", "3", "--theta", "1"),
        ("eval", "trigamma", "--x", "0.3"),
        ("eval", "hurwitz", "--s", "2", "--a", "0.3"),
    ],
)
def test_specfun_targets_load_no_ledger_or_quadrature(argv):
    loaded = _after_cli(*argv)
    assert "specfun" in loaded
    assert not loaded & {"verify", "integrals", "quad", "bbp", "dirichlet"}


# every eval process loads these: the command line, its option names, the
# error types, the constants and the value record
_EVAL_BASE = {"cli", "errors", "names", "constants", "result"}
# each route loads its own kernels beside the base, and nothing it does not call
_CATALAN_EXTRA = {
    **dict.fromkeys(("eq2.22", "eq2.27", "eq2.28a", "eq2.28c", "eq2.33"), {"dirichlet", "quad"}),
    "series": {"dirichlet", "accel"},
    "eq2.35": {"dirichlet", "bbp"},
    **dict.fromkeys(("eq1.11", "eq2.25"), {"dirichlet", "accel", "specfun", "bernoulli"}),
}
_ROUTE_EXTRA = [
    (("eval", "i7"), {"integrals", "quad"}),
    (("eval", "iab", "--a", "0.5", "--b", "-0.6"), {"integrals", "quad"}),
    *((("eval", "catalan", "--method", m), extra) for m, extra in _CATALAN_EXTRA.items()),
    *((("eval", "l7", "--route", r), {"dirichlet", "specfun", "bernoulli"})
      for r in ("series", "trigamma", "hurwitz")),
]


def test_every_catalan_route_is_pinned():
    from tetralog.names import CATALAN_METHODS

    assert set(_CATALAN_EXTRA) == set(CATALAN_METHODS)


@pytest.mark.parametrize(
    "argv, extra",
    _ROUTE_EXTRA,
    ids=[f"{a[1]}-{a[3]}" if len(a) == 4 else a[1] for a, _ in _ROUTE_EXTRA],
)
def test_eval_route_loads_only_the_modules_it_calls(argv, extra):
    assert _after_cli(*argv) == _EVAL_BASE | extra


# (home module, qualified name): the per-call paths the compute-warm workloads
# time, none of which may run an import statement
_WARM_PATHS = [
    *(("specfun", f) for f in ("cl2", "clausen_sin", "clausen_cos", "_clausen", "trigamma",
                               "hurwitz_zeta")),
    ("bernoulli", "_euler_maclaurin"),
    *(("polylog", f) for f in ("polylog_complex", "_li_series", "_li_log_expansion",
                               "_inversion_remainder")),
    ("integrals", "integral_I_ab"),
    ("integrals", "corollary3"),
    *(("quad", f) for f in ("integrate", "_tanh_sinh_panel", "_finite_sum", "_tail_sum")),
    ("quad", "QuadProblem.__init__"),
    ("result", "EvalResult.__init__"),
    ("result", "reduce_angle"),
]


def _code_objects(code: types.CodeType):
    """code and every code object nested in it: lambdas, inner functions,
    comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


@pytest.mark.parametrize("home, name", _WARM_PATHS, ids=[f"{h}.{n}" for h, n in _WARM_PATHS])
def test_warm_per_call_path_imports_nothing(home, name):
    obj = importlib.import_module(f"tetralog.{home}")
    for attr in name.split("."):
        obj = getattr(obj, attr)
    imported = [
        ins.argval
        for code in _code_objects(obj.__code__)
        for ins in dis.get_instructions(code)
        if ins.opname == "IMPORT_NAME"
    ]
    assert imported == []


# the command line is parsed from a table in cli.py, not by argparse, whose
# gettext lookups import locale
_NOT_IN_COLD_COMMANDS = {
    "fractions", "decimal", "dataclasses", "inspect", "argparse", "gettext", "locale"
}


def test_digits_loads_no_ledger_or_special_functions():
    loaded = _after_cli("digits", "--formula", "eq2.37-sum", "--position", "10", "--count", "4")
    assert "bbp" in loaded
    assert not loaded & {"verify", "integrals", "quad", "specfun", "polylog"}


def test_digits_loads_only_extraction():
    loaded = _modules_after(
        _cli("digits", "--formula", "eq2.37-sum", "--position", "10", "--count", "4")
    )
    tetralog_modules = {m for m in loaded if m.startswith("tetralog.")}
    assert tetralog_modules == {
        "tetralog.cli",
        "tetralog.errors",
        "tetralog.names",
        "tetralog.bbp",
        "tetralog.constants",
    }
    assert not loaded & {*_NOT_IN_COLD_COMMANDS, "tetralog.result"}


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "cl2", "--theta", "1"),
        ("eval", "li3"),
        ("eval", "catalan", "--method", "eq2.35"),
        ("eval", "l7", "--route", "trigamma"),
        ("eval", "catalan", "--method", "series"),
        ("eval", "i7"),
        ("eval", "iab", "--a", "0.5", "--b", "-0.6"),
    ],
)
def test_eval_loads_no_fractions(argv):
    # Bernoulli numbers reach the kernels as integer pairs, and ball
    # arithmetic bounds composite values in doubles; the value records
    # (EvalResult, QuadProblem, ...) are not dataclasses
    assert not _modules_after(_cli(*argv)) & _NOT_IN_COLD_COMMANDS


def test_verify_json_loads_no_datetime():
    # the report's timestamp is formatted by time.strftime
    loaded = _modules_after(_cli("verify", "--all", "--format", "json"))
    assert not loaded & {"datetime", *_NOT_IN_COLD_COMMANDS}


def test_record_field_tables_are_built_on_demand_and_once():
    code = (
        "import sys\n"
        "from tetralog.quad import QuadProblem\n"
        "from tetralog.result import Angle, EvalResult, PolarPoint, RationalAngle\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "import dataclasses\n"
        "built, make = [], dataclasses.make_dataclass\n"
        "dataclasses.make_dataclass = lambda name, *a, **k: built.append(name) or make(name, *a, **k)\n"
        "records = [EvalResult(1.0, 0.0, 0, 'm'), Angle(1.0), RationalAngle(1, 2),"
        " PolarPoint(1.0, 2.0), QuadProblem(abs, 0.0, 1.0)]\n"
        "for _ in range(3):\n"
        "    for r in records:\n"
        "        dataclasses.fields(r), dataclasses.replace(r), dataclasses.asdict(r)\n"
        "        assert type(r).__dict__['__dataclass_fields__'] is r.__dataclass_fields__\n"
        "print(*built)"
    )
    assert _printed_by(code).split() == [
        "False", "False", "EvalResult", "Angle", "RationalAngle", "PolarPoint", "QuadProblem"
    ]


def test_import_polylog_builds_no_table():
    code = (
        "import tetralog.polylog as p, tetralog.bernoulli as b\n"
        "print(p._inv_powers.cache_info().currsize, b._log_tables.cache_info().currsize,"
        " p._remainder_coeffs.cache_info().currsize)"
    )
    assert _printed_by(code).split() == ["0", "0", "0"]


def test_import_specfun_builds_no_table():
    code = (
        "import tetralog.specfun as s, tetralog.bernoulli as b\n"
        "print(s._clausen_table.cache_info().currsize, b._em_coeffs.cache_info().currsize,"
        " b.zeta_taylor.cache_info().currsize, b.bernoulli_number.cache_info().currsize,"
        " len(b._TABLE[1]))"
    )
    assert _printed_by(code).split() == ["0", "0", "0", "0", "1"]


def test_star_import_binds_every_public_name_to_its_home_object():
    namespace: dict = {}
    exec("from tetralog import *", namespace)
    for name in tetralog.__all__:
        assert name in namespace, name
        if name == "__version__":
            continue
        home = importlib.import_module(f"tetralog.{tetralog._HOME[name]}")
        assert namespace[name] is getattr(home, name), name


def test_tags_are_one_object():
    from tetralog import verify

    assert tetralog.TAGS is verify.TAGS


def test_dir_and_unknown_attribute():
    assert set(tetralog.__all__) <= set(dir(tetralog))
    with pytest.raises(AttributeError, match="no_such_name"):
        tetralog.no_such_name  # noqa: B018
