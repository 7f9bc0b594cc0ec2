"""Import budget: each command loads only the modules it runs, and the lazy
package namespace still binds every public name to its home module's object."""

import importlib
import os
import subprocess
import sys
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


def test_catalan_routes_load_no_ledger():
    # G = L(2, chi_-4) lives beside L(2, chi_-7), apart from the ledger
    from tetralog.names import CATALAN_METHODS

    loaded = _loaded_after(
        "\n".join(_cli("eval", "catalan", "--method", m) for m in CATALAN_METHODS)
    )
    assert "dirichlet" in loaded
    assert not loaded & {"verify", "integrals", "polylog"}


def test_l7_routes_load_no_catalan_machinery():
    loaded = _loaded_after(
        "\n".join(_cli("eval", "l7", "--route", r) for r in ("series", "trigamma", "hurwitz"))
    )
    assert "dirichlet" in loaded
    assert not loaded & {"quad", "bbp", "accel"}


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
    assert not loaded & {"dataclasses", "fractions", "decimal", "inspect", "tetralog.result"}


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "cl2", "--theta", "1"),
        ("eval", "li3"),
        ("eval", "catalan", "--method", "eq2.35"),
    ],
)
def test_eval_loads_no_fractions(argv):
    # Bernoulli numbers reach the kernels as integer pairs
    assert not _modules_after(_cli(*argv)) & {"fractions", "decimal"}


def test_verify_json_loads_no_datetime():
    # the report's timestamp is formatted by time.strftime
    assert "datetime" not in _modules_after(_cli("verify", "--all", "--format", "json"))


def test_import_polylog_builds_no_table():
    code = (
        "import tetralog.polylog as p\n"
        "print(p._inv_powers.cache_info().currsize, p._log_tables.cache_info().currsize,"
        " p._remainder_coeffs.cache_info().currsize)"
    )
    assert _printed_by(code).split() == ["0", "0", "0"]


def test_import_specfun_builds_no_table():
    code = (
        "import tetralog.specfun as s, tetralog.bernoulli as b\n"
        "print(s._clausen_table.cache_info().currsize, b._em_coeffs.cache_info().currsize,"
        " b.zeta_taylor.cache_info().currsize, b.bernoulli_number.cache_info().currsize,"
        " len(b._B_EVEN))"
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
