"""The EvalResult contract: a frozen dataclass of four fields that refuses a
non-finite value, a negative or non-finite bound and a negative effort."""

import dataclasses
import math

import pytest

from tetralog.errors import DomainError
from tetralog.result import EvalResult


def test_positional_and_keyword_construction_agree():
    by_position = EvalResult(1.5, 1e-16, 3, "series")
    by_keyword = EvalResult(method="series", effort=3, err_bound=1e-16, value=1.5)
    assert by_position == by_keyword
    assert (by_position.value, by_position.err_bound, by_position.effort, by_position.method) == (
        1.5,
        1e-16,
        3,
        "series",
    )


def test_fields_keep_their_order():
    assert [f.name for f in dataclasses.fields(EvalResult)] == [
        "value",
        "err_bound",
        "effort",
        "method",
    ]


def test_replace_and_asdict():
    r = EvalResult(2.0, 0.5, 1, "a")
    moved = dataclasses.replace(r, value=3.0)
    assert moved == EvalResult(3.0, 0.5, 1, "a")
    assert r.value == 2.0
    assert dataclasses.asdict(moved) == {"value": 3.0, "err_bound": 0.5, "effort": 1, "method": "a"}
    with pytest.raises(DomainError):
        dataclasses.replace(r, err_bound=-1.0)


def test_equality_hash_and_repr():
    r = EvalResult(1j, 0.0, 0, "m")
    assert r == EvalResult(1j, 0.0, 0, "m")
    assert r != EvalResult(1j, 0.0, 1, "m")
    assert hash(r) == hash(EvalResult(1j, 0.0, 0, "m"))
    assert len({r, EvalResult(1j, 0.0, 0, "m")}) == 1
    assert repr(r) == "EvalResult(value=1j, err_bound=0.0, effort=0, method='m')"


@pytest.mark.parametrize("name", ["value", "err_bound", "effort", "method"])
def test_fields_are_frozen(name):
    r = EvalResult(1.0, 0.0, 0, "m")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(r, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(r, name)


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        complex(math.nan, 0.0),
        complex(math.inf, 0.0),
        complex(0.0, math.inf),
        complex(0.0, -math.inf),
        complex(0.0, math.nan),
    ],
)
def test_non_finite_value_refused(value):
    with pytest.raises(DomainError, match="value must be finite"):
        EvalResult(value, 0.0, 0, "m")


@pytest.mark.parametrize("err_bound", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
def test_bad_err_bound_refused(err_bound):
    with pytest.raises(DomainError, match="err_bound must be finite and >= 0"):
        EvalResult(1.0, err_bound, 0, "m")


def test_negative_effort_refused():
    with pytest.raises(DomainError, match="effort must be >= 0"):
        EvalResult(1.0, 0.0, -1, "m")


def test_edge_values_accepted():
    assert EvalResult(-0.0, 0.0, 0, "m").err_bound == 0.0
    assert EvalResult(complex(1e308, -1e308), 1e308, 10**9, "m").effort == 10**9
    assert EvalResult(5e-324, 5e-324, 0, "").value == 5e-324


def test_copy_and_pickle_round_trip():
    import copy
    import pickle

    r = EvalResult(complex(1.0, -2.0), 3e-16, 7, "series")
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin is not r
