"""The alternating-series accelerator: its failure mode and its term calls."""

import pytest

from tetralog.accel import alternating_sum
from tetralog.errors import ConvergenceError


def test_unstable_series_names_the_order_limit():
    # 3^k grows faster than the Chebyshev weights damp it: no two orders agree
    with pytest.raises(
        ConvergenceError, match=r"^alternating series did not stabilise to 1e-12 by order 120$"
    ):
        alternating_sum(lambda k: 3.0**k)


def test_each_term_is_evaluated_once():
    # the orders tried share their leading terms, so a higher order only
    # evaluates the terms past the last order's
    calls = []

    def term(k):
        calls.append(k)
        return 1.0 / (2 * k + 1) ** 2

    r = alternating_sum(term)
    assert calls == list(range(r.effort))
