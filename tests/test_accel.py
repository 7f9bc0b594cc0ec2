"""The alternating-series accelerator's failure mode."""

import pytest

from tetralog.accel import alternating_sum
from tetralog.errors import ConvergenceError


def test_unstable_series_names_the_order_limit():
    # 3^k grows faster than the Chebyshev weights damp it: no two orders agree
    with pytest.raises(
        ConvergenceError, match=r"^alternating series did not stabilise to 1e-12 by order 120$"
    ):
        alternating_sum(lambda k: 3.0**k)
