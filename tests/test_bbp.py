"""Unit tests for BBP-type sums and hexadecimal digit extraction.

The digit oracle is computed with mpmath at >= 220 decimal digits (test-time
only; the library itself never depends on mpmath).
"""

import math
import os
import random
import signal
import threading
import time

import mpmath
import pytest

from tetralog import bbp
from tetralog.bbp import (
    _BATCH_BITS,
    _GUARD_HEX,
    BBPFormula,
    REGISTRY,
    closed_form_value,
    constant_value,
    eval_bbp_sum,
    extract_hex_digits,
    li3_binomial_sums,
)
from tetralog.errors import DomainError, PrecisionError

CATALAN = 0.91596559417721901505460351493238
# frozen sums of the registry formulas
EQ235_SUM = 3.8087698816932448223223809855952
EQ237_SUM = 3.9563411798932961281790133658832


def oracle_hex_digits(formula: BBPFormula, position: int, count: int) -> str:
    """>= 220-digit direct summation oracle for fractional hex digits."""
    with mpmath.workdps(240):
        total = mpmath.mpf(0)
        for j in range(position + 220):
            inner = mpmath.mpf(0)
            for k, a in enumerate(formula.coeffs, start=1):
                if a:
                    inner += mpmath.mpf(a) / mpmath.mpf(8 * j + k) ** formula.degree
            total += inner / mpmath.mpf(16) ** j
        frac = mpmath.frac(total * mpmath.mpf(16) ** position)
        out = []
        for _ in range(count):
            frac *= 16
            d = int(mpmath.floor(frac))
            out.append(format(d, "X"))
            frac -= d
        return "".join(out)


class TestSums:
    def test_degree2_sum(self):
        assert abs(eval_bbp_sum(REGISTRY["eq2.35-sum"]).value - EQ235_SUM) < 1e-13

    def test_degree3_sum(self):
        assert abs(eval_bbp_sum(REGISTRY["eq2.37-sum"]).value - EQ237_SUM) < 1e-13

    def test_degree1_is_pi(self):
        assert abs(eval_bbp_sum(REGISTRY["pi-degree1"]).value - math.pi) < 1e-13

    def test_closed_form_degree2_is_catalan(self):
        assert abs(closed_form_value(REGISTRY["eq2.35-sum"]).value - CATALAN) < 1e-13

    def test_closed_form_degree3_vanishes(self):
        assert abs(closed_form_value(REGISTRY["eq2.37-sum"]).value) < 1e-12

    def test_zero_coefficients(self):
        z = BBPFormula(degree=2, coeffs=(0,) * 8, scale=1.0)
        assert eval_bbp_sum(z).value == 0.0

    def test_unknown_constant_rejected(self):
        with pytest.raises(DomainError):
            constant_value("no-such-constant")


class TestDigitExtraction:
    def test_pi_leading_digits(self):
        assert extract_hex_digits(REGISTRY["pi-degree1"], 0, 16) == "243F6A8885A308D3"

    def test_positions_match_oracle(self):
        for name in ("eq2.35-sum", "eq2.37-sum", "pi-degree1"):
            f = REGISTRY[name]
            want = oracle_hex_digits(f, 0, 8)
            for p in range(8):
                assert extract_hex_digits(f, p, 1) == want[p], (name, p)

    def test_deep_position_self_consistent(self):
        f = REGISTRY["eq2.37-sum"]
        block = extract_hex_digits(f, 10, 6)
        shifted = extract_hex_digits(f, 11, 5)
        assert block[1:] == shifted

    def test_zero_formula(self):
        z = BBPFormula(degree=2, coeffs=(0,) * 8, scale=1.0)
        assert extract_hex_digits(z, 0, 6) == "000000"

    def test_validation(self):
        f = REGISTRY["pi-degree1"]
        with pytest.raises(DomainError):
            extract_hex_digits(f, -1, 4)
        with pytest.raises(DomainError):
            extract_hex_digits(f, 0, 0)
        with pytest.raises(DomainError):
            extract_hex_digits(f, 0, 17)


def per_term_hex_digits(f: BBPFormula, position: int, count: int) -> str:
    """The extraction with one modular power per head term: the reference that
    the batched head must reproduce digit for digit, PrecisionError included."""
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
        for j in range(position + 1):
            d = (8 * j + k) ** s
            num = pow(16, position - j, d)
            acc += a * ((num << bits) // d)
            n_terms += 1
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
    slack = n_terms + (unit >> 20)
    tail = acc & (unit - 1)
    if tail < slack or unit - tail < slack:
        raise PrecisionError(
            f"carry ambiguity at position {position}: guard digits too close to a boundary"
        )
    return format(acc >> guard_bits, f"0{count}X")


def _outcome(extract, f, position, count):
    try:
        return extract(f, position, count)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


def _batch_width(f: BBPFormula, position: int, k: int) -> int:
    return max(1, _BATCH_BITS // ((8 * position + k) ** f.degree).bit_length())


FORMULAS = sorted(REGISTRY)
# exact at position 0: the only term is 1/1, so the guard digits are all zero
EXACT_AT_ZERO = BBPFormula(degree=40, coeffs=(1, 0, 0, 0, 0, 0, 0, 0), scale=1.0)


class TestBatchedHead:
    """extract_hex_digits against the per-term reference, output for output."""

    def assert_same(self, f, position, count):
        want = _outcome(per_term_hex_digits, f, position, count)
        assert _outcome(extract_hex_digits, f, position, count) == want, (f, position, count)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_seeded_positions(self, name):
        rng = random.Random(f"batched-head-{name}")
        for _ in range(8):
            self.assert_same(REGISTRY[name], rng.randint(0, 6000), rng.randint(1, 16))

    @pytest.mark.parametrize("name", FORMULAS)
    def test_positions_at_batch_boundaries(self, name):
        # position + 1 a multiple of the first residue's batch width, or one off
        f = REGISTRY[name]
        k = 1 + next(i for i, a in enumerate(f.coeffs) if a)
        seen = set()
        for position in range(1, 1500):
            w = _batch_width(f, position, k)
            case = (w, (position + 1) % w)
            if w > 2 and case[1] in (0, 1, w - 1) and case not in seen:
                seen.add(case)
                self.assert_same(f, position, 8)
        assert len(seen) >= 6

    @pytest.mark.parametrize("name", FORMULAS)
    def test_every_count(self, name):
        for count in range(1, 17):
            self.assert_same(REGISTRY[name], 0, count)
            self.assert_same(REGISTRY[name], 333, count)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_deep_position(self, name):
        self.assert_same(REGISTRY[name], 20011, 8)

    def test_same_precision_error(self):
        for count in (1, 8, 16):
            with pytest.raises(PrecisionError):
                extract_hex_digits(EXACT_AT_ZERO, 0, count)
            self.assert_same(EXACT_AT_ZERO, 0, count)
        for position in (1, 7, 64):
            self.assert_same(EXACT_AT_ZERO, position, 8)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(
    CPUS < 2 or not hasattr(os, "fork"), reason="the head splits only with fork and 2+ CPUs"
)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made in this process."""
    made = []
    real_fork = os.fork

    def counted():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def split_head_part(monkeypatch, in_parent, in_child):
    """Make ``_head_part`` run ``in_parent`` in this process and ``in_child``
    in the forked children."""
    parent = os.getpid()
    monkeypatch.setattr(
        bbp,
        "_head_part",
        lambda *args: (in_parent if os.getpid() == parent else in_child)(*args),
    )


class TestForkedHead:
    """The head split into parts, some summed in forked children, gives the
    per-term reference's output and leaves no child behind."""

    @pytest.mark.parametrize("name", FORMULAS)
    def test_parts_recombine(self, name):
        f = REGISTRY[name]
        for position in (0, 1, 77, 3001):
            for bits in (52, 112):
                whole = bbp._head_part(f, position, bits, 0, 1)
                for parts in range(1, 5):
                    split = sum(bbp._head_part(f, position, bits, i, parts) for i in range(parts))
                    assert split % (1 << bits) == whole, (position, bits, parts)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_either_side_of_the_switch(self, name, forks):
        f = REGISTRY[name]
        switch = 2 * bbp._MIN_PART
        for position in (switch - 1, switch):
            made = len(forks)
            assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
            assert len(forks) - made == min(CPUS, position // bbp._MIN_PART) - 1
            assert_no_children()

    def test_part_count(self):
        assert bbp._part_count(0) == 1
        assert bbp._part_count(2 * bbp._MIN_PART - 1) == 1
        assert bbp._part_count(2 * bbp._MIN_PART) == min(CPUS, 2)
        assert bbp._part_count(10**9) == CPUS

    @needs_two_cpus
    def test_forced_split_matches_reference(self, monkeypatch, forks):
        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        for f in [REGISTRY[name] for name in FORMULAS] + [EXACT_AT_ZERO]:
            for position in (1, 7, 64, 333, 2000):
                for count in (1, 8, 16):
                    want = _outcome(per_term_hex_digits, f, position, count)
                    assert _outcome(extract_hex_digits, f, position, count) == want
                    assert_no_children()
        assert forks

    @needs_two_cpus
    @pytest.mark.parametrize("failure", ["raises", "exits-unwritten", "exits-nonzero"])
    def test_failed_child_part_is_recomputed(self, monkeypatch, forks, failure):
        def fail(*args):
            if failure == "raises":
                raise RuntimeError("child failed")
            os._exit(0 if failure == "exits-unwritten" else 3)

        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        split_head_part(monkeypatch, bbp._head_part, fail)
        f = REGISTRY["eq2.37-sum"]
        for position in (64, 2000):
            assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
            assert_no_children()
        assert forks

    @needs_two_cpus
    def test_fork_failure_computes_in_process(self, monkeypatch):
        def no_fork():
            raise OSError("no process")

        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        monkeypatch.setattr(os, "fork", no_fork)
        f = REGISTRY["pi-degree1"]
        assert extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)

    @needs_two_cpus
    def test_ignored_sigchld(self, monkeypatch, forks):
        # the children are reaped by the kernel; their parts are recomputed here
        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            f = REGISTRY["eq2.35-sum"]
            assert extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)
        finally:
            signal.signal(signal.SIGCHLD, before)
        assert forks
        assert_no_children()

    def test_running_thread_keeps_it_serial(self, monkeypatch, forks):
        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        thread.start()
        try:
            f = REGISTRY["eq2.35-sum"]
            assert extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    @needs_two_cpus
    def test_interrupt_kills_and_reaps_children(self, monkeypatch, forks):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        split_head_part(monkeypatch, interrupted, lambda *args: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            extract_hex_digits(REGISTRY["pi-degree1"], 100, 8)
        assert time.monotonic() - t0 < 30
        assert forks
        assert_no_children()


def mp_pure_sum(f: BBPFormula):
    """The pure BBP sum to 40 digits; 40 blocks leave a tail below 16^-40."""
    with mpmath.workdps(40):
        return mpmath.fsum(
            mpmath.mpf(a) / mpmath.mpf(8 * j + k) ** f.degree / mpmath.mpf(16) ** j
            for j in range(40)
            for k, a in enumerate(f.coeffs, start=1)
            if a
        )


# what each registry formula's closed form equals
MP_CLOSED_FORMS = {
    "eq2.35-sum": lambda: mpmath.catalan,
    "eq2.37-sum": lambda: mpmath.mpf(0),
    "pi-degree1": lambda: mpmath.pi,
}


def mp_error(value: float, exact) -> float:
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - exact))


class TestHonestBounds:
    """Every err_bound holds against 40-digit mpmath."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-14])
    @pytest.mark.parametrize("name", FORMULAS)
    def test_pure_sum(self, name, tol):
        f = REGISTRY[name]
        r = eval_bbp_sum(f, tol)
        assert mp_error(r.value, mp_pure_sum(f)) <= r.err_bound <= tol

    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-14])
    @pytest.mark.parametrize("name", FORMULAS)
    def test_closed_form(self, name, tol):
        r = closed_form_value(REGISTRY[name], tol)
        with mpmath.workdps(40):
            assert mp_error(r.value, MP_CLOSED_FORMS[name]()) <= r.err_bound

    def test_eval_catalan_eq2_35(self):
        from tetralog.dirichlet import catalan_result

        r = catalan_result("eq2.35")
        with mpmath.workdps(40):
            assert mp_error(r.value, mpmath.catalan) <= r.err_bound < 1e-14

    @pytest.mark.parametrize(
        ("name", "exact"),
        [
            ("pi^2", lambda: mpmath.pi**2),
            ("pi*ln2", lambda: mpmath.pi * mpmath.ln2),
            ("pi^2*ln2", lambda: mpmath.pi**2 * mpmath.ln2),
            ("zeta3", lambda: mpmath.zeta(3)),
            ("im-li3-half-plus-half-i", lambda: mpmath.polylog(3, mpmath.mpc(0.5, 0.5)).imag),
        ],
    )
    def test_affine_constants(self, name, exact):
        value, err = bbp._constant(name)
        assert value == constant_value(name)
        with mpmath.workdps(40):
            assert mp_error(value, exact()) <= err


class TestBinomialSums:
    def test_both_parts(self):
        re_sum, im_sum = li3_binomial_sums()
        ln2 = math.log(2.0)
        zeta3 = 1.2020569031595942853997381615114
        re_ref = ln2**3 / 48.0 - 5.0 / 192.0 * math.pi**2 * ln2 + 35.0 / 64.0 * zeta3
        assert abs(re_sum.value - re_ref) < 1e-12
        assert abs(im_sum.value - 0.5700774070887689781956098) < 1e-12

    def test_bounds_hold(self):
        re_sum, im_sum = li3_binomial_sums()
        with mpmath.workdps(40):
            exact = mpmath.polylog(3, mpmath.mpc(0.5, 0.5))
            assert mp_error(re_sum.value, exact.real) <= re_sum.err_bound
            assert mp_error(im_sum.value, exact.imag) <= im_sum.err_bound


PI_FORMULA = REGISTRY["pi-degree1"]


class TestFormulaRecord:
    """BBPFormula keeps what it had as a frozen dataclass."""

    def test_keyword_and_positional_construction(self):
        terms = (("pi^2", -1 / 32),)
        kw = BBPFormula(degree=2, coeffs=PI_FORMULA.coeffs, scale=1 / 4, affine_terms=terms)
        pos = BBPFormula(2, PI_FORMULA.coeffs, 1 / 4, terms)
        assert kw == pos
        assert (kw.degree, kw.coeffs, kw.scale, kw.affine_terms) == (
            2,
            PI_FORMULA.coeffs,
            0.25,
            terms,
        )
        assert BBPFormula(1, PI_FORMULA.coeffs, 1.0).affine_terms == ()

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError):
            BBPFormula(degree=1, coeffs=PI_FORMULA.coeffs)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PI_FORMULA.degree = 2
        with pytest.raises(AttributeError):
            PI_FORMULA.base = 10
        assert PI_FORMULA.degree == 1

    def test_equality_and_hash_by_value(self):
        same = BBPFormula(degree=1, coeffs=(4, 0, 0, -2, -1, -1, 0, 0), scale=1.0)
        assert same == PI_FORMULA
        assert hash(same) == hash(PI_FORMULA)
        assert len({same, PI_FORMULA}) == 1
        assert PI_FORMULA != BBPFormula(2, PI_FORMULA.coeffs, 1.0)
        assert PI_FORMULA != BBPFormula(1, PI_FORMULA.coeffs, 2.0)

    def test_repr(self):
        assert repr(PI_FORMULA) == (
            "BBPFormula(degree=1, coeffs=(4, 0, 0, -2, -1, -1, 0, 0), scale=1.0, affine_terms=())"
        )


@pytest.mark.parametrize(
    ("name", "value", "err_bound"),
    [
        ("eq2.35-sum", "0x1.d4f9713e8135cp-1", "0x1.075a28107cbf9p-47"),
        ("eq2.37-sum", "-0x1.1800000000000p-43", "0x1.d58791ff54e5dp-40"),
        ("pi-degree1", "0x1.921fb54442d14p+1", "0x1.c8526b5592302p-44"),
    ],
    ids=FORMULAS,
)
def test_closed_form_values_are_pinned(name, value, err_bound):
    # the values the registry gave when its scales and coefficients were
    # Fractions; the floats that replaced them are the same numbers.  The
    # bounds are the running rounding bound's and each constant's own.
    r = closed_form_value(REGISTRY[name])
    assert (r.value.hex(), r.err_bound.hex()) == (value, err_bound)


class TestFormulaValidation:
    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            BBPFormula(degree=0, coeffs=(0,) * 8, scale=1.0)

    def test_wrong_coeff_count_rejected(self):
        with pytest.raises(DomainError):
            BBPFormula(degree=1, coeffs=(1, 2), scale=1.0)

    def test_unsupported_base_rejected(self):
        # base 16 is built in: there is no parameter to ask for another base
        with pytest.raises(TypeError):
            BBPFormula(degree=1, coeffs=(0,) * 8, scale=1.0, base=10)
