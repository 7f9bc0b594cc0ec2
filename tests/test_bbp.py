"""Unit tests for BBP-type sums and hexadecimal digit extraction.

The digit oracle is computed with mpmath at >= 220 decimal digits (test-time
only; the library itself never depends on mpmath).
"""

import itertools
import math
import os
import random
import signal
import threading
import time
from fractions import Fraction

import mpmath
import pytest

from tetralog import bbp
from tetralog.bbp import (
    _BATCH_BITS,
    _GUARD_HEX,
    _PATTERN,
    BBPFormula,
    REGISTRY,
    closed_form_value,
    eval_bbp_sum,
    extract_hex_digits,
    li3_binomial_sums,
)
from tetralog.errors import ConvergenceError, DomainError, PrecisionError

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
            bbp._constant("no-such-constant")

    def test_tol_below_double_precision_is_a_convergence_failure(self):
        # the fixed-point sum loses ~1e-22, but its rounding to a double ~1e-16
        with pytest.raises(ConvergenceError):
            eval_bbp_sum(REGISTRY["pi-degree1"], 1e-30)


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

    def test_position_and_count_must_be_integers(self):
        f = REGISTRY["pi-degree1"]
        for position, count in [(1000.0, 8), (10, 8.0), (True, 8), (10, True), ("10", 8)]:
            with pytest.raises(DomainError, match="integer"):
                extract_hex_digits(f, position, count)

    def test_validation(self):
        f = REGISTRY["pi-degree1"]
        with pytest.raises(DomainError):
            extract_hex_digits(f, -1, 4)
        with pytest.raises(DomainError):
            extract_hex_digits(f, 0, 0)
        with pytest.raises(DomainError):
            extract_hex_digits(f, 0, 17)


def per_term_head(f: BBPFormula, position: int, bits: int) -> int:
    """The head j <= position with one modular power and one floor per term,
    summed mod 2^bits."""
    acc = 0
    for k, a in enumerate(f.coeffs, start=1):
        if a:
            for j in range(position + 1):
                d = (8 * j + k) ** f.degree
                acc += a * ((pow(16, position - j, d) << bits) // d)
    return acc % (1 << bits)


def head_part(f: BBPFormula, position: int, bits: int, part: int = 0, parts: int = 1) -> int:
    """``_head_part`` for f at position: with the defaults, the whole batched
    head mod 2^bits."""
    return bbp._head_part((f.degree, position + 1, bits, *f.coeffs), part, parts)


def per_term_hex_digits(f: BBPFormula, position: int, count: int) -> str:
    """The extraction with one modular power per head term: the reference that
    the batched head must reproduce digit for digit, PrecisionError included."""
    if all(a == 0 for a in f.coeffs):
        return "0" * count
    bits = 4 * (count + _GUARD_HEX)
    one = 1 << bits
    acc = per_term_head(f, position, bits)
    floors = 0
    s = f.degree
    for k, a in enumerate(f.coeffs, start=1):
        if not a:
            continue
        n = position + 1
        j = position + 1
        while True:
            d = ((8 * j + k) ** s) << (4 * (j - position))
            t = one // d
            if t == 0:
                break
            acc += a * t
            n += 1
            j += 1
        # each floor, times a, drops less than |a| units
        floors += abs(a) * n
    acc %= one
    guard_bits = 4 * _GUARD_HEX
    unit = 1 << guard_bits
    slack = floors + (unit >> 20)
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


def rule_cuts(f: BBPFormula, k: int, limit: int) -> list[int]:
    """Class k's batch ends j1 <= limit, by the partition rule read term by
    term: a batch takes terms while the sum of degree * bit_length(8j + k)
    over them stays within _BATCH_BITS, and takes at least one."""
    ends, room = [], _BATCH_BITS
    for j in range(limit + 1):
        cost = f.degree * (8 * j + k).bit_length()
        if cost > room and room < _BATCH_BITS:
            ends.append(j)
            room = _BATCH_BITS
        room -= cost
    return ends


def boundary_positions(f: BBPFormula, k: int) -> list[int]:
    """Positions below 1500 with position + 1 at an end of class k's batches
    of more than two terms, or one off: the first for each (batch width,
    offset of position + 1 in the batch)."""
    ends = rule_cuts(f, k, 1501)
    seen, positions = set(), []
    for j0, j1 in zip([0, *ends], ends):
        w = j1 - j0
        for position in range(max(j0, 1), min(j1, 1500)):
            case = (w, (position + 1 - j0) % w)
            if w > 2 and case[1] in (0, 1, w - 1) and case not in seen:
                seen.add(case)
                positions.append(position)
    return positions


FORMULAS = sorted(REGISTRY)
# exact at position 0: the only term is 1/1, so the guard digits are all zero
EXACT_AT_ZERO = BBPFormula(degree=40, coeffs=(1, 0, 0, 0, 0, 0, 0, 0), scale=1.0)
# under the rule each term from j = 1 on costs 128 * bit_length(8j + 1) >= 512
# bits, and the first one less, so every batch holds one term
ONE_TERM_BATCHES = BBPFormula(degree=128, coeffs=(1, 0, 0, 0, 0, 0, 0, 0), scale=1.0)


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
        # position + 1 at an end of the first residue's batches, or one off
        f = REGISTRY[name]
        k = 1 + next(i for i, a in enumerate(f.coeffs) if a)
        positions = boundary_positions(f, k)
        for position in positions:
            self.assert_same(f, position, 8)
        assert len(positions) >= 6

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


def exact_head(f: BBPFormula, position: int, bits: int) -> Fraction:
    """2^bits times the sum of the head terms' fractional parts, exactly."""
    total = Fraction(0)
    for k, a in enumerate(f.coeffs, start=1):
        if a:
            ds = [(8 * j + k) ** f.degree for j in range(position + 1)]
            den = math.prod(ds)
            num = sum((pow(16, position - j, d) << bits) * (den // d) for j, d in enumerate(ds))
            total += a * Fraction(num, den)
    return total


def centred(x, bits: int):
    """x mod 2^bits, taken in [-2^(bits - 1), 2^(bits - 1))."""
    half = 1 << (bits - 1)
    return (x + half) % (1 << bits) - half


class TestHeadFloors:
    """One floor per batch: the head is within the |a|-weighted floor count of
    the per-term sum and of the exact one, mod 2^bits, and the carry test's
    slack covers the floors."""

    BITS = 4 * (8 + _GUARD_HEX)

    def batches(self, f, position, k):
        # the ends before position + 1 cut the head's terms into one more batch
        return len(rule_cuts(f, k, position)) + 1

    def assert_near_per_term(self, f, position):
        # per class, the two sums are a times (per-term floor losses) minus a
        # times (per-batch floor losses), so within |a| (position + 1)
        bound = sum(abs(a) for a in f.coeffs) * (position + 1)
        head = head_part(f, position, self.BITS)
        assert abs(centred(head - per_term_head(f, position, self.BITS), self.BITS)) < bound

    def assert_near_exact(self, f, position):
        # each batch's floor loses a fraction in [0, 1), times a: checked for
        # the whole head and for each residue class alone
        classes = [
            tuple(a if i == k else 0 for i in range(8)) for k, a in enumerate(f.coeffs) if a
        ]
        for coeffs in [f.coeffs, *classes]:
            g = BBPFormula(f.degree, coeffs, 1.0)
            losses = [a * self.batches(g, position, k) for k, a in enumerate(coeffs, 1) if a]
            lo = sum(x for x in losses if x < 0)
            hi = sum(x for x in losses if x > 0)
            head = head_part(g, position, self.BITS)
            assert lo <= centred(exact_head(g, position, self.BITS) - head, self.BITS) <= hi

    @pytest.mark.parametrize("name", FORMULAS)
    def test_seeded_positions(self, name):
        rng = random.Random(f"head-floors-{name}")
        for position in [rng.randint(0, 6000) for _ in range(6)]:
            self.assert_near_per_term(REGISTRY[name], position)
        for position in [rng.randint(0, 400) for _ in range(4)]:
            self.assert_near_exact(REGISTRY[name], position)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_positions_at_batch_boundaries(self, name):
        # position + 1 at an end of the batches, or one off
        f = REGISTRY[name]
        positions = boundary_positions(f, 1)
        for position in positions:
            self.assert_near_per_term(f, position)
            if position <= 400:
                self.assert_near_exact(f, position)
        assert len(positions) >= 6

    def test_carry_test_is_sound_with_two_guard_digits(self, monkeypatch):
        # with 2^8 units of guard the slack, sum |a| * floors, decides most
        # outcomes: whatever digits come back must still be the true ones
        monkeypatch.setattr(bbp, "_GUARD_HEX", 2)
        for name in FORMULAS:
            f = REGISTRY[name]
            want = oracle_hex_digits(f, 0, 160)
            returned = 0
            for position in range(150):
                try:
                    got = extract_hex_digits(f, position, 8)
                except PrecisionError:
                    continue
                assert got == want[position : position + 8], (name, position)
                returned += 1
            assert returned >= 20, name

    def test_width_one_batches(self):
        for position in (0, 1, 7, 64, 100, 250):
            self.assert_near_per_term(EXACT_AT_ZERO, position)
            self.assert_near_exact(EXACT_AT_ZERO, position)
        # term 64 is a batch of its own
        assert {64, 65} <= set(rule_cuts(EXACT_AT_ZERO, 1, 65))
        # every batch a single term: each floor is the per-term one
        assert rule_cuts(ONE_TERM_BATCHES, 1, 251) == list(range(1, 252))
        head = head_part(ONE_TERM_BATCHES, 250, self.BITS)
        assert head == per_term_head(ONE_TERM_BATCHES, 250, self.BITS)


def fresh_tables(monkeypatch):
    """Empty batch ends, tables and powers, as in a new process."""
    monkeypatch.setattr(bbp, "_ENDS", {})
    monkeypatch.setattr(bbp, "_TABLES", {})
    monkeypatch.setattr(bbp, "_POWERS", {})


def assert_stored_powers():
    """Each part's powers are rows for a prefix of its stored batches, row q
    holding 16^(2^k) mod den of batch q for k = 7 .. bit_length(bound) - 1;
    16^(2^7) = 2^_BATCH_BITS."""
    assert 16 ** 2**7 == 2**_BATCH_BITS
    for key, powers in bbp._POWERS.items():
        table = bbp._TABLES[key]
        assert 0 < len(powers) <= len(table), key
        high = (bbp._TABLE_SPAN // key[0]).bit_length()
        for (_, den), row in zip(table, powers):
            assert row == tuple(pow(16, 2**k, den) for k in range(7, high)), key


def kept_ends(f: BBPFormula, k: int) -> list[int]:
    return list(bbp._ENDS.get((f.degree, k), ()))


def spy_batches(monkeypatch) -> list[tuple[int, int, int]]:
    """The (k, j0, j1) of each batch built from now on in this process."""
    built, batch = [], bbp._batch

    def spied(s, k, j0, j1):
        built.append((k, j0, j1))
        return batch(s, k, j0, j1)

    monkeypatch.setattr(bbp, "_batch", spied)
    return built


CLASSES = [k for k, a in enumerate(_PATTERN, start=1) if a]


def owner(f: BBPFormula, k: int, j0: int, parts: int) -> int:
    """The part that owns class k's batch starting at j0: batch i of the c-th
    nonzero class goes to part (i + c) % parts."""
    i = len(rule_cuts(f, k, j0))  # the ends up to j0 close batches 0 .. i - 1
    return (i + CLASSES.index(k)) % parts


class TestTables:
    """Each class's batch ends and full batches, kept across extractions up
    to a bound: a warm extraction gives what a fresh one does, outcome for
    outcome."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 40, 128])
    def test_cuts_follow_the_rule(self, degree):
        f = BBPFormula(degree, _PATTERN, 1.0)
        for k in range(1, 9):
            ends = rule_cuts(f, k, 5000)
            assert list(itertools.islice(bbp._cuts(degree, k, 0), len(ends))) == ends
            for i in (3, len(ends) // 2):
                after = list(itertools.islice(bbp._cuts(degree, k, ends[i]), 5))
                assert after == ends[i + 1 : i + 6]

    @pytest.mark.parametrize("name", FORMULAS)
    def test_warm_extractions_match_fresh_ones(self, monkeypatch, name):
        # a bound at 900 / 450 / 300 positions for degree 1 / 2 / 3 puts
        # positions past it within the per-term reference's reach
        span = 900
        monkeypatch.setattr(bbp, "_TABLE_SPAN", span)
        fresh_tables(monkeypatch)
        f = REGISTRY[name]
        bound = span // f.degree
        ends = rule_cuts(f, 1, bound)
        positions = [
            1,
            ends[2] - 1,  # position + 1 a stored end
            ends[2],
            ends[-1] - 2,
            ends[-1] - 1,  # the last stored end
            bound - 1,
            bound,  # past the bound
            bound + 37,
            3 * bound,
        ]
        # each position is read three times: the first pass stores batches,
        # the second reads them back and builds their powers, and the third
        # reads every stored batch through its powers, building none
        squared = []
        squares = bbp._squares
        monkeypatch.setattr(bbp, "_squares", lambda *args: squared.append(args) or squares(*args))
        for read, position in enumerate([*positions, *positions[::-1], *positions]):
            if read == 2 * len(positions):
                squared.clear()
            warm = _outcome(extract_hex_digits, f, position, 8)
            kept = bbp._ENDS, bbp._TABLES, bbp._POWERS
            fresh_tables(monkeypatch)
            fresh = _outcome(extract_hex_digits, f, position, 8)
            bbp._ENDS, bbp._TABLES, bbp._POWERS = kept
            assert warm == fresh == _outcome(per_term_hex_digits, f, position, 8), position
        assert squared == []
        assert bbp._POWERS[f.degree, 1, 0, 1]
        assert_stored_powers()
        # the ends reach the bound and no further; the serial tables hold every
        # full batch up to it, and a split's tables here only part 0's
        for k in CLASSES:
            full = rule_cuts(f, k, bound)
            assert kept_ends(f, k) == full
            assert len(bbp._TABLES[f.degree, k, 0, 1]) == len(full)
        for (s, k, r, parts), table in bbp._TABLES.items():
            full = rule_cuts(f, k, bound)
            owned = range(r, len(full), parts)
            assert 0 < len(table) <= len(owned)
            for i, stored in zip(owned, table):
                j0 = full[i - 1] if i else 0
                num, den = bbp._batch(s, k, j0, full[i])
                assert stored == (num % den, den)
                assert parts == 1 or owner(f, k, j0, parts) == 0

    def test_tables_stop_at_the_bound(self, monkeypatch):
        fresh_tables(monkeypatch)
        f = REGISTRY["eq2.37-sum"]
        bound = bbp._TABLE_SPAN // 3
        assert bound == 65536
        n = bound + 2000
        ends, full = bbp._ends(3, 1, n)
        assert list(ends) == [*rule_cuts(f, 1, n - 1), n]
        assert kept_ends(f, 1) == rule_cuts(f, 1, bound)
        assert full == len(rule_cuts(f, 1, bound))
        assert list(bbp._ENDS) == [(3, 1)]
        head = bbp._head_part((3, n, 52, 1, 0, 0, 0, 0, 0, 0, 0), 0, 1)
        assert list(bbp._TABLES) == [(3, 1, 0, 1)]
        assert len(bbp._TABLES[3, 1, 0, 1]) == full
        # the head built every batch itself, so it built no powers; read
        # back, every stored batch gets its row of ten powers, and the sum
        # it gives is the same
        assert bbp._POWERS == {}
        assert bbp._head_part((3, n, 52, 1, 0, 0, 0, 0, 0, 0, 0), 0, 1) == head
        assert list(bbp._POWERS) == [(3, 1, 0, 1)]
        assert len(bbp._POWERS[3, 1, 0, 1]) == full
        assert {len(row) for row in bbp._POWERS[3, 1, 0, 1]} == {10}

    def test_extraction_past_the_bound(self):
        # degree 3's real bound is 65 536: the head sums the stored batches
        # and builds every one past them
        f = REGISTRY["eq2.37-sum"]
        assert extract_hex_digits(f, 65600, 8) == per_term_hex_digits(f, 65600, 8) == "00FC9B72"

    def test_ownership_does_not_depend_on_the_position(self, monkeypatch):
        # past a bound patched to 900 / degree, at every position and number
        # of parts, each part builds the batches a rule of class and batch
        # index alone gives it, the parts build the head's batches once
        # between them, and they add up to the whole head; warm, a part
        # builds only what no table keeps: the batch cut off at the position
        # and those past the bound
        monkeypatch.setattr(bbp, "_TABLE_SPAN", 900)
        built = spy_batches(monkeypatch)
        for name in FORMULAS:
            f = REGISTRY[name]
            bound = 900 // f.degree
            for position in (0, 77, 2000, 1999, bound - 1, bound):
                n = position + 1
                head = {(k, j0) for k in CLASSES for j0 in [0, *rule_cuts(f, k, position)]}
                fresh_tables(monkeypatch)
                whole = head_part(f, position, 52)
                for parts in (2, 3):
                    sums = []
                    for warm in (False, True):
                        seen = []
                        for part in range(parts):
                            built.clear()
                            sums.append(head_part(f, position, 52, part, parts))
                            for k, j0, j1 in built:
                                assert owner(f, k, j0, parts) == part, (name, position, k, j0)
                                if warm:
                                    assert j1 == n and j1 not in rule_cuts(f, k, n) or j1 > bound
                            seen += [(k, j0) for k, j0, _ in built]
                        if not warm:
                            assert sorted(seen) == sorted(head), (name, position, parts)
                    assert sum(sums[:parts]) % (1 << 52) == whole
                    assert sums[parts:] == sums[:parts]

    def test_growth_replaces_the_tables(self, monkeypatch):
        fresh_tables(monkeypatch)
        f = REGISTRY["eq2.35-sum"]
        snapshots = []
        for position in (300, 100, 900, 901, 2000, 2000):
            for kept in (bbp._ENDS, bbp._TABLES, bbp._POWERS):
                snapshots.append((kept, dict(kept)))
            extract_hex_digits(f, position, 8)
        latest = bbp._ENDS, bbp._TABLES, bbp._POWERS
        for i, (kept, copy) in enumerate(snapshots):
            assert kept == copy
            for key, table in kept.items():
                assert latest[i % 3][key][: len(table)] == table
        # position 100 grew no ends and no table, but read stored batches back
        # and built their powers
        assert snapshots[6][0] is snapshots[3][0]
        assert snapshots[7][0] is snapshots[4][0]
        assert not snapshots[5][0] and snapshots[8][0]
        assert_stored_powers()

    def test_exponents_past_the_stored_bits_take_pow(self, monkeypatch):
        # past a bound patched to 900 / degree, with every stored batch's
        # powers built, a stored batch whose exponent n - j1 has more bits
        # than its powers cover takes pow, and one whose exponent fits does not
        monkeypatch.setattr(bbp, "_TABLE_SPAN", 900)
        monkeypatch.setattr(bbp, "_MIN_PART", 10**9)  # serial, so this process sums every batch
        monkeypatch.setattr(bbp, "_MIN_WARM_PART", 10**9)
        powered = []
        spy = lambda *args: powered.append(args) or pow(*args)  # noqa: E731
        monkeypatch.setattr(bbp, "pow", spy, raising=False)
        for name in FORMULAS:
            f = REGISTRY[name]
            bound = 900 // f.degree
            high = bound.bit_length()
            fresh_tables(monkeypatch)
            for _ in range(2):
                extract_hex_digits(f, bound, 8)
            for position in (2**high + bound // 2, 3 * bound):
                powered.clear()
                assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
                stored = {den for table in bbp._TABLES.values() for _, den in table}
                past = [e for _, e, den in powered if den in stored]
                assert min(past) >= 2**high, (name, position)
                if position == 3 * bound:  # no stored batch's exponent fits
                    assert len(past) == len(stored), name
                else:  # the early batches' exponents do not, the later ones' do
                    assert 0 < len(past) < len(stored), name
            assert_stored_powers()


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(
    CPUS < 2 or not hasattr(os, "fork"), reason="the head splits only with fork and 2+ CPUs"
)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shutdown_workers():
    """Stop this process's head workers, so that the next split forks new ones."""
    from tetralog import forked

    forked.shutdown()


def worker_pids() -> list[int]:
    from tetralog import forked

    return [pid for pid, _, _ in forked._workers]


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


def warm_workers(position: int) -> int:
    """The workers a split at position forks once the tables hold batches."""
    return min(CPUS, position // bbp._MIN_WARM_PART) - 1


def always_split(monkeypatch):
    """Let every extraction split its head: one position per part is enough."""
    monkeypatch.setattr(bbp, "_MIN_PART", 1)
    monkeypatch.setattr(bbp, "_MIN_WARM_PART", 1)


def split_head_part(monkeypatch, in_parent, in_child):
    """Make ``_head_part`` run ``in_parent`` in this process and ``in_child``
    in the forked workers."""
    parent = os.getpid()
    monkeypatch.setattr(
        bbp,
        "_head_part",
        lambda *args: (in_parent if os.getpid() == parent else in_child)(*args),
    )


class TestForkedHead:
    """The head split into parts, all but one summed in long-lived forked
    workers, gives the per-term reference's output; the workers are forked
    once per process, and leave no process behind."""

    @pytest.fixture(autouse=True)
    def fresh_workers(self):
        # each test forks its own workers, after its patches, and leaves none
        shutdown_workers()
        yield
        shutdown_workers()

    @pytest.mark.parametrize("name", FORMULAS)
    def test_parts_recombine(self, name):
        f = REGISTRY[name]
        for position in (0, 1, 77, 3001):
            for bits in (52, 112):
                whole = head_part(f, position, bits)
                for parts in range(1, 5):
                    split = sum(head_part(f, position, bits, i, parts) for i in range(parts))
                    assert split % (1 << bits) == whole, (position, bits, parts)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_either_side_of_the_switch(self, monkeypatch, name, forks):
        # a process's first extraction splits from 2 * _MIN_PART on; once the
        # tables hold batches, one splits from 2 * _MIN_WARM_PART on
        f = REGISTRY[name]
        for least, cold in ((bbp._MIN_PART, True), (bbp._MIN_WARM_PART, False)):
            for position in (2 * least - 1, 2 * least):
                if cold:
                    fresh_tables(monkeypatch)
                else:
                    extract_hex_digits(f, 100, 8)
                shutdown_workers()
                made = len(forks)
                assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
                assert len(forks) - made == min(CPUS, position // least) - 1, (position, cold)
        shutdown_workers()
        assert_no_children()

    @needs_two_cpus
    @pytest.mark.parametrize("name", FORMULAS)
    @pytest.mark.parametrize("position", [6000, 9999])
    def test_splits_above_the_mid_band(self, monkeypatch, forks, name, position):
        # a process's first extraction splits from position 6000 on, above
        # the 2000-5000 band the benchmark's digits-deep.mid extracts in,
        # and keeps the serial digits
        f = REGISTRY[name]
        fresh_tables(monkeypatch)
        split = extract_hex_digits(f, position, 8)
        assert forks
        monkeypatch.setattr(bbp, "_MIN_PART", position + 1)
        monkeypatch.setattr(bbp, "_MIN_WARM_PART", position + 1)
        made = len(forks)
        assert extract_hex_digits(f, position, 8) == split
        assert len(forks) == made

    @needs_two_cpus
    def test_caller_builds_no_batch_a_worker_owns(self, monkeypatch, forks):
        # at every position the caller builds and keeps only part 0's batches;
        # the workers, forked by the first split, build theirs
        built = spy_batches(monkeypatch)
        always_split(monkeypatch)
        fresh_tables(monkeypatch)
        for f in [REGISTRY[name] for name in FORMULAS]:
            for position in (64, 2000, 700, 2001):
                parts = bbp._part_count(position)
                assert parts == CPUS
                built.clear()
                assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
                assert built or position == 700
                for k, j0, _ in built:
                    assert owner(f, k, j0, parts) == 0, (f.degree, position, k, j0)
        for s, k, r, parts in bbp._TABLES:
            assert parts == CPUS
            assert (r + CLASSES.index(k)) % parts == 0  # batch r's owner, part 0
        assert len(forks) == CPUS - 1
        shutdown_workers()
        assert_no_children()

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(bbp, "_TABLES", {})
        assert bbp._part_count(0) == 1
        assert bbp._part_count(2 * bbp._MIN_PART - 1) == 1
        assert bbp._part_count(2 * bbp._MIN_PART) == min(CPUS, 2)
        assert bbp._part_count(10**9) == CPUS
        extract_hex_digits(REGISTRY["pi-degree1"], 100, 8)  # the tables now hold batches
        assert bbp._TABLES
        assert bbp._part_count(2 * bbp._MIN_WARM_PART - 1) == 1
        assert bbp._part_count(2 * bbp._MIN_WARM_PART) == min(CPUS, 2)
        assert bbp._part_count(10**9) == CPUS

    @needs_two_cpus
    def test_forced_split_matches_reference(self, monkeypatch, forks):
        always_split(monkeypatch)
        for f in [REGISTRY[name] for name in FORMULAS] + [EXACT_AT_ZERO]:
            for position in (1, 7, 64, 333, 2000):
                for count in (1, 8, 16):
                    want = _outcome(per_term_hex_digits, f, position, count)
                    assert _outcome(extract_hex_digits, f, position, count) == want
        assert forks
        shutdown_workers()
        assert_no_children()

    @needs_two_cpus
    def test_forked_parts_add_up_to_the_serial_head(self, monkeypatch, forks):
        from tetralog.forked import forked_sum

        monkeypatch.setattr(bbp, "_MIN_PART", 1)
        bits = 4 * (8 + _GUARD_HEX)
        for f in [REGISTRY[name] for name in FORMULAS] + [EXACT_AT_ZERO]:
            for position in (2, 64, 2000):
                fresh_tables(monkeypatch)
                parts = bbp._part_count(position)
                assert parts == min(CPUS, position)
                split = forked_sum(
                    lambda args, i, n: head_part(f, args[0], bits, i, n), (position,), parts
                )
                assert split % (1 << bits) == head_part(f, position, bits)
        assert forks
        shutdown_workers()
        assert_no_children()

    @needs_two_cpus
    @pytest.mark.parametrize("failure", ["raises", "exits-unwritten", "exits-nonzero"])
    def test_failed_child_part_is_recomputed(self, monkeypatch, forks, failure):
        parent, real_write = os.getpid(), os.write

        def fail(*args):
            if failure == "raises":
                raise RuntimeError("worker failed")
            os._exit(0)

        def short_write(fd, data):
            if os.getpid() != parent:  # a worker: half its answer, then a non-zero exit
                real_write(fd, data[:2])
                os._exit(3)
            return real_write(fd, data)

        always_split(monkeypatch)
        if failure == "exits-nonzero":
            monkeypatch.setattr(os, "write", short_write)
        else:
            split_head_part(monkeypatch, bbp._head_part, fail)
        f = REGISTRY["eq2.37-sum"]
        for position in (64, 2000, 64):
            assert extract_hex_digits(f, position, 8) == per_term_hex_digits(f, position, 8)
            assert worker_pids() == []  # the failed worker has been reaped
        assert len(forks) == 3 * (CPUS - 1)
        assert_no_children()

    @needs_two_cpus
    def test_fork_failure_computes_in_process(self, monkeypatch):
        def no_fork():
            raise OSError("no process")

        always_split(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        f = REGISTRY["pi-degree1"]
        assert extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)
        assert worker_pids() == []

    @needs_two_cpus
    def test_ignored_sigchld(self, monkeypatch, forks):
        # the workers answer as ever; the kernel reaps them once stopped
        always_split(monkeypatch)
        before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            f = REGISTRY["eq2.35-sum"]
            assert extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)
            assert extract_hex_digits(f, 1999, 8) == per_term_hex_digits(f, 1999, 8)
            shutdown_workers()
        finally:
            signal.signal(signal.SIGCHLD, before)
        assert forks
        assert_no_children()

    def test_running_thread_keeps_it_serial(self, monkeypatch, forks):
        always_split(monkeypatch)
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

        always_split(monkeypatch)
        split_head_part(monkeypatch, interrupted, lambda *args: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            extract_hex_digits(REGISTRY["pi-degree1"], 100, 8)
        assert worker_pids() == []  # the worker left computing was killed and reaped
        shutdown_workers()
        assert time.monotonic() - t0 < 30
        assert forks
        assert_no_children()

    @needs_two_cpus
    def test_workers_live_until_shutdown(self, forks):
        f = REGISTRY["eq2.35-sum"]
        extract_hex_digits(f, 100, 8)
        assert extract_hex_digits(f, 2500, 8) == per_term_hex_digits(f, 2500, 8)
        pids = worker_pids()
        assert len(pids) == warm_workers(2500)
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # a live child: the worker
        shutdown_workers()
        assert_no_children()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @needs_two_cpus
    def test_repeated_extractions_fork_once_per_process(self, monkeypatch, forks):
        # the first split forks the workers, and they serve every later one,
        # whether it grows the tables or not, to positions far apart
        fresh_tables(monkeypatch)
        f = REGISTRY["pi-degree1"]
        extract_hex_digits(f, 100, 8)
        pids = []
        for position in (2500, 3000, 2999, 1200, 3500, 8000, 20000, 40000, 20001):
            split = extract_hex_digits(f, position, 8)
            with monkeypatch.context() as serial:
                serial.setattr(bbp, "_MIN_WARM_PART", position + 1)
                assert extract_hex_digits(f, position, 8) == split, position
            if position <= 3500 or position == 20001:
                assert split == per_term_hex_digits(f, position, 8), position
            pids = pids or worker_pids()
            assert worker_pids() == pids
        assert len(pids) == len(forks) == CPUS - 1
        shutdown_workers()
        for pid in pids:  # the stopped workers have been reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @needs_two_cpus
    def test_split_and_serial_agree_at_the_bound(self, monkeypatch, forks):
        # on eq2.37-sum at its real bound of 65 536 and on every formula at a
        # bound patched to 900 / degree, where the per-term reference reaches,
        # a split extraction, warm or fresh, gives the serial one's outcome
        def outcomes(f, positions):
            out = []
            for position in positions:
                split = _outcome(extract_hex_digits, f, position, 8)
                with monkeypatch.context() as serial:
                    serial.setattr(bbp, "_MIN_WARM_PART", position + 1)
                    out.append((split, _outcome(extract_hex_digits, f, position, 8)))
            return out

        f = REGISTRY["eq2.37-sum"]
        extract_hex_digits(f, 100, 8)
        for split, serial in outcomes(f, (65534, 65535, 65536, 65537)):
            assert split == serial
        monkeypatch.setattr(bbp, "_TABLE_SPAN", 900)
        for name in FORMULAS:
            f = REGISTRY[name]
            bound = 900 // f.degree
            positions = [bound - 1, bound, bound + 1, 3 * bound, bound - 1]
            fresh_tables(monkeypatch)
            extract_hex_digits(f, 1, 8)
            always_split(monkeypatch)
            for position, (split, serial) in zip(positions, outcomes(f, positions)):
                assert split == serial == _outcome(per_term_hex_digits, f, position, 8)
        assert len(forks) == CPUS - 1
        shutdown_workers()
        assert_no_children()

    @needs_two_cpus
    @pytest.mark.parametrize("fork_hooks", [True, False])
    def test_forked_copy_never_writes_to_the_pipes(self, monkeypatch, fork_hooks):
        # a copy of the owner, forked with os.fork (whose hooks close its
        # copies of the pipes) or by means that run no hooks (here: the
        # owner's pipes put back in the copy's list), forks workers of its own
        from tetralog import forked

        f = REGISTRY["eq2.37-sum"]
        extract_hex_digits(f, 100, 8)
        want = extract_hex_digits(f, 2400, 8)
        owned = list(forked._workers)
        pipes = {os.fstat(fd).st_ino for _, *fds in owned for fd in fds}
        copies = [(pid, os.dup(requests), os.dup(answers)) for pid, requests, answers in owned]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                used = set()
                real_write, real_read = os.write, os.read

                def spied(real):
                    return lambda fd, data: (used.add(os.fstat(fd).st_ino), real(fd, data))[1]

                os.write, os.read = spied(real_write), spied(real_read)
                if not (forked._workers == [] and forked._owner != os.getpid()):
                    os._exit(2)
                if not fork_hooks:
                    forked._workers[:] = copies
                ok = extract_hex_digits(f, 2000, 8) == per_term_hex_digits(f, 2000, 8)
                ok = ok and extract_hex_digits(f, 2400, 8) == want
                mine = forked._workers and worker_pids()[0] not in {pid for pid, _, _ in owned}
                forked.shutdown()
                code = 0 if ok and mine and not used & pipes else 3
            finally:
                os._exit(code)
        for _, *fds in copies:
            for fd in fds:
                os.close(fd)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked copy did not finish")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        # the owner's workers are those it forked, with nothing left in their pipes
        assert forked._workers == owned
        for _, _, answers in owned:
            os.set_blocking(answers, False)
            try:
                with pytest.raises(BlockingIOError):
                    os.read(answers, 1)
            finally:
                os.set_blocking(answers, True)
        assert extract_hex_digits(f, 2400, 8) == want

    @needs_two_cpus
    def test_fresh_interpreter_leaves_no_worker(self):
        # a process that splits keeps its workers until it exits, and no longer
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(bbp.__file__))
        code = (
            "from tetralog import bbp, forked; f = bbp.REGISTRY['pi-degree1']; "
            "bbp.extract_hex_digits(f, 100, 8); bbp.extract_hex_digits(f, 2500, 8); "
            "print(*(pid for pid, _, _ in forked._workers))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == warm_workers(2500)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


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


def one_class(k: int, s: int) -> BBPFormula:
    """sum_j 16^-j / (8j + k)^s, as the ledger's eq2.39 and eq2.40 read it."""
    return BBPFormula(s, tuple(int(i == k) for i in range(1, 9)), 1.0)


SUMS = {name: REGISTRY[name] for name in FORMULAS} | {
    f"k{k}-s{s}": one_class(k, s) for k in (1, 4, 5, 6) for s in (1, 2, 3)
}


class TestHonestBounds:
    """Every err_bound holds against 40-digit mpmath."""

    @pytest.mark.parametrize("name", SUMS)
    def test_pure_sum_is_correctly_rounded(self, name):
        f = SUMS[name]
        r = eval_bbp_sum(f)
        with mpmath.workdps(40):
            assert r.value == float(mp_pure_sum(f))
        assert r.err_bound <= 1e-15 * max(1.0, abs(r.value))

    @pytest.mark.parametrize("name", SUMS)
    def test_fixed_point_loss(self, name):
        # the floors and the terms left out cost less than the units counted
        f = SUMS[name]
        acc, floors, _ = bbp._fixed_sum(f, 0, bbp._SUM_BITS, 0)
        with mpmath.workdps(60):
            loss = abs(mp_pure_sum(f) * 2**bbp._SUM_BITS - acc)
            assert loss <= floors + mpmath.mpf(16) / 15 * sum(map(abs, f.coeffs))

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
        c = bbp._constant(name)
        with mpmath.workdps(40):
            assert mp_error(c.value, exact()) <= c.err_bound


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

    def test_make_and_replace_validate(self):
        # a named tuple's own _make, and with it _replace, skip __new__'s checks
        with pytest.raises(DomainError, match="integer >= 1"):
            PI_FORMULA._replace(degree=2.5)
        with pytest.raises(DomainError, match="integer >= 1"):
            BBPFormula._make((0, (1,), 1.0, ()))
        with pytest.raises(DomainError, match="one entry per residue class"):
            PI_FORMULA._replace(coeffs=(1,))
        made = PI_FORMULA._replace(degree=2, scale=0.25)
        assert made == BBPFormula(2, PI_FORMULA.coeffs, 0.25)
        assert type(made) is BBPFormula
        assert BBPFormula._make(PI_FORMULA) == PI_FORMULA

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        for f in REGISTRY.values():
            for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert twin == f
                assert type(twin) is BBPFormula


@pytest.mark.parametrize(
    ("name", "value", "err_bound"),
    [
        ("eq2.35-sum", "0x1.d4f9713e8135ep-1", "0x1.8488da2de8e80p-52"),
        ("eq2.37-sum", "-0x1.0000000000000p-47", "0x1.b5d276c851fadp-43"),
        ("pi-degree1", "0x1.921fb54442d18p+1", "0x1.8d313b88888a1p-52"),
    ],
    ids=FORMULAS,
)
def test_closed_form_values_are_pinned(name, value, err_bound):
    # the pure sum is the correctly rounded one (TestHonestBounds); the bounds
    # are the radius of the ball sum of the scaled sum and the affine terms,
    # each a product of rounded constants
    r = closed_form_value(REGISTRY[name])
    assert (r.value.hex(), r.err_bound.hex()) == (value, err_bound)


class TestFormulaValidation:
    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            BBPFormula(degree=0, coeffs=(0,) * 8, scale=1.0)

    def test_non_integer_degree_or_coefficient_rejected(self):
        # 2.0 would hash and compare equal to 2, the key of degree 2's tables
        for degree in (2.0, 1.5, True, "2"):
            with pytest.raises(DomainError, match="integer"):
                BBPFormula(degree, _PATTERN, 0.25)
        for coeffs in [(1, 0, 0, 0, 0, 0, 0, 0.5), (4.0, 0, 0, -2, -1, -1, 0, 0), (False,) * 8]:
            with pytest.raises(DomainError, match="integer"):
                BBPFormula(1, coeffs, 1.0)

    def test_wrong_coeff_count_rejected(self):
        with pytest.raises(DomainError):
            BBPFormula(degree=1, coeffs=(1, 2), scale=1.0)

    def test_unsupported_base_rejected(self):
        # base 16 is built in: there is no parameter to ask for another base
        with pytest.raises(TypeError):
            BBPFormula(degree=1, coeffs=(0,) * 8, scale=1.0, base=10)
