"""Unit tests for the identity check ledger."""

import math

import pytest

from tetralog.errors import DomainError, UnknownCheckError
from tetralog.verify import (
    CATALAN_METHODS,
    TAGS,
    _worst,
    aggregate_pass,
    catalan_value,
    check_ids,
    run_all,
    run_check,
)

CATALAN = 0.91596559417721901505460351493238

# each check's paper anchor and pinned tolerance, as the ledger reports them
PINNED_METADATA = {
    "C1": ("Eq. (1.11)", 1e-10),
    "C2": ("Eq. (4.10)", 1e-9),
    "C3": ("Eq. (4.11)", 1e-10),
    "L1a": ("Eq. (1.2) vs (1.3a)", 1e-12),
    "L1b": ("Eq. (1.3b)", 1e-12),
    "L1c": ("Eq. (1.3c)", 1e-12),
    "L1d": ("Eq. (1.4)", 1e-12),
    "L1e-1": ("Eq. (1.5) first integral", 1e-10),
    "L1e-2": ("Eq. (1.5) second integral", 1e-10),
    "L1e-3": ("Eq. (1.5) third integral, corrected", 1e-10),
    "L1f": ("Eq. (1.6), corrected display", 1e-10),
    "L2a": ("Eq. (1.8)", 1e-10),
    "L2b-1": ("Eq. (1.9a)", 1e-10),
    "L2b-2": ("Eq. (1.9b)", 1e-10),
    "L2c": ("Eq. (1.10), corrected prefactor", 1e-10),
    "L4a": ("Eq. (2.35)", 1e-12),
    "L4b": ("Eq. (2.36)", 1e-12),
    "L4c": ("Eq. (2.37)", 1e-10),
    "P1": ("Eq. (1.13)", 1e-9),
    "P1-3.10": ("Eq. (3.10)", 1e-9),
    "P1-3.11": ("Eq. (3.11)", 1e-12),
    "P1-3.3": ("Eq. (3.3)", 1e-9),
    "P1-3.9trunc": ("Eq. (3.9), L = 60", 1e-8),
    "P2": ("Eqs. (4.6)-(4.7)", 1e-9),
    "cat-2.22": ("Eq. (2.22)", 1e-10),
    "cat-2.25": ("Eq. (2.25)", 1e-10),
    "cat-2.27": ("Eq. (2.27)", 1e-10),
    "cat-2.28a": ("Eq. (2.28a), corrected", 1e-10),
    "cat-2.28b": ("Eq. (2.28b)", 1e-10),
    "cat-2.28c": ("Eq. (2.28c)", 1e-10),
    "cat-2.32": ("Eq. (2.32), corrected", 1e-10),
    "cat-2.33": ("Eq. (2.33)", 1e-10),
    "cat-2.34": ("Eq. (2.34), corrected", 1e-10),
    "cheb7": ("Eqs. (2.8a)-(2.8b)", 1e-13),
    "conj-L7": ("Eq. (1.2), conjectural", 1e-9),
    "csc14": ("Eq. (2.11)", 1e-12),
    "csc7": ("Eq. (2.3)", 1e-12),
    "cscN": ("csc^2 sum, n = 3..20", 1e-12),
    "dup": ("Eq. (2.9)", 1e-10),
    "eq1.12b": ("Eq. (1.12b), corrected", 1e-14),
    "eq2.10a": ("Eq. (2.10a)", 1e-10),
    "eq2.10b": ("Eq. (2.10b)", 1e-10),
    "eq2.10c": ("Eq. (2.10c)", 1e-10),
    "eq2.30": ("Eq. (2.30)", 1e-12),
    "eq2.38": ("Eq. (2.38)", 1e-10),
    "eq2.39": ("Eq. (2.39)", 1e-10),
    "eq2.40": ("Eq. (2.40)", 1e-10),
    "eq2.41": ("Eq. (2.41)", 1e-9),
    "eq2.6": ("Eq. (2.6)", 1e-12),
    "eq4.1": ("Eq. (4.1)", 1e-12),
    "eq4.3": ("Eq. (4.3), q = 2, 3, 4", 1e-10),
    "li3-binom": ("binomial double sums", 1e-12),
    "mult": ("Eq. (2.12)", 1e-10),
    "refl": ("Eq. (2.2)", 1e-10),
    "sine10": ("Eq. (2.44)", 1e-12),
    "sine11": ("Eq. (2.46)", 1e-12),
    "sine12": ("Eq. (2.45)", 1e-12),
    "sine15": ("Eq. (2.47), corrected sign", 1e-12),
    "sine5a": ("Eq. (2.48)", 1e-12),
    "sine5b": ("Eq. (2.49)", 1e-12),
    "sine7": ("Eq. (2.7)", 1e-12),
    "sine8a": ("Eq. (2.50), extended set", 1e-12),
    "sine8b": ("Eq. (2.51), extended set", 1e-12),
    "zeta2": ("Eq. (2.13)", 1e-12),
}


class TestRegistry:
    def test_at_least_45_checks(self):
        assert len(check_ids()) >= 45

    def test_expected_ids_present(self):
        ids = set(check_ids())
        for required in (
            "L1a", "L1f", "eq2.6", "L2a", "C1", "csc7", "csc14", "cscN",
            "sine7", "cheb7", "L4a", "L4b", "L4c", "li3-binom",
            "P1", "P1-3.11", "P2", "C2", "C3", "eq4.3", "conj-L7",
        ):
            assert required in ids, required

    def test_ids_sorted_in_run_all(self):
        recs = run_all()
        assert [r.id for r in recs] == sorted(r.id for r in recs)

    def test_paper_refs_and_tolerances_frozen(self):
        recs = run_all()
        assert {r.id: (r.paper_ref, r.tol) for r in recs} == PINNED_METADATA
        assert [r.id for r in recs if r.status == "supports-conjecture"] == ["conj-L7"]


class TestWorst:
    def test_largest_difference_wins(self):
        assert _worst([(1.0, 1.5), (2.0, 4.0), (0.0, 0.1)]) == (2.0, 4.0)

    def test_first_pair_wins_a_tie(self):
        assert _worst([(1.0, 2.0), (5.0, 4.0), (0.0, 1.0)]) == (1.0, 2.0)

    def test_relative(self):
        pairs = [(11.0, 10.0), (1.5, 1.0)]
        assert _worst(pairs) == (11.0, 10.0)
        assert _worst(pairs, rel=True) == (1.5, 1.0)

    def test_nan_difference_wins_and_is_kept(self):
        lhs, rhs = _worst([(1.0, 1.0), (math.nan, 2.0), (0.0, 1e9), (3.0, math.nan)])
        assert math.isnan(lhs) and rhs == 2.0
        lhs, rhs = _worst([(1.0, 1.0), (math.inf, math.inf), (5.0, 1.0)], rel=True)
        assert lhs == math.inf and rhs == math.inf

    def test_no_pairs_raises(self):
        with pytest.raises(ValueError):
            _worst([])

    def test_nan_pair_makes_the_check_fail(self, monkeypatch):
        from tetralog import verify

        exact = verify._csc_sum

        monkeypatch.setattr(verify, "_csc_sum", lambda n: math.nan if n == 9 else exact(n))
        r = run_check("cscN")
        assert r.status == "fail"
        assert math.isnan(r.lhs) and math.isnan(r.residual)


class TestRunCheck:
    def test_unknown_id_raises(self):
        with pytest.raises(UnknownCheckError):
            run_check("no-such-id")

    def test_single_check_passes(self):
        r = run_check("csc7")
        assert r.status == "pass"
        assert r.lhs == pytest.approx(8.0, abs=1e-12)
        assert r.residual <= r.tol
        assert r.elapsed_ms >= 0

    def test_tolerance_override(self):
        r = run_check("sine7", tol_override=1e-20)
        assert r.status == "fail"
        assert r.tol == 1e-20

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tolerance_override_rejected(self, tol):
        with pytest.raises(DomainError):
            run_check("sine7", tol_override=tol)

    def test_conjecture_status(self):
        r = run_check("conj-L7")
        assert r.status == "supports-conjecture"

    def test_record_fields(self):
        r = run_check("zeta2")
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert r.residual == abs(r.lhs - r.rhs)
        assert r.paper_ref


class TestRunner:
    """run_check reduces a row's grid to its record: it evaluates the pair at
    every point of the grid and reports the worst pair."""

    @staticmethod
    def _run(monkeypatch, pair, grid, rel=False):
        from tetralog import verify

        row = verify._Check("fake", "misc", "none", 1e-3, pair, grid, rel)
        monkeypatch.setitem(verify._REGISTRY, "fake", row)
        return run_check("fake")

    def test_walks_the_grid_and_reports_the_worst_pair(self, monkeypatch):
        seen = []

        def pair(a, b):
            seen.append((a, b))
            return a, b

        grid = ((1.0, 1.0), (2.0, 2.5), (3.0, 3.1), (4.0, 4.0))
        r = self._run(monkeypatch, pair, grid)
        assert seen == list(grid)
        assert (r.lhs, r.rhs, r.residual, r.status, r.note) == (2.0, 2.5, 0.5, "fail", "")

    def test_rel_picks_by_relative_difference(self, monkeypatch):
        grid = ((11.0, 10.0), (1.5, 1.0))
        r = self._run(monkeypatch, lambda lhs, rhs: (lhs, rhs), grid)
        assert (r.lhs, r.rhs) == (11.0, 10.0)
        r = self._run(monkeypatch, lambda lhs, rhs: (lhs, rhs), grid, rel=True)
        assert (r.lhs, r.rhs, r.residual) == (1.5, 1.0, 0.5)

    def test_a_raise_at_one_point_is_an_error(self, monkeypatch):
        def pair(x):
            if x == 2.0:
                raise ZeroDivisionError("bad point")
            return x, x

        r = self._run(monkeypatch, pair, ((1.0,), (2.0,), (3.0,)))
        assert (r.status, r.note, r.residual) == ("error", "ZeroDivisionError: bad point", math.inf)
        assert math.isnan(r.lhs) and math.isnan(r.rhs)

    def test_an_empty_grid_is_an_error(self, monkeypatch):
        r = self._run(monkeypatch, lambda: (0.0, 0.0), ())
        assert r.status == "error"
        assert r.note.startswith("ValueError: ")


class TestRunAll:
    def test_everything_passes(self):
        recs = run_all()
        assert aggregate_pass(recs)
        statuses = {r.status for r in recs}
        assert statuses == {"pass", "supports-conjecture"}

    def test_tag_filter(self):
        recs = run_all(tag="sine")
        assert recs
        assert all(r.status == "pass" for r in recs)
        full = {r.id for r in run_all()}
        assert {r.id for r in recs} < full

    def test_all_tags_nonempty(self):
        for tag in TAGS:
            assert run_all(tag=tag), tag

    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            run_all(tag="no-such-tag")

    def test_tol_scale_tightening_still_reports(self):
        recs = run_all(tag="sine", tol_scale=1e-6)
        # impossibly tight tolerances yield fail records, never exceptions
        assert all(r.status in ("pass", "fail") for r in recs)
        assert not aggregate_pass(recs)

    def test_bad_tol_scale_rejected(self):
        with pytest.raises(DomainError):
            run_all(tol_scale=0.0)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_tol_scale_rejected(self, scale):
        with pytest.raises(DomainError):
            run_all(tol_scale=scale)

    def test_failures_recorded_not_raised(self):
        recs = run_all(tag="catalan", tol_scale=1e-10)
        assert isinstance(recs, list) and recs


class TestCatalanRoutes:
    def test_every_route(self):
        for m in CATALAN_METHODS:
            assert abs(catalan_value(m) - CATALAN) < 1e-10, m

    def test_unknown_route_rejected(self):
        with pytest.raises(DomainError):
            catalan_value("no-such-route")


def _spy(monkeypatch, module, name: str) -> list:
    """Count the calls of ``module.name``, rebound in every tetralog module
    that binds it, as the ledger coverage matrix rebinds a kernel."""
    import importlib
    import pkgutil

    import tetralog

    kernel = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    for m in pkgutil.iter_modules(tetralog.__path__):
        mod = importlib.import_module(f"tetralog.{m.name}")
        if getattr(mod, name, None) is kernel:
            monkeypatch.setattr(mod, name, spy)
    return calls


def _without_time(rec):
    return rec._replace(elapsed_ms=0)


class TestSharedSides:
    """A side that checks share is computed once per ledger run, by the
    kernel bound when the run reads it, and no value outlives the run."""

    @pytest.fixture(scope="class")
    def records(self):
        return {r.id: r for r in run_all()}

    @pytest.mark.parametrize("check_id", check_ids())
    def test_a_lone_check_reports_its_run_all_record(self, records, check_id):
        r, want = run_check(check_id), records[check_id]
        assert (r.lhs, r.rhs, r.residual, r.status) == (want.lhs, want.rhs, want.residual,
                                                        want.status)

    def test_two_runs_agree(self):
        first, second = run_all(), run_all()
        assert [_without_time(r) for r in first] == [_without_time(r) for r in second]

    def test_one_run_computes_each_shared_side_once(self, monkeypatch):
        from tetralog import dirichlet, integrals, specfun

        counts = {
            name: _spy(monkeypatch, module, name)
            for module, name in (
                (dirichlet, "l7_trigamma"),
                (dirichlet, "l7_series"),
                (integrals, "i_ab_closed_theta12"),
                (specfun, "cl2_rational"),
            )
        }
        run_all()
        assert {name: len(calls) for name, calls in counts.items()} == {
            "l7_trigamma": 1, "l7_series": 1, "i_ab_closed_theta12": 20, "cl2_rational": 3,
        }
        # and each call is for a distinct point
        assert all(len(set(calls)) == len(calls) for calls in counts.values())

    def test_a_kernel_rebound_after_a_run_is_the_one_the_next_run_calls(self, monkeypatch):
        from tetralog import dirichlet
        from tetralog.result import EvalResult

        before = {r.id: r for r in run_all()}
        monkeypatch.setattr(dirichlet, "l7_trigamma", lambda: EvalResult(2.0, 0.0, 0, "fake"))
        after = {r.id: r for r in run_all()}
        assert before["L1b"].lhs != 2.0
        assert after["L1b"].lhs == after["L1c"].lhs == after["L1d"].rhs == 2.0
        assert after["L1b"].status == "fail"
        assert run_check("L1c").lhs == 2.0

    def test_the_memo_is_empty_after_every_run(self, monkeypatch):
        from tetralog import integrals, verify

        run_all(tag="lemma1")
        assert verify._memo == {}
        run_check("P2")
        assert verify._memo == {}

        def broken(tol):
            raise ZeroDivisionError("broken kernel")

        monkeypatch.setattr(integrals, "integral_I7", broken)
        recs = {r.id: r for r in run_all()}
        assert recs["P1"].status == recs["conj-L7"].status == "error"
        assert verify._memo == {}

        class Stop(BaseException):
            pass

        def stop(tol):
            raise Stop

        # an exception that escapes the run empties the memo too
        monkeypatch.setattr(integrals, "integral_I7", stop)
        for run in (run_all, lambda: run_check("P1")):
            with pytest.raises(Stop):
                run()
            assert verify._memo == {}
