"""Fast self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench

It checks that every run prints every metric BENCHMARK.json names, with its
unit; that a traced run's self times add up to its wall time; that the output
checker flags a wrong value injected into each kind of output; and that the
benchmark refuses to run without the library's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_matches_the_code():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = run.run(name, seed=3, seconds=0.01, trace=trace, repeats=1)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    selves = [m[f"{layer}.self_ms"] for layer in run.SELF_LAYERS]
    selves += [m["quad.integrate.self_ms"], m["accel.alternating_sum.self_ms"]]
    assert sum(selves) == pytest.approx(m["trace.wall_ms"], rel=1e-9)


def test_last_line_is_the_result_object():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "compute-warm.polylog",
         "--seed", "1", "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    for name, unit in run.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert f"{name} " in out.stdout  # also in the human-readable report


def _cli_output(argv):
    proc = subprocess.run(
        wl.cli_command(argv, traced=False), env=wl.child_env(), capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def _bump(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_checker_flags_injected_wrong_values():
    from dataclasses import replace

    from tetralog import bbp, integrals, polylog, specfun

    checker = wl.Checker()
    w = wl.WORKLOADS

    for name, req, fn in [
        ("compute-warm.specfun", ("cl2", 2.5), specfun.cl2),
        ("compute-warm.specfun", ("hurwitz_zeta", 2.2, 0.05), specfun.hurwitz_zeta),
        ("compute-warm.polylog", ("polylog_complex", 3, 2.0 - 1.5j), polylog.polylog_complex),
        ("compute-warm.quad", ("integral_I_ab", 0.0, 0.4), integrals.integral_I_ab),
        ("compute-warm.quad", ("integral_I_ab", 0.7, -0.3), integrals.integral_I_ab),
    ]:
        good = fn(*req[1:])
        assert checker.check(w[name], req, good) is None
        bad = replace(good, value=good.value + 1e-7 * max(1.0, abs(good.value)))
        assert checker.check(w[name], req, bad) is not None

    lhs, rhs = integrals.corollary3(2.0, 1.0)
    req = ("corollary3", 2.0, 1.0)
    assert checker.check(w["compute-warm.quad"], req, (lhs, rhs)) is None
    assert checker.check(w["compute-warm.quad"], req, (lhs, rhs + 1e-6)) is not None

    for formula in wl.FORMULAS:
        for position in (2100, 12000):
            req = (formula, position)
            good = bbp.extract_hex_digits(bbp.REGISTRY[formula], position, wl.DIGIT_COUNT)
            bad = good[:-1] + format((int(good[-1], 16) + 1) % 16, "X")
            assert checker.check(w["digits-deep.mid"], req, good) is None
            assert checker.check(w["digits-deep.mid"], req, bad) is not None

    verify = ("verify", "--all", "--format", "json")
    code, out, err = _cli_output(verify)
    assert checker.check(w["cli-cold.verify"], verify, (code, out, err)) is None
    bad = _bump(out, '"passed": 63', '"passed": 62')
    assert checker.check(w["cli-cold.verify"], verify, (code, bad, err)) is not None
    assert checker.check(w["cli-cold.verify"], verify, (1, out, err)) is not None

    for argv in [("eval", "li3", "--re=1.5", "--im=-0.5"), ("eval", "iab", "--a=0.7", "--b=0.3")]:
        code, out, err = _cli_output(argv)
        assert checker.check(w["cli-cold.eval"], argv, (code, out, err)) is None
        value = out.split()[1]
        wrong = f"{float(value) * (1 + 1e-7):.11e}"
        assert checker.check(w["cli-cold.eval"], argv, (code, _bump(out, value, wrong), err))

    assert checker.check(w["compute-warm.specfun"], ("cl2", 1.0), ValueError("x")) is not None


def test_a_run_sends_a_fixed_count_of_whole_blocks():
    for w in wl.WORKLOADS.values():
        assert w.count(8) % w.block == 0 and w.count(8) >= w.block
        assert w.count(8, traced=True) % w.block == 0
    quad = wl.WORKLOADS["compute-warm.quad"]
    first, again = (run.run(quad.name, seed=3, seconds=0.02, trace=False, repeats=1) for _ in "12")
    assert first["attempted"] == again["attempted"] == quad.count(0.02)
    assert first["failures"] == again["failures"]


def test_inputs_depend_only_on_the_seed():
    for w in wl.WORKLOADS.values():
        assert wl.inputs_digest(w, 5, 32) == wl.inputs_digest(w, 5, 32)
    specfun = wl.WORKLOADS["compute-warm.specfun"]
    assert wl.inputs_digest(specfun, 5, 32) != wl.inputs_digest(specfun, 6, 32)


def test_refuses_to_run_without_the_library():
    bare = wl.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-cold.verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
