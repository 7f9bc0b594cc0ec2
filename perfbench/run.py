"""Run one workload of the tetralog benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from anywhere; the library is loaded from ``src/`` next to this directory.
A run sends a fixed number of requests, one at a time: ``--seconds`` times the
workload's nominal rate, so that a seed always gives the same requests. With
``--trace 0`` they run untraced and the run reports the end-to-end metrics.
With ``--trace 1`` they run with every layer wrapped in spans, then again
untraced, and the run reports the per-layer metrics.
``all`` runs every workload untraced and prints the end-to-end table under the
metric names of the benchmark's design (README.md).

A human-readable report comes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with provenance and any failing inputs, and the
raw spans of a traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

import spans
import workloads as wl

OUT = wl.HERE / "out"
clock = time.perf_counter_ns

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "ops_per_s": "1/s"}

CHECK_IDS = (
    "C1", "C2", "C3", "L1a", "L1b", "L1c", "L1d", "L1e-1", "L1e-2", "L1e-3", "L1f", "L2a",
    "L2b-1", "L2b-2", "L2c", "L4a", "L4b", "L4c", "P1", "P1-3.10", "P1-3.11", "P1-3.3",
    "P1-3.9trunc", "P2", "cat-2.22", "cat-2.25", "cat-2.27", "cat-2.28a", "cat-2.28b",
    "cat-2.28c", "cat-2.32", "cat-2.33", "cat-2.34", "cheb7", "conj-L7", "csc14", "csc7",
    "cscN", "dup", "eq1.12b", "eq2.10a", "eq2.10b", "eq2.10c", "eq2.30", "eq2.38", "eq2.39",
    "eq2.40", "eq2.41", "eq2.6", "eq4.1", "eq4.3", "li3-binom", "mult", "refl", "sine10",
    "sine11", "sine12", "sine15", "sine5a", "sine5b", "sine7", "sine8a", "sine8b", "zeta2",
)
SPECFUN_KEYS = ("cl2.low", "cl2.high", "clausen_sin", "clausen_cos", "trigamma", "hurwitz_zeta")
# quad and accel each wrap one function, so their layer self time is
# reported as that function's self time
SELF_LAYERS = (
    "import", "cli", "verify", "integrals", "specfun", "polylog", "bernoulli", "dirichlet",
    "bbp", "process", "bench",
)


def per_layer_units() -> dict[str, str]:
    u = {"import.total_ms": "ms", "import.numpy_ms": "ms", "cli.interp_ms": "ms", "cli.main_ms": "ms"}
    u["verify.run_all_ms"] = "ms"
    u.update({f"verify.check_ms.{cid}": "ms" for cid in CHECK_IDS})
    u["verify.report_ms"] = "ms"
    u.update({
        "quad.integrate.calls": "count", "quad.integrate.self_ms": "ms",
        "quad.integrand_evals": "count", "quad.evals_per_call": "count",
    })
    for key in SPECFUN_KEYS:
        u[f"specfun.{key}.us_per_call"] = "us"
        u[f"specfun.{key}.effort_per_call"] = "count"
    u.update({f"polylog.us_per_call.{r}": "us" for r in wl.POLYLOG_REGIMES})
    u.update({"accel.alternating_sum.calls": "count", "accel.alternating_sum.self_ms": "ms"})
    u.update({"bernoulli.bernoulli_number.misses": "count", "bernoulli.zeta_int.misses": "count"})
    u.update({f"bbp.extract.ms_per_kpos.{f}.{b}": "ms/kpos" for f in wl.FORMULAS for b in wl.BANDS})
    u["bbp.abort_ratio"] = "ratio"
    u.update({f"{layer}.self_ms": "ms" for layer in SELF_LAYERS})
    u.update({"trace.wall_ms": "ms", "trace.overhead_ratio": "ratio", "op_ms.tail": "ms"})
    return u


# ---------------------------------------------------------------------------
# provenance and probes


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "tetralog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        with open("/proc/loadavg") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        load = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "loadavg": load,
    }


def _child(cmd: list[str], timeout: float = 120.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to exit; return its wall time in ns (spawn to exit) and the result."""
    t0 = clock()
    proc = subprocess.run(
        cmd, env=wl.child_env(), cwd=wl.ROOT, capture_output=True, text=True, timeout=timeout
    )
    return clock() - t0, proc


def _checked(wall_proc) -> float:
    wall, proc = wall_proc
    if proc.returncode != 0:
        raise RuntimeError(f"probe {proc.args} failed: {proc.stderr.strip()[-300:]}")
    return wall


def setup_times(w: wl.Workload, repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter until ``import tetralog`` (and the warm-up pass, on
    the warm workloads) is done: raw and normalised times in ns."""
    return normalised_children([sys.executable, "-c", wl.setup_code(w)], repeats)


def import_probe(repeats: int) -> tuple[float, float]:
    """Median ``import tetralog`` and numpy cumulative times from ``-X importtime``, ms."""
    totals, numpys = [], []
    for _ in range(repeats):
        _, proc = _child([sys.executable, "-X", "importtime", "-c", "import tetralog"])
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1000.0
        totals.append(cum.get("tetralog", 0.0))
        numpys.append(cum.get("numpy", 0.0))
    return statistics.median(totals), statistics.median(numpys)


def interp_probe(repeats: int) -> float:
    """Median wall time of a bare ``python -c pass``, ms."""
    return statistics.median(
        _checked(_child([sys.executable, "-c", "pass"])) / 1e6 for _ in range(repeats)
    )


# ---------------------------------------------------------------------------
# host-speed references
#
# The host's speed swings by up to 2x within seconds (other tenants share its
# cores), which moves raw medians by 15-20 % from one 10 s run to the next.
# Every end-to-end timing is therefore taken next to a reference run of fixed
# work, measured just before and just after it, and scaled to the reference's
# nominal time: value = raw * nominal / mean(references before and after).
# A rate divides the whole run's busy time by the mean of all its references.
# Contention on this host lasts longer than a reference, so the mean tracks it;
# the fastest reference (an earlier choice) tracked it about half as well.
# The result reads as "ms on the reference host". The raw values are reported
# beside them.

# a child that only imports numpy: third-party work that no library change can
# move, with the start-up profile of a tetralog process (shared libraries, BLAS
# threads); a bare `python -c pass` tracked contention several times worse
REFERENCE_CHILD = "import numpy"
REFERENCE_CHILD_NOMINAL_NS = 200_000_000
KERNEL_NOMINAL_NS = 1_000_000  # one call of float_kernel() or bigint_kernel()
BATCH_NS = 20_000_000  # in-process requests between two kernel references


def float_kernel() -> float:
    """Fixed pure-Python float work, the same mix as the library's kernels."""
    s = 0.0
    d = {}
    for i in range(1, 3000):
        x = i * 0.001
        s += math.sin(x) * math.log(x) / (1.0 + x * x)
        d[i & 63] = s
    return s


def bigint_kernel() -> int:
    """Fixed modular powers and fixed-point divisions, the work of BBP digit extraction."""
    acc = 0
    for j in range(1, 600):
        d = (8 * j + 5) ** 2
        acc += (pow(16, 4000 - j, d) << 96) // d
    return acc


def child_slowness() -> list[float]:
    """Host slowness seen by a fresh process: the reference child's time over nominal."""
    cmd = [sys.executable, "-c", REFERENCE_CHILD]
    return [_checked(_child(cmd)) / REFERENCE_CHILD_NOMINAL_NS]


def kernel_slowness(kernel):
    """Host slowness seen by this process: three runs of ``kernel``, each over
    nominal."""

    def once() -> float:
        t0 = clock()
        kernel()
        return (clock() - t0) / KERNEL_NOMINAL_NS

    return lambda: [once(), once(), once()]


def normalised_children(cmd: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Raw and normalised wall times (ns) of ``repeats`` runs of ``cmd``, each
    bracketed by reference children."""
    raw, norm = [], []
    before = child_slowness()
    for _ in range(repeats):
        raw.append(_checked(_child(cmd)))
        after = child_slowness()
        norm.append(raw[-1] / statistics.fmean(before + after))
        before = after
    return raw, norm


# ---------------------------------------------------------------------------
# the closed loop


class CliExecutor:
    """Runs one CLI request as a fresh process; traced, it merges the child's spans."""

    def __init__(self, tracer: spans.Tracer | None) -> None:
        self.tracer = tracer
        self.misses = {"bernoulli_number": 0, "zeta_int": 0}

    def __call__(self, argv):
        if self.tracer is None:
            _, proc = _child(wl.cli_command(argv, traced=False))
            return proc.returncode, proc.stdout, proc.stderr
        with self.tracer.span("process", "process.child"):
            first = self.tracer.request == 0
            _, proc = _child(wl.cli_command(argv, traced=True, with_spans=first))
            payload = json.loads(proc.stdout)
            self.tracer.merge_child(payload)
        for key, n in payload["misses"].items():
            self.misses[key] += n
        return payload["code"], payload["stdout"], payload["stderr"]


def measure(w, seed, execute, count, *, tracer=None, slowness=None):
    """Closed loop, one request in flight, until ``count`` requests are done.

    Returns the per-request times in ns; the same times normalised by
    ``slowness`` (references taken between batches of at least ``BATCH_NS``;
    empty when ``slowness`` is None); the mean of all those references (1.0
    when there are none); and the outputs kept for checking: every raise, and
    every ``check_stride``-th output.
    """
    stream = wl.requests(w, seed)
    times = array("q")
    norm = array("d")
    kept = []
    before = slowness() if slowness is not None else []
    refs = list(before)
    batch_start, batch_t0 = 0, clock()
    i = 0
    while True:
        req = next(stream)
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            out = execute(req)
        except Exception as exc:  # every failure is counted and reported below
            out = exc
        t1 = clock()
        times.append(t1 - t0)
        if i % w.check_stride == 0 or isinstance(out, Exception):
            kept.append((i, req, out))
        i += 1
        done = i >= count
        if slowness is not None and (done or t1 - batch_t0 >= BATCH_NS):
            after = slowness()
            refs.extend(after)
            scale = 1.0 / statistics.fmean(before + after)
            norm.extend(t * scale for t in times[batch_start:])
            before, batch_start, batch_t0 = after, i, clock()
        if done:
            return times, norm, statistics.fmean(refs) if refs else 1.0, kept


def check(w, kept) -> list[dict]:
    checker = wl.Checker()
    failures = []
    for i, req, out in kept:
        reason = checker.check(w, req, out)
        if reason is not None:
            kind = "raised" if isinstance(out, Exception) else "wrong"
            failures.append({"request": i, "input": repr(req), "kind": kind, "reason": reason})
    return failures


def latency(times) -> dict:
    s = sorted(times)
    n = len(s)
    tail_i = n - 11 if n > 10 else n - 1  # highest rank with ten samples beyond it
    return {
        "n": n,
        "p50_ms": statistics.median(s) / 1e6,
        "tail_ms": s[tail_i] / 1e6,
        "tail_pct": 100.0 * (tail_i + 1) / n,
    }


def plain_executor(w):
    """The untraced executor and the host-speed reference whose work matches it."""
    if w.family == "cli":
        return CliExecutor(None), child_slowness
    kernel = bigint_kernel if w.family == "digits" else float_kernel
    return wl.bind(w), kernel_slowness(kernel)


def run_untraced(w, seed, seconds, repeats=5):
    setup_raw, setup = setup_times(w, repeats)
    execute, slowness = plain_executor(w)
    times, norm, host, kept = measure(w, seed, execute, w.count(seconds), slowness=slowness)
    failures = check(w, kept)
    lat, raw = latency(norm), latency(times)
    n = lat["n"]
    ok_per_busy_s = (n - len(failures)) / (sum(times) / 1e9)
    metrics = {
        "setup_s": (statistics.median(setup) / 1e9, len(setup)),
        "op_ms.p50": (lat["p50_ms"], n),
        "ops_per_s": (ok_per_busy_s * host, n),
    }
    extra = {
        "op_ms.tail": (lat["tail_ms"], "ms", n),
        "raw.setup_s": (statistics.median(setup_raw) / 1e9, "s", len(setup_raw)),
        "raw.op_ms.p50": (raw["p50_ms"], "ms", n),
        "raw.op_ms.tail": (raw["tail_ms"], "ms", n),
        "raw.ops_per_s": (ok_per_busy_s, "1/s", n),
    }
    notes = [f"op_ms.tail is p{lat['tail_pct']:.2f} of {n} requests"]
    return metrics, extra, n, failures, notes


def run_traced(w, seed, seconds, repeats=3):
    total_ms, numpy_ms = import_probe(repeats)
    interp_ms = interp_probe(repeats)
    n = w.count(seconds, traced=True)
    tracer = spans.Tracer()
    if w.family == "cli":
        execute = CliExecutor(tracer)
    else:
        uninstall = spans.install(tracer)
        misses0 = spans.cache_misses()
        execute = wl.bind(w)
    with tracer.span("bench", "bench"):
        traced_times, _, _, kept = measure(w, seed, execute, n, tracer=tracer)
    if w.family == "cli":
        misses = execute.misses
    else:
        misses = {k: v - misses0[k] for k, v in spans.cache_misses().items()}
        uninstall()
    execute, slowness = plain_executor(w)
    plain_times, plain_norm, _, _ = measure(w, seed, execute, n, slowness=slowness)
    failures = check(w, kept)

    stats, layer_self = tracer.stats, tracer.layer_self
    wall_ms = tracer.root_ns / 1e6

    def total(name):
        st = stats.get(name)
        return (st[1], st[2] / 1e6, st[3] / 1e6, st[4]) if st else (0, 0.0, 0.0, 0)

    def mean_ms(name):
        calls, tot, _, _ = total(name)
        return tot / calls if calls else 0.0

    m = {
        "import.total_ms": total_ms,
        "import.numpy_ms": numpy_ms,
        "cli.interp_ms": interp_ms,
        "cli.main_ms": mean_ms("cli.main"),
        "verify.run_all_ms": mean_ms("verify.run_all"),
    }
    for cid in CHECK_IDS:
        m[f"verify.check_ms.{cid}"] = mean_ms(f"verify.run_check.{cid}")
    m["verify.report_ms"] = mean_ms("cli.build_report") + mean_ms("cli.report_to_json")
    calls, _, self_ms, evals = total("quad.integrate")
    m["quad.integrate.calls"] = calls
    m["quad.integrate.self_ms"] = self_ms
    m["quad.integrand_evals"] = evals
    m["quad.evals_per_call"] = evals / calls if calls else 0.0
    for key in SPECFUN_KEYS:
        calls, tot, _, effort = total(f"specfun.{key}")
        m[f"specfun.{key}.us_per_call"] = 1e3 * tot / calls if calls else 0.0
        m[f"specfun.{key}.effort_per_call"] = effort / calls if calls else 0.0
    for regime in wl.POLYLOG_REGIMES:
        m[f"polylog.us_per_call.{regime}"] = 1e3 * mean_ms(f"polylog.polylog_complex.{regime}")
    calls, _, self_ms, _ = total("accel.alternating_sum")
    m["accel.alternating_sum.calls"] = calls
    m["accel.alternating_sum.self_ms"] = self_ms
    m["bernoulli.bernoulli_number.misses"] = misses["bernoulli_number"]
    m["bernoulli.zeta_int.misses"] = misses["zeta_int"]
    attempts = aborts = 0
    for f in wl.FORMULAS:
        for band in wl.BANDS:
            calls, tot, _, positions = total(f"bbp.extract_hex_digits.{f}.{band}")
            m[f"bbp.extract.ms_per_kpos.{f}.{band}"] = tot / (positions / 1e3) if positions else 0.0
            attempts += calls
            aborts += stats.get(f"bbp.extract_hex_digits.{f}.{band}", [0] * 6)[5]
    m["bbp.abort_ratio"] = aborts / attempts if attempts else 0.0
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = layer_self.get(layer, 0) / 1e6
    m["trace.wall_ms"] = wall_ms
    m["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times)
    tail = latency(plain_norm)
    m["op_ms.tail"] = tail["tail_ms"]

    units = per_layer_units()
    metrics = {name: (m[name], n) for name in units}
    accounted = sum(layer_self.values()) / 1e6
    notes = [
        f"self times of all layers and the benchmark sum to {accounted:.3f} ms "
        f"of {wall_ms:.3f} ms traced wall time",
        f"op_ms.tail is p{tail['tail_pct']:.2f} of the untraced pass over the same {n} requests",
    ]
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{w.name}-seed{seed}-spans.json"
    with open(dump, "w") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
                "stats": {k: dict(zip(("layer", "calls", "total_ns", "self_ns", "effort", "errors"), v)) for k, v in stats.items()},
                "layer_self_ns": layer_self,
            },
            fh,
        )
    notes.append(f"spans: {dump.relative_to(wl.ROOT)} ({len(tracer.spans)} kept)")
    return metrics, {}, n, failures, notes


# ---------------------------------------------------------------------------
# entry point


def run(name: str, seed: int, seconds: float, trace: bool, repeats: int | None = None) -> dict:
    """One run; ``repeats`` overrides the number of set-up or probe children."""
    w = wl.WORKLOADS[name]
    prov = provenance()
    import tetralog  # noqa: F401  (the warm workloads measure in this process)

    if w.family != "cli":
        wl.warmup(w)
    runner = run_traced if trace else run_untraced
    kwargs = {} if repeats is None else {"repeats": repeats}
    metrics, extra, attempted, failures, notes = runner(w, seed, seconds, **kwargs)
    units = per_layer_units() if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": prov,
        "inputs_sha256": wl.inputs_digest(w, seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k], "n": c} for k, (v, c) in metrics.items()},
        "not_gated": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in extra.items()},
        "notes": notes,
    }


def report(result: dict, design_names: dict[str, str]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print("provenance " + json.dumps(result["provenance"]))
    print(f"inputs sha256 {result['inputs_sha256']} (first 256 requests)")
    for name, m in result["metrics"].items():
        alias = design_names.get(name, "")
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:8s} n={m['n']:<8d} {alias}")
    for name, m in result["not_gated"].items():
        alias = design_names.get(name, "")
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:8s} n={m['n']:<8d} {alias} (not gated)")
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for f in result["failures"]:
        print(f"  FAILED ({f['kind']}) request {f['request']} {f['input']}: {f['reason']}")
    for note in result["notes"]:
        print(f"  note: {note}")


def save(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def final_line(results: list[dict], metrics: dict) -> str:
    return json.dumps({
        "correct": not any(f["kind"] == "wrong" for r in results for f in r["failures"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (wl.SRC / "tetralog" / "__init__.py").is_file():
        print(f"error: no tetralog sources under {wl.SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("mpmath") is None:
        print("error: mpmath, the benchmark's oracle, is not importable", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))

    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result, dict(wl.WORKLOADS[args.workload].design_names))
        print(f"  result: {save(result).relative_to(wl.ROOT)}")
        print(final_line([result], result["metrics"]))
        return 0

    results, table = [], {}
    for name, w in wl.WORKLOADS.items():
        result = run(name, args.seed, args.seconds, False)
        report(result, dict(w.design_names))
        save(result)
        results.append(result)
        table[f"setup_s.{name}"] = result["metrics"]["setup_s"]
        for metric, design_name in w.design_names:
            table[design_name] = {**result["metrics"], **result["not_gated"]}[metric]
    print("end-to-end metrics by their design names:")
    for name, m in table.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:5s} n={m['n']}")
    print(f"  ops_attempted {sum(r['attempted'] for r in results)}  "
          f"ops_failed {sum(r['failed'] for r in results)}")
    print(final_line(results, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
