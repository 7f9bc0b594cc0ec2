"""In-memory span recorder and the wrappers that put spans around tetralog's layers.

A span is (id, parent id, request id, name, start ns, end ns). Spans nest on
one stack, so a span's self time is its duration minus the durations of its
direct children. Every span is also folded into per-name aggregates (calls,
total, self, effort, errors) and per-layer self time, so that a long run keeps
bounded memory; raw span records are kept only up to ``MAX_SPANS``.

The clock is ``time.perf_counter_ns``, which on Linux reads CLOCK_MONOTONIC;
spans recorded in a child process therefore sit on the parent's time axis and
can be nested under the parent's span for that child.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time

# The package modules that form the layers. ``bernoulli_number`` and
# ``zeta_int`` are lru_cache objects, not plain functions, so they are left
# unwrapped: a hit costs a dict lookup, far less than a span, and their
# misses are read from ``cache_info()`` instead.
LAYERS = (
    "cli",
    "verify",
    "integrals",
    "quad",
    "specfun",
    "polylog",
    "accel",
    "bernoulli",
    "dirichlet",
    "bbp",
)

_clock = time.perf_counter_ns
MAX_SPANS = 50_000  # raw span records kept; aggregates cover every span


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, start ns, child ns]
        self.stats: dict[str, list] = {}  # name -> [layer, calls, total, self, effort, errors]
        self.layer_self: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.request = -1
        self.root_ns = 0  # summed duration of spans with no parent
        self._next_id = 0

    def begin(self) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, _clock(), 0])

    def end(self, layer: str, name: str, effort: float = 0, error: bool = False) -> None:
        t1 = _clock()
        span_id, t0, child = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        else:
            self.root_ns += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [layer, 0, 0, 0, 0, 0]
        st[1] += 1
        st[2] += dur
        st[3] += dur - child
        st[4] += effort
        st[5] += error
        self.layer_self[layer] = self.layer_self.get(layer, 0) + dur - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent[0] if parent else None, self.request, name, t0, t1)
            )

    def span(self, layer: str, name: str):
        """Context manager form, for the benchmark's own spans."""
        return _Span(self, layer, name)

    def merge_child(self, payload: dict) -> None:
        """Fold a child process's spans in under the current open span."""
        frame = self.stack[-1]
        frame[2] += payload["root_ns"]
        for name, (layer, calls, total, self_ns, effort, errors) in payload["stats"].items():
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [layer, 0, 0, 0, 0, 0]
            st[1] += calls
            st[2] += total
            st[3] += self_ns
            st[4] += effort
            st[5] += errors
        for layer, ns in payload["layer_self"].items():
            self.layer_self[layer] = self.layer_self.get(layer, 0) + ns
        offset = self._next_id
        self._next_id += payload["next_id"]
        room = max(0, MAX_SPANS - len(self.spans))
        for span_id, parent, _, name, t0, t1 in payload["spans"][:room]:
            parent = frame[0] if parent is None else parent + offset
            self.spans.append((span_id + offset, parent, self.request, name, t0, t1))

    def payload(self, with_spans: bool) -> dict:
        return {
            "root_ns": self.root_ns,
            "next_id": self._next_id,
            "stats": self.stats,
            "layer_self": self.layer_self,
            "spans": self.spans if with_spans else [],
        }

    def wrap(self, fn, layer: str, attr: str):
        name = f"{layer}.{attr}"
        hook = _HOOKS.get(name, _plain)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs, finish = hook(args, kwargs)
            tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sub, effort = finish(None)
                tracer.end(layer, f"{name}.{sub}" if sub else name, effort, True)
                raise
            sub, effort = finish(result)
            tracer.end(layer, f"{name}.{sub}" if sub else name, effort)
            return result

        return wrapper


class _Span:
    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.tracer.begin()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.end(self.layer, self.name, 0, exc_type is not None)
        return False


# ---------------------------------------------------------------------------
# per-function hooks: (args, kwargs) -> (args, kwargs, finish), where
# finish(result or None on a raise) -> (span-name suffix or None, effort)


def _effort(result):
    return None, getattr(result, "effort", 0)


def _plain(args, kwargs):
    return args, kwargs, _effort


def _hook_run_check(args, kwargs):
    check_id = args[0] if args else kwargs["check_id"]
    return args, kwargs, lambda result: (check_id, 0)


def _hook_cl2(args, kwargs):
    theta = args[0] if args else kwargs["theta"]
    th = getattr(theta, "reduced", None)
    if th is None:
        th = math.remainder(float(theta), 2.0 * math.pi)
    sub = "low" if abs(th) <= 0.5 * math.pi else "high"
    return args, kwargs, lambda result: (sub, getattr(result, "effort", 0))


def _hook_polylog(args, kwargs):
    def finish(result):
        return (result.method, result.effort) if result is not None else ("error", 0)

    return args, kwargs, finish


def _hook_integrate(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    f = problem.integrand
    count = [0]

    def counted(x):
        count[0] += 1
        return f(x)

    counted_problem = dataclasses.replace(problem, integrand=counted)
    return (counted_problem,), {}, lambda result: (None, count[0])


def _hook_extract(args, kwargs):
    from tetralog.bbp import REGISTRY

    formula, position = args[0], args[1]
    fname = next((k for k, v in REGISTRY.items() if v is formula), "other")
    sub = f"{fname}.{band_of(position)}"
    return args, kwargs, lambda result: (sub, position)


def band_of(position: int) -> str:
    """Digit-position band: shallow (< 2000), mid (< 10000) or deep."""
    if position < 2000:
        return "shallow"
    return "mid" if position < 10_000 else "deep"


_HOOKS = {
    "verify.run_check": _hook_run_check,
    "specfun.cl2": _hook_cl2,
    "polylog.polylog_complex": _hook_polylog,
    "quad.integrate": _hook_integrate,
    "bbp.extract_hex_digits": _hook_extract,
}


def install(tracer: Tracer):
    """Wrap every public function of every layer, at each name that binds it.

    That is the defining module's own global (which also catches calls from
    inside the module and lazy ``from .x import f`` imports), every other
    layer module that imported it, and the package namespace. Returns a
    function that puts the originals back.
    """
    package = importlib.import_module("tetralog")
    mods = {layer: importlib.import_module(f"tetralog.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = tracer.wrap(obj, layer, attr)
    rebound = []
    for mod in (*mods.values(), package):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                rebound.append((mod, attr, obj))

    def uninstall() -> None:
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)

    return uninstall


def cache_misses() -> dict[str, int]:
    from tetralog import bernoulli

    return {
        "bernoulli_number": bernoulli.bernoulli_number.cache_info().misses,
        "zeta_int": bernoulli.zeta_int.cache_info().misses,
    }
