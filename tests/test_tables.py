"""The kernels' cached tables are values: built or published whole, never
changed after, so a call that re-enters a kernel while a table is being built,
or a thread that races another to build it, sees only finished tables.

Each test runs in a fresh interpreter, where no table is built yet."""

import os
import subprocess
import sys
from pathlib import Path

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
        timeout=120,
    ).stdout


def test_no_module_level_container_changes_after_import():
    code = (
        "import cmath, importlib, pkgutil, random\n"
        "import tetralog\n"
        "modules = [tetralog, *(importlib.import_module(f'tetralog.{m.name}')"
        " for m in pkgutil.iter_modules(tetralog.__path__))]\n"
        "def containers():\n"
        "    return {(m.__name__, k): repr(v) for m in modules for k, v in vars(m).items()\n"
        "            if not k.startswith('__') and type(v) in (list, dict, set)}\n"
        "before = containers()\n"
        "from tetralog.polylog import polylog_complex\n"
        "from tetralog.specfun import clausen_cos, clausen_sin\n"
        "from tetralog.verify import run_all\n"
        "run_all()\n"
        "rng = random.Random(20080102)\n"
        "for _ in range(200):\n"
        "    s = rng.randint(2, 170)\n"
        "    z = cmath.rect(rng.uniform(0.3, 5.0), rng.uniform(-cmath.pi, cmath.pi))\n"
        "    theta = rng.uniform(-4.0, 4.0)\n"
        "    for call in (lambda: polylog_complex(s, z), lambda: clausen_sin(s + 1, theta),\n"
        "                 lambda: clausen_cos(s + 1, theta)):\n"
        "        try:\n"
        "            call()\n"
        "        except (ArithmeticError, ValueError):\n"
        "            pass\n"
        "after = containers()\n"
        "print(len(before), *sorted(f'{m}.{k}' for m, k in before if after[m, k] != before[m, k]))"
    )
    count, *changed = _printed_by(code).split()
    assert int(count) > 0
    assert changed == []


_LI5 = "polylog_complex(5, cmath.rect(3.45, 2.09), tol=1e-6)"


def test_a_call_made_while_a_log_table_is_built_leaves_it_whole():
    # the first tail coefficient the Li_5 table asks for makes one Li_5 call
    # of its own, about the same centre
    hooked = (
        "import cmath\n"
        "import tetralog.bernoulli as b\n"
        "from tetralog.polylog import polylog_complex\n"
        "coeff, fired = b.zeta_taylor, []\n"
        "def zeta_taylor(s, k):\n"
        "    if k > s and not fired:\n"
        "        fired.append(k)\n"
        "        polylog_complex(5, cmath.rect(2.0, 1.5))\n"
        "    return coeff(s, k)\n"
        "b.zeta_taylor = zeta_taylor\n"
        f"{_LI5}\n"
        "b.zeta_taylor = coeff\n"
        "assert fired\n"
    )
    clean = "import cmath\nfrom tetralog.polylog import polylog_complex\n"
    show = f"r = {_LI5}\nprint(repr(r.value), repr(r.err_bound))"
    assert _printed_by(hooked + show) == _printed_by(clean + show)


def test_a_call_made_while_a_bernoulli_row_is_built_leaves_the_numbers_exact():
    # the 13th row's gcd, B_26's, asks for B_60 first
    code = (
        "import math\n"
        "import mpmath\n"
        "from tetralog.bernoulli import bernoulli_ratio\n"
        "gcd, calls = math.gcd, []\n"
        "def nested_gcd(x, y):\n"
        "    calls.append(x)\n"
        "    if len(calls) == 13:\n"
        "        bernoulli_ratio(60)\n"
        "    return gcd(x, y)\n"
        "math.gcd = nested_gcd\n"
        "bernoulli_ratio(40)\n"
        "math.gcd = gcd\n"
        "assert len(calls) >= 13\n"
        "print(*(n for n in range(61)\n"
        "        if bernoulli_ratio(n) != tuple(map(int, mpmath.bernfrac(n)))))"
    )
    assert _printed_by(code).split() == []


# every row of powers left is its batch's, for a prefix of the stored batches
_POWERS_HOLD = (
    "for key, powers in b._POWERS.items():\n"
    "    table = b._TABLES[key]\n"
    "    high = (b._TABLE_SPAN // key[0]).bit_length()\n"
    "    assert 0 < len(powers) <= len(table)\n"
    "    assert all(row == tuple(pow(16, 2**k, den) for k in range(7, high))\n"
    "               for (_, den), row in zip(table, powers))\n"
)


def test_a_call_made_while_a_bbp_table_grows_leaves_every_table_whole():
    # halfway through growing the eq2.35-sum tables to position 600, an
    # extraction at 900 grows the same tables further and builds the powers
    # of those it reads back, and one of pi-degree1 grows others; no dict,
    # table or row of powers seen before a call changes after it, and each is
    # the start of the next call's.  Which batches have powers depends on the
    # order of the calls, so only the tables must end as in the clean run
    common = (
        "import tetralog.bbp as b\n"
        "f, pi = b.REGISTRY['eq2.35-sum'], b.REGISTRY['pi-degree1']\n"
        "seen, digits = [], []\n"
        "def extract(g, position):\n"
        "    seen.append(((b._TABLES, dict(b._TABLES)), (b._POWERS, dict(b._POWERS))))\n"
        "    digits.append((g.degree, position, b.extract_hex_digits(g, position, 8)))\n"
    )
    hooked = (
        "batch, fired = b._batch, []\n"
        "def nested(s, k, j0, j1):\n"
        "    if s == 2 and j0 > 300 and not fired:\n"
        "        fired.append(j0)\n"
        "        extract(f, 900)\n"
        "        extract(pi, 700)\n"
        "    return batch(s, k, j0, j1)\n"
        "b._batch = nested\n"
        "for position in (200, 600, 2000):\n"
        "    extract(f, position)\n"
        "b._batch = batch\n"
        "assert fired\n"
    )
    clean = (
        "for g, position in [(f, 200), (f, 600), (pi, 700), (f, 900), (f, 2000)]:\n"
        "    extract(g, position)\n"
    )
    show = (
        "last = ((b._TABLES, None), (b._POWERS, None))\n"
        "for now, after in zip(seen, [*seen[1:], last]):\n"
        "    for (tables, copy), (later, _) in zip(now, after):\n"
        "        assert tables == copy\n"
        "        assert all(later[key][: len(t)] == t for key, t in tables.items())\n"
        "assert b._POWERS\n"
        f"{_POWERS_HOLD}"
        "print(sorted(digits))\n"
        "print(sorted((key, hash(t)) for key, t in b._TABLES.items()))\n"
    )
    assert _printed_by(common + hooked + show) == _printed_by(common + clean + show)


_EXTRACTIONS = (
    "import tetralog.bbp as b\n"
    "calls = [(name, position) for position in (900, 300, 1400, 301, 2000, 1)\n"
    "         for name in sorted(b.REGISTRY)]\n"
    "def extract(name, position):\n"
    "    return b.extract_hex_digits(b.REGISTRY[name], position, 8)\n"
)


def test_threads_that_grow_the_bbp_tables_together_get_the_serial_digits():
    # each thread makes the calls in its own order, twice, so the threads race
    # to grow the same tables and powers and to publish the dicts that hold
    # them, and the second round reads stored batches through their powers;
    # every row of powers a thread leaves is its batch's
    threaded = (
        "import sys, threading\n"
        f"{_EXTRACTIONS}"
        "results = {}\n"
        "def work(i):\n"
        "    order = calls[i:] + calls[:i] if i % 2 else calls[::-1]\n"
        "    results[i] = sorted((c, extract(*c)) for c in 2 * order)\n"
        "interval = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]\n"
        "    for t in threads:\n"
        "        t.start()\n"
        "    for t in threads:\n"
        "        t.join(timeout=60)\n"
        "finally:\n"
        "    sys.setswitchinterval(interval)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        f"{_POWERS_HOLD}"
        "for i in range(4):\n"
        "    print(results[i])\n"
    )
    serial = f"{_EXTRACTIONS}print(sorted((c, extract(*c)) for c in 2 * calls))\n"
    expected = _printed_by(serial).splitlines()
    assert len(expected) == 1
    assert _printed_by(threaded).splitlines() == 4 * expected


_CALLS = (
    "from tetralog.bernoulli import bernoulli_ratio\n"
    "from tetralog.polylog import polylog_complex\n"
    "from tetralog.specfun import clausen_cos, clausen_sin\n"
    "calls = [lambda: polylog_complex(56, -3 + 2j), lambda: bernoulli_ratio(150),\n"
    "         *(lambda s=s: polylog_complex(s, 0.9 + 0.7j) for s in (2, 3, 17, 40)),\n"
    "         *(lambda s=s: polylog_complex(s, -0.8 + 0.3j) for s in (3, 29)),\n"
    "         *(lambda s=s: clausen_sin(s, 2.5) for s in (2, 11, 60)),\n"
    "         *(lambda s=s: clausen_cos(s, 0.4) for s in (3, 12, 61))]\n"
)


def test_threads_that_build_the_tables_together_get_the_serial_values():
    threaded = (
        "import sys, threading\n"
        f"{_CALLS}"
        "results = {}\n"
        "def work(i):\n"
        "    results[i] = [repr(call()) for call in calls]\n"
        "interval = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]\n"
        "    for t in threads:\n"
        "        t.start()\n"
        "    for t in threads:\n"
        "        t.join(timeout=60)\n"
        "finally:\n"
        "    sys.setswitchinterval(interval)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "for i in range(4):\n"
        "    print(*results[i], sep='\\n')\n"
    )
    serial = f"{_CALLS}for call in calls:\n    print(repr(call()))\n"
    expected = _printed_by(serial).splitlines()
    assert len(expected) == 14
    assert _printed_by(threaded).splitlines() == 4 * expected
