"""Traced stand-in for the ``tetralog`` console script, used by the cold-CLI
workloads' traced runs.

    python3 perfbench/traced_cli.py <with-spans 0|1> <tetralog arguments...>

It imports the package inside an ``import`` span, wraps every layer's public
functions, then calls ``tetralog.cli.main(argv)`` with the CLI's output
captured. It prints one JSON object: the exit code, the captured output, the
span aggregates, the Bernoulli cache misses and, with ``with-spans`` 1, the
raw spans.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402

tracer = spans.Tracer()
with tracer.span("import", "import"):
    import tetralog.cli  # noqa: E402

spans.install(tracer)
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = tetralog.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
payload = tracer.payload(with_spans=sys.argv[1] == "1")
payload.update(code=code, stdout=out.getvalue(), stderr=err.getvalue(), misses=spans.cache_misses())
sys.stdout.write(json.dumps(payload))
