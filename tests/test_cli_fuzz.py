"""Fuzz the command line: any argv built from the three subcommands' flags,
hostile values included, ends in exit code 0, 1 or 2 and never raises; every
error is one ``error:`` line."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from tetralog.cli import EVAL_TARGETS, main
from tetralog.names import CATALAN_METHODS, TAGS

HOSTILE = st.sampled_from(
    [
        "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1", "0", "0.5", "3",
        "7.25", "-2.5", str(2**40), str(10**30), "bogus", "",
    ]
)


def _flags(pairs: dict) -> st.SearchStrategy[list[str]]:
    """Any subset of ``pairs`` (flag -> value strategy), as one flat argv list."""
    return st.lists(
        st.sampled_from(sorted(pairs)).flatmap(lambda f: pairs[f].map(lambda v: [f, v])),
        max_size=len(pairs),
    ).map(lambda chunks: [token for chunk in chunks for token in chunk])


EVAL = st.tuples(
    st.sampled_from([*EVAL_TARGETS, "bogus"]),
    _flags(
        {
            **{f: HOSTILE for f in ("--theta", "--order", "--x", "--s", "--a", "--b",
                                    "--re", "--im", "--tol")},
            "--method": st.sampled_from([*CATALAN_METHODS, "bogus"]),
            "--route": st.sampled_from(["series", "trigamma", "hurwitz", "bogus"]),
        }
    ),
).map(lambda t: ["eval", t[0], *t[1]])

# verify only through --check: a whole-ledger run per example would be slow
VERIFY = st.tuples(
    st.sampled_from(["P1", "sine7", "C1", "conj-L7", "bogus"]),
    _flags(
        {
            "--tol": HOSTILE,
            "--tol-scale": HOSTILE,
            "--tag": st.sampled_from([*TAGS, "bogus"]),
            "--format": st.sampled_from(["text", "json", "bogus"]),
        }
    ),
    st.booleans(),
).map(lambda t: ["verify", "--check", t[0], *t[1], *(["--all"] if t[2] else [])])

# positions stay small, so that every accepted request returns at once
DIGITS = _flags(
    {
        "--formula": st.sampled_from(["pi-degree1", "eq2.35-sum", "eq2.37-sum", "bogus"]),
        "--position": st.sampled_from(["0", "7", "100", "-1", "1e3", "nan", str(10**30)]),
        "--count": st.sampled_from(["0", "1", "4", "13", "-3", str(10**30), "x"]),
    }
).map(lambda flags: ["digits", *flags])


@settings(max_examples=300, deadline=None)
@given(st.one_of(EVAL, VERIFY, DIGITS))
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    msg = err.getvalue()
    if code == 1 and msg == "":
        return  # a failed check, reported on stdout
    if code == 0:
        assert msg == "", argv
    else:
        assert msg.startswith("error: ") and msg.count("\n") == 1, (argv, msg)
