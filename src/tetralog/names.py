"""Ledger tags and Catalan route names.

They are the command line's option choices as well as ``verify``'s
vocabulary; kept here, apart from any numerical code, so that the command
line's option table loads nothing else.
"""

TAGS = (
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "prop1",
    "prop2",
    "sine",
    "catalan",
    "misc",
)

CATALAN_METHODS = (
    "series",
    "eq1.11",
    "eq2.22",
    "eq2.25",
    "eq2.27",
    "eq2.28a",
    "eq2.28c",
    "eq2.33",
    "eq2.35",
)
