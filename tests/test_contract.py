"""The public contract: exported names, ledger check ids and tags, and the
JSON report schema.  A refactor must leave all three exactly as they are."""

import json

import tetralog
from tetralog.cli import build_report, report_to_json
from tetralog.verify import TAGS, run_all

PUBLIC_NAMES = [
    "Angle", "BBPFormula", "CONSTANTS", "CheckRecord", "ConvergenceError",
    "DomainError", "EvalResult", "PolarPoint", "PrecisionError", "QuadProblem",
    "QuadratureError", "REGISTRY", "RationalAngle", "TAGS", "TetralogError",
    "UnknownCheckError", "__version__", "aggregate_pass", "alternating_sum",
    "catalan_value", "check_ids", "cl2", "cl2_rational", "cl_even", "cl_odd",
    "clausen_cos", "clausen_sin", "digamma", "eval_bbp_sum", "extract_hex_digits",
    "harmonic", "hurwitz_zeta", "i7_closed_form", "im_li2_polar", "integral_I7",
    "integral_I_ab", "integral_In", "integrate", "l7_hurwitz", "l7_series",
    "l7_trigamma", "li3_binomial_sums", "polygamma", "polylog_complex", "run_all",
    "run_check", "trigamma",
]

CHECKS_BY_TAG = {
    "lemma1": [
        "L1a", "L1b", "L1c", "L1d", "L1e-1", "L1e-2", "L1e-3", "L1f",
        "eq2.10a", "eq2.10b", "eq2.10c", "eq2.6",
    ],
    "lemma2": ["L2a", "L2b-1", "L2b-2", "L2c"],
    "lemma3": ["cat-2.28a", "cat-2.28b", "cat-2.28c"],
    "lemma4": ["L4a", "L4b", "L4c", "eq2.38", "eq2.39", "eq2.40", "eq2.41", "li3-binom"],
    "prop1": ["P1", "P1-3.10", "P1-3.11", "P1-3.3", "P1-3.9trunc"],
    "prop2": ["C2", "C3", "P2"],
    "sine": [
        "cheb7", "csc14", "csc7", "cscN", "sine10", "sine11", "sine12", "sine15",
        "sine5a", "sine5b", "sine7", "sine8a", "sine8b",
    ],
    "catalan": [
        "C1", "cat-2.22", "cat-2.25", "cat-2.27", "cat-2.32", "cat-2.33", "cat-2.34",
        "eq2.30",
    ],
    "misc": ["conj-L7", "dup", "eq1.12b", "eq4.1", "eq4.3", "mult", "refl", "zeta2"],
}

RECORD_KEYS = [
    "elapsed_ms", "id", "lhs", "note", "paper_ref", "residual", "rhs", "status", "tol",
]


def test_public_names_frozen():
    assert sorted(tetralog.__all__) == PUBLIC_NAMES


def test_check_ids_and_tags_frozen():
    assert set(TAGS) == set(CHECKS_BY_TAG)
    pairs = sorted((r.id, tag) for tag in TAGS for r in run_all(tag=tag))
    want = sorted((cid, tag) for tag, ids in CHECKS_BY_TAG.items() for cid in ids)
    assert len(want) == 64
    assert pairs == want


def test_json_report_keys_frozen():
    payload = json.loads(report_to_json(build_report(run_all(tag="prop1"))))
    assert sorted(payload) == ["records", "schema_version", "summary", "timestamp", "tool_version"]
    assert payload["schema_version"] == "1"
    assert sorted(payload["summary"]) == ["conjecture", "errored", "failed", "passed", "total"]
    for rec in payload["records"]:
        assert sorted(rec) == RECORD_KEYS
