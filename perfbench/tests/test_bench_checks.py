"""Exit classification and output checks, on outputs the CLI printed.

The files under canned/ are verbatim ``--json`` outputs of the CLI (and
of the replay for the feasible cover), so these tests pin the parsers to
the real output of every command the benchmark runs.

    python3 -m pytest perfbench/tests -q
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
from checks import ANSWERED, DECIDED, FAILED, classify

CANNED = Path(__file__).resolve().parent / "canned"
S6 = inputs.sn(6)
M45 = [[Fraction(v) for v in row.split()] for row in
       (CANNED / "m45.txt").read_text().splitlines()[1:]]
SN_REF = {"rank": 3, "triangular_rank": 3, "psd_lower_bound": 4, "trivial_gap": 5}


def canned(name: str) -> str:
    return (CANNED / name).read_text()


def test_bounds_exact():
    out = classify("bounds", 0, False, canned("bounds_s6.json"), {**SN_REF, "boolean_rank": [5, 5]})
    assert out == checks.Outcome(DECIDED, psd_lb=4)


def test_bounds_exhausted_is_answered_with_its_gap():
    ref = {**SN_REF, "boolean_rank": [4, 6]}
    out = classify("bounds", 0, False, canned("bounds_s10_exhausted.json"), ref)
    assert (out.status, out.gap, out.psd_lb, out.wrong) == (ANSWERED, 3, 4, False)


@pytest.mark.parametrize("ref_change", [
    {"rank": 4},
    {"boolean_rank": [6, 6]},
    {"psd_lower_bound": 5},
])
def test_bounds_disagreement_is_wrong(ref_change):
    ref = {**SN_REF, "boolean_rank": [5, 5], **ref_change}
    out = classify("bounds", 0, False, canned("bounds_s6.json"), ref)
    assert out.status == FAILED and out.wrong and out.gap == 5


def test_bounds_interval_must_meet_the_proven_one():
    ref = {**SN_REF, "boolean_rank": [7, 9]}  # reported [3, 6] misses it
    out = classify("bounds", 0, False, canned("bounds_s10_exhausted.json"), ref)
    assert out.wrong


def test_order3_conclusive_is_checked_mod_p():
    out = classify("order3", 0, False, canned("order3_s6.json"), {"matrix": S6})
    assert out == checks.Outcome(DECIDED)


def test_order3_wrong_assignment_count():
    doc = json.loads(canned("order3_s6.json"))
    doc["assignments_checked"] = 128
    out = classify("order3", 0, False, json.dumps(doc), {"matrix": S6})
    assert out.wrong and "assignments" in out.reason


def test_order3_inconclusive_is_answered():
    out = classify("order3", 1, False, canned("order3_c4_inconclusive.json"),
                   {"matrix": inputs.cutpoly_slack(4)})
    assert (out.status, out.reason, out.wrong) == (ANSWERED, "inconclusive", False)


def test_sqrt_bound():
    ref = {"min_rank": 4, "assignments": 512}
    assert classify("sqrt", 0, False, canned("sqrt_s6.json"), ref).status == DECIDED
    assert classify("sqrt", 0, False, canned("sqrt_s6.json"), {**ref, "min_rank": 3}).wrong


def test_rank():
    assert classify("rank", 0, False, canned("rank_m45.json"), {"rank": 2}).status == DECIDED
    assert classify("rank", 0, False, canned("rank_m45.json"), {"rank": 3}).wrong


def test_certificate_chain_outputs():
    ref = {"matrix": M45, "rank": 2}
    assert classify("embed", 0, False, canned("embed_m45.json"), ref).status == DECIDED
    assert classify("psd", 0, False, canned("psd_m45.json"), ref).status == DECIDED
    assert classify("verify", 0, False, canned("verify_m45.json"), ref).status == DECIDED
    reduce_ref = {"shape": [4, 5], "scale": 1.0}
    assert classify("reduce", 0, False, canned("reduce_m45.json"), reduce_ref).status == DECIDED


def test_psd_tampered_trace_is_wrong():
    doc = json.loads(canned("psd_m45.json"))
    doc["T"][0][0] = "2"
    out = classify("psd", 0, False, json.dumps(doc), {"matrix": M45, "rank": 2})
    assert out.wrong and "tr(A_1 B_1)" in out.reason


def test_psd_non_psd_factor_is_wrong():
    doc = json.loads(canned("psd_m45.json"))
    doc["A"][0] = ["-1", "0", "0", "0"]
    out = classify("psd", 0, False, json.dumps(doc), {"matrix": M45, "rank": 2})
    assert out.wrong and "psd" in out.reason


def test_cover_outputs():
    ref = {"cover": [10, 14], "trivial_gap": 14}
    exact = json.dumps({"kind": "feasible_cover", "value": 12, "bounds": None, "nodes": 5})
    assert classify("cover", 0, False, exact, ref) == checks.Outcome(DECIDED)
    bounded = json.dumps({"kind": "feasible_cover", "value": None, "bounds": [8, 14], "nodes": 9})
    assert classify("cover", 3, False, bounded, ref) == checks.Outcome(ANSWERED, "bounds", gap=6)
    too_small = json.dumps({"kind": "feasible_cover", "value": 9, "bounds": None, "nodes": 5})
    assert classify("cover", 0, False, too_small, ref).wrong


@pytest.mark.parametrize("code,timed_out,reason", [
    (-9, True, "time limit"),
    (2, False, "refused"),
    (-11, False, "exit -11"),
    (1, False, "exit 1"),      # bounds never exits 1
    (3, False, "exit 3"),      # nor 3: exhaustion is reported with exit 0
])
def test_exit_classification(code, timed_out, reason):
    out = classify("bounds", code, timed_out, "", {**SN_REF, "boolean_rank": [5, 5]})
    assert (out.status, out.reason, out.wrong, out.gap) == (FAILED, reason, False, 5)


def test_unreadable_output_is_wrong():
    out = classify("rank", 0, False, "3\n", {"rank": 3})
    assert out.status == FAILED and out.wrong
