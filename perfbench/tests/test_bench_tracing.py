"""Spans, self times, per-layer metrics and the end-to-end figures, on
canned event streams and op results."""

import json
from types import SimpleNamespace

import pytest

import checks
import hostspeed
import run
import tracing


def events(*items):
    """JSON lines from (ev, id, name, parent, t, counts) tuples."""
    lines = []
    for ev, sid, name, parent, t, counts in items:
        if ev == "open":
            lines.append(json.dumps({"ev": "open", "op": "o", "id": sid, "name": name,
                                     "parent": parent, "t": t}))
        else:
            lines.append(json.dumps({"ev": "close", "op": "o", "id": sid, "t": t,
                                     "counts": counts}))
    return lines


def test_self_time_subtracts_nested_children():
    spans = tracing.load_spans(events(
        ("open", 0, "cli.bounds", None, 0.0, None),
        ("open", 1, "formats.parse_matrix", 0, 1.0, None),
        ("close", 1, None, None, 2.0, {}),
        ("open", 2, "pattern.triangular_rank", 0, 3.0, None),
        ("open", 3, "linalg.rank", 2, 3.5, None),   # a grandchild stays in its parent
        ("close", 3, None, None, 4.0, {}),
        ("close", 2, None, None, 6.0, {}),
        ("close", 0, None, None, 10.0, {}),
    ), cut_time=None)
    selfs = tracing.self_times(spans)
    assert selfs == {0: pytest.approx(6.0), 1: pytest.approx(1.0),
                     2: pytest.approx(2.5), 3: pytest.approx(0.5)}
    assert tracing.open_layer(spans) is None


def test_cut_spans_end_at_the_kill_and_name_the_open_layer():
    lines = events(
        ("open", 0, "cli.bounds", None, 0.0, None),
        ("open", 1, "linalg.rank", 0, 1.0, None),
        ("close", 1, None, None, 2.0, {}),
        ("open", 2, "pattern.minimum_biclique_cover", 0, 2.0, None),
    )
    lines.append('{"ev": "clo')  # torn by the kill
    spans = tracing.load_spans(lines, cut_time=10.0)
    assert [s["cut"] for s in spans] == [True, False, True]
    assert spans[0]["end"] == spans[2]["end"] == 10.0
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)
    assert tracing.open_layer(spans) == "pattern"
    metrics = tracing.layer_metrics([spans])
    assert metrics["pattern.cut_ops"] == 1 and metrics["cli.cut_ops"] == 0
    assert metrics["pattern.cover_s"] == pytest.approx(8.0)
    assert metrics["pattern.cover_nodes"] == 0  # a cut search reports no count


def test_layer_metrics_counts():
    bounds = tracing.load_spans(events(
        ("open", 0, "cli.bounds", None, 0.0, None),
        ("open", 1, "linalg.rank", 0, 0.0, None),
        ("close", 1, None, None, 0.5, {}),
        ("open", 2, "pattern.minimum_biclique_cover", 0, 1.0, None),
        ("close", 2, None, None, 3.0, {"budget": 100, "nodes": 450}),
        ("open", 3, "psd.order3_exclusion", 0, 3.0, None),
        ("close", 3, None, None, 3.5, {"assignments": 256}),
        ("close", 0, None, None, 4.0, {}),
    ), None)
    sqrt = tracing.load_spans(events(
        ("open", 0, "cli.sqrt", None, 0.0, None),
        ("open", 1, "psd.min_sqrt_rank", 0, 0.0, None),
        ("close", 1, None, None, 0.5, {"assignments": 1000}),
        ("close", 0, None, None, 1.0, {}),
    ), None)
    m = tracing.layer_metrics([bounds, sqrt])
    assert m["linalg.rank_calls"] == 1 and m["linalg.rank_s"] == pytest.approx(0.5)
    assert m["pattern.cover_nodes"] == 450
    assert m["pattern.cover_budget_ratio"] == pytest.approx(4.5)
    assert m["pattern.cover_nodes_per_s"] == pytest.approx(225.0)
    assert m["psd.sign_assignments"] == 1256
    # the bounds op has no scan probe, so only the sqrt enumeration is timed
    assert m["psd.sign_us_per_assignment"] == pytest.approx(500.0)
    assert m["cli.self_s"] == pytest.approx(1.0 + 0.5)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1559 |      58607 |       numpy",
        "import time:       509 |     115000 |   psdbounds",
        "import time:      6990 |     134666 | psdbounds.cli",
    ])
    total, numpy = tracing.parse_importtime(stderr)
    assert total == pytest.approx(0.249666) and numpy == pytest.approx(0.058607)


def result(wall, status, rss=30.0, timed_out=False, gap=0, scale=1.0):
    return {"wall": wall, "scale": scale, "outcome": checks.Outcome(status, gap=gap),
            "res": SimpleNamespace(peak_rss_mb=rss, timed_out=timed_out)}


def test_end_to_end_median_and_sample_counts():
    passes = [
        [result(1.0, checks.DECIDED), result(3.0, checks.ANSWERED, rss=50.0),
         result(10.01, checks.FAILED, rss=500.0, timed_out=True)],
        [result(1.2, checks.DECIDED), result(2.0, checks.ANSWERED),
         result(0.2, checks.FAILED, rss=40.0)],  # refused: counts as the limit
        [result(5.0, checks.DECIDED), result(2.5, checks.ANSWERED),
         result(0.3, checks.FAILED)],
    ]
    summary, m = run.end_to_end_metrics([0.3, 0.1, 0.2], passes)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["wall_s"] == pytest.approx(1.2 + 2.5 + 0.3)  # per-op medians
    # per-op medians of 1.0 1.2 5.0 | 3.0 2.0 2.5 | 10.01 10.0 10.0 -> 2.5
    assert m["verdict_s_p50"] == pytest.approx(2.5)
    assert m["decided_frac"] == pytest.approx(3 / 9)
    assert m["answered_frac"] == pytest.approx(6 / 9)
    assert m["peak_rss_mb"] == 50.0  # the killed op's memory is not counted
    assert summary["samples"] == {"setup_s": 3, "wall_s": 3, "verdict_s_p50": 9}
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (9, 3, True)


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    passes = [[result(2.0, checks.DECIDED, scale=0.5),
               result(3.0, checks.DECIDED, scale=2.0),
               result(10.02, checks.FAILED, timed_out=True, scale=0.5)]]
    _, m = run.end_to_end_metrics([0.1], passes)
    # the killed op counts as the limit it was given, unscaled
    assert m["wall_s"] == pytest.approx(1.0 + 6.0 + 10.02)
    assert m["verdict_s_p50"] == pytest.approx(6.0)


def test_host_speed_scale():
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == pytest.approx(1.0)
    # a host twice as slow as the reference halves the measured times
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.scale(slow, slow) == pytest.approx(0.5)


def test_pass_outcomes():
    p = [result(1.0, checks.DECIDED), result(2.0, checks.ANSWERED, gap=3),
         result(10.0, checks.FAILED, gap=9)]
    assert run.pass_outcomes(p) == {"failed_frac": pytest.approx(1 / 3), "bound_gap": 12,
                                    "psd_lb_sum": 0}
