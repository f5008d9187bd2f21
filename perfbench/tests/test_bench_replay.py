"""The replay makes the CLI's calls in the CLI's order and prints what the
CLI prints, so the same checks apply to both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))}


def replay(tmp_path, spec: dict, traced: bool = True):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"op": "test op", **spec}))
    spans = tmp_path / "spans.jsonl"
    argv = [sys.executable, str(HERE / "replay.py"), str(spec_file)]
    proc = subprocess.run(argv + ([str(spans)] if traced else []), capture_output=True,
                          text=True, env=ENV, timeout=120)
    events = spans.read_text().splitlines() if traced else []
    return proc, tracing.load_spans(events, None)


def test_bounds_replay_order_and_output(tmp_path):
    proc, spans = replay(tmp_path, {"kind": "bounds", "gen": ["sn", 6], "budget": 200000})
    assert proc.returncode == 0
    ref = {"rank": 3, "triangular_rank": 3, "psd_lower_bound": 4, "boolean_rank": [5, 5]}
    assert checks.classify("bounds", 0, False, proc.stdout, ref).status == checks.DECIDED
    assert [s["name"] for s in spans] == [
        "cli.bounds", "cli.import", "psd.generate_sn", "formats.format_matrix",
        "formats.parse_matrix", "pattern.support", "linalg.rank", "pattern.triangular_rank",
        "pattern.minimum_biclique_cover", "embed.embrkl_bounds", "psd.order3_exclusion",
    ]
    assert all(s["parent"] == 0 for s in spans[1:]) and not any(s["cut"] for s in spans)
    cover = next(s for s in spans if s["name"] == "pattern.minimum_biclique_cover")
    assert cover["counts"]["budget"] == 200000 and cover["counts"]["nodes"] > 0


def test_cover_replay_exhausts_and_refuses(tmp_path):
    h, hbar = inputs.disjointness(5, 2)
    (tmp_path / "h").write_text(inputs.format_graph(h, len(h)))
    (tmp_path / "hbar").write_text(inputs.format_graph(hbar, len(h)))
    spec = {"kind": "cover", "ones": str(tmp_path / "h"), "forbidden": str(tmp_path / "hbar")}
    proc, _ = replay(tmp_path, {**spec, "budget": 200000}, traced=False)
    assert proc.returncode == 0 and json.loads(proc.stdout)["value"] == 10
    proc, spans = replay(tmp_path, {**spec, "budget": 5})
    assert proc.returncode == 3
    out = checks.classify("cover", 3, False, proc.stdout, {"cover": [10, 10]})
    assert out.status == checks.ANSWERED
    h7, hbar7 = inputs.disjointness(7, 2)
    (tmp_path / "h").write_text(inputs.format_graph(h7, len(h7)))
    (tmp_path / "hbar").write_text(inputs.format_graph(hbar7, len(h7)))
    proc, spans = replay(tmp_path, {**spec, "budget": 5})
    assert proc.returncode == 2 and "min side" in proc.stderr
    assert spans[-1]["counts"] == {"budget": 5, "refused": 1}
