"""Spans from the traced replay, self times, and the per-layer metrics.

A span is a dict with ``id``, ``name``, ``parent``, ``start``, ``end``,
``cut`` and ``counts``.  Its layer is the package module its name starts
with (``pattern.minimum_biclique_cover`` -> ``pattern``).  Self time is
the span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import statistics

LAYERS = ("cli", "formats", "cutpoly", "linalg", "pattern", "embed", "psd", "reduction")

COVER_SPANS = {"pattern.minimum_biclique_cover", "pattern.minimum_feasible_cover"}
CERT_SPANS = {"formats.embedding_to_json", "formats.factorization_to_json",
              "formats.certificate_to_json"}

# metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "formats.parse_s": {"formats.parse_matrix", "formats.parse_graph",
                        "formats.embedding_from_json", "formats.factorization_from_json",
                        "formats.float_factors_from_json"},
    "formats.emit_s": {"formats.format_matrix"} | CERT_SPANS,
    "cutpoly.gen_s": {"cutpoly.iter_slack_rows"},
    "linalg.rank_s": {"linalg.rank"},
    "pattern.triangular_rank_s": {"pattern.triangular_rank"},
    "pattern.cover_s": COVER_SPANS,
    "embed.embrkl_bounds_s": {"embed.embrkl_bounds"},
    "embed.from_rank_s": {"embed.embedding_from_rank_factorization"},
    "embed.psd_from_embedding_s": {"embed.psd_from_embedding"},
    "psd.order3_s": {"psd.order3_exclusion"},
    "psd.order3_scan_s": {"psd.order3_scan_probe"},
    "psd.verify_s": {"psd.verify_psd_factorization"},
    "psd.ldl_s": {"psd.ldl_probe"},
    "reduction.reduce_s": {"reduction.reduce_factor_ranks"},
}
# metric -> span whose calls it counts
CALL_METRICS = {
    "linalg.rank_calls": "linalg.rank",
    "pattern.triangular_rank_calls": "pattern.triangular_rank",
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def load_spans(lines, cut_time: float | None) -> list[dict]:
    """Spans from a replay's event stream.  A span that never closed was
    open when the op was killed; it ends at ``cut_time`` and is cut."""
    spans: dict[int, dict] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:  # a line torn by the kill
            continue
        if ev["ev"] == "open":
            spans[ev["id"]] = {"id": ev["id"], "name": ev["name"], "parent": ev["parent"],
                               "op": ev["op"], "start": ev["t"], "end": None,
                               "cut": False, "counts": {}}
        elif ev["id"] in spans:
            spans[ev["id"]].update(end=ev["t"], counts=ev["counts"])
    for s in spans.values():
        if s["end"] is None:
            s["end"] = cut_time if cut_time is not None else s["start"]
            s["cut"] = True
    return sorted(spans.values(), key=lambda s: s["id"])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, clipped to the span."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = max(0.0, s["end"] - s["start"] - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def open_layer(spans: list[dict]) -> str | None:
    """Layer of the innermost span that was open when the op was cut."""
    cut = [s for s in spans if s["cut"]]
    if not cut:
        return None
    depth = {}
    for s in spans:
        depth[s["id"]] = depth.get(s["parent"], -1) + 1 if s["parent"] is not None else 0
    return layer_of(max(cut, key=lambda s: (depth[s["id"]], s["id"]))["name"])


def layer_metrics(ops: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``ops`` holds each op's spans.

    Sign enumeration time is a ``min_sqrt_rank`` span, or an
    ``order3_exclusion`` span minus its op's scan probe; enumerations whose
    assignment count is unknown (cut, or inconclusive) are left out of the
    per-assignment rate.
    """
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{layer}.cut_ops": 0 for layer in LAYERS})
    m.update(dict.fromkeys(SELF_TIME_METRICS, 0.0))
    m.update(dict.fromkeys(CALL_METRICS, 0))
    m.update({"formats.cert_bytes": 0, "pattern.cover_nodes": 0, "pattern.cover_refused": 0,
              "pattern.cover_budget_ratio": 0.0, "psd.sign_assignments": 0})
    cover_done_s = enum_s = 0.0
    enum_assignments = 0
    for spans in ops:
        selfs = self_times(spans)
        layer = open_layer(spans)
        if layer is not None:
            m[f"{layer}.cut_ops"] += 1
        scan_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "psd.order3_scan_probe")
        for s in spans:
            name, c, own = s["name"], s["counts"], selfs[s["id"]]
            m[f"{layer_of(name)}.self_s"] += own
            for metric, names in SELF_TIME_METRICS.items():
                if name in names:
                    m[metric] += own
            for metric, call in CALL_METRICS.items():
                m[metric] += name == call
            m["formats.cert_bytes"] += c.get("bytes", 0) if name in CERT_SPANS else 0
            if name in COVER_SPANS:
                m["pattern.cover_refused"] += c.get("refused", 0)
                if "nodes" in c:
                    cover_done_s += own
                    m["pattern.cover_nodes"] += c["nodes"]
                    m["pattern.cover_budget_ratio"] = max(
                        m["pattern.cover_budget_ratio"], c["nodes"] / c["budget"])
            assignments = c.get("assignments", 0)
            m["psd.sign_assignments"] += assignments
            if assignments and name == "psd.min_sqrt_rank":
                enum_s += s["end"] - s["start"]
                enum_assignments += assignments
            elif assignments and name == "psd.order3_exclusion" and scan_s:
                enum_s += max(0.0, s["end"] - s["start"] - scan_s)
                enum_assignments += assignments
    m["pattern.cover_nodes_per_s"] = m["pattern.cover_nodes"] / cover_done_s if cover_done_s else 0.0
    m["psd.sign_us_per_assignment"] = 1e6 * enum_s / enum_assignments if enum_assignments else 0.0
    return m


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(psdbounds.cli, numpy) cumulative import seconds from ``-X importtime``.

    Lines read ``import time: self [us] | cumulative | name``.  Each module
    is listed once; the package's line covers everything it imports
    (numpy included) and ``psdbounds.cli``'s line the rest.
    """
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return (cumulative.get("psdbounds", 0.0) + cumulative.get("psdbounds.cli", 0.0),
            cumulative.get("numpy", 0.0))
