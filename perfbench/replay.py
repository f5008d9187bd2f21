"""Run one benchmark op through the package's public functions.

    python3 perfbench/replay.py SPEC.json [SPANS.jsonl]

SPEC names the op (see ``KINDS``) and its input files.  The calls follow
the order in which ``psdbounds.cli`` makes them, and the result is printed
as the JSON document the matching CLI command prints with ``--json``, with
the same exit codes (0 ok, 1 inconclusive or failed check, 2 refused,
3 search budget exhausted).

With SPANS, every call becomes a span streamed as two JSON lines: an
``open`` event when it starts and a ``close`` event (with counts) when it
ends, so a process killed at the time limit leaves its open spans behind.
Times are ``time.perf_counter()``, CLOCK_MONOTONIC on Linux, hence
comparable with the parent's clock.  Without SPANS nothing is recorded;
that is the untraced replay, and the library op of the support-search
workload.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, path: str | None, op: str):
        self.fh = open(path, "w", buffering=1, encoding="utf-8") if path else None
        self.op = op
        self.stack: list[int] = []
        self.next_id = 0

    def _write(self, event: dict) -> None:
        self.fh.write(json.dumps(event) + "\n")

    @contextmanager
    def span(self, name: str):
        """Yields a dict for counts, recorded when the span closes."""
        counts: dict = {}
        if self.fh is None:
            yield counts
            return
        sid, parent = self.next_id, (self.stack[-1] if self.stack else None)
        self.next_id += 1
        self._write({"ev": "open", "op": self.op, "id": sid, "name": name,
                     "parent": parent, "t": time.perf_counter()})
        self.stack.append(sid)
        try:
            yield counts
        finally:
            self.stack.pop()
            self._write({"ev": "close", "op": self.op, "id": sid,
                         "t": time.perf_counter(), "counts": counts})

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _print(doc: dict) -> None:
    print(json.dumps({"schema": 1, **doc}))


def run_bounds(tr: Tracer, spec: dict, pb) -> int:
    """``gen ... | bounds --budget B``: generator, then the report."""
    family, n = spec["gen"]
    if family == "sn":
        m = tr.call("psd.generate_sn", pb.generate_sn, n)
    else:
        rows = tr.call("cutpoly.iter_slack_rows", lambda: list(pb.iter_slack_rows(n)))
        m = pb.ExactMatrix.from_rows(rows)
    with tr.span("formats.format_matrix") as c:
        text = pb.formats.format_matrix(m)
        c["bytes"] = len(text)
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, text)
    pat = tr.call("pattern.support", pb.support, matrix)
    rk = tr.call("linalg.rank", pb.rank, matrix)
    tri = tr.call("pattern.triangular_rank", pb.triangular_rank, pat)
    budget = spec["budget"]
    with tr.span("pattern.minimum_biclique_cover") as c:
        c["budget"] = budget
        try:
            res = pb.minimum_biclique_cover(pat, budget=budget)
            brank, bbounds, c["nodes"] = res.size, None, res.nodes
        except pb.SearchBudgetExceeded as exc:
            brank, bbounds, c["nodes"] = None, [exc.lower, exc.upper], exc.nodes
    emb = tr.call("embed.embrkl_bounds", pb.embrkl_bounds, matrix)
    psd_lb = tri
    if matrix.is_nonnegative():
        with tr.span("psd.order3_exclusion") as c:
            cert = pb.order3_exclusion(matrix, cap=12, max_attempts=8)
            c["assignments"] = cert.assignments_checked
        if cert.conclusive and cert.bound > psd_lb:
            psd_lb = cert.bound
    _print({
        "kind": "bound_report",
        "rank": {"value": rk},
        "triangular_rank": {"value": tri},
        "boolean_rank": {"value": brank, "bounds": bbounds},
        "embedding_dim_bounds": {"value": list(emb)},
        "psd_rank_lower_bound": {"value": psd_lb},
    })
    return 0


def run_order3(tr: Tracer, spec: dict, pb) -> int:
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, _read(spec["file"]))
    fix = not spec.get("no_sign_fix", False)
    with tr.span("psd.order3_exclusion") as c:
        cert = pb.order3_exclusion(matrix, fix_global_sign=fix)
        c["assignments"] = cert.assignments_checked
    with tr.span("formats.certificate_to_json") as c:
        text = pb.formats.certificate_to_json(cert)
        c["bytes"] = len(text)
    # measurement probe, not a CLI call: the candidate scan alone
    tr.call("psd.order3_scan_probe", pb.order3_exclusion, matrix,
            fix_global_sign=fix, max_attempts=0)
    print(text, end="")
    return 0 if cert.conclusive else 1


def run_sqrt(tr: Tracer, spec: dict, pb) -> int:
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, _read(spec["file"]))
    with tr.span("psd.min_sqrt_rank") as c:
        res = pb.min_sqrt_rank(
            matrix, [k - 1 for k in spec["rows"]], [l - 1 for l in spec["cols"]],
            fix_global_sign=not spec.get("no_sign_fix", False),
        )
        c["assignments"] = res.assignments_checked
    _print({"kind": "sqrt_bound", "min_rank": res.min_rank,
            "assignments_checked": res.assignments_checked})
    return 0


def run_cover(tr: Tracer, spec: dict, pb) -> int:
    """Library-level feasible cover of H against Hbar (no CLI command)."""
    h = tr.call("formats.parse_graph", pb.formats.parse_graph, _read(spec["ones"]))
    hbar = tr.call("formats.parse_graph", pb.formats.parse_graph, _read(spec["forbidden"]))
    budget = spec["budget"]
    with tr.span("pattern.minimum_feasible_cover") as c:
        c["budget"] = budget
        try:
            res = pb.minimum_feasible_cover(h, hbar, budget=budget)
        except pb.SearchBudgetExceeded as exc:
            c["nodes"] = exc.nodes
            _print({"kind": "feasible_cover", "value": None,
                    "bounds": [exc.lower, exc.upper], "nodes": exc.nodes})
            return 3
        except ValueError as exc:
            c["refused"] = 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
        c["nodes"] = res.nodes
    _print({"kind": "feasible_cover", "value": res.size, "bounds": None, "nodes": res.nodes})
    return 0


def run_rank(tr: Tracer, spec: dict, pb) -> int:
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, _read(spec["file"]))
    _print({"kind": "rank", "value": tr.call("linalg.rank", pb.rank, matrix)})
    return 0


def run_embed(tr: Tracer, spec: dict, pb) -> int:
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, _read(spec["file"]))
    emb = tr.call("embed.embedding_from_rank_factorization",
                  pb.embedding_from_rank_factorization, matrix)
    with tr.span("formats.embedding_to_json") as c:
        text = pb.formats.embedding_to_json(emb)
        c["bytes"] = len(text)
    print(text, end="")
    return 0


def run_psd(tr: Tracer, spec: dict, pb) -> int:
    emb = tr.call("formats.embedding_from_json", pb.formats.embedding_from_json,
                  _read(spec["file"]))
    fact, t = tr.call("embed.psd_from_embedding", pb.psd_from_embedding, emb)
    with tr.span("formats.factorization_to_json") as c:
        text = pb.formats.factorization_to_json(fact)
        c["bytes"] = len(text)
    doc = json.loads(text)
    doc["T"] = [[str(v) for v in t.row(i)] for i in range(t.rows)]
    print(json.dumps(doc, indent=2))
    return 0


def run_verify(tr: Tracer, spec: dict, pb) -> int:
    fact = tr.call("formats.factorization_from_json", pb.formats.factorization_from_json,
                   _read(spec["factorization"]))
    matrix = tr.call("formats.parse_matrix", pb.formats.parse_matrix, _read(spec["matrix"]))
    report = tr.call("psd.verify_psd_factorization", pb.verify_psd_factorization, fact, matrix)
    # measurement probe, not a CLI call: the LDL^T psd certificates alone
    tr.call("psd.ldl_probe", pb.verify_psd_factorization, fact)
    _print({"kind": "verification", "passed": report.passed, "psd_ok": report.psd_ok,
            "trace_mismatches": [[k + 1, l + 1] for k, l in report.mismatches]})
    return 0 if report.passed else 1


def run_reduce(tr: Tracer, spec: dict, pb) -> int:
    import numpy as np

    a_rows, b_rows, order = tr.call("formats.float_factors_from_json",
                                    pb.formats.float_factors_from_json, _read(spec["file"]))
    a = [np.array(e).reshape(order, order) for e in a_rows]
    b = [np.array(e).reshape(order, order) for e in b_rows]
    report = tr.call("reduction.reduce_factor_ranks", pb.reduce_factor_ranks, a, b)
    _print({"kind": "rank_reduction", "a_ranks": list(report.a_ranks),
            "b_ranks": list(report.b_ranks), "max_residual": report.max_residual,
            "min_eigenvalue": report.min_eigenvalue})
    return 0


KINDS = {
    "bounds": run_bounds, "order3": run_order3, "sqrt": run_sqrt, "cover": run_cover,
    "rank": run_rank, "embed": run_embed, "psd": run_psd, "verify": run_verify,
    "reduce": run_reduce,
}


def main(argv: list[str]) -> int:
    spec = json.loads(_read(argv[0]))
    tr = Tracer(argv[1] if len(argv) > 1 else None, spec["op"])
    with tr.span(f"cli.{spec['kind']}"):
        with tr.span("cli.import"):
            import psdbounds as pb
            from psdbounds import formats  # noqa: F401  (pb.formats below)
        return KINDS[spec["kind"]](tr, spec, pb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
