"""Classify each op's exit and check its output against the reference.

An op is *decided* when it returned an exact value or a conclusive
certificate, *answered* when it returned proven bounds (budget exhausted)
or an inconclusive order-3 result, and *failed* when it hit the time
limit, was refused (exit 2), crashed, or disagreed with the reference.
Only a disagreement makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import oracle

DECIDED, ANSWERED, FAILED = "decided", "answered", "failed"

# exit codes each kind may return with a checkable answer
ALLOWED_EXITS = {
    "bounds": {0}, "order3": {0, 1}, "sqrt": {0}, "cover": {0, 3}, "rank": {0},
    "embed": {0}, "psd": {0}, "verify": {0, 1}, "reduce": {0},
}


@dataclass(frozen=True)
class Outcome:
    status: str
    reason: str = ""
    wrong: bool = False        # output disagreed with the reference
    gap: int = 0               # upper - lower of a proven cover interval
    psd_lb: int = 0            # certified psd-rank lower bound of a bounds op


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def classify(kind: str, code: int | None, timed_out: bool, text: str, ref: dict) -> Outcome:
    """``code`` is the exit status of the pipeline's last stage (negative:
    killed by that signal), or of the first stage that failed."""
    trivial_gap = ref.get("trivial_gap", 0)
    if timed_out:
        return Outcome(FAILED, "time limit", gap=trivial_gap)
    if code == 2:
        return Outcome(FAILED, "refused", gap=trivial_gap)
    if code is None or code not in ALLOWED_EXITS[kind]:
        return Outcome(FAILED, f"exit {code}", gap=trivial_gap)
    try:
        return CHECKS[kind](code, text, ref)
    except Mismatch as exc:
        return Outcome(FAILED, f"wrong: {exc}", wrong=True, gap=trivial_gap)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(FAILED, f"wrong: unreadable output ({exc!r})", wrong=True, gap=trivial_gap)


def _interval_answer(value, bounds, ref_interval) -> tuple[str, int]:
    """Check an exact value or proven [lower, upper] against the reference
    interval; returns (status, gap)."""
    lo_ref, hi_ref = ref_interval
    if value is not None:
        _expect(lo_ref <= value <= hi_ref, f"value {value} outside proven [{lo_ref},{hi_ref}]")
        return DECIDED, 0
    lo, hi = bounds
    _expect(lo <= hi, f"empty interval [{lo},{hi}]")
    _expect(lo <= hi_ref and hi >= lo_ref, f"[{lo},{hi}] excludes proven [{lo_ref},{hi_ref}]")
    return ANSWERED, hi - lo


def check_bounds(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "bound_report", "not a bound report")
    _expect(doc["rank"]["value"] == ref["rank"], f"rank {doc['rank']['value']}")
    tri = doc["triangular_rank"]["value"]
    _expect(tri == ref["triangular_rank"], f"triangular rank {tri}")
    _expect(doc["embedding_dim_bounds"]["value"] == [ref["triangular_rank"], ref["rank"]],
            "embedding dimension bounds")
    b = doc["boolean_rank"]
    status, gap = _interval_answer(b["value"], b["bounds"], ref["boolean_rank"])
    lb = doc["psd_rank_lower_bound"]["value"]
    _expect(lb == ref["psd_lower_bound"], f"psd rank lower bound {lb}")
    return Outcome(status, "" if status == DECIDED else "bounds", gap=gap, psd_lb=lb)


def check_cover(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "feasible_cover", "not a feasible cover")
    _expect((doc["value"] is None) == (code == 3), "exit code and value disagree")
    status, gap = _interval_answer(doc["value"], doc["bounds"], ref["cover"])
    return Outcome(status, "" if status == DECIDED else "bounds", gap=gap)


def check_order3(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "order3_certificate", "not an order-3 certificate")
    if code == 1:
        _expect(doc["claim"] == "inconclusive" and doc["bound"] is None, "exit 1 with a claim")
        return Outcome(ANSWERED, "inconclusive")
    _expect(doc["claim"] == "psd rank >= 4" and doc["bound"] == 4, f"claim {doc['claim']!r}")
    matrix = ref["matrix"]
    rows, cols = doc["rows"], doc["cols"]
    _expect(len(set(rows)) == 4 and len(set(cols)) == 4, "block is not 4x4")
    _expect(all(1 <= k <= len(matrix) for k in rows), "row index out of range")
    _expect(all(1 <= l <= len(matrix[0]) for l in cols), "column index out of range")
    block = [[matrix[k - 1][l - 1] for l in cols] for k in rows]
    z = sum(1 for row in block for v in row if v)
    fix = not ref.get("no_sign_fix", False)
    expected = 1 << (z - 1 if fix else z)
    _expect(doc["assignments_checked"] == expected,
            f"{doc['assignments_checked']} assignments, block has {expected}")
    _expect(doc["min_rank"] >= 4, f"min rank {doc['min_rank']}")
    _expect(oracle.sqrt_block_full_rank(block, fix_first_sign=fix),
            "a square root of the block is singular")
    return Outcome(DECIDED)


def check_sqrt(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "sqrt_bound", "not a sqrt bound")
    _expect(doc["min_rank"] == ref["min_rank"], f"min rank {doc['min_rank']}")
    _expect(doc["assignments_checked"] == ref["assignments"],
            f"{doc['assignments_checked']} assignments")
    return Outcome(DECIDED)


def check_rank(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "rank" and doc["value"] == ref["rank"], f"rank {doc.get('value')}")
    return Outcome(DECIDED)


def check_embed(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    matrix, r = ref["matrix"], ref["rank"]
    _expect(doc["kind"] == "subspace_embedding", "not an embedding")
    _expect(doc["ambient_dim"] == r, f"ambient dimension {doc['ambient_dim']}")
    _expect(len(doc["U"]) == len(matrix) and len(doc["V"]) == len(matrix[0]), "wrong shape")
    _expect(all(len(u["basis"]) <= 1 for u in doc["U"]), "a row space is more than a line")
    _expect(all(len(b) == r for w in doc["U"] + doc["V"] for b in w["basis"]),
            "a basis vector outside the ambient space")
    return Outcome(DECIDED)


def _flat_mod(entries) -> list[int]:
    return [oracle.to_mod(Fraction(v)) for v in entries]


def _is_psd_exact(entries: list[Fraction], q: int) -> bool:
    """Symmetric elimination with diagonal pivots over Q."""
    a = [entries[i * q:(i + 1) * q] for i in range(q)]
    active = list(range(q))
    while active:
        diag = [(a[i][i], i) for i in active]
        if any(d < 0 for d, _ in diag):
            return False
        pos = [i for d, i in diag if d > 0]
        if not pos:
            return all(a[i][j] == 0 for i in active for j in active)
        p = pos[0]
        active.remove(p)
        for i in active:
            f = a[i][p] / a[p][p]
            for j in active:
                a[i][j] -= f * a[p][j]
    return True


def _is_psd(entries: list[str], q: int) -> bool:
    """Symmetric and psd.  A symmetric idempotent matrix (a projection) is
    psd; idempotence is tested modulo P61, other matrices exactly."""
    exact = [Fraction(v) for v in entries]
    if any(exact[i * q + j] != exact[j * q + i] for i in range(q) for j in range(i)):
        return False
    m = _flat_mod(entries)
    p = oracle.P61
    rows = [m[i * q:(i + 1) * q] for i in range(q)]
    cols = list(zip(*rows))
    if all(sum(x * y for x, y in zip(rows[i], cols[j])) % p == rows[i][j]
           for i in range(q) for j in range(q)):
        return True
    return _is_psd_exact(exact, q)


def check_psd(code: int, text: str, ref: dict) -> Outcome:
    """A psd factorization of order rank(S) whose product T has supp(S)."""
    doc = json.loads(text)
    matrix, q = ref["matrix"], ref["rank"]
    _expect(doc["kind"] == "psd_factorization", "not a psd factorization")
    _expect(doc["order"] == q, f"order {doc['order']}")
    t = [[Fraction(v) for v in row] for row in doc["T"]]
    _expect(len(doc["A"]) == len(t) == len(matrix), "wrong number of rows")
    _expect(len(doc["B"]) == len(t[0]) == len(matrix[0]), "wrong number of columns")
    _expect(all(len(e) == q * q for e in doc["A"] + doc["B"]), "factor of the wrong order")
    _expect(all(bool(x) == bool(s) for tr, sr in zip(t, matrix) for x, s in zip(tr, sr)),
            "supp(T) differs from supp(S)")
    _expect(all(_is_psd(e, q) for e in doc["A"] + doc["B"]), "a factor is not psd")
    a = [_flat_mod(e) for e in doc["A"]]
    b = [_flat_mod(e) for e in doc["B"]]
    p = oracle.P61
    for k, ak in enumerate(a):
        for l, bl in enumerate(b):  # tr(A B) = <A, B> for symmetric B
            _expect(sum(x * y for x, y in zip(ak, bl)) % p == oracle.to_mod(t[k][l]),
                    f"tr(A_{k + 1} B_{l + 1}) != T({k + 1},{l + 1})")
    return Outcome(DECIDED)


def check_verify(code: int, text: str, ref: dict) -> Outcome:
    doc = json.loads(text)
    _expect(doc["kind"] == "verification", "not a verification")
    _expect(doc["passed"] is True and code == 0, "rejects a checked factorization")
    return Outcome(DECIDED)


def check_reduce(code: int, text: str, ref: dict) -> Outcome:
    """Barvinok's bound r(r+1)/2 <= #constraints on every reduced factor,
    with the trace constraints and psd-ness kept to float tolerance."""
    doc = json.loads(text)
    m, n = ref["shape"]
    _expect(doc["kind"] == "rank_reduction", "not a rank reduction")
    _expect(len(doc["a_ranks"]) == m and len(doc["b_ranks"]) == n, "wrong number of factors")
    _expect(all(r * (r + 1) // 2 <= n for r in doc["a_ranks"]), f"A ranks {doc['a_ranks']}")
    _expect(all(r * (r + 1) // 2 <= m for r in doc["b_ranks"]), f"B ranks {doc['b_ranks']}")
    _expect(doc["max_residual"] <= 1e-6 * ref["scale"], f"residual {doc['max_residual']}")
    _expect(doc["min_eigenvalue"] >= -1e-6, f"min eigenvalue {doc['min_eigenvalue']}")
    return Outcome(DECIDED)


CHECKS = {
    "bounds": check_bounds, "order3": check_order3, "sqrt": check_sqrt, "cover": check_cover,
    "rank": check_rank, "embed": check_embed, "psd": check_psd, "verify": check_verify,
    "reduce": check_reduce,
}
