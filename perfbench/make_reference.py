"""Recompute perfbench/reference.json from independent oracles.

    PYTHONPATH=src python3 perfbench/make_reference.py

Sources, none of them the code under test: the paper's values for S_n
(rank 3, triangular rank 3, psd lower bound 4); plain Gaussian elimination
and brute-force covers from tests/oracles.py; and the checked intervals and
modular determinant proofs of perfbench/oracle.py.  The benchmark only
reads the frozen file; it never runs this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from oracles import minimum_cover_bruteforce, naive_rank  # noqa: E402

from psdbounds import (  # noqa: E402
    ExactMatrix,
    SupportPattern,
    generate_sn,
    graph_H,
    slack_matrix_cut_clique,
)

BRUTE_FORCE_COVER_MAX = 9  # S_n with n <= 9 and cutpoly 4 finish in seconds
TRIES = 300

# the sqrt-bound blocks of the sign-enum workload, 1-based
SQRT_BLOCKS = [
    (12, [2, 3, 4, 5], [1, 2, 3, 4]),
    (12, [1, 2, 3, 4], [1, 2, 4, 5]),
    (12, [1, 2, 3, 4], [1, 4, 5, 6]),
]


def cover_interval(rows, exact: bool) -> list[int]:
    bits = oracle.row_bits(rows)
    n_cols = len(rows[0])
    if exact:
        value = minimum_cover_bruteforce(SupportPattern.from_rows([[1 if v else 0 for v in r] for r in rows]))
        return [value, value]
    forbidden = [~b & ((1 << n_cols) - 1) for b in bits]
    return [
        oracle.fooling_lower(bits, forbidden, n_cols, TRIES),
        oracle.greedy_cover_upper(bits, forbidden, n_cols, TRIES),
    ]


def matrix_entry(rows, exact_cover: bool, paper_sn: bool) -> dict:
    rk = naive_rank(ExactMatrix.from_rows(rows))
    tri = oracle.triangular_lower(oracle.row_bits(rows), TRIES)
    if tri != rk:
        raise SystemExit("triangular rank not pinned down by a sequence of length rank")
    entry = {
        "rank": rk,
        "triangular_rank": tri,
        "boolean_rank": cover_interval(rows, exact_cover),
        "psd_lower_bound": 4 if paper_sn else tri,
    }
    if paper_sn and (rk, tri) != (3, 3):
        raise SystemExit("S_n disagrees with the paper")
    print(entry, flush=True)
    return entry


def main() -> None:
    ref: dict = {"sn": {}, "cutpoly": {}, "feasible_cover": {}, "sqrt_blocks": []}
    for n in (6, 8, 9, 10, 12, 16, 24):
        rows = inputs.sn(n)
        assert ExactMatrix.from_rows(rows) == generate_sn(n)
        ref["sn"][str(n)] = matrix_entry(rows, n <= BRUTE_FORCE_COVER_MAX, True)
    for n in (4, 5, 6):
        rows = inputs.cutpoly_slack(n)
        assert ExactMatrix.from_rows(rows) == slack_matrix_cut_clique(n)
        ref["cutpoly"][str(n)] = matrix_entry(rows, n == 4, False)
    for n in (6, 7):
        h, hbar = inputs.disjointness(n, 2)
        gh, ghbar = graph_H(n, 2)
        assert list(gh.adj) == h and list(ghbar.adj) == hbar
        ref["feasible_cover"][f"{n},2"] = [
            oracle.fooling_lower(h, hbar, len(h), TRIES),
            oracle.greedy_cover_upper(h, hbar, len(h), TRIES),
        ]
        print(n, ref["feasible_cover"][f"{n},2"], flush=True)
    for n, rows1, cols1 in SQRT_BLOCKS:
        s = inputs.sn(n)
        block = [[s[k - 1][l - 1] for l in cols1] for k in rows1]
        z = sum(1 for row in block for v in row if v)
        if not oracle.sqrt_block_full_rank(block, fix_first_sign=False):
            raise SystemExit("a square-root block is singular")
        ref["sqrt_blocks"].append(
            {"n": n, "rows": rows1, "cols": cols1, "min_rank": 4, "assignments": 1 << z}
        )
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
