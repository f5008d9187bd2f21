"""The three workloads: their ops, the input files they read, and the
reference each op's output is checked against.

An op runs either as a CLI pipeline (``cli`` holds each stage's arguments
after ``python3 -m psdbounds.cli``) or, for library-level ops, as the
untraced replay.  ``spec`` tells the replay (perfbench/replay.py) how to
make the same calls through the public functions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import oracle

HERE = Path(__file__).resolve().parent
BUDGET = 200_000
SMALL_BUDGET = 20_000  # S_10 exhausts it within the limit, showing the per-branch budget
# At 200000, H(6,2) ends after 9-14 s on a 2-core box, straddling the limit;
# at 400000 it is cut every time.
COVER_BUDGET = 400_000
CHAIN_SHAPES = [(16, 20), (24, 28), (32, 32)]  # rank min(m, n) // 2
DENSE_SIZES = [60, 80, 100]


@dataclass
class Op:
    name: str
    kind: str                      # checks.CHECKS / replay.KINDS key
    spec: dict                     # replay arguments, input files
    ref: dict                      # what checks.classify compares against
    cli: list[list[str]] = field(default_factory=list)  # empty: library-level op
    prepare: Callable[[], bool] | None = None  # runs first; False = input missing


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _bounds_op(name: str, gen: list, budget: int, expected: dict, size: int) -> Op:
    return Op(
        name, "bounds", {"gen": gen, "budget": budget},
        {**expected, "trivial_gap": size - 1},
        cli=[["gen", *map(str, gen)], ["bounds", "--json", "--budget", str(budget)]],
    )


def support_search(work: Path, seed: int) -> list[Op]:
    ref = reference()
    ops = []
    for n, budget in [(6, BUDGET), (8, BUDGET), (9, BUDGET), (10, SMALL_BUDGET), (12, BUDGET)]:
        ops.append(_bounds_op(f"bounds S_{n} budget {budget}", ["sn", n], budget,
                              ref["sn"][str(n)], n))
    for n in (4, 5, 6):
        size = min((1 << n) - 1 - n, 1 << (n - 1))
        ops.append(_bounds_op(f"bounds cutpoly {n}", ["cutpoly", n], BUDGET,
                              ref["cutpoly"][str(n)], size))
    for n in (6, 7):
        h, hbar = inputs.disjointness(n, 2)
        spec = {
            "ones": _write(work / f"h{n}.txt", inputs.format_graph(h, len(h))),
            "forbidden": _write(work / f"hbar{n}.txt", inputs.format_graph(hbar, len(h))),
            "budget": COVER_BUDGET,
        }
        ops.append(Op(f"feasible cover H({n},2)", "cover", spec,
                      {"cover": ref["feasible_cover"][f"{n},2"], "trivial_gap": len(h) - 1}))
    return ops


def sign_enum(work: Path, seed: int) -> list[Op]:
    ref = reference()
    matrices = {f"S_{n}": inputs.sn(n) for n in (6, 12, 16, 24)}
    matrices["cutpoly 5"] = inputs.cutpoly_slack(5)
    files = {name: _write(work / f"{name.replace(' ', '_')}.txt", inputs.format_matrix(rows))
             for name, rows in matrices.items()}
    ops = [
        Op(f"order3-exclude {name}", "order3", {"file": files[name]},
           {"matrix": rows}, cli=[["order3-exclude", "--json", files[name]]])
        for name, rows in matrices.items()
    ]
    for block in ref["sqrt_blocks"]:
        rows_arg = ",".join(map(str, block["rows"]))
        cols_arg = ",".join(map(str, block["cols"]))
        file = files[f"S_{block['n']}"]
        ops.append(Op(
            f"sqrt-bound S_{block['n']} z={block['assignments'].bit_length() - 1}", "sqrt",
            {"file": file, "rows": block["rows"], "cols": block["cols"], "no_sign_fix": True},
            block,
            cli=[["sqrt-bound", "--json", "--no-sign-fix", "--rows", rows_arg,
                  "--cols", cols_arg, file]],
        ))
    return ops


def chain_inputs(seed: int) -> tuple[list, list]:
    """Seeded matrices of known rank: (rows, rank) for the chain and the
    dense set.  A draw whose rank mod p falls short is replaced."""
    rng = random.Random(seed)
    chain, dense = [], []
    for m, n in CHAIN_SHAPES:
        r = min(m, n) // 2
        while True:
            rows = inputs.low_rank_matrix(rng, m, n, r)
            if oracle.rank_mod(rows) == r:  # rank <= r by construction
                chain.append((rows, r))
                break
    for n in DENSE_SIZES:
        while True:
            rows = inputs.dense_matrix(rng, n)
            if oracle.rank_mod(rows) == n:
                dense.append((rows, n))
                break
    return chain, dense


def _write_t(fact_path: Path, t_path: Path, reduce_ref: dict) -> bool:
    """Matrix file of the T emitted by ``psd from-embedding``."""
    try:
        t = json.loads(fact_path.read_text())["T"]
    except (OSError, ValueError, KeyError):
        return False
    rows = [[Fraction(v) for v in row] for row in t]
    t_path.write_text(inputs.format_matrix(rows))
    reduce_ref["scale"] = max(1.0, float(max(max(row) for row in rows)))
    return True


def certify_chain(work: Path, seed: int) -> list[Op]:
    chain, dense = chain_inputs(seed)
    ops = []
    for i, (rows, r) in enumerate(chain):
        m, n = len(rows), len(rows[0])
        tag = f"{m}x{n} rank {r}"
        s = _write(work / f"chain{i}.txt", inputs.format_matrix(rows))
        emb, fact, t = (str(work / f"chain{i}{ext}") for ext in (".emb.json", ".fact.json", ".T.txt"))
        ref = {"matrix": rows, "rank": r}
        reduce_ref = {"shape": [m, n], "scale": 1.0}
        ops += [
            Op(f"rank {tag}", "rank", {"file": s}, ref, cli=[["rank", "--json", s]]),
            Op(f"embed from-rank {tag}", "embed", {"file": s, "out": emb}, ref,
               cli=[["embed", "from-rank", s]]),
            Op(f"psd from-embedding {tag}", "psd", {"file": emb, "out": fact}, ref,
               cli=[["psd", "from-embedding", emb]]),
            Op(f"verify psd {tag}", "verify", {"factorization": fact, "matrix": t}, ref,
               cli=[["verify", "psd", "--json", fact, t]],
               prepare=lambda f=Path(fact), tp=Path(t), rr=reduce_ref: _write_t(f, tp, rr)),
            Op(f"reduce-rank {tag}", "reduce", {"file": fact}, reduce_ref,
               cli=[["reduce-rank", "--json", fact]]),
        ]
    for i, (rows, r) in enumerate(dense):
        s = _write(work / f"dense{i}.txt", inputs.format_matrix(rows))
        ops.append(Op(f"rank dense {len(rows)}x{len(rows)}", "rank", {"file": s},
                      {"rank": r}, cli=[["rank", "--json", s]]))
    return ops


WORKLOADS = {
    "support-search": support_search,
    "sign-enum": sign_enum,
    "certify-chain": certify_chain,
}
