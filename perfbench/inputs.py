"""Inputs the benchmark writes for the program, generated without it.

Every generator here is written from the definitions in the paper, not
from the package: the banded family S_n, the clique-inequality slack
matrix of K_n, the disjointness graphs H(N, l) / Hbar(N, l), and seeded
nonnegative rational matrices of known rank.  Matrices are lists of rows
of Fractions; graphs are lists of right-neighbour bitmasks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

Matrix = list[list[Fraction]]


def sn(n: int) -> Matrix:
    """S_n(i, j) = (i-j-1)(i-j-2)/2, 1-based: nonnegative, rank 3 for n >= 3."""
    return [
        [Fraction((i - j - 1) * (i - j - 2), 2) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def cutpoly_slack(n: int) -> Matrix:
    """Rows: vertex sets U of K_n with |U| >= 2, by bitmask.  Columns: the
    2^(n-1) cuts, each by the smaller of its two vertex-class bitmasks.
    Entry floor(|U|^2/4) - |U cap W| * |U minus W|."""
    full = (1 << n) - 1
    cuts = sorted({min(w, full ^ w) for w in range(1 << n)})
    rows = []
    for u in range(1 << n):
        size = u.bit_count()
        if size < 2:
            continue
        row = []
        for w in cuts:
            a = (u & w).bit_count()
            row.append(Fraction(size * size // 4 - a * (size - a)))
        rows.append(row)
    return rows


def disjointness(n_ground: int, l: int) -> tuple[list[int], list[int]]:
    """(H, Hbar) on the l-subsets of {1..N}, ordered by bitmask: H joins
    disjoint subsets, Hbar subsets meeting in exactly one element."""
    subsets = sorted(
        sum(1 << (i - 1) for i in combo)
        for combo in combinations(range(1, n_ground + 1), l)
    )
    h, hbar = [], []
    for x in subsets:
        hm = hb = 0
        for j, y in enumerate(subsets):
            meet = (x & y).bit_count()
            if meet == 0:
                hm |= 1 << j
            elif meet == 1:
                hb |= 1 << j
        h.append(hm)
        hbar.append(hb)
    return h, hbar


def low_rank_matrix(rng: random.Random, m: int, n: int, r: int) -> Matrix:
    """W @ H with nonnegative rational W (m x r) and H (r x n), about a
    quarter of the factor entries zero, so rank <= r and S has zeros."""

    def entry() -> Fraction:
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(1, 9), rng.randint(1, 3))

    w = [[entry() for _ in range(r)] for _ in range(m)]
    h = [[entry() for _ in range(n)] for _ in range(r)]
    return [
        [sum((w[i][t] * h[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
        for i in range(m)
    ]


def dense_matrix(rng: random.Random, n: int) -> Matrix:
    """Square matrix of positive rationals p/q, p <= 99, q <= 9."""
    return [
        [Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(n)
    ]


def format_matrix(rows: Matrix) -> str:
    lines = [f"{len(rows)} {len(rows[0]) if rows else 0}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def format_graph(adj: list[int], right: int) -> str:
    lines = [f"{len(adj)} {right}"]
    for mask in adj:
        lines.append(" ".join(str(v + 1) for v in range(right) if (mask >> v) & 1))
    return "\n".join(lines) + "\n"
