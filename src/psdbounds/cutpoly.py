"""The generators: cuts, cliques, disjointness graphs and the S_n family.

Builds the bipartite graph between cliques of K_n and cuts (edge exactly
when the clique inequality has positive slack on the cut), the integer
clique-inequality slack matrix, the two disjointness graphs on l-element
subsets, the subset identity used to map covers between the two worlds,
and the banded rank-3 matrices S_n.  Vertex sets are bitsets over
{0..n-1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import ExactMatrix

# `pattern` is imported only by the two graph builders, so `gen cutpoly` skips it
if TYPE_CHECKING:
    from .pattern import BipartiteGraph

MAX_CUT_N = 8
MAX_SUBSET_COUNT = 1000
MAX_REDUCTION_N = 18


@_frozen
class Cut:
    """Cut of K_n given by a vertex class; stored canonically.

    delta(W) = delta(V \\ W), so the class with the smaller bitmask
    represents both; K_n has exactly 2^(n-1) distinct cuts.
    """

    n: int
    members: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.members & ~full:
            raise ValueError("vertex bitset out of range")
        canon = min(self.members, full ^ self.members)
        object.__setattr__(self, "members", canon)


@_frozen
class Clique:
    """Clique of K_n: any vertex set of size at least 2 spans one."""

    n: int
    members: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.members & ~full:
            raise ValueError("vertex bitset out of range")
        if self.members.bit_count() < 2:
            raise ValueError("cliques smaller than 2 vertices span no edges")

    @property
    def size(self) -> int:
        return self.members.bit_count()


def _check_cut_n(n: int) -> None:
    """Refuse a K_n outside 2 <= n <= MAX_CUT_N."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > MAX_CUT_N:
        raise ValueError(f"n = {n} exceeds the cap {MAX_CUT_N}")


def _l_subsets(n_ground: int, l: int) -> list[int]:
    """The l-subsets of {1..n_ground} as sorted bitsets, element i at bit i - 1."""
    return sorted(sum(1 << i for i in combo) for combo in combinations(range(n_ground), l))


def all_cuts(n: int) -> list[Cut]:
    """The 2^(n-1) distinct cuts of K_n, sorted by canonical bitmask."""
    full = (1 << n) - 1
    canon = {min(w, full ^ w) for w in range(1 << n)}
    return [Cut(n, w) for w in sorted(canon)]


def all_cliques(n: int) -> list[Clique]:
    """All vertex sets of size >= 2, sorted by bitmask."""
    return [
        Clique(n, u) for u in range(1 << n) if u.bit_count() >= 2
    ]


def cut_clique_slack(u: Clique, w: Cut) -> Fraction:
    """|U|^2/4 minus the number of clique edges crossing the cut.

    The crossing edges inside U are the bipartite pairs between U cap W and
    U minus W, so the slack is |U|^2/4 - a*b with a + b = |U|; it vanishes
    exactly at balanced splits of even cliques and is otherwise positive.
    """
    if u.n != w.n:
        raise ValueError("clique and cut must live on the same K_n")
    a = (u.members & w.members).bit_count()
    b = u.size - a
    return Fraction(u.size * u.size, 4) - a * b


def graph_G(n: int) -> BipartiteGraph:
    """Bipartite graph: cliques x cuts, edge iff the slack is positive.

    Equivalently there is no edge exactly when the cut splits the clique
    in half; the construction asserts that equivalence on every pair.
    """
    from .pattern import BipartiteGraph

    _check_cut_n(n)
    cliques = all_cliques(n)
    cuts = all_cuts(n)
    adj = []
    for u in cliques:
        mask = 0
        for j, w in enumerate(cuts):
            slack = cut_clique_slack(u, w)
            balanced = 2 * (u.members & w.members).bit_count() == u.size
            if (slack > 0) == balanced:
                raise AssertionError(
                    "slack positivity must equal the unbalanced-split test"
                )
            if slack > 0:
                mask |= 1 << j
        adj.append(mask)
    return BipartiteGraph(len(cliques), len(cuts), adj)


def slack_matrix_cut_clique(n: int) -> ExactMatrix:
    """Integer clique-inequality slack matrix: floor(|U|^2/4) - |crossing|.

    Rows are cliques (|U| >= 2), columns cuts.  Entries are nonnegative;
    on even cliques the support matches the edges of :func:`graph_G`, while
    odd cliques can reach slack zero here although their strict-inequality
    slack never vanishes.
    """
    return ExactMatrix.from_rows(iter_slack_rows(n))


def iter_slack_rows(n: int):
    """Row-wise generator behind :func:`slack_matrix_cut_clique`."""
    _check_cut_n(n)
    cuts = all_cuts(n)
    for u in all_cliques(n):
        row = []
        for w in cuts:
            a = (u.members & w.members).bit_count()
            b = u.size - a
            row.append(Fraction(u.size * u.size // 4 - a * b))
        yield row


def graph_H(n_ground: int, l: int) -> tuple[BipartiteGraph, BipartiteGraph]:
    """Disjointness graphs on l-subsets of {1..N}.

    Both graphs share the vertex sets (the l-subsets on each side, sorted
    by bitmask): H has an edge exactly on disjoint pairs, Hbar exactly on
    pairs meeting in one element, so their edge sets are disjoint.
    """
    from .pattern import BipartiteGraph

    if not 1 <= l <= n_ground:
        raise ValueError("need 1 <= l <= N")
    count = comb(n_ground, l)
    if count > MAX_SUBSET_COUNT:
        raise ValueError(
            f"binomial({n_ground},{l}) = {count} exceeds the cap {MAX_SUBSET_COUNT}"
        )
    subsets = _l_subsets(n_ground, l)
    h_adj = []
    hbar_adj = []
    for x in subsets:
        hm = 0
        hb = 0
        for j, y in enumerate(subsets):
            inter = (x & y).bit_count()
            if inter == 0:
                hm |= 1 << j
            elif inter == 1:
                hb |= 1 << j
        h_adj.append(hm)
        hbar_adj.append(hb)
    return (
        BipartiteGraph(count, count, h_adj),
        BipartiteGraph(count, count, hbar_adj),
    )


@_frozen
class AppendixCheckResult:
    ok: bool
    pairs_checked: int
    ground_size: int
    subset_size: int

    def __bool__(self) -> bool:
        return self.ok


def appendix_reduction_check(n: int) -> AppendixCheckResult:
    """Verify the subset identity behind the cover reduction, exhaustively.

    With N = n/2, l = floor(N/4), the clique U = x + fixed tail and the cut
    class W = y + the same tail (x, y ranging over l-subsets of {1..N})
    satisfy: the cut splits the clique in half iff |x cap y| = 1.  Requires
    n = 2 mod 8 and l >= 2 (the tail recipe degenerates below n = 18).
    """
    if n % 8 != 2:
        raise ValueError("n must be 2 mod 8")
    if n > MAX_REDUCTION_N:
        raise ValueError(f"n = {n} exceeds the cap {MAX_REDUCTION_N}")
    ground = n // 2
    l = ground // 4
    if l < 2:
        raise ValueError("n < 18 makes the clique size 2l-2 degenerate")
    # tail occupies ground-set positions N+1 .. N+l-2 (empty when l = 2)
    tail = 0
    for pos in range(ground, ground + l - 2):
        tail |= 1 << pos
    u_size = 2 * l - 2
    subsets = _l_subsets(ground, l)
    pairs = 0
    ok = True
    for x in subsets:
        u_set = x | tail
        if u_set.bit_count() != u_size:
            raise AssertionError("clique construction lost an element")
        for y in subsets:
            w_set = y | tail
            pairs += 1
            balanced = 2 * (u_set & w_set).bit_count() == u_size
            unique_meet = (x & y).bit_count() == 1
            if balanced != unique_meet:
                ok = False
    return AppendixCheckResult(ok, pairs, ground, l)


def generate_sn(n: int) -> ExactMatrix:
    """The n x n matrix with entry (i, j) = (i-j-1)(i-j-2)/2, 1-indexed.

    Nonnegative, of rank 3 for n >= 3, with a diagonal band of zeros; the
    canonical example whose psd rank exceeds what any support-based bound
    can certify.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # (i-j-1)(i-j-2) is a product of two consecutive integers, so even
    one_to_n = range(1, n + 1)
    return ExactMatrix._of(
        n, n, [(i - j - 1) * (i - j - 2) // 2 for i in one_to_n for j in one_to_n], [1] * n
    )
