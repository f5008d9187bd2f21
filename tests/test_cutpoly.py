from fractions import Fraction
from math import comb

import pytest

from oracles import minimum_feasible_cover_bruteforce
from psdbounds import cutpoly
from psdbounds import (
    Clique,
    Cut,
    ExactMatrix,
    SupportPattern,
    all_cliques,
    all_cuts,
    appendix_reduction_check,
    boolean_rank,
    cut_clique_slack,
    feasible_biclique_cover,
    graph_G,
    generate_sn,
    graph_H,
    rank,
    slack_matrix_cut_clique,
)


def bitset(*vertices: int) -> int:
    # 1-based vertex labels
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def test_cut_canonicalization_and_counts():
    assert Cut(4, bitset(1, 2)) == Cut(4, bitset(3, 4))
    for n in range(2, 7):
        assert len(all_cuts(n)) == 2 ** (n - 1)
        assert len(all_cliques(n)) == 2 ** n - 1 - n
    with pytest.raises(ValueError):
        Clique(3, bitset(1))
    with pytest.raises(ValueError):
        Cut(2, bitset(3))


def test_cut_clique_slack_examples():
    assert cut_clique_slack(Clique(4, bitset(1, 2, 3, 4)), Cut(4, bitset(1, 2))) == 0
    assert cut_clique_slack(Clique(3, bitset(1, 2)), Cut(3, bitset(1, 3))) == 0
    for w in all_cuts(5):
        slack = cut_clique_slack(Clique(5, bitset(1, 3, 5)), w)
        assert slack >= Fraction(1, 4)  # odd clique never splits evenly
    with pytest.raises(ValueError):
        cut_clique_slack(Clique(3, bitset(1, 2)), Cut(4, bitset(1)))


def test_graph_g_structure():
    g = graph_G(4)
    assert g.right_count == 8
    assert g.left_count == 11
    cliques = all_cliques(4)
    cuts = all_cuts(4)
    for i, u in enumerate(cliques):
        if u.size % 2 == 1:
            assert g.adj[i].bit_count() == g.right_count  # odd: full degree
    # edges of U = {1,2} miss exactly the cuts separating 1 from 2
    i12 = cliques.index(Clique(4, bitset(1, 2)))
    non_edges = [
        j
        for j, w in enumerate(cuts)
        if not g.has_edge(i12, j)
    ]
    separating = [
        j
        for j, w in enumerate(cuts)
        if (w.members >> 0) & 1 != (w.members >> 1) & 1
    ]
    assert non_edges == separating
    assert len(non_edges) == 4
    with pytest.raises(ValueError):
        graph_G(9)


def test_graph_g_three_way_agreement():
    for n in (4, 5):
        g = graph_G(n)
        cliques = all_cliques(n)
        cuts = all_cuts(n)
        for i, u in enumerate(cliques):
            for j, w in enumerate(cuts):
                slack = cut_clique_slack(u, w)
                balanced = 2 * (u.members & w.members).bit_count() == u.size
                assert g.has_edge(i, j) == (slack > 0) == (not balanced)


def test_slack_matrix():
    m = slack_matrix_cut_clique(4)
    cliques = all_cliques(4)
    cuts = all_cuts(4)
    assert (m.rows, m.cols) == (11, 8)
    i = cliques.index(Clique(4, bitset(1, 2, 3, 4)))
    j = cuts.index(Cut(4, bitset(1, 2)))
    assert m[i, j] == 0
    i = cliques.index(Clique(4, bitset(1, 2, 3)))
    j = cuts.index(Cut(4, bitset(1)))
    assert m[i, j] == 0  # floor(9/4) - 1*2
    assert m.is_nonnegative()

    m5 = slack_matrix_cut_clique(5)
    assert (m5.rows, m5.cols) == (26, 16)

    # support of even-clique rows agrees with the graph edges
    g = graph_G(4)
    for i, u in enumerate(cliques):
        for j in range(len(cuts)):
            if u.size % 2 == 0:
                assert (m[i, j] != 0) == g.has_edge(i, j)
    # an odd clique can reach floored slack 0 although the graph has an edge
    i = cliques.index(Clique(4, bitset(1, 2, 3)))
    j = cuts.index(Cut(4, bitset(1)))
    assert g.has_edge(i, j) and m[i, j] == 0


def test_graph_h_singletons():
    h, hbar = graph_H(5, 1)
    identity = SupportPattern.identity(5)
    assert SupportPattern(h.rows, h.cols, h.row_bits) == identity.complement()
    assert SupportPattern(hbar.rows, hbar.cols, hbar.row_bits) == identity
    assert h.edge_count() == 20
    assert all(a & b == 0 for a, b in zip(h.adj, hbar.adj))


def test_graph_h_pairs():
    h, hbar = graph_H(9, 2)
    assert h.left_count == comb(9, 2) == 36
    for u in range(h.left_count):
        assert h.adj[u].bit_count() == comb(7, 2)
    assert all(a & b == 0 for a, b in zip(h.adj, hbar.adj))
    with pytest.raises(ValueError):
        graph_H(30, 10)
    with pytest.raises(ValueError):
        graph_H(4, 5)


def test_feasible_cover_of_disjointness_matches_plain_cover():
    h, hbar = graph_H(5, 1)
    value = feasible_biclique_cover(h, hbar)
    assert value == 4
    assert value == boolean_rank(SupportPattern.identity(5).complement())
    assert value == minimum_feasible_cover_bruteforce(h, hbar)


def test_appendix_reduction_check(monkeypatch):
    result = appendix_reduction_check(18)
    assert result
    assert result.pairs_checked == comb(9, 2) ** 2 == 1296
    assert (result.ground_size, result.subset_size) == (9, 2)
    with pytest.raises(ValueError):
        appendix_reduction_check(12)  # wrong residue
    with pytest.raises(ValueError):
        appendix_reduction_check(10)  # degenerate clique size
    with pytest.raises(ValueError):
        appendix_reduction_check(26)  # beyond the cap
    monkeypatch.setattr(cutpoly, "MAX_REDUCTION_N", 26)
    assert appendix_reduction_check(26).ok


def test_appendix_identity_single_pairs():
    # x = y (meet size l != 1) and disjoint x, y are both consistent
    result = appendix_reduction_check(18)
    assert result.ok


S6_DISPLAY = [
    [1, 3, 6, 10, 15, 21],
    [0, 1, 3, 6, 10, 15],
    [0, 0, 1, 3, 6, 10],
    [1, 0, 0, 1, 3, 6],
    [3, 1, 0, 0, 1, 3],
    [6, 3, 1, 0, 0, 1],
]


def test_generate_sn():
    assert generate_sn(6) == ExactMatrix.from_rows(S6_DISPLAY)
    assert generate_sn(1)[0, 0] == 1  # (-1)(-2)/2
    for n in (3, 6, 10):
        assert rank(generate_sn(n)) == 3
        assert generate_sn(n).is_nonnegative()
    assert rank(generate_sn(2)) == 2
    with pytest.raises(ValueError):
        generate_sn(0)
