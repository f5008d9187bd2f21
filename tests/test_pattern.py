import io
import json
import random
import sys
from fractions import Fraction

import pytest

from conftest import invoke
from oracles import (
    _all_maximal_rectangles,
    _greedy_cover,
    min_set_cover_per_child,
    min_set_cover_reference,
    minimum_cover_bruteforce,
    minimum_feasible_cover_bruteforce,
    renumber_by_cover_count,
    triangular_rank_bruteforce,
)
from psdbounds import formats, scalars
from psdbounds import (
    DEFAULT_BUDGET,
    Biclique,
    BipartiteGraph,
    BoundReport,
    ExactMatrix,
    SearchBudgetExceeded,
    SupportPattern,
    analyze,
    boolean_rank,
    embrkl_bounds,
    feasible_biclique_cover,
    generate_sn,
    graph_H,
    minimum_biclique_cover,
    minimum_feasible_cover,
    poset_of,
    rank,
    slack_matrix_cut_clique,
    support,
    triangular_rank,
)
from psdbounds.cli import run
from psdbounds.pattern import (
    EnumerationTooLarge,
    _maximal_bicliques,
    _min_set_cover,
    boolean_rank_outcome,
)

# the nine zero entries of the 6x6 band matrix, 0-based
S6_ZEROS = {(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4)}


def random_pattern(rng: random.Random, rows: int, cols: int) -> SupportPattern:
    return SupportPattern(
        rows, cols, [rng.getrandbits(cols) for _ in range(rows)]
    )


def test_support_examples():
    pat = support(generate_sn(6))
    zeros = {
        (i, j) for i in range(6) for j in range(6) if pat[i, j] == 0
    }
    assert zeros == S6_ZEROS
    assert support(ExactMatrix.zeros(2, 3)) == SupportPattern.zeros(2, 3)
    ones = ExactMatrix.from_rows([[1, Fraction(1, 2)], [3, 2]])
    assert support(ones) == SupportPattern.ones(2, 2)


def test_poset_of():
    g = poset_of(SupportPattern.identity(2))
    assert sorted(g.ones_positions()) == [(0, 1), (1, 0)]
    assert poset_of(SupportPattern.ones(3, 3)).edge_count() == 0
    assert poset_of(support(generate_sn(6))).edge_count() == 9


def test_graph_is_a_pattern_read_as_a_graph():
    g = BipartiteGraph(2, 3, [0b100, 0b011])
    p = SupportPattern(2, 3, g.row_bits)
    assert (g.left_count, g.right_count, g.adj) == (p.rows, p.cols, p.row_bits)
    assert g.ones_positions() == p.ones_positions() and g.edge_count() == 3
    for h, q in ((g.complement(), p.complement()), (g.transpose(), p.transpose())):
        assert type(h) is BipartiteGraph and type(q) is SupportPattern
        assert SupportPattern(h.rows, h.cols, h.row_bits) == q and h != q and q != h
    assert g.transpose().ones_positions() == [(0, 1), (1, 1), (2, 0)]
    assert g != p and p != g and SupportPattern(g.rows, g.cols, g.row_bits) == p
    assert g == BipartiteGraph(2, 3, p.row_bits) and hash(g) == hash(p)


def test_poset_edge_count_equals_zero_count():
    rng = random.Random(77)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert poset_of(p).edge_count() == p.rows * p.cols - p.ones_count()


def test_triangular_rank_examples():
    for n in (1, 2, 4, 6):
        assert triangular_rank(SupportPattern.identity(n)) == n
    assert triangular_rank(SupportPattern.ones(3, 5)) == 1
    assert triangular_rank(SupportPattern.zeros(2, 2)) == 0
    assert triangular_rank(support(generate_sn(6))) == 3


def test_triangular_rank_matches_bruteforce():
    rng = random.Random(123)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert triangular_rank(p) == triangular_rank_bruteforce(p)
    # wide and tall shapes, and the transpose: the value is symmetric
    for rows, cols in [(2, 7), (3, 6), (4, 7), (6, 7), (7, 2), (6, 3), (7, 4), (7, 6)]:
        for _ in range(4):
            p = random_pattern(rng, rows, cols)
            value = triangular_rank_bruteforce(p)
            assert triangular_rank(p) == value
            assert triangular_rank(p.transpose()) == value


def test_triangular_rank_gf2_prune_matches_bruteforce():
    # the prune bounds what can still be appended by the GF(2) rank of the
    # remaining rows; at every density the search must still reach the
    # exhaustive value
    rng = random.Random(2027)
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        p = SupportPattern(rows, cols, [
            sum(1 << j for j in range(cols) if rng.random() < density)
            for _ in range(rows)
        ])
        assert triangular_rank(p) == triangular_rank_bruteforce(p)


def test_triangular_rank_bounds_rank_of_any_realization():
    rng = random.Random(55)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(1, 5), rng.randint(1, 5))
        entries = [
            Fraction(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice([-1, 1])
            if p[i, j]
            else Fraction(0)
            for i in range(p.rows)
            for j in range(p.cols)
        ]
        t = ExactMatrix(p.rows, p.cols, entries)
        assert triangular_rank(p) <= rank(t)
        assert triangular_rank(p, upper=rank(t)) == triangular_rank(p)


def test_triangular_rank_stops_at_the_rank():
    # without the stop, the search on this pattern visits 1.7 million states
    assert triangular_rank(support(slack_matrix_cut_clique(6)), upper=16) == 16


def test_triangular_rank_searches_deeper_than_the_recursion_limit():
    assert triangular_rank(SupportPattern.identity(1100), upper=1100) == 1100


def test_boolean_rank_examples():
    assert boolean_rank(SupportPattern.ones(4, 7)) == 1
    assert boolean_rank(SupportPattern.identity(4)) == 4
    assert boolean_rank(SupportPattern.identity(4).complement()) == 4
    assert boolean_rank(SupportPattern.zeros(3, 3)) == 0


def test_boolean_rank_matches_bruteforce_small():
    rng = random.Random(2024)
    # all 2x3 patterns plus random 4x4
    for bits in range(1 << 6):
        p = SupportPattern(2, 3, [bits & 0b111, bits >> 3])
        assert boolean_rank(p) == minimum_cover_bruteforce(p)
    for _ in range(40):
        p = random_pattern(rng, 4, 4)
        assert boolean_rank(p) == minimum_cover_bruteforce(p)


def test_boolean_rank_at_least_fooling_bound():
    # pairwise-incompatible 1-entries each need their own rectangle
    rng = random.Random(6)
    for _ in range(30):
        p = random_pattern(rng, 5, 5)
        ones = p.ones_positions()
        best = 0
        chosen = []
        for e in ones:
            def compatible(e, f):
                (i, j), (k, l) = e, f
                return bool(p[i, l] and p[k, j])
            if all(not compatible(e, f) for f in chosen):
                chosen.append(e)
        best = len(chosen)
        if ones:
            assert boolean_rank(p) >= best


def test_cover_object_is_verified():
    p = support(generate_sn(6))
    result = minimum_biclique_cover(p)
    g = BipartiteGraph(p.rows, p.cols, p.row_bits)
    assert result.cover.covers(g)
    assert result.size == len(result.cover.bicliques)
    zeros_graph = poset_of(p)
    assert result.cover.avoids(zeros_graph)  # rectangles never cover a zero


def test_budget_exhaustion():
    p = SupportPattern.identity(6).complement()
    with pytest.raises(SearchBudgetExceeded) as info:
        boolean_rank(p, budget=2)
    assert 1 <= info.value.lower <= info.value.upper


def test_budget_caps_the_whole_boolean_rank_search():
    with pytest.raises(SearchBudgetExceeded) as info:
        minimum_biclique_cover(support(generate_sn(12)), budget=20000)
    assert info.value.nodes == 20001
    assert info.value.lower <= info.value.upper


# the cover the search without sibling exclusion finds for H(6,2) with no
# budget, after 2,028,131 nodes, as (left_set, right_set) bitsets
H62_COVER = (
    (193, 12320), (25, 20736), (7, 25088), (5122, 656), (2922, 2048),
    (388, 9224), (52, 17472), (9224, 388), (27282, 2), (12320, 193),
    (17472, 52), (20736, 25), (512, 7687), (2048, 2922),
)


def test_h62_feasible_cover_budget_bounds_are_pinned():
    h, hbar = graph_H(6, 2)
    result = minimum_feasible_cover(h, hbar, budget=400_000)
    assert (result.size, result.nodes) == (14, 126_611)
    assert result.cover.covers(h) and result.cover.avoids(hbar)
    assert result.cover.bicliques == tuple(Biclique(*b) for b in H62_COVER)
    with pytest.raises(SearchBudgetExceeded) as info:
        minimum_feasible_cover(h, hbar, budget=126_610)
    assert (info.value.lower, info.value.upper, info.value.nodes) == (8, 14, 126_611)


@pytest.mark.parametrize(
    "matrix, budget, size, nodes",
    [
        (generate_sn(6), DEFAULT_BUDGET, 5, 16),
        (generate_sn(8), DEFAULT_BUDGET, 6, 519),
        (generate_sn(9), DEFAULT_BUDGET, 6, 1_069),
        (generate_sn(10), 20_000, 6, 7_159),
        (slack_matrix_cut_clique(5), DEFAULT_BUDGET, 15, 572),
    ],
    ids=["S_6", "S_8", "S_9", "S_10", "cutpoly 5"],
)
def test_cover_node_counts_are_pinned(matrix, budget, size, nodes):
    result = minimum_biclique_cover(support(matrix), budget=budget)
    assert (result.size, result.nodes) == (size, nodes)


@pytest.mark.parametrize(
    "matrix, budget, cut",
    [
        (generate_sn(11), 20_000, (3, 7, 20_001)),
        (generate_sn(12), 20_000, (3, 7, 20_001)),
        (generate_sn(12), 200_000, (3, 7, 200_001)),
    ],
    ids=["S_11", "S_12 at 20000", "S_12"],
)
def test_cover_cut_bounds_are_pinned(matrix, budget, cut):
    with pytest.raises(SearchBudgetExceeded) as info:
        minimum_biclique_cover(support(matrix), budget=budget)
    assert (info.value.lower, info.value.upper, info.value.nodes) == cut


def _cover_outcome(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded as exc:
        return ("budget", exc.lower, exc.upper, exc.nodes)


def _spread(cov: list[int], n_elems: int, rng: random.Random):
    """The system with element e moved onto a gapped bit, in the same order."""
    spread, pos = [], -1
    for _ in range(n_elems):
        pos += rng.randint(1, 4)
        spread.append(pos)
    spread_cov = [
        sum(1 << spread[e] for e in range(n_elems) if c >> e & 1) for c in cov
    ]
    return spread_cov, sum(1 << p for p in spread)


def _lowest_bit_chain(cov: list[int], universe: int) -> int:
    """The greedy fooling chain of the system, lowest bit first."""
    length, rest = 0, universe
    while rest:
        e = (rest & -rest).bit_length() - 1
        for c in cov:
            if c >> e & 1:
                rest &= ~c
        length += 1
    return length


def test_min_set_cover_refuses_an_element_no_set_covers():
    # element 2 is in the universe but in no set; the greedy start would
    # never end on it
    with pytest.raises(ValueError, match="an element is covered by no candidate set"):
        _min_set_cover([0b011, 0b001], 0b111, 100)


def test_min_set_cover_keeps_the_reference_traversal():
    # The reference is the search without sibling exclusion, run on the
    # system renumbered into the search's element order.  This one visits
    # a subset of its nodes and finds the same incumbents in the same
    # order, so it never needs more nodes for the same cover.  Its root
    # bound may be the longer cell-order chain, so a cut reports at least
    # the reference's lower end.  Every system is also run with its
    # elements spread onto gapped bit positions in the same order, which
    # must change nothing.
    rng = random.Random(1009)
    gaps = random.Random(2017)  # its own stream, so the systems stay the same
    raised = finished_sooner = fewer_nodes = higher_lower = 0
    for _ in range(2000):
        n_elems = rng.randint(1, 24)
        n_sets = rng.randint(1, 30)
        density = rng.choice((0.08, 0.15, 0.25, 0.4))
        cov = [
            sum(1 << e for e in range(n_elems) if rng.random() < density)
            for _ in range(n_sets)
        ]
        for e in range(n_elems):
            if not any(c >> e & 1 for c in cov):
                cov[rng.randrange(n_sets)] |= 1 << e
        spread_cov, spread_universe = _spread(cov, n_elems, gaps)
        renumbered, _ = renumber_by_cover_count(cov, (1 << n_elems) - 1)
        for budget in (0, 1, 2, 5, 20, 100, 1000, 10**6):
            want = _cover_outcome(min_set_cover_reference, renumbered, n_elems, budget)
            got = _cover_outcome(_min_set_cover, cov, (1 << n_elems) - 1, budget)
            assert _cover_outcome(
                _min_set_cover, spread_cov, spread_universe, budget
            ) == got
            raised += want[0] == "budget"
            if want[0] != "budget":
                assert got[0] == want[0] and got[1] <= want[1]
                fewer_nodes += got[1] < want[1]
            elif got[0] != "budget":
                unbudgeted = min_set_cover_reference(renumbered, n_elems, 10**9)
                assert got[0] == unbudgeted[0]
                finished_sooner += 1
            else:
                assert got[1] >= want[1] and got[2] <= want[2]
                assert got[3] == want[3] == budget + 1
                higher_lower += got[1] > want[1]
    assert 0 < raised < 2000 * 8
    assert finished_sooner > 0 and fewer_nodes > 0 and higher_lower > 0


def _with_root_bound(want, lower: int, greedy: tuple, finished: tuple):
    """The per-child outcome ``want`` had its root's fooling bound been
    ``lower``: the root is not expanded once ``lower`` meets the greedy
    cover, and a cut whose incumbent meets ``lower`` returns that
    incumbent, which is then the finished search's cover."""
    if lower >= len(greedy):
        return greedy, 1
    if want[0] != "budget":
        return want
    if want[2] <= lower:
        return finished[0], want[3]
    return ("budget", lower, *want[2:])


def _assert_same_traversal(cov: list[int], universe: int, *spread) -> bool:
    """At every budget the search returns, or cuts with, what the per-child
    search does on the renumbered system, with the root bound raised to the
    cell-order chain where that is longer; says whether it was."""
    renumbered = renumber_by_cover_count(cov, universe)
    finished = min_set_cover_per_child(*renumbered, 10**9)
    by_cell = _lowest_bit_chain(cov, universe)
    raised = by_cell > _lowest_bit_chain(*renumbered)
    greedy = _greedy_cover(*renumbered)
    for budget in range(finished[1] + 2):
        want = _cover_outcome(min_set_cover_per_child, *renumbered, budget)
        if raised:
            want = _with_root_bound(want, by_cell, greedy, finished)
        assert _cover_outcome(_min_set_cover, cov, universe, budget) == want
        if spread:
            assert _cover_outcome(_min_set_cover, *spread, budget) == want
    return raised


# Small systems whose leaf levels can be followed by hand
LEAF_LEVEL_SYSTEMS = {
    # the greedy cover has 2 sets and the fooling bound is 1, so the root
    # is a leaf level with two children and no full cover: budget 2 cuts
    # between its first child and the rest
    "root": ([0b011, 0b101, 0b110], 0b111),
    # below the root's one child, {3, 4, 5} is left and the leaf level's
    # second child covers it: budget 3 cuts after that improvement, which
    # meets the fooling bound, so the search returns it with 4 nodes
    "improved then cut": ([0b011011, 0b000111, 0b111000, 0b100000], 0b111111),
    # one leaf level of this search finds every set covering its branch
    # element excluded, so it counts no node
    "all excluded": ([565, 326, 320, 269, 640, 146, 44, 836, 132], 0b1111111111),
}


@pytest.mark.parametrize("cov, universe", LEAF_LEVEL_SYSTEMS.values(), ids=LEAF_LEVEL_SYSTEMS)
def test_leaf_levels_keep_the_per_child_traversal(cov, universe):
    _assert_same_traversal(cov, universe)


def test_leaf_level_cuts_are_pinned():
    assert _cover_outcome(_min_set_cover, *LEAF_LEVEL_SYSTEMS["root"], 2) == (
        "budget", 1, 2, 3,
    )
    assert _min_set_cover(*LEAF_LEVEL_SYSTEMS["improved then cut"], 3) == ((1, 2), 4)


# Every element has two sets; the greedy cover (1, 0, 2, 3) has 4 and the
# fooling bound is 3.  The root branches on element 0 and tries {0, 2}
# (set 3), whose two children the fooling chain prunes, then {0} (set 6).
# That child leaves the incumbent 3 more sets, so it is no leaf level, and
# the excluded set 3 covers all it newly covers: it is not expanded, which
# saves its two children.
DOMINATED_CHILD = ([20, 98, 42, 5, 8, 64, 1, 16], 0b1111111)


def test_an_excluded_set_dominates_a_child():
    assert _min_set_cover(*DOMINATED_CHILD, 10**9) == ((1, 0, 2, 3), 5)
    _assert_same_traversal(*DOMINATED_CHILD)


def test_min_set_cover_keeps_the_per_child_traversal_at_every_budget():
    # Numbering the elements by how many sets cover them leaves the branch
    # element, the children and the exclusions as they were; counting a
    # leaf level's children together changes no node either.  At every
    # budget from 0 to one past the finished count the search returns, or
    # cuts with, what the per-child loop does on the renumbered system,
    # also with its elements on gapped bits, except for the root bound's
    # cell-order chain.
    rng = random.Random(4099)
    gaps = random.Random(4111)
    raised = 0
    for _ in range(300):
        n_elems = rng.randint(4, 24)
        n_sets = rng.randint(4, 30)
        density = rng.choice((0.1, 0.2, 0.3))
        cov = [
            sum(1 << e for e in range(n_elems) if rng.random() < density)
            for _ in range(n_sets)
        ]
        for e in range(n_elems):
            if not any(c >> e & 1 for c in cov):
                cov[rng.randrange(n_sets)] |= 1 << e
        raised += _assert_same_traversal(
            cov, (1 << n_elems) - 1, *_spread(cov, n_elems, gaps)
        )
    assert raised > 0


def test_budget_caps_the_whole_feasible_cover_search():
    with pytest.raises(SearchBudgetExceeded) as info:
        minimum_feasible_cover(*graph_H(5, 2), budget=5)
    assert info.value.nodes <= 6
    no_edges = BipartiteGraph(2, 2, [0, 0])
    assert minimum_feasible_cover(no_edges, no_edges, budget=0).size == 0
    for ones, forbidden in (graph_H(5, 2), (no_edges, no_edges)):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            minimum_feasible_cover(ones, forbidden, budget=-1)


def test_maximal_bicliques_match_oracle():
    rng = random.Random(31)
    # wide, tall and square shapes; some rows and columns left empty
    for rows, cols in ((9, 4), (7, 2), (5, 1), (4, 9), (1, 6), (6, 6), (8, 8)):
        for _ in range(30):
            masks = [rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(rows)]
            masks[rng.randrange(rows)] = 0
            if rng.random() < 0.5:
                blank = ~(1 << rng.randrange(cols))
                masks = [m & blank for m in masks]
            p = SupportPattern(rows, cols, masks)
            found = _maximal_bicliques(list(p.row_bits), p.rows, p.cols)
            assert len(found) == len(set(found))
            assert sorted(found) == _all_maximal_rectangles(p)


def test_covers_refuse_graphs_past_the_enumeration_side():
    with pytest.raises(ValueError, match=r"min side 21 > 20"):
        minimum_feasible_cover(*graph_H(7, 2))


def test_feasible_cover_examples():
    single = BipartiteGraph(2, 2, [0b10, 0])
    empty = BipartiteGraph(2, 2, [0, 0])
    assert feasible_biclique_cover(single, empty) == 1

    ones = poset_of(SupportPattern.identity(4))  # complement-of-identity
    forbidden = BipartiteGraph(4, 4, SupportPattern.identity(4).row_bits)
    assert feasible_biclique_cover(ones, forbidden) == 4
    assert minimum_feasible_cover_bruteforce(ones, forbidden) == 4

    # with nothing forbidden one biclique covers everything
    assert feasible_biclique_cover(ones, empty_graph_like(ones)) == 1


def empty_graph_like(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(g.left_count, g.right_count, [0] * g.left_count)


def test_feasible_cover_with_complement_forbidden_is_boolean_rank():
    rng = random.Random(91)
    for _ in range(25):
        p = random_pattern(rng, 4, 4)
        if p.ones_count() == 0:
            continue
        ones = BipartiteGraph(p.rows, p.cols, p.row_bits)
        forbidden = ones.complement()
        assert feasible_biclique_cover(ones, forbidden) == boolean_rank(p)


def test_feasible_cover_matches_bruteforce():
    rng = random.Random(14)
    for _ in range(20):
        p = random_pattern(rng, 4, 4)
        ones = BipartiteGraph(p.rows, p.cols, p.row_bits)
        # forbid a random subset of the non-edges
        comp = ones.complement()
        forb_adj = [comp.adj[u] & rng.getrandbits(p.cols) for u in range(p.rows)]
        forbidden = BipartiteGraph(p.rows, p.cols, forb_adj)
        if ones.edge_count() == 0:
            continue
        assert feasible_biclique_cover(ones, forbidden) == (
            minimum_feasible_cover_bruteforce(ones, forbidden)
        )


def test_feasible_cover_result_avoids_forbidden():
    ones = poset_of(SupportPattern.identity(5))
    forbidden = BipartiteGraph(5, 5, SupportPattern.identity(5).row_bits)
    result = minimum_feasible_cover(ones, forbidden)
    assert result.cover.avoids(forbidden)
    assert result.cover.covers(ones)


def test_feasible_cover_validation():
    g = BipartiteGraph(2, 2, [0b01, 0])
    with pytest.raises(ValueError):
        feasible_biclique_cover(g, g)  # overlapping edge sets
    with pytest.raises(ValueError):
        feasible_biclique_cover(g, BipartiteGraph(3, 2, [0, 0, 0]))


def test_biclique_validation_and_pattern_accessors():
    with pytest.raises(ValueError):
        Biclique(0, 3)
    p = SupportPattern.from_rows([[1, 0], [0, 1]])
    assert p == SupportPattern.identity(2)
    assert p.transpose() == p
    assert p.ones_positions() == [(0, 0), (1, 1)]
    assert p.col_bits() == (1, 2)
    for entry in (2, Fraction(1, 2)):
        with pytest.raises(ValueError, match="0/1"):
            SupportPattern.from_rows([[entry, 0]])
    with pytest.raises(ValueError):
        SupportPattern(2, 2, [4, 0])


@pytest.mark.parametrize("one", [Fraction(1), 1.0, True])
def test_from_rows_reads_any_entry_equal_to_one(one):
    assert SupportPattern.from_rows([[one, 0], [0, one]]) == SupportPattern.identity(2)


def test_embrkl_bounds_examples():
    for n in (1, 3, 5):
        assert embrkl_bounds(ExactMatrix.identity(n)) == (n, n)
    assert embrkl_bounds(ExactMatrix.from_rows([[1, 1], [1, 1]])) == (1, 1)
    assert embrkl_bounds(generate_sn(6)) == (3, 3)


def test_analyze_s6():
    report = analyze(generate_sn(6))
    assert isinstance(report, BoundReport)
    assert (report.rank, report.triangular_rank, report.boolean_rank) == (3, 3, 5)
    assert report.boolean_rank_bounds is None
    assert report.embedding_dim_bounds == (3, 3)
    assert report.psd_lower_bound == 4
    assert report.psd_lower_bound_source == "order-3 exclusion certificate"


def test_analyze_exhausted_budget_keeps_bounds():
    report = analyze(generate_sn(12), budget=20000)
    assert report.boolean_rank is None
    assert report.boolean_rank_bounds == (3, 7)


def test_analyze_refused_cover_reports_proven_bounds():
    # min side 32 is past the candidate enumeration limit: the boolean rank
    # is bracketed by the triangular rank and the count of nonzero columns
    report = analyze(slack_matrix_cut_clique(6))
    assert (report.rank, report.triangular_rank) == (16, 16)
    assert report.boolean_rank is None
    assert report.boolean_rank_bounds == (16, 32)
    assert report.psd_lower_bound == 16


def test_analyze_raises_a_cut_cover_search_to_the_triangular_rank():
    # the triangular rank is above the root's fooling bound on both; at
    # budget 0 the search is cut with the greedy cover as upper.  Both are
    # random patterns drawn from random.Random(7)
    via = "triangular rank / cover search incumbent (budget reached)"
    bracketed = ExactMatrix.from_rows([
        [1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1], [1, 1, 0, 1, 1, 1],
        [0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 1, 0], [1, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 1],
    ])
    met = ExactMatrix.from_rows([
        [1, 0, 1, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 0, 1], [1, 0, 1, 1, 1],
        [1, 1, 1, 0, 0], [0, 1, 0, 0, 0],
    ])
    for m, tri, lower, upper, exact in ((bracketed, 5, 4, 6, 6), (met, 4, 3, 4, 4)):
        pat = support(m)
        assert triangular_rank(pat) == tri
        with pytest.raises(SearchBudgetExceeded) as info:
            boolean_rank(pat, budget=0)
        assert (info.value.lower, info.value.upper) == (lower, upper)
        assert boolean_rank(pat) == exact
    report = analyze(bracketed, budget=0)
    assert (report.boolean_rank, report.boolean_rank_bounds) == (None, (5, 6))
    assert report.boolean_rank_source == via
    report = analyze(met, budget=0)
    assert (report.boolean_rank, report.boolean_rank_bounds) == (4, None)
    doc = formats.bound_report_reply(report, "m")[0]["boolean_rank"]
    assert doc == {"value": 4, "bounds": None, "via": via}


def test_analyze_labels_which_search_gave_the_boolean_rank():
    searched = "minimum_biclique_cover branch and bound"
    refused = "triangular rank / nonzero lines (cover search refused the graph)"
    # exact, out of budget, refused
    for m, via in (
        (generate_sn(6), searched),
        (generate_sn(12), searched),
        (slack_matrix_cut_clique(6), refused),
    ):
        report = analyze(m, budget=20000)
        assert report.boolean_rank_source == via
        assert formats.bound_report_reply(report, "m")[0]["boolean_rank"]["via"] == via


def test_analyze_doc_is_the_cli_document(capsys):
    m = generate_sn(6)
    old = sys.stdin
    sys.stdin = io.StringIO(formats.format_matrix(m))
    try:
        assert run(["--json", "bounds"]) == 0
    finally:
        sys.stdin = old
    doc = json.loads(capsys.readouterr().out)
    del doc["schema"]
    assert formats.bound_report_reply(analyze(m), "stdin")[0] == doc


def boolrank_answer(capsys, m: ExactMatrix, budget: int):
    """(value, bounds) as ``boolrank --json`` prints them, and its exit code."""
    argv = ["boolrank", "--json", "--budget", str(budget)]
    code, out, _ = invoke(capsys, argv, stdin=formats.format_matrix(m))
    doc = json.loads(out)
    bounds = tuple(doc["bounds"]) if "bounds" in doc else None
    return (doc["value"], bounds), code


def test_undecided_boolean_rank_interval_is_sound_and_shared(capsys):
    # every budget short of a finished search: the interval holds the
    # brute-force boolean rank, and analyze and boolrank print the same
    rng = random.Random(16)
    cut = raised = lowered = 0
    for _ in range(150):
        rows, cols = rng.randint(2, 6), rng.randint(2, 7)
        pat = SupportPattern(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        m = ExactMatrix.from_rows(
            [[pat[i, j] for j in range(cols)] for i in range(rows)]
        )
        truth, tri = minimum_cover_bruteforce(pat), triangular_rank_bruteforce(pat)
        lines = min(sum(1 for r in pat.row_bits if r), sum(1 for c in pat.col_bits() if c))
        for budget in range(minimum_biclique_cover(pat).nodes + 1):
            lo, hi, via = boolean_rank_outcome(m, budget)
            try:
                assert boolean_rank(pat, budget=budget) == lo == hi
            except SearchBudgetExceeded as exc:
                cut += 1
                raised += lo > exc.lower
                lowered += hi < exc.upper
                assert tri <= lo <= truth <= hi <= lines, (pat, budget, via)
            else:
                assert lo == truth
            report = analyze(m, budget=budget)
            answer = (report.boolean_rank, report.boolean_rank_bounds)
            assert answer == ((lo, None) if lo == hi else (None, (lo, hi)))
            assert boolrank_answer(capsys, m, budget) == (answer, 0 if lo == hi else 3)
    # both ends of the shared rule are exercised
    assert cut and raised and lowered


@pytest.mark.parametrize(
    "m, interval",
    [
        (ExactMatrix.identity(21), (21, 21)),
        (ExactMatrix.from_rows([[1] * 21] * 21), (1, 21)),
        (slack_matrix_cut_clique(6), (16, 32)),
    ],
    ids=["identity 21", "ones 21x21", "cutpoly 6"],
)
def test_refused_cover_search_interval_is_shared(capsys, m, interval):
    pat = support(m)
    with pytest.raises(EnumerationTooLarge) as info:
        boolean_rank(pat)
    tri = triangular_rank(pat, upper=rank(m))
    lo, hi, via = boolean_rank_outcome(m, 0)
    assert boolean_rank_outcome(m, 0, tri) == (lo, hi, via)
    assert (lo, hi) == interval
    assert via == "triangular rank / nonzero lines (cover search refused the graph)"
    answer = (lo, None) if lo == hi else (None, (lo, hi))
    report = analyze(m)
    assert (report.boolean_rank, report.boolean_rank_bounds) == answer
    assert boolrank_answer(capsys, m, 0) == (answer, 0 if lo == hi else 3)


def test_analyze_runs_order3_only_when_it_can_raise_the_bound(monkeypatch):
    calls = []
    order3 = scalars.order3_exclusion
    monkeypatch.setattr(
        scalars, "order3_exclusion", lambda *a, **kw: calls.append(1) or order3(*a, **kw)
    )
    # triangular rank 7 already beats the certificate's 4; S_6's is 3
    assert analyze(slack_matrix_cut_clique(4)).psd_lower_bound == 7
    assert not calls
    assert analyze(generate_sn(6)).psd_lower_bound == 4
    assert len(calls) == 1
