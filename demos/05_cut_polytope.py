"""Walkthrough: clique inequalities, cuts, and disjointness covers.

The slack of a clique inequality on a cut vanishes exactly when the cut
splits the clique in half.  Mapping l-subsets into cliques/cuts with a
shared tail turns balanced splits into unique intersections, which is how
covers of the cut/clique graph transfer to covers of the disjointness
graph by bicliques avoiding unique-intersection pairs.
"""

from psdbounds import (
    appendix_reduction_check,
    boolean_rank,
    feasible_biclique_cover,
    graph_G,
    graph_H,
    slack_matrix_cut_clique,
)

n = 4
g = graph_G(n)
print(f"K_{n}: {g.left_count} cliques x {g.right_count} cuts, {g.edge_count()} edges")

m = slack_matrix_cut_clique(n)
print("\ninteger slack matrix (rows cliques, cols cuts):")
for i in range(m.rows):
    print("   ", " ".join(str(v) for v in m.row(i)))
print("zero entries mark balanced splits of even cliques")

h, hbar = graph_H(5, 1)
print("\ndisjointness on singletons of {1..5}:")
print("  H   edges (disjoint pairs):        ", h.edge_count())
print("  Hbar edges (unique intersections): ", hbar.edge_count())
cover = feasible_biclique_cover(h, hbar)
plain = boolean_rank(h)
print("  bicliques needed avoiding Hbar:    ", cover)
print("  plain rectangle cover of the same pattern:", plain)

result = appendix_reduction_check(18)
print(
    f"\nsubset identity for n=18 (N={result.ground_size}, l={result.subset_size}): "
    f"{'holds' if result.ok else 'FAILS'} on all {result.pairs_checked} pairs"
)
