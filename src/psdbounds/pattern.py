"""Support patterns, triangular rank, and exact biclique cover search.

Patterns and bipartite graphs are stored as bitsets (one int per left
vertex), which keeps the branch-and-bound searches allocation-free.  Both
cover problems run one exact search at desk scale under one total node
budget; traversal order is deterministic, so results are reproducible.
"""

from __future__ import annotations

from . import DEFAULT_BUDGET, _frozen
from .linalg import ExactMatrix, rank

# Covers refuse graphs whose smaller side exceeds this, because the cover
# search's set-up grows with the candidates' total coverage: supp S_24 has
# 396,655 maximal bicliques covering 42 million (entry, biclique) pairs,
# one list entry each.
_MAX_ENUM_SIDE = 20


class SearchBudgetExceeded(Exception):
    """Raised when an exact search runs out of nodes; carries proven bounds."""

    def __init__(self, lower: int, upper: int, nodes: int):
        super().__init__(f"unknown, bounds [{lower},{upper}] after {nodes} nodes")
        self.lower = lower
        self.upper = upper
        self.nodes = nodes


class EnumerationTooLarge(ValueError):
    """Raised when a cover search refuses to list its candidate bicliques."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SupportPattern:
    """0/1 pattern of an m x n matrix, one bitmask per row."""

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits):
        bits = tuple(row_bits)
        if len(bits) != rows:
            raise ValueError("need one bitmask per row")
        full = (1 << cols) - 1
        if any(b & ~full for b in bits):
            raise ValueError("row bitmask wider than the column count")
        self.rows = rows
        self.cols = cols
        self.row_bits = bits

    @classmethod
    def from_rows(cls, rows) -> "SupportPattern":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        masks = []
        for r in rows:
            mask = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise ValueError(f"pattern entries must be 0/1, got {v}")
                mask |= v << j
            masks.append(mask)
        return cls(m, n, masks)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "SupportPattern":
        return cls(rows, cols, [(1 << cols) - 1] * rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SupportPattern":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "SupportPattern":
        return cls(n, n, [1 << i for i in range(n)])

    def __getitem__(self, key) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return (self.row_bits[i] >> j) & 1

    def __eq__(self, other):
        if not isinstance(other, SupportPattern):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self):
        body = "; ".join(
            "".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"SupportPattern({self.rows}x{self.cols}: {body})"

    def col_bits(self) -> tuple[int, ...]:
        masks = [0] * self.cols
        for i, row in enumerate(self.row_bits):
            for j in _bits(row):
                masks[j] |= 1 << i
        return tuple(masks)

    def ones_count(self) -> int:
        return sum(row.bit_count() for row in self.row_bits)

    def zero_count(self) -> int:
        return self.rows * self.cols - self.ones_count()

    def ones_positions(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.rows) for j in _bits(self.row_bits[i])
        ]

    def transpose(self) -> "SupportPattern":
        return SupportPattern(self.cols, self.rows, self.col_bits())

    def complement(self) -> "SupportPattern":
        full = (1 << self.cols) - 1
        return SupportPattern(self.rows, self.cols, [full ^ b for b in self.row_bits])


def support(m: ExactMatrix) -> SupportPattern:
    """Replace every nonzero entry by 1 (exact zero test)."""
    masks = []
    for i in range(m.rows):
        mask = 0
        for j, v in enumerate(m.row(i)):
            if v:
                mask |= 1 << j
        masks.append(mask)
    return SupportPattern(m.rows, m.cols, masks)


class BipartiteGraph:
    """Bipartite graph, one right-neighbor bitmask per left vertex."""

    __slots__ = ("left_count", "right_count", "adj")

    def __init__(self, left_count: int, right_count: int, adj):
        masks = tuple(adj)
        if len(masks) != left_count:
            raise ValueError("need one adjacency bitmask per left vertex")
        full = (1 << right_count) - 1
        if any(a & ~full for a in masks):
            raise ValueError("adjacency bitmask wider than the right side")
        self.left_count = left_count
        self.right_count = right_count
        self.adj = masks

    @classmethod
    def from_edges(cls, left_count: int, right_count: int, edges) -> "BipartiteGraph":
        masks = [0] * left_count
        for u, v in edges:
            if not (0 <= u < left_count and 0 <= v < right_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            masks[u] |= 1 << v
        return cls(left_count, right_count, masks)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.left_count) for v in _bits(self.adj[u])]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def complement(self) -> "BipartiteGraph":
        full = (1 << self.right_count) - 1
        return BipartiteGraph(
            self.left_count, self.right_count, [full ^ a for a in self.adj]
        )

    def to_pattern(self) -> SupportPattern:
        return SupportPattern(self.left_count, self.right_count, self.adj)

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left_count == other.left_count
            and self.right_count == other.right_count
            and self.adj == other.adj
        )

    def __repr__(self):
        return (
            f"BipartiteGraph({self.left_count}+{self.right_count} vertices, "
            f"{self.edge_count()} edges)"
        )


def poset_of(m: SupportPattern) -> BipartiteGraph:
    """Hasse diagram with rows below columns: edge (k, l) iff entry (k, l) is 0.

    The zero convention is the one under which subspace-lattice embeddings
    characterize the pattern (row space below column space exactly at the
    zeros); see the package docs for the sign discussion.
    """
    full = (1 << m.cols) - 1
    return BipartiteGraph(m.rows, m.cols, [full ^ b for b in m.row_bits])


@_frozen
class Biclique:
    """Complete bipartite block: ``left_set`` x ``right_set`` as bitsets."""

    left_set: int
    right_set: int

    def __post_init__(self):
        if self.left_set <= 0 or self.right_set <= 0:
            raise ValueError("a biclique needs nonempty sides")

    def covers(self, u: int, v: int) -> bool:
        return bool((self.left_set >> u) & 1 and (self.right_set >> v) & 1)

    def contains_edge_of(self, g: BipartiteGraph) -> bool:
        return any(g.adj[u] & self.right_set for u in _bits(self.left_set))


@_frozen
class BicliqueCover:
    bicliques: tuple[Biclique, ...]

    def __len__(self):
        return len(self.bicliques)

    def covers(self, g: BipartiteGraph) -> bool:
        """Every edge of ``g`` lies in some biclique."""
        masks = [0] * g.left_count
        for b in self.bicliques:
            for u in _bits(b.left_set):
                masks[u] |= b.right_set
        return all(g.adj[u] & ~masks[u] == 0 for u in range(g.left_count))

    def avoids(self, g: BipartiteGraph) -> bool:
        """No biclique contains an edge of ``g``."""
        return not any(b.contains_edge_of(g) for b in self.bicliques)


@_frozen
class CoverSearchResult:
    size: int
    cover: BicliqueCover
    nodes: int


# -- triangular rank ---------------------------------------------------------


def _max_matching(row_masks: list[int], n_cols: int) -> int:
    # Kuhn's augmenting paths, depth first on an explicit stack, so a path
    # may be longer than the recursion limit
    match_of_col = [-1] * n_cols
    size = 0
    for r, mask in enumerate(row_masks):
        seen = 0
        stack = [(r, _bits(mask))]  # the path's rows, with their untried columns
        path: list[int] = []  # the columns between them
        while stack:
            c = next(stack[-1][1], -1)
            if c < 0:
                stack.pop()
                del path[-1:]
                continue
            seen |= 1 << c
            path.append(c)
            v = match_of_col[c]
            if v < 0:
                for (u, _), col in zip(stack, path):
                    match_of_col[col] = u
                size += 1
                break
            stack.append((v, _bits(row_masks[v] & ~seen)))
    return size


def triangular_rank(m: SupportPattern, upper: int | None = None) -> int:
    """Largest t admitting rows k_1..k_t, cols l_1..l_t with entry (k_i, l_i)
    nonzero and (k_i, l_j) zero for all j < i.

    Permuting such a submatrix gives a triangular block with nonzero
    diagonal, so this bounds the rank of every matrix with this support.
    Exact branch and bound over sets of chosen columns: the next row must
    be zero on every chosen column, so it is never a used row, and which
    row brought a column in does not change what can follow.  The prune
    is a bipartite matching upper bound on how many pairs can still be
    appended.  ``embrkl_bounds`` passes ``upper=rank(S)`` to stop once the
    search reaches it.
    """
    best = 0
    seen: set[int] = set()

    def visit(used: int, depth: int):
        # the columns to branch on below ``used``; none once it is pruned
        nonlocal best
        best = max(best, depth)
        if best == upper or used in seen:
            return iter(())
        seen.add(used)
        rows = [r for r in m.row_bits if r and not r & used]
        if depth + _max_matching(rows, m.cols) <= best:
            return iter(())
        free = 0
        for r in rows:
            free |= r
        return _bits(free)

    # depth first, one stack entry per chosen column instead of recursion
    stack = [(0, visit(0, 0))]
    while stack and best != upper:
        used, cols = stack[-1]
        l = next(cols, -1)
        if l < 0:
            stack.pop()
        else:
            child = used | 1 << l
            stack.append((child, visit(child, len(stack))))
    return best


def embrkl_bounds(s: ExactMatrix) -> tuple[int, int]:
    """(lower, upper) bounds for the minimum embedding dimension of supp(s).

    The lower bound is the triangular rank of the support (every matrix
    with this support has at least that rank, the minimum such rank equals
    the embedding rank); the upper bound is rank(s), which also ends the
    triangular-rank search once reached.  Every rank-capped triangular rank
    of the package is this one call.
    """
    upper = rank(s)
    return triangular_rank(support(s), upper=upper), upper


# -- maximal biclique enumeration -------------------------------------------


def _maximal_bicliques(adj: list[int], left_count: int, right_count: int):
    """All inclusion-maximal bicliques (L, R) of the graph, L and R nonempty.

    The right sides are exactly the nonempty intersections of left
    neighborhoods (the closed sets of formal concept analysis), built one
    row at a time; L is the set of all rows whose neighborhood contains R.
    """
    side = min(left_count, right_count)
    if side > _MAX_ENUM_SIDE:
        raise EnumerationTooLarge(
            f"graph too large for exact enumeration (min side {side} > {_MAX_ENUM_SIDE})"
        )
    rights: set[int] = set()
    for a in adj:
        rights |= {a & r for r in rights}
        rights.add(a)
    rights.discard(0)
    return [
        (sum(1 << u for u, a in enumerate(adj) if a & r == r), r) for r in rights
    ]


# -- exact minimum cover search ----------------------------------------------


def _greedy_cover(cov_masks: list[int], universe: int) -> tuple[int, ...]:
    chosen = []
    uncovered = universe
    while uncovered:
        best_i, best_gain = -1, 0
        for i, cov in enumerate(cov_masks):
            gain = (cov & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:  # pragma: no cover - guarded by construction
            raise ValueError("an element is covered by no candidate set")
        chosen.append(best_i)
        uncovered &= ~cov_masks[best_i]
    return tuple(chosen)


def _fooling_bound(co_cover: list[int], uncovered: int) -> int:
    # Greedy set of elements pairwise not coverable by one candidate set;
    # each forces its own set, so the count is a valid lower bound.
    count = 0
    rest = uncovered
    while rest:
        e = (rest & -rest).bit_length() - 1
        count += 1
        rest &= ~co_cover[e]
    return count


def _min_set_cover(
    cov: list[int], n_elems: int, budget: int
) -> tuple[tuple[int, ...], int]:
    """Exact minimum cover of elements 0..n_elems-1 by the bitsets ``cov``.

    One depth-first branch and bound from the root with one node counter
    and one incumbent, the greedy cover first.  Each node branches on the
    uncovered element with the fewest covering sets (lowest index on
    ties) and tries those sets by gain, ties in index order.  Every child
    is one node, counted and bounded in its parent's loop: a child with
    nothing uncovered may become the incumbent, and only a child that the
    fooling bound cannot prune is expanded.

    Below a node's child, the sets of its earlier siblings are excluded:
    the earlier sibling's subtree already searched every cover below the
    node that uses its set, so such a cover can be no smaller than the
    incumbent it left.  An excluded set is neither counted nor expanded
    as a child.  This only removes subtrees that could not have improved
    the incumbent, so the incumbents are found in the same order, each in
    at most as many nodes.  Returns (chosen set indices, nodes explored).
    Past ``budget`` nodes it raises :class:`SearchBudgetExceeded` with the
    root fooling bound and the best size found, unless the incumbent
    already meets that bound.
    """
    universe = (1 << n_elems) - 1
    covers_of = [
        [i for i, c in enumerate(cov) if (c >> e) & 1] for e in range(n_elems)
    ]
    if any(not c for c in covers_of):
        raise ValueError("an element is covered by no candidate set")
    co_cover = [0] * n_elems
    for e in range(n_elems):
        for i in covers_of[e]:
            co_cover[e] |= cov[i]
    # the elements no set covering e covers: where a fooling chain through
    # e may go on
    not_co = [~c for c in co_cover]
    # elements grouped by how many sets cover them, fewest first: the
    # branch element is the lowest bit of the first group still uncovered
    groups: dict[int, int] = {}
    for e, sets in enumerate(covers_of):
        groups[len(sets)] = groups.get(len(sets), 0) | 1 << e
    by_count = [groups[k] for k in sorted(groups)]
    lower = _fooling_bound(co_cover, universe)
    best = _greedy_cover(cov, universe)
    excluded: set[int] = set()  # earlier siblings of the current path

    def expand(uncovered: int, chosen: tuple):
        nonlocal best, nodes
        # every set covering an uncovered element is still useful, so this
        # picks the uncovered element with the fewest useful sets
        for group in by_count:
            group &= uncovered
            if group:
                break
        e = (group & -group).bit_length() - 1
        depth = len(chosen) + 1
        # sorted() is stable and covers_of[e] ascends, so ties keep index order
        children = sorted(
            (i for i in covers_of[e] if i not in excluded),
            key=lambda i: -(cov[i] & uncovered).bit_count(),
        )
        for i in children:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(lower, len(best), nodes)
            child = uncovered & ~cov[i]
            if not child:
                if depth < len(best):
                    best = chosen + (i,)
            else:
                # the child's greedy fooling chain, followed only as far as
                # it could still let the child beat the incumbent: slack is
                # left only when the chain ended short of the incumbent
                rest, slack = child, len(best) - depth
                while rest and slack:
                    rest &= not_co[(rest & -rest).bit_length() - 1]
                    slack -= 1
                if slack:
                    expand(child, chosen + (i,))
            excluded.add(i)
        excluded.difference_update(children)

    nodes = 1  # the root
    try:
        if nodes > budget:
            raise SearchBudgetExceeded(lower, len(best), nodes)
        if lower < len(best):
            expand(universe, ())
    except SearchBudgetExceeded:
        if len(best) > lower:
            raise
    return best, nodes


def minimum_biclique_cover(
    m: SupportPattern, budget: int = DEFAULT_BUDGET
) -> CoverSearchResult:
    """Exact minimum cover of the 1-entries by all-ones submatrices."""
    g = BipartiteGraph(m.rows, m.cols, m.row_bits)
    return minimum_feasible_cover(g, g.complement(), budget=budget)


def boolean_rank(m: SupportPattern, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of bicliques (all-ones submatrices) covering the 1s.

    Raises :class:`SearchBudgetExceeded` with proven bounds if the search
    exceeds ``budget`` nodes.
    """
    return minimum_biclique_cover(m, budget=budget).size


def boolean_rank_interval(
    m: SupportPattern, exc: Exception, tri: int
) -> tuple[int, int, str]:
    """Proven (lower, upper, via) for the boolean rank of ``m`` when its cover
    search raised ``exc``; ``via`` names where the two ends came from.

    The triangular rank ``tri`` bounds it below (a triangular diagonal is a
    fooling set), the count of nonzero rows or columns above.  A cut search
    adds its fooling bound and best cover; a refused one adds neither.
    """
    lines = min(sum(1 for r in m.row_bits if r), sum(1 for c in m.col_bits() if c))
    if not isinstance(exc, SearchBudgetExceeded):
        refused = "triangular rank / nonzero lines (cover search refused the graph)"
        return tri, lines, refused
    lower, upper = max(exc.lower, tri), min(exc.upper, lines)
    if (lower, upper) == (exc.lower, exc.upper):
        return lower, upper, "minimum_biclique_cover branch and bound"
    low = "triangular rank" if lower > exc.lower else "cover search fooling bound"
    high = "nonzero lines" if upper < exc.upper else "cover search incumbent"
    return lower, upper, f"{low} / {high} (budget reached)"


def minimum_feasible_cover(
    ones: BipartiteGraph,
    forbidden: BipartiteGraph,
    budget: int = DEFAULT_BUDGET,
) -> CoverSearchResult:
    """Minimum number of bicliques covering E(ones), none containing a
    forbidden edge.

    A feasible biclique may contain vertex pairs that are edges of neither
    graph; only the forbidden edges are excluded.  Candidates are the
    maximal bicliques of the bipartite complement of ``forbidden``.
    ``budget`` must be nonnegative.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if (
        ones.left_count != forbidden.left_count
        or ones.right_count != forbidden.right_count
    ):
        raise ValueError("the two graphs must share their vertex sets")
    if any(a & b for a, b in zip(ones.adj, forbidden.adj)):
        raise ValueError("edge sets of ones and forbidden must be disjoint")
    edges = ones.edges()
    if not edges:
        return CoverSearchResult(0, BicliqueCover(()), 0)
    index = {pos: i for i, pos in enumerate(edges)}
    allowed = forbidden.complement()
    rects, cov = [], []
    for left, right in sorted(
        _maximal_bicliques(list(allowed.adj), allowed.left_count, allowed.right_count)
    ):
        mask = 0
        for u in _bits(left):
            for v in _bits(ones.adj[u] & right):
                mask |= 1 << index[(u, v)]
        if mask:
            rects.append((left, right))
            cov.append(mask)
    chosen, nodes = _min_set_cover(cov, len(edges), budget)
    cover = BicliqueCover(tuple(Biclique(*rects[i]) for i in chosen))
    return CoverSearchResult(len(chosen), cover, nodes)


def feasible_biclique_cover(
    ones: BipartiteGraph,
    forbidden: BipartiteGraph,
    budget: int = DEFAULT_BUDGET,
) -> int:
    return minimum_feasible_cover(ones, forbidden, budget=budget).size
