"""Support patterns, triangular rank, and exact biclique cover search.

A pattern is stored as bitsets, one int per row, which keeps the
branch-and-bound searches allocation-free; like the matrix it comes from,
it is a frozen record.  A bipartite graph is a pattern read as a graph:
row u is left vertex u, column v is right vertex v, and the 1-entries are
the edges; a graph never equals a pattern.  Both cover problems cover
cells of that one relation, and cell (u, v) of a pattern with n columns
is element bit u * n + v, so elements are numbered in row-major order.  They run one
exact search at desk scale under one total node budget; traversal order
is deterministic, so results are reproducible.  The bound report
`analyze`, which ``psdbounds bounds`` prints, is assembled here too.
The records keep only their sources: a cover search's size is the
length of its cover, and the report's boolean rank or bounds and its
embedding-dimension interval are read from the proven boolean-rank
interval, the triangular rank and the rank.
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


def _check_budget(budget: int) -> None:
    """Refuse a negative node budget before any search runs."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@_frozen
class SupportPattern:
    """0/1 pattern of an m x n matrix, one bitmask per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.row_bits)
        if len(bits) != self.rows:
            raise ValueError("need one bitmask per row")
        full = (1 << self.cols) - 1
        if any(b & ~full for b in bits):
            raise ValueError("row bitmask wider than the column count")
        object.__setattr__(self, "row_bits", bits)

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
                if v:
                    mask |= 1 << j
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

    def ones_positions(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.rows) for j in _bits(self.row_bits[i])
        ]

    def transpose(self) -> "SupportPattern":
        return type(self)(self.cols, self.rows, self.col_bits())

    def complement(self) -> "SupportPattern":
        full = (1 << self.cols) - 1
        return type(self)(self.rows, self.cols, [full ^ b for b in self.row_bits])


def support(m: ExactMatrix) -> SupportPattern:
    """Replace every nonzero entry by 1 (exact zero test)."""
    return SupportPattern(m.rows, m.cols, m.support_bits())


class BipartiteGraph(SupportPattern):
    """A pattern read as a bipartite graph: left vertex u is row u, right
    vertex v is column v, and (u, v) is an edge where the entry is 1.  It
    is a record of its own class: a graph never equals a pattern, even one
    with the same bits."""

    left_count = property(lambda self: self.rows)
    right_count = property(lambda self: self.cols)
    adj = property(lambda self: self.row_bits)
    edge_count = SupportPattern.ones_count

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.row_bits[u] >> v) & 1)

    def __repr__(self):
        return (
            f"BipartiteGraph({self.rows}+{self.cols} vertices, "
            f"{self.ones_count()} edges)"
        )


def poset_of(m: SupportPattern) -> BipartiteGraph:
    """Hasse diagram with rows below columns: edge (k, l) iff entry (k, l) is 0.

    The zero convention is the one under which subspace-lattice embeddings
    characterize the pattern (row space below column space exactly at the
    zeros); see the package docs for the sign discussion.
    """
    return BipartiteGraph(m.rows, m.cols, m.row_bits).complement()


@_frozen
class Biclique:
    """Complete bipartite block: ``left_set`` x ``right_set`` as bitsets."""

    left_set: int
    right_set: int

    def __post_init__(self):
        if self.left_set <= 0 or self.right_set <= 0:
            raise ValueError("a biclique needs nonempty sides")

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
    cover: BicliqueCover
    nodes: int

    @property
    def size(self) -> int:
        return len(self.cover)


# -- triangular rank ---------------------------------------------------------


def _gf2_rank(row_masks: list[int]) -> int:
    # an XOR basis keyed by each vector's top bit
    basis: dict[int, int] = {}
    for r in row_masks:
        while r:
            top = r.bit_length()
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def triangular_rank(m: SupportPattern, upper: int | None = None) -> int:
    """Largest t admitting rows k_1..k_t, cols l_1..l_t with entry (k_i, l_i)
    nonzero and (k_i, l_j) zero for all j < i.

    Permuting such a submatrix gives a triangular block with nonzero
    diagonal, so this bounds the rank of every matrix with this support.
    Exact branch and bound over sets of chosen columns: the next row must
    be zero on every chosen column, so it is never a used row, and which
    row brought a column in does not change what can follow.  The prune
    bounds how many pairs can still be appended by the GF(2) rank of the
    remaining rows: the rows of a triangular block with nonzero diagonal
    are independent over GF(2).  That rank is at most the largest
    matching, the term rank, so it prunes at least where a matching
    would.  ``embrkl_bounds`` passes ``upper=rank(S)`` to stop once the
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
        if depth + _gf2_rank(rows) <= best:
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
    # every element of universe lies in some set; _min_set_cover checks that
    chosen = []
    uncovered = universe
    while uncovered:
        best_i, best_gain = -1, 0
        for i, cov in enumerate(cov_masks):
            gain = (cov & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        uncovered &= ~cov_masks[best_i]
    return tuple(chosen)


def _min_set_cover(
    cov: list[int], universe: int, budget: int
) -> tuple[tuple[int, ...], int]:
    """Exact minimum cover of the elements of ``universe`` by the bitsets
    ``cov``; an element is a bit position, so the elements need not be
    consecutive.

    One depth-first branch and bound from the root with one node counter
    and one incumbent, the greedy cover first.  The elements are first
    renumbered onto consecutive bits, ordered by how many sets cover them
    and then by bit; only that order matters below, so spreading the
    elements onto other bits in the same order changes nothing.  Each
    node branches on the uncovered element with the fewest covering sets
    (lowest bit of ``universe`` on ties), which is the lowest uncovered
    dense bit, and tries those sets by gain, ties in index order.  Every
    child is one node, counted and tested against the budget in its
    parent's loop: a child with nothing uncovered may become the
    incumbent, and only a child that the fooling bound cannot prune is
    expanded.  The fooling bound is a greedy chain of elements pairwise
    covered by no one set, lowest dense bit first, so the elements with
    the fewest sets come first; each forces a set of its own.  The root's
    bound is the longer of that chain and the one taken in the order of
    ``universe``; both are valid.

    A parent is a leaf level when only a cover with one more set could
    beat the incumbent: the chain of a child with anything uncovered uses
    up that one set at its first element, so no child is expanded, and
    only a set covering everything uncovered, the first child in that
    order, can improve the incumbent.
    Such a parent counts its children together, the first one before the
    rest, so the count and any cut are those of the one-by-one loop.

    Below a node's child, the sets of its earlier siblings are excluded:
    the earlier sibling's subtree already searched every cover below the
    node that uses its set, so such a cover can be no smaller than the
    incumbent it left.  An excluded set is neither counted nor expanded
    as a child.  A child that the fooling bound leaves is not expanded
    either when an excluded set covers every uncovered element that the
    child's set covers: swapping the two turns any cover below the child
    into one of the same size that uses the excluded set, and every such
    cover was already searched.  It still counts as a node and is
    excluded for its later siblings.  The test runs only on a child that
    is not itself a leaf level: a leaf level counts its children in one
    pass, which costs no more than the test.  Both rules only remove
    subtrees that could not have improved the incumbent, so the
    incumbents are found in the same order, each in at most as many
    nodes.  Returns (chosen set indices, nodes explored).
    Past ``budget`` nodes it raises :class:`SearchBudgetExceeded` with the
    root fooling bound and the best size found, unless the incumbent
    already meets that bound.
    """
    # the sets covering each element, in index order, in one pass over
    # each set's bits
    cells = list(_bits(universe))
    sets_of: dict[int, list[int]] = {e: [] for e in cells}
    for i, c in enumerate(cov):
        for e in _bits(c & universe):
            sets_of[e].append(i)
    if not all(sets_of.values()):
        raise ValueError("an element is covered by no candidate set")
    # element e becomes a dense bit, ordered by how many sets cover it and
    # then by e (sorted() is stable); each set is packed onto those bits,
    # with its complement within the universe
    order = sorted(cells, key=lambda e: len(sets_of[e]))
    covers_of = [sets_of[e] for e in order]
    full = (1 << len(order)) - 1
    packed = [0] * len(cov)
    for d, sets in enumerate(covers_of):
        for i in sets:
            packed[i] |= 1 << d
    comp = [full ^ mask for mask in packed]
    # the elements no set covering e covers: where a fooling chain through
    # e may go on
    not_co = [0] * len(order)
    for e, sets in enumerate(covers_of):
        co = 0
        for i in sets:
            co |= packed[i]
        not_co[e] = full ^ co
    def chain(bits) -> int:
        # the greedy fooling chain that takes the elements in this order
        length, rest = 0, full
        for d in bits:
            if rest >> d & 1:
                rest &= not_co[d]
                length += 1
        return length

    # the root's fooling bound: the longer of the chains taken lowest
    # dense bit first and in the order of the universe's bits
    dense = range(len(order))
    lower = max(chain(dense), chain(sorted(dense, key=order.__getitem__)))
    best = _greedy_cover(packed, full)
    excluded: set[int] = set()  # earlier siblings of the current path
    # a child's sort key: what it leaves uncovered, then its index
    shift = len(cov).bit_length()
    index = (1 << shift) - 1

    def expand(uncovered: int, chosen: tuple):
        nonlocal best, nodes
        # every set covering an uncovered element is still useful, so the
        # lowest uncovered bit is the one with the fewest useful sets
        sets = covers_of[(uncovered & -uncovered).bit_length() - 1]
        depth = len(chosen) + 1
        if len(best) - depth <= 1:  # a leaf level
            count = len(sets) - len(excluded.intersection(sets))
            if count:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(lower, len(best), nodes)
                for i in sets:
                    if not uncovered & comp[i] and i not in excluded:
                        best = chosen + (i,)
                        break
                nodes += count - 1
                if nodes > budget:
                    nodes = budget + 1
                    raise SearchBudgetExceeded(lower, len(best), nodes)
            return
        # ascending keys: most covered first, ties in index order
        children = [
            (uncovered & comp[i]).bit_count() << shift | i
            for i in sets
            if i not in excluded
        ]
        children.sort()
        dominators = None  # complements of the excluded sets in ``sets``
        for key in children:
            i = key & index
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(lower, len(best), nodes)
            child = uncovered & comp[i]
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
                if slack and len(best) - depth > 2:
                    # an excluded set covering all the child newly covers
                    # dominates it; a leaf-level child is not worth the test
                    if dominators is None:
                        dominators = [comp[j] for j in sets if j in excluded]
                    gain = uncovered ^ child
                    for c in dominators:
                        if not gain & c:
                            slack = 0
                            break
                if slack:
                    expand(child, chosen + (i,))
            excluded.add(i)
            if dominators is not None:
                dominators.append(comp[i])
        excluded.difference_update(map(index.__and__, children))

    nodes = 1  # the root
    try:
        if nodes > budget:
            raise SearchBudgetExceeded(lower, len(best), nodes)
        if lower < len(best):
            expand(full, ())
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
    _check_budget(budget)
    if (
        ones.left_count != forbidden.left_count
        or ones.right_count != forbidden.right_count
    ):
        raise ValueError("the two graphs must share their vertex sets")
    if any(a & b for a, b in zip(ones.adj, forbidden.adj)):
        raise ValueError("edge sets of ones and forbidden must be disjoint")
    # element (u, v) is bit u * width + v, so a biclique covers one
    # shifted slice of its right side per row
    width = ones.right_count
    universe = 0
    for u, a in enumerate(ones.adj):
        universe |= a << u * width
    if not universe:
        return CoverSearchResult(BicliqueCover(()), 0)
    allowed = forbidden.complement()
    rects, cov = [], []
    for left, right in sorted(
        _maximal_bicliques(list(allowed.adj), allowed.left_count, allowed.right_count)
    ):
        mask = 0
        for u in _bits(left):
            mask |= (ones.adj[u] & right) << u * width
        if mask:
            rects.append((left, right))
            cov.append(mask)
    chosen, nodes = _min_set_cover(cov, universe, budget)
    cover = BicliqueCover(tuple(Biclique(*rects[i]) for i in chosen))
    return CoverSearchResult(cover, nodes)


def feasible_biclique_cover(
    ones: BipartiteGraph,
    forbidden: BipartiteGraph,
    budget: int = DEFAULT_BUDGET,
) -> int:
    return minimum_feasible_cover(ones, forbidden, budget=budget).size


# -- bounds on a matrix: the searches combined ------------------------------


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


def boolean_rank_outcome(
    s: ExactMatrix, budget: int = DEFAULT_BUDGET, tri: int | None = None
) -> tuple[int, int, str]:
    """Proven (lower, upper, via) for the boolean rank of supp(s), from a
    cover search under ``budget``; ``via`` names where the two ends came from.

    Only a cut or refused search needs the triangular rank ``tri`` (from
    :func:`embrkl_bounds` if not given): it bounds the boolean rank below
    (a triangular diagonal is a fooling set), the count of nonzero rows or
    columns above.  A cut search adds its fooling bound and best cover.
    """
    m = support(s)
    searched = "minimum_biclique_cover branch and bound"
    try:
        value = boolean_rank(m, budget=budget)
        return value, value, searched
    except (SearchBudgetExceeded, EnumerationTooLarge) as exc:
        cut = exc  # the clause unbinds `exc` when it ends
    if tri is None:
        tri, _ = embrkl_bounds(s)
    lines = min(sum(1 for r in m.row_bits if r), sum(1 for c in m.col_bits() if c))
    if isinstance(cut, EnumerationTooLarge):
        return tri, lines, "triangular rank / nonzero lines (cover search refused the graph)"
    lower, upper = max(cut.lower, tri), min(cut.upper, lines)
    if (lower, upper) == (cut.lower, cut.upper):
        return lower, upper, searched
    low = "triangular rank" if lower > cut.lower else "cover search fooling bound"
    high = "nonzero lines" if upper < cut.upper else "cover search incumbent"
    return lower, upper, f"{low} / {high} (budget reached)"


@_frozen
class BoundReport:
    """Everything the support and the exact entries certify about a matrix."""

    rank: int
    triangular_rank: int
    boolean_rank_interval: tuple[int, int]
    boolean_rank_source: str
    psd_lower_bound: int
    psd_lower_bound_source: str

    @property
    def boolean_rank(self) -> int | None:
        """The boolean rank when the interval's ends meet, else None."""
        lo, hi = self.boolean_rank_interval
        return lo if lo == hi else None

    @property
    def boolean_rank_bounds(self) -> tuple[int, int] | None:
        """The interval while the boolean rank is undecided, else None."""
        lo, hi = self.boolean_rank_interval
        return None if lo == hi else (lo, hi)

    @property
    def embedding_dim_bounds(self) -> tuple[int, int]:
        """:func:`embrkl_bounds`: the triangular rank and the rank."""
        return self.triangular_rank, self.rank


def analyze(s: ExactMatrix, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """The report ``psdbounds bounds`` prints (``formats.bound_report_reply``
    writes it); ``budget`` caps the cover search.

    When the cover search runs out of budget, or refuses a graph too large
    to list its candidates, the boolean rank is reported as the proven
    interval of :func:`boolean_rank_outcome`; a value when its ends meet.
    The order-3 certificate runs only when the triangular rank is below 4,
    the most it can prove, so only then is `scalars` loaded.
    """
    _check_budget(budget)
    tri, rk = embrkl_bounds(s)
    lo, hi, bsource = boolean_rank_outcome(s, budget, tri)
    psd_lb, source = tri, "triangular rank"
    if tri < 4 and s.is_nonnegative():
        from .scalars import order3_exclusion

        # keep the report snappy: small enumeration cap and few blocks here,
        # the dedicated order3-exclude command has the full defaults
        cert = order3_exclusion(s, cap=12, max_attempts=8)
        if cert.conclusive:
            psd_lb, source = cert.bound, "order-3 exclusion certificate"
    return BoundReport(rk, tri, (lo, hi), bsource, psd_lb, source)
