"""Independent reference implementations used to freeze expected values.

These deliberately avoid the library's algorithms: rank by plain Gaussian
elimination on Fractions instead of the fraction-free one, determinants by
the permutation expansion, products by one Fraction sum per entry instead
of integer dot products over common denominators, triangular rank by
exhaustive sequence enumeration instead of branch and bound, covers by
combinations over an independently enumerated candidate pool.
``min_set_cover_reference`` is the exception: a frozen copy of the cover
search's earlier traversal, without sibling exclusion, kept so that the
search can be held to the same covers in at most as many nodes.
``psd_certificate_reference`` is likewise the earlier LDL^T on Fractions,
which the fraction-free elimination must match pivot for pivot, and
``rref_reference`` the earlier Gauss-Jordan on Fractions, which the
integer elimination must match row for row, and ``min_sqrt_rank_reference``
the earlier sign enumeration over every code, which the one over row and
column flip orbits must match in minimum, witness and count.
``rank_mod_p_reference`` is the earlier row-list rank mod p, entry by
entry, which the packed-row kernel must match; the sign-enumeration
reference uses it, so that it shares no kernel with the library.
``min_set_cover_per_child`` is the cover search before leaf levels were
counted in one step, with its later dominance rule written plainly, which
the search must match node for node at every budget, and ``cheapest_blocks_reference`` the order-3 scan on count
lists, which the byte-packed scan must match block for block.
The search numbers its elements by how many sets cover them, then by
bit, and its fooling chains follow that order; both frozen cover
searches take their elements lowest bit first, so they are compared
with it on the system that ``renumber_by_cover_count`` puts in that
order.
"""

import heapq
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import comb

from psdbounds import (
    BipartiteGraph,
    ExactMatrix,
    PsdCertificate,
    SearchBudgetExceeded,
    SignAssignment,
    SqrtRankResult,
    SupportPattern,
)
from psdbounds.scalars import _SCAN_CHUNK, _SCAN_LIMIT, DEFAULT_SIGN_CAP


def naive_rank(m: ExactMatrix) -> int:
    rows = [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]
    rank = 0
    for c in range(m.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_det(m: ExactMatrix):
    n = m.rows
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term = term * m[i, perm[i]]
        total = term if total is None else total + term
    return total if total is not None else Fraction(1)


def naive_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The matrix product a b, one Fraction sum per entry."""
    return ExactMatrix(a.rows, b.cols, [
        sum((x * y for x, y in zip(a.row(i), b.column(j))), Fraction(0))
        for i in range(a.rows) for j in range(b.cols)
    ])


def triangular_rank_bruteforce(p: SupportPattern) -> int:
    best = 0

    def extend(used_rows, used_cols):
        nonlocal best
        best = max(best, len(used_rows))
        for k in range(p.rows):
            if k in used_rows:
                continue
            if any(p[k, l] for l in used_cols):
                continue
            for l in range(p.cols):
                if l not in used_cols and p[k, l]:
                    extend(used_rows + [k], used_cols + [l])

    extend([], [])
    return best


def _all_maximal_rectangles(p: SupportPattern):
    """Closure over column subsets (the library closes over rows)."""
    cols = p.col_bits()
    found = set()
    for size in range(1, p.cols + 1):
        for combo in combinations(range(p.cols), size):
            rows_mask = (1 << p.rows) - 1
            for c in combo:
                rows_mask &= cols[c]
            if not rows_mask:
                continue
            col_mask = 0
            for c in range(p.cols):
                if cols[c] & rows_mask == rows_mask:
                    col_mask |= 1 << c
            found.add((rows_mask, col_mask))
    return sorted(found)


def minimum_cover_bruteforce(p: SupportPattern) -> int:
    ones = p.ones_positions()
    if not ones:
        return 0
    index = {pos: i for i, pos in enumerate(ones)}
    universe = (1 << len(ones)) - 1
    coverages = set()
    for rows_mask, col_mask in _all_maximal_rectangles(p):
        cov = 0
        for i, (r, c) in enumerate(ones):
            if (rows_mask >> r) & 1 and (col_mask >> c) & 1:
                cov |= 1 << i
        coverages.add(cov)
    # dominance filter preserves the optimum: any cover may swap a
    # dominated set for its dominator
    pool = sorted(coverages, key=lambda c: (-c.bit_count(), c))
    kept = []
    for c in pool:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    for k in range(1, len(kept) + 1):
        for combo in combinations(kept, k):
            u = 0
            for c in combo:
                u |= c
            if u == universe:
                return k
    raise AssertionError("maximal rectangles failed to cover the ones")


def minimum_feasible_cover_bruteforce(
    ones: BipartiteGraph, forbidden: BipartiteGraph
) -> int:
    edges = ones.ones_positions()
    if not edges:
        return 0
    universe = (1 << len(edges)) - 1
    # maximal forbidden-free bicliques by closure over *right* subsets
    comp_cols = [0] * forbidden.right_count
    for u in range(forbidden.left_count):
        for v in range(forbidden.right_count):
            if not forbidden.has_edge(u, v):
                comp_cols[v] |= 1 << u
    found = set()
    for size in range(1, forbidden.right_count + 1):
        for combo in combinations(range(forbidden.right_count), size):
            left = (1 << forbidden.left_count) - 1
            for v in combo:
                left &= comp_cols[v]
            if not left:
                continue
            right = 0
            for v in range(forbidden.right_count):
                if comp_cols[v] & left == left:
                    right |= 1 << v
            found.add((left, right))
    coverages = set()
    for left, right in sorted(found):
        cov = 0
        for i, (u, v) in enumerate(edges):
            if (left >> u) & 1 and (right >> v) & 1:
                cov |= 1 << i
        if cov:
            coverages.add(cov)
    pool = sorted(coverages, key=lambda c: (-c.bit_count(), c))
    kept = []
    for c in pool:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    for k in range(1, len(kept) + 1):
        for combo in combinations(kept, k):
            u = 0
            for c in combo:
                u |= c
            if u == universe:
                return k
    raise AssertionError("feasible bicliques failed to cover the edges")


def is_psd_by_principal_minors(m: ExactMatrix) -> bool:
    """Symmetric rational matrix is psd iff every principal minor is >= 0."""
    n = m.rows
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if naive_det(m.submatrix(combo, combo)) < 0:
                return False
    return True


# -- frozen cover-search traversal --------------------------------------------
# Verbatim copy of ``pattern._min_set_cover`` and its helpers as they were
# before children were counted in their parent's loop; only the names differ.


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def renumber_by_cover_count(cov: list[int], universe: int) -> tuple[list[int], int]:
    """The system with its elements on bits 0..n-1, ordered by how many sets
    cover them and then by their bit in ``universe``."""
    cells = [e for e in range(universe.bit_length()) if universe >> e & 1]
    count = {e: sum(c >> e & 1 for c in cov) for e in cells}
    order = sorted(cells, key=lambda e: (count[e], e))
    renumbered = [
        sum(1 << d for d, e in enumerate(order) if c >> e & 1) for c in cov
    ]
    return renumbered, (1 << len(order)) - 1


def min_set_cover_reference(
    cov: list[int], n_elems: int, budget: int
) -> tuple[tuple[int, ...], int]:
    """Exact minimum cover of elements 0..n_elems-1 by the bitsets ``cov``.

    One depth-first branch and bound from the root with one node counter
    and one incumbent, the greedy cover first.  Each node branches on the
    uncovered element with the fewest covering sets and tries those sets
    by gain; the fooling bound prunes.  Returns (chosen set indices, nodes
    explored).  Past ``budget`` nodes it raises
    :class:`SearchBudgetExceeded` with the root fooling bound and the best
    size found, unless the incumbent already meets that bound.
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
    lower = _fooling_bound(co_cover, universe)
    best = _greedy_cover(cov, universe)
    nodes = 0

    def dfs(uncovered: int, chosen: tuple):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(lower, len(best), nodes)
        if not uncovered:
            if len(chosen) < len(best):
                best = chosen
            return
        if len(chosen) + _fooling_bound(co_cover, uncovered) >= len(best):
            return
        # every set covering an uncovered element is still useful, so this
        # picks the uncovered element with the fewest useful sets
        e = min(_bits(uncovered), key=lambda x: len(covers_of[x]))
        for i in sorted(
            covers_of[e], key=lambda i: (-(cov[i] & uncovered).bit_count(), i)
        ):
            dfs(uncovered & ~cov[i], chosen + (i,))

    try:
        dfs(universe, ())
    except SearchBudgetExceeded:
        if len(best) > lower:
            raise
    return best, nodes


# -- frozen per-child cover search --------------------------------------------
# Verbatim copy of ``pattern._min_set_cover`` as of c20c8d1, the per-child
# loop: every child is sorted, counted and tested in its parent's loop,
# on the element bits as given.  Besides the name, only the dominance by
# an excluded set differs: the search gained it later, and it is written
# here plainly, one test of the excluded sets per child.  The search must
# keep its traversal: the same result, node count and cut at every budget.


def min_set_cover_per_child(
    cov: list[int], universe: int, budget: int
) -> tuple[tuple[int, ...], int]:
    """Exact minimum cover of the elements of ``universe`` by the bitsets
    ``cov``; an element is a bit position, so the elements need not be
    consecutive.

    One depth-first branch and bound from the root with one node counter
    and one incumbent, the greedy cover first.  Each node branches on the
    uncovered element with the fewest covering sets (lowest bit on ties)
    and tries those sets by gain, ties in index order.  Every child is one
    node, counted and bounded in its parent's loop: a child with nothing
    uncovered may become the incumbent, and only a child that the fooling
    bound cannot prune is expanded.  The fooling bound is a greedy chain
    of elements pairwise covered by no one set, lowest bit first; each
    forces a set of its own.

    Below a node's child, the sets of its earlier siblings are excluded:
    the earlier sibling's subtree already searched every cover below the
    node that uses its set, so such a cover can be no smaller than the
    incumbent it left.  An excluded set is neither counted nor expanded
    as a child.  Nor is a child expanded, unless it is a leaf level, when
    an excluded set covers every uncovered element it covers: swapping
    the two turns any cover below the child into one already searched.
    Both rules only remove subtrees that could not have improved the
    incumbent, so the incumbents are found in the same order, each in
    at most as many nodes.  Every choice depends only on the order of the
    element bits, so spreading the elements onto other positions in the
    same order changes nothing.  Returns (chosen set indices, nodes
    explored).  Past ``budget`` nodes it raises
    :class:`SearchBudgetExceeded` with the root fooling bound and the best
    size found, unless the incumbent already meets that bound.
    """
    # the sets covering each element, in index order, in one pass over
    # each set's bits
    covers_of: list[list[int]] = [[] for _ in range(universe.bit_length())]
    for i, c in enumerate(cov):
        for e in _bits(c & universe):
            covers_of[e].append(i)
    # the elements no set covering e covers: where a fooling chain through
    # e may go on; masked to the universe, since `&` on a negative int
    # costs more, and cell-bit elements are several machine words wide
    not_co = [0] * len(covers_of)
    # elements grouped by how many sets cover them, fewest first: the
    # branch element is the lowest bit of the first group still uncovered
    groups: dict[int, int] = {}
    for e in _bits(universe):
        sets = covers_of[e]
        if not sets:
            raise ValueError("an element is covered by no candidate set")
        co = 0
        for i in sets:
            co |= cov[i]
        not_co[e] = universe & ~co
        groups[len(sets)] = groups.get(len(sets), 0) | 1 << e
    by_count = [groups[k] for k in sorted(groups)]
    lower, rest = 0, universe
    while rest:
        rest &= not_co[(rest & -rest).bit_length() - 1]
        lower += 1
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
                # a child that is not itself a leaf level is skipped when an
                # excluded set covers every element the child newly covers
                if slack and len(best) - depth > 2 and any(
                    j in excluded and not uncovered & cov[i] & ~cov[j]
                    for j in covers_of[e]
                ):
                    slack = 0
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


def psd_certificate_reference(m: ExactMatrix) -> PsdCertificate:
    """Exact psd test by symmetric elimination with diagonal pivoting.

    A symmetric rational matrix is psd iff the elimination only ever meets
    nonnegative diagonal pivots, and whenever the remaining diagonal is all
    zero the remaining block is entirely zero.
    """
    if not m.is_symmetric():
        return PsdCertificate(False, (), "matrix is not symmetric")
    n = m.rows
    work = [[Fraction(v) for v in m.row(i)] for i in range(n)]
    active = list(range(n))
    pivots: list[Fraction] = []
    while active:
        diag = [(work[i][i], i) for i in active]
        if any(d < 0 for d, _ in diag):
            bad = next(i for d, i in diag if d < 0)
            return PsdCertificate(
                False, tuple(pivots), f"negative diagonal entry at index {bad}"
            )
        pos = [i for d, i in diag if d > 0]
        if not pos:
            # all remaining diagonal entries are zero: psd iff block is zero
            for i in active:
                for j in active:
                    if work[i][j]:
                        return PsdCertificate(
                            False,
                            tuple(pivots),
                            f"zero diagonal with nonzero entry at ({i}, {j})",
                        )
            break
        p = pos[0]
        piv = work[p][p]
        pivots.append(piv)
        active.remove(p)
        pivot_row = {j: work[p][j] for j in active}
        for i in active:
            f = work[i][p] / piv
            if f:
                for j in active:
                    work[i][j] -= f * pivot_row[j]
            work[i][p] = Fraction(0)
            work[p][i] = Fraction(0)
    return PsdCertificate(True, tuple(pivots))


def rref_reference(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place RREF; returns (nonzero rows, pivot column indices)."""
    if not rows:
        return [], []
    n = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank_mod_p_reference(rows: list[list[int]], p: int) -> int:
    """Rank over F_p (``p`` prime) of the integer matrix with these rows."""
    a = [[v % p for v in row] for row in rows]
    n_rows = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        for piv in range(r, n_rows):
            if a[piv][c]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        top, x = a[r], a[r][c]
        for i in range(r + 1, n_rows):
            y = a[i][c]
            if y:
                a[i] = [(x * u - y * w) % p for u, w in zip(a[i], top)]
        r += 1
        if r == n_rows:
            break
    return r


def min_sqrt_rank_reference(
    s: ExactMatrix,
    row_set,
    col_set,
    fix_global_sign: bool = True,
    cap: int = DEFAULT_SIGN_CAP,
) -> SqrtRankResult:
    """Minimum exact rank over all entrywise square roots of a submatrix.

    Every matrix Y with Y(k,l)^2 = S(k,l) on the selected block arises from
    one of 2^z sign choices on the z nonzero entries (zeros stay zero); the
    rank is computed exactly over the multi-quadratic field generated by
    the square-free parts.  Since Y and -Y have equal rank, the first sign
    is fixed unless ``fix_global_sign`` is false.
    """
    rows = list(row_set)
    cols = list(col_set)
    for kind, idx, size in (("row", rows, s.rows), ("column", cols, s.cols)):
        bad = [k for k in idx if not 0 <= k < size]
        if bad:
            raise ValueError(
                f"{kind} index {bad[0]} outside the {s.rows}x{s.cols} matrix "
                "(indices are 0-based)"
            )
    sub = s.submatrix(rows, cols)
    if not sub.is_nonnegative():
        raise ValueError("selected submatrix must be nonnegative")
    local = [
        (i, j) for i in range(sub.rows) for j in range(sub.cols) if sub[i, j]
    ]
    positions = [(rows[i], cols[j]) for i, j in local]
    z = len(positions)
    if z > cap:
        raise ValueError(f"{z} nonzero entries exceed the enumeration cap {cap}")
    if z == 0:
        return SqrtRankResult(0, SignAssignment((), ()), 1)

    from psdbounds.scalars import MultiQuadScalar, modular_images, multiquad_rank, sqrt_embed

    roots = [sqrt_embed(sub[p]) for p in local]
    zero = MultiQuadScalar.zero()
    n_free = z - 1 if fix_global_sign else z
    # the rank mod p never exceeds the exact rank, so a sign choice whose
    # modular rank already reaches the best exact rank cannot lower the minimum
    modular = modular_images(roots)

    # a binary counter over the free signs, the first free sign in its lowest
    # bit; the witness is the first minimizing choice in this order
    head = (1,) if fix_global_sign else ()
    best_rank, best_signs = sub.rows + sub.cols + 1, ()
    for tail in product((1, -1), repeat=n_free):
        signs = head + tail[::-1]
        if modular is not None:
            p, images = modular
            grid = [[0] * sub.cols for _ in range(sub.rows)]
            for t, (i, j) in enumerate(local):
                grid[i][j] = images[t] if signs[t] > 0 else p - images[t]
            if rank_mod_p_reference(grid, p) >= best_rank:
                continue
        entries = [[zero] * sub.cols for _ in range(sub.rows)]
        for t, (i, j) in enumerate(local):
            entries[i][j] = roots[t] if signs[t] > 0 else -roots[t]
        r = multiquad_rank(entries)
        if r < best_rank:
            best_rank, best_signs = r, signs

    witness = SignAssignment(tuple(positions), best_signs)
    return SqrtRankResult(best_rank, witness, 1 << n_free)


# -- frozen order-3 candidate scan --------------------------------------------
# Verbatim copy of ``scalars._cheapest_blocks`` as of c20c8d1, which tables
# each row's count on every column set as a list and sums four lists per
# row set.  Only the name differs.  The packed scan must return the same
# blocks in the same order.


def cheapest_blocks_reference(
    row_bits, pinned_rows: list[int], pinned_cols: list[int], cap: int, keep: int
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The ``keep`` smallest ``(z, rows, cols)`` with ``z <= cap``, sorted.

    The candidates are the 4x4 blocks of pinned rows x pinned columns, z
    counts a block's nonzero entries, and only the lexicographically first
    ``_SCAN_LIMIT`` (row set, column set) pairs are scored, which caps huge
    inputs deterministically.  The column sets are taken ``_SCAN_CHUNK`` at
    a time: per chunk, each row's nonzero count on every column set is
    tabled once, and a block's z is the sum of four table entries.
    """
    n_col_sets = comb(len(pinned_cols), 4)
    n_pairs = min(_SCAN_LIMIT, comb(len(pinned_rows), 4) * n_col_sets)
    n_row_sets = -(-n_pairs // n_col_sets)
    # a pair's key orders like (z, rows, cols), since combinations() yields
    # the sets of a sorted list in lexicographic order
    stride = n_row_sets * n_col_sets
    kept: list[tuple[int, tuple, tuple]] = []  # max-heap on -key
    worst = cap  # the largest z that can still be kept
    col_sets = combinations(pinned_cols, 4)
    for start in range(0, min(n_col_sets, n_pairs), _SCAN_CHUNK):
        chunk = list(islice(col_sets, _SCAN_CHUNK))
        masks = [(1 << a) | (1 << b) | (1 << c) | (1 << d) for a, b, c, d in chunk]
        table: dict[int, list[int]] = {}
        for r, krows in enumerate(combinations(pinned_rows, 4)):
            width = min(len(chunk), n_pairs - r * n_col_sets - start)
            if width <= 0:
                break
            counts = []
            for k in krows:
                if k not in table:
                    table[k] = [(row_bits[k] & m).bit_count() for m in masks]
                counts.append(table[k])
            zs = [a + b + c + d for a, b, c, d in zip(*counts)][:width]
            if min(zs) > worst:
                continue
            base = r * n_col_sets + start
            for j, z in enumerate(zs):
                if z <= worst:
                    item = (-(z * stride + base + j), krows, chunk[j])
                    if len(kept) < keep:
                        heapq.heappush(kept, item)
                    else:
                        heapq.heappushpop(kept, item)
                    if len(kept) == keep:
                        worst = -kept[0][0] // stride
    return [(-neg // stride, kr, lc) for neg, kr, lc in sorted(kept, reverse=True)]
