"""Exact positive semidefinite factorizations and sign-enumeration bounds.

Everything here is rational arithmetic: psd-ness is certified by an LDL^T
elimination with diagonal pivoting (no eigenvalues), support realization
samples rational vectors, and the square-root enumeration computes matrix
ranks over multi-quadratic field extensions.  The floating-point rank
reduction lives in :mod:`psdbounds.reduction` instead.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import ExactMatrix, rank_mod_p, scaled_dot, scaled_entries

# `pattern` is imported where the support is needed, so that `sqrt-bound`,
# `verify psd` and `gen sn` do not load it
if TYPE_CHECKING:
    from .pattern import SupportPattern

DEFAULT_SIGN_CAP = 24
_SCAN_LIMIT = 200_000  # block pairs the order-3 scan scores
_SCAN_CHUNK = 1024  # column sets the order-3 scan tables at a time


class RealizationError(Exception):
    """Sampling failed to hit a support-realizing point within the retry cap."""


@_frozen
class PsdFactorization:
    """Symmetric factor lists A_1..A_m, B_1..B_n of a common order.

    The factored matrix has entries tr(A_k B_l); psd-ness of the factors is
    certified on demand, not at construction.
    """

    order: int
    A: tuple[ExactMatrix, ...]
    B: tuple[ExactMatrix, ...]

    def __post_init__(self):
        for mat in self.A + self.B:
            if mat.rows != self.order or mat.cols != self.order:
                raise ValueError("factor order mismatch")
            if not mat.is_symmetric():
                raise ValueError("factors must be symmetric")

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.B)

    def product_matrix(self) -> ExactMatrix:
        """The matrix tr(A_k B_l) this factorization factors.

        The factors are symmetric, so tr(A B) = sum_ij A_ij B_ij: each entry
        is one integer dot product over the factors' common denominators.
        """
        a = [scaled_entries(m.entries) for m in self.A]
        b = [scaled_entries(m.entries) for m in self.B]
        return ExactMatrix(self.m, self.n, [scaled_dot(x, y) for x in a for y in b])


@_frozen
class PsdCertificate:
    """Outcome of the exact LDL^T test on one symmetric rational matrix."""

    is_psd: bool
    pivots: tuple[Fraction, ...]
    reason: str = ""


def psd_certificate(m: ExactMatrix) -> PsdCertificate:
    """Exact psd test by symmetric elimination with diagonal pivoting.

    A symmetric rational matrix is psd iff the elimination only ever meets
    nonnegative diagonal pivots, and whenever the remaining diagonal is all
    zero the remaining block is entirely zero.

    The elimination is fraction-free (symmetric Bareiss) on the integer
    matrix A = D m, D the entries' least common denominator.  After pivots
    p_1..p_k an entry (i, j) is the minor det A[{p_1..p_k, i}, {p_1..p_k, j}],
    which is the rational Schur complement's entry times the positive
    d_k = det A[p_1..p_k].  So signs and zeros are those of the rational
    elimination, and the k-th pivot is d_k / (d_{k-1} D).
    """
    if not m.is_symmetric():
        return PsdCertificate(False, (), "matrix is not symmetric")
    n = m.rows
    flat, den = scaled_entries(m.entries)
    work = [flat[i * n : (i + 1) * n] for i in range(n)]
    active = list(range(n))
    pivots: list[Fraction] = []
    prev = 1  # d_{k-1}; every update divides by it exactly
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
        pivots.append(Fraction(piv, prev * den))
        active.remove(p)
        pivot_row = work[p]
        for a, i in enumerate(active):
            row, f = work[i], work[i][p]
            for j in active[a:]:
                row[j] = work[j][i] = (piv * row[j] - f * pivot_row[j]) // prev
        prev = piv
    return PsdCertificate(True, tuple(pivots))


@_frozen
class FactorizationReport:
    """Per-factor psd certificates plus exact trace-equality results."""

    psd_ok: bool
    a_certificates: tuple[PsdCertificate, ...]
    b_certificates: tuple[PsdCertificate, ...]
    traces_ok: bool
    mismatches: tuple[tuple[int, int], ...] = ()

    @property
    def passed(self) -> bool:
        return self.psd_ok and self.traces_ok

    def summary(self) -> str:
        bad_a = [i for i, c in enumerate(self.a_certificates) if not c.is_psd]
        bad_b = [i for i, c in enumerate(self.b_certificates) if not c.is_psd]
        parts = []
        if bad_a:
            parts.append(f"non-psd A factors {bad_a}")
        if bad_b:
            parts.append(f"non-psd B factors {bad_b}")
        if self.mismatches:
            parts.append(f"trace mismatches at {list(self.mismatches)}")
        return "; ".join(parts) if parts else "ok"


def verify_psd_factorization(
    f: PsdFactorization, s: ExactMatrix | None = None
) -> FactorizationReport:
    """Certify each factor psd and check tr(A_k B_l) = S(k,l) exactly.

    With ``s`` omitted only the psd part is checked (the trace identities
    are vacuous against the factorization's own product matrix).
    """
    a_certs = tuple(psd_certificate(a) for a in f.A)
    b_certs = tuple(psd_certificate(b) for b in f.B)
    psd_ok = all(c.is_psd for c in a_certs) and all(c.is_psd for c in b_certs)
    mismatches: list[tuple[int, int]] = []
    if s is not None:
        if s.rows != f.m or s.cols != f.n:
            raise ValueError(
                f"factorization is {f.m}x{f.n} but the matrix is {s.rows}x{s.cols}"
            )
        pairs = zip(f.product_matrix().entries, s.entries)
        mismatches = [divmod(i, f.n) for i, (x, y) in enumerate(pairs) if x != y]
    return FactorizationReport(
        psd_ok, a_certs, b_certs, not mismatches, tuple(mismatches)
    )


def realize_support(
    f: PsdFactorization, seed: int = 0, max_tries: int = 5
) -> ExactMatrix:
    """A rational matrix T with supp(T) = supp(tr(A_k B_l)) and rank <= order.

    Samples xi_k, eta_l with integer entries uniform over {-B..B} and sets
    T(k,l) = <A_k xi_k, B_l eta_l>.  Entries that must vanish do so
    automatically (there A_k B_l = 0); nonzero entries survive outside a
    measure-zero set, so a few retries suffice.  Deterministic per seed.
    """
    from .pattern import support

    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    report = verify_psd_factorization(f)
    if not report.psd_ok:
        raise ValueError(f"factors are not positive semidefinite: {report.summary()}")
    s = f.product_matrix()
    pattern = support(s)
    rng = random.Random(seed)
    amplitude = max(17, f.m * f.n)
    a = [scaled_entries(x.entries) for x in f.A]
    b = [scaled_entries(x.entries) for x in f.B]
    for _ in range(max_tries):
        xs = [_times_random_vector(x, f.order, rng, amplitude) for x in a]
        ys = [_times_random_vector(y, f.order, rng, amplitude) for y in b]
        t = ExactMatrix(f.m, f.n, [scaled_dot(x, y) for x in xs for y in ys])
        if support(t) == pattern:
            return t
    raise RealizationError(
        f"no support-realizing sample in {max_tries} tries (seed {seed})"
    )


def _times_random_vector(
    factor: tuple[list[int], int], q: int, rng: random.Random, amplitude: int
) -> tuple[list[int], int]:
    """A scaled q x q factor times a vector uniform over {-amplitude..amplitude}^q,
    as integers over the factor's denominator."""
    nums, den = factor
    v = [rng.randint(-amplitude, amplitude) for _ in range(q)]
    return [sum(map(int.__mul__, nums[i * q : (i + 1) * q], v)) for i in range(q)], den


# -- square-root sign enumeration ---------------------------------------------


@_frozen
class SignAssignment:
    """Signs for the nonzero entries of a submatrix, in row-major order."""

    positions: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.signs):
            raise ValueError("one sign per position")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@_frozen
class SqrtRankResult:
    min_rank: int
    witness: SignAssignment | None
    assignments_checked: int


def min_sqrt_rank(
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

    Flipping the signs of one row or one column multiplies Y by a diagonal
    +-1 matrix D on that side, and rank(D_r Y D_c) = rank(Y) over every
    field, so the choices fall into orbits of 2^(r+c-k) choices of equal
    rank (r, c the block's nonzero rows and columns, k the connected
    components of its nonzero entries).  Only the smallest code of each
    orbit is ranked, in increasing code order, so the first minimizer is
    the first one of the full enumeration.  ``assignments_checked`` still
    counts every choice the orbits cover, 2^z or 2^(z-1).
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
        repeated = [k for i, k in enumerate(idx) if k in idx[:i]]
        if repeated:
            raise ValueError(
                f"{kind} index {repeated[0]} is repeated (indices are 0-based)"
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

    from .scalars import MultiQuadScalar, modular_images, multiquad_rank, sqrt_embed

    roots = [sqrt_embed(sub[p]) for p in local]
    zero = MultiQuadScalar.zero()
    n_free = z - 1 if fix_global_sign else z
    # the rank mod p never exceeds the exact rank, so a sign choice whose
    # modular rank already reaches the best exact rank cannot lower the minimum
    modular = modular_images(roots)

    # a sign choice's code has bit t set where sign t is negative; flipping a
    # row or a column xors the code with that line's mask.  With the first
    # sign fixed, a flip that changes it is followed by the global flip, so
    # a mask with bit 0 set acts as its complement
    lines = [0] * (sub.rows + sub.cols)
    for t, (i, j) in enumerate(local):
        lines[i] |= 1 << t
        lines[sub.rows + j] |= 1 << t
    full = (1 << z) - 1
    basis: dict[int, int] = {}  # highest set bit -> vector of the span
    for mask in lines:
        if fix_global_sign and mask & 1:
            mask ^= full
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                break
            mask ^= basis[top]
    # the codes zero at every pivot are the smallest code of each orbit; a
    # binary counter over the other free positions, the lowest in its lowest
    # bit, visits them in increasing code order, so the witness is the first
    # minimizing choice of the counter over all 2^n_free codes
    free = [t for t in range(z - n_free, z) if t not in basis][::-1]
    best_rank, best_signs = sub.rows + sub.cols + 1, ()
    signs = [1] * z
    for choice in product((1, -1), repeat=len(free)):
        for t, sign in zip(free, choice):
            signs[t] = sign
        if modular is not None:
            p, images = modular
            grid = [[0] * sub.cols for _ in range(sub.rows)]
            for t, (i, j) in enumerate(local):
                grid[i][j] = images[t] if signs[t] > 0 else p - images[t]
            if rank_mod_p(grid, p) >= best_rank:
                continue
        entries = [[zero] * sub.cols for _ in range(sub.rows)]
        for t, (i, j) in enumerate(local):
            entries[i][j] = roots[t] if signs[t] > 0 else -roots[t]
        r = multiquad_rank(entries)
        if r < best_rank:
            best_rank, best_signs = r, tuple(signs)

    witness = SignAssignment(tuple(positions), best_signs)
    return SqrtRankResult(best_rank, witness, 1 << n_free)


def check_sign_square(s: ExactMatrix, assignment: SignAssignment) -> bool:
    """Entrywise: (sign * sqrt(S(k,l)))^2 equals S(k,l) exactly."""
    from .scalars import MultiQuadScalar, sqrt_embed

    for (i, j), sign in zip(assignment.positions, assignment.signs):
        y = sqrt_embed(s[i, j]) * sign
        if (y * y) != MultiQuadScalar.from_rational(s[i, j]):
            return False
    return True


# -- the order-3 exclusion certificate ----------------------------------------


@_frozen
class Order3Certificate:
    """Result of the dimension-forcing + sign-enumeration argument.

    When ``conclusive``, no order-3 psd factorization of the matrix exists,
    i.e. its psd rank is at least ``bound`` (= 4).  The hypothesis fields
    record which rows/columns had their subspace dimensions pinned; column
    distinctness is checked at support level only (distinct zero patterns),
    which is the machine-checkable form of the underlying argument.
    """

    conclusive: bool
    bound: int | None
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    min_rank: int | None
    assignments_checked: int
    witness: SignAssignment | None
    pinned_rows: tuple[int, ...]
    pinned_cols: tuple[int, ...]
    reason: str = ""
    column_distinctness: str = "support-level"

    @property
    def claim(self) -> str:
        return "psd rank >= 4" if self.conclusive else "inconclusive"


def _pinned_sets(pat: SupportPattern) -> tuple[list[int], list[int]]:
    """Rows forced to 1-dimensional lines and columns forced to planes.

    In any order-3 factorization, via the induced embedding with
    U_k = img A_k and V_l = ker B_l:

    * a row with a nonzero entry has dim U_k >= 1; if it also has two zeros
      in columns of distinct zero pattern (each column containing some
      nonzero entry, so dim V <= 2 there), dim U_k = 2 or 3 would force two
      distinct columns to share their V, hence dim U_k = 1;
    * a column with a nonzero entry has dim V_l <= 2; two zeros at rows of
      distinct zero pattern (each row containing a nonzero) rule out
      dim V_l <= 1, hence dim V_l = 2.
    """
    col_bits = pat.col_bits()
    return _pinned(pat.row_bits, col_bits), _pinned(col_bits, pat.row_bits)


def _pinned(lines: list[int], cross: list[int]) -> list[int]:
    """Nonzero lines whose zeros meet nonzero cross lines of two distinct
    zero patterns; ``lines`` are the rows (or columns) as bitmasks over the
    ``cross`` lines."""
    from .pattern import _bits

    full = (1 << len(cross)) - 1
    return [
        k
        for k, bits in enumerate(lines)
        if bits and len({cross[l] for l in _bits(full ^ bits) if cross[l]}) >= 2
    ]


def _cheapest_blocks(
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


def order3_exclusion(
    s: ExactMatrix,
    fix_global_sign: bool = True,
    cap: int = DEFAULT_SIGN_CAP,
    max_attempts: int = 64,
) -> Order3Certificate:
    """Certificate that a nonnegative matrix has psd rank at least 4.

    If an order-3 factorization existed, the pinned rows would carry rank-1
    A factors and the pinned columns rank-1 B factors, making the selected
    block an entrywise square of a rank <= 3 matrix.  Enumerating all sign
    choices of the square roots and finding every rank >= 4 refutes that.
    Returns an inconclusive certificate (not an error) when the hypothesis
    fails or every tried block admits a low-rank square root.
    """
    from .pattern import support

    if not s.is_nonnegative():
        raise ValueError("order-3 exclusion needs a nonnegative matrix")
    if max_attempts < 0:
        raise ValueError(f"max_attempts must be nonnegative, got {max_attempts}")
    pat = support(s)
    pinned_rows, pinned_cols = _pinned_sets(pat)

    def inconclusive(reason: str) -> Order3Certificate:
        return Order3Certificate(
            False, None, (), (), None, 0, None,
            tuple(pinned_rows), tuple(pinned_cols), reason,
        )

    if len(pinned_rows) < 4 or len(pinned_cols) < 4:
        return inconclusive(
            "fewer than four rows or columns have forced subspace dimensions"
        )

    # one block is kept even when none will be tried, to tell an empty scan
    # from a zero attempt count
    blocks = _cheapest_blocks(
        pat.row_bits, pinned_rows, pinned_cols, cap, max(max_attempts, 1)
    )
    if not blocks:
        return inconclusive("every candidate block exceeds the enumeration cap")
    blocks = blocks[:max_attempts]
    for z, krows, lcols in blocks:
        result = min_sqrt_rank(
            s, krows, lcols, fix_global_sign=fix_global_sign, cap=cap
        )
        if result.min_rank >= 4:
            return Order3Certificate(
                True, 4, tuple(krows), tuple(lcols),
                result.min_rank, result.assignments_checked, result.witness,
                tuple(pinned_rows), tuple(pinned_cols),
            )
    return inconclusive(
        f"all {len(blocks)} candidate blocks admit a square root of rank <= 3"
    )


def generate_sn(n: int) -> ExactMatrix:
    """The n x n matrix with entry (i, j) = (i-j-1)(i-j-2)/2, 1-indexed.

    Nonnegative, of rank 3 for n >= 3, with a diagonal band of zeros; the
    canonical example whose psd rank exceeds what any support-based bound
    can certify.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return ExactMatrix(
        n,
        n,
        [
            Fraction((i - j - 1) * (i - j - 2), 2)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ],
    )
