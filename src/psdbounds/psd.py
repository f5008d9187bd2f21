"""Exact positive semidefinite factorizations and subspace-lattice embeddings.

This is the certify chain of the pattern side.  An embedding assigns
subspaces U_1..U_m (rows) and V_1..V_n (columns) of a common Q^q with
``U_k <= V_l`` exactly at the zero entries of the pattern.  This module
builds such embeddings from rank factorizations, turns them into psd
factorizations via orthogonal projections, and recovers embeddings from
factorizations again.  It also holds the exact subspace algebra those
steps run on: canonical subspaces (frozen records like the matrices they
hold) with exact containment, kernel, image and orthogonal projections,
all from the fraction-free elimination of `linalg` on integer rows.  A
subspace's RREF basis is the eliminated rows divided once by the last
pivot, and a kernel's null vectors are integers read off the same
elimination.
Everything is rational arithmetic: psd-ness is certified by an LDL^T
elimination with diagonal pivoting (no eigenvalues), and support
realization samples rational vectors.  A
verification reports each factor's certificate and the entries whose
trace product differs; whether the factors are psd, the traces match
and the whole check passed is read from those.  Every trace product
tr(A_k B_l) of a factorization, and every entry of a realized support,
comes from one packed big-integer kernel, `_packed_dots`: one
multiply-add per coordinate gives a whole row.  The bounds on the
embedding dimension are in `pattern`, the order-3 square-root argument
in `scalars`, and the floating-point rank reduction in `reduction`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import ExactMatrix, _eliminate, _integer_rows, scaled_entries

if TYPE_CHECKING:  # verify_embedding's annotation only: psd never loads `pattern`
    from .pattern import SupportPattern


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
        """The matrix tr(A_k B_l) this factorization factors, from
        :func:`_trace_products` of the factors' upper triangles."""
        q = self.order
        a = [scaled_entries(_upper(x.entries, q)) for x in self.A]
        b = [scaled_entries(_upper(y.entries, q)) for y in self.B]
        return ExactMatrix(self.m, self.n, _trace_products(q, a, b))


def _upper(values, q: int) -> list:
    """The upper triangle of a flat q x q list, row by row."""
    out: list = []
    for i in range(q):
        out += values[i * q + i : (i + 1) * q]
    return out


def _packed_dots(xs: list[list[int]], ys: list[list[int]]) -> list[list[int]]:
    """Every dot product x . y of two lists of integer vectors, one row per x.

    Coordinate i of the ys is packed into one int with a w-bit slot per y,
    the first y in the lowest: Y_i = sum_l y_l[i] 2^(l w), negative digits
    included.  Then sum_i x[i] Y_i = sum_l (x . y_l) 2^(l w) is one
    big-integer multiply-add per coordinate.  Each |x . y_l| is at most
    M = len * max|x| * max|y| < 2^(w - 1) for w = M.bit_length() + 1, the
    least width that holds both -M and M.  So adding 2^(w - 1) to every
    slot leaves each in [0, 2^w): no borrow or carry crosses a slot, and
    each dot product is read back as its slot minus 2^(w - 1), a balanced
    (signed) w-bit digit.
    """
    length = len(xs[0]) if xs else 0
    big_x = max(map(abs, chain.from_iterable(xs)), default=0)
    big_y = max(map(abs, chain.from_iterable(ys)), default=0)
    w = (length * big_x * big_y).bit_length() + 1
    half, mask = 1 << (w - 1), (1 << w) - 1
    packed, bias = [0] * length, 0
    for y in reversed(ys):
        packed = [(p << w) + v for p, v in zip(packed, y)]
        bias = bias << w | half
    shifts = range(0, len(ys) * w, w)
    return [
        [(total >> s & mask) - half for s in shifts]
        for total in (sum(map(int.__mul__, x, packed), bias) for x in xs)
    ]


def _trace_products(
    q: int, a: list[tuple[list[int], int]], b: list[tuple[list[int], int]]
) -> list[Fraction]:
    """tr(A_k B_l) for every pair, row by row, of symmetric order-q factors
    given as :func:`scaled_entries` of their upper triangles (:func:`_upper`).

    Symmetry gives tr(A B) = sum_i A_ii B_ii + sum_{i<j} 2 A_ij B_ij, so each
    product is one dot product over the q(q+1)/2 upper-triangle entries,
    with A's off-diagonal ones doubled, and one Fraction over den_A den_B.
    With no factor on one side there is no product, whatever the order.
    """
    if not (a and b):
        return []
    twice = [1 if i == j else 2 for i in range(q) for j in range(i, q)]
    return _scaled_dots([(list(map(int.__mul__, twice, x)), d) for x, d in a], b)


def _scaled_dots(
    xs: list[tuple[list[int], int]], ys: list[tuple[list[int], int]]
) -> list[Fraction]:
    """x . y for every pair of :func:`scaled_entries` vectors, row by row:
    one :func:`_packed_dots` and one Fraction per product."""
    dots = _packed_dots([x for x, _ in xs], [y for y, _ in ys])
    return [
        Fraction(d, dx * dy)
        for row, (_, dx) in zip(dots, xs)
        for d, (_, dy) in zip(row, ys)
    ]


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
    return _ldl_certificate(m.rows, scaled_entries(m.entries))


def _ldl_certificate(n: int, scaled: tuple[list[int], int]) -> PsdCertificate:
    """:func:`psd_certificate`'s elimination of a symmetric n x n matrix,
    given as :func:`scaled_entries` of its entries; it works on a copy."""
    flat, den = scaled
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
    """Per-factor psd certificates plus the (k, l) where tr(A_k B_l) differs
    from the matrix; every other verdict is read from these."""

    a_certificates: tuple[PsdCertificate, ...]
    b_certificates: tuple[PsdCertificate, ...]
    mismatches: tuple[tuple[int, int], ...] = ()

    @property
    def psd_ok(self) -> bool:
        return all(c.is_psd for c in self.a_certificates + self.b_certificates)

    @property
    def traces_ok(self) -> bool:
        return not self.mismatches

    @property
    def passed(self) -> bool:
        return self.psd_ok and self.traces_ok

    def summary(self) -> str:
        """What failed, for a reader: factors and entries count from 1, as
        everywhere in the CLI, where the fields above count from 0."""
        bad_a = [i + 1 for i, c in enumerate(self.a_certificates) if not c.is_psd]
        bad_b = [i + 1 for i, c in enumerate(self.b_certificates) if not c.is_psd]
        parts = []
        if bad_a:
            parts.append(f"non-psd A factors {bad_a}")
        if bad_b:
            parts.append(f"non-psd B factors {bad_b}")
        if self.mismatches:
            at = [(k + 1, l + 1) for k, l in self.mismatches]
            parts.append(f"trace mismatches at {at}")
        return "; ".join(parts) if parts else "ok"


def verify_psd_factorization(
    f: PsdFactorization, s: ExactMatrix | None = None
) -> FactorizationReport:
    """Certify each factor psd and check tr(A_k B_l) = S(k,l) exactly.

    With ``s`` omitted only the psd part is checked (the trace identities
    are vacuous against the factorization's own product matrix).
    """
    # each factor is scaled once, for its certificate and the products; a
    # PsdFactorization holds symmetric factors only
    q = f.order
    a = [scaled_entries(x.entries) for x in f.A]
    b = [scaled_entries(y.entries) for y in f.B]
    a_certs = tuple(_ldl_certificate(q, x) for x in a)
    b_certs = tuple(_ldl_certificate(q, y) for y in b)
    mismatches: list[tuple[int, int]] = []
    if s is not None:
        if s.rows != f.m or s.cols != f.n:
            raise ValueError(
                f"factorization is {f.m}x{f.n} but the matrix is {s.rows}x{s.cols}"
            )
        products = _trace_products(
            q, [(_upper(x, q), d) for x, d in a], [(_upper(y, q), d) for y, d in b]
        )
        pairs = zip(products, s.entries)
        mismatches = [divmod(i, f.n) for i, (x, y) in enumerate(pairs) if x != y]
    return FactorizationReport(a_certs, b_certs, tuple(mismatches))


def _require_psd(f: PsdFactorization) -> None:
    """Raise ``ValueError`` unless every factor passes the exact psd certificate."""
    report = verify_psd_factorization(f)
    if not report.psd_ok:
        raise ValueError(f"factors are not positive semidefinite: {report.summary()}")


def realize_support(
    f: PsdFactorization, seed: int = 0, max_tries: int = 5
) -> ExactMatrix:
    """A rational matrix T with supp(T) = supp(tr(A_k B_l)) and rank <= order.

    Samples xi_k, eta_l with integer entries uniform over {-B..B} and sets
    T(k,l) = <A_k xi_k, B_l eta_l>.  Entries that must vanish do so
    automatically (there A_k B_l = 0); nonzero entries survive outside a
    measure-zero set, so a few retries suffice.  Deterministic per seed.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    _require_psd(f)
    pattern = f.product_matrix().support_bits()
    rng = random.Random(seed)
    amplitude = max(17, f.m * f.n)
    a = [scaled_entries(x.entries) for x in f.A]
    b = [scaled_entries(x.entries) for x in f.B]
    for _ in range(max_tries):
        xs = [_times_random_vector(x, f.order, rng, amplitude) for x in a]
        ys = [_times_random_vector(y, f.order, rng, amplitude) for y in b]
        t = ExactMatrix(f.m, f.n, _scaled_dots(xs, ys))
        if t.support_bits() == pattern:
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


# -- reduced row echelon form and subspaces ---------------------------------


@_frozen
class Subspace:
    """A linear subspace of Q^q, held as a canonical RREF row basis.

    Two equal subspaces always carry identical basis matrices, so equality
    is a plain entry comparison.
    """

    ambient_dim: int
    basis: ExactMatrix

    def __post_init__(self):
        """Refuses, with ``ValueError``, a basis that is not in RREF: one
        scan for a leading 1 in each row, pivots strictly increasing, and
        zeros above each pivot (below it the echelon form gives them)."""
        basis = self.basis
        if basis.cols != self.ambient_dim:
            raise ValueError("basis width must equal the ambient dimension")
        prev = -1  # the pivot column of the row above
        for i in range(basis.rows):
            row = basis.row(i)
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                raise ValueError(f"basis row {i} is zero")
            if row[lead] != 1:
                raise ValueError(f"basis row {i} leads with {row[lead]}, not 1")
            if lead <= prev:
                raise ValueError(f"basis row {i} does not lead right of the row above")
            if any(basis[k, lead] for k in range(i)):
                raise ValueError(f"basis column {lead} is nonzero above its pivot")
            prev = lead

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """The span of rational ``vectors``: their RREF is d times the
        first rows left by the elimination of the vectors scaled to
        integers, d its last pivot."""
        a = [scaled_entries(v)[0] for v in vectors]
        if any(len(r) != ambient_dim for r in a):
            raise ValueError("vector length must equal the ambient dimension")
        pivots, d = _eliminate(a, ambient_dim)
        reduced = [Fraction(v, d) for row in a[: len(pivots)] for v in row]
        return cls(ambient_dim, ExactMatrix(len(pivots), ambient_dim, reduced))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __repr__(self):
        vecs = ", ".join(
            "(" + ", ".join(str(v) for v in self.basis.row(i)) + ")"
            for i in range(self.dim)
        )
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {vecs})"

    def contains(self, other: "Subspace") -> bool:
        """Exact set containment: ``other`` is a subspace of ``self``, that
        is, stacking both bases adds no pivot to the elimination beyond
        ``self.dim``."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return _spans(_integer_rows(self.basis), _integer_rows(other.basis), self.ambient_dim)


def _spans(basis: list[list[int]], rows: list[list[int]], q: int) -> bool:
    """Whether the independent integer rows ``basis`` of Q^q span ``rows``:
    stacked, they add no pivot.  Neither list is changed."""
    return len(_eliminate(basis + rows, q)[0]) == len(basis)


def kernel(m: ExactMatrix) -> Subspace:
    """Null space {x : m @ x = 0} as a canonical subspace of Q^cols.

    Row i of the eliminated integer rows is d times the i-th RREF row, so
    free column f gives the integer null vector with x_f = d and
    x_{p_i} = -a_i[f] at each pivot column p_i."""
    a = _integer_rows(m)
    pivots, d = _eliminate(a, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [0] * m.cols
        v[f] = d
        for row, p in zip(a, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def image(m: ExactMatrix) -> Subspace:
    """Column space of ``m`` as a canonical subspace of Q^rows."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


def projection_matrix(u: Subspace, complement: bool = False) -> ExactMatrix:
    """Orthogonal projection onto ``u`` (standard inner product), or with
    ``complement`` onto its orthogonal complement.

    For a basis-row matrix B this is P = B^T (B B^T)^{-1} B: symmetric,
    idempotent, rational, with image exactly ``u``; the complement's is
    I - P.  Both come from integers: with N the basis rows scaled to
    integers, the elimination of [N N^T | I] leaves M = d (N N^T)^{-1}
    beside d I, d its last pivot, and d P = N^T M N.  Each entry of P or
    of I - P is then one Fraction over d.
    """
    q = u.ambient_dim
    if u.dim == 0:
        return ExactMatrix.identity(q) if complement else ExactMatrix.zeros(q, q)
    n = _integer_rows(u.basis)
    k = len(n)
    a = [
        [sum(map(int.__mul__, x, y)) for y in n] + [int(i == j) for j in range(k)]
        for i, x in enumerate(n)
    ]
    _, d = _eliminate(a, k)
    n_cols = list(zip(*n))
    mn_cols = list(zip(*([sum(map(int.__mul__, row[k:], c)) for c in n_cols] for row in a)))
    # d P is symmetric: each entry above the diagonal is formed once; P's
    # entries are dp / d and I - P's are -dp / d, or (d - dp) / d on the diagonal
    sign, diag = (-1, d) if complement else (1, 0)
    entries: list = [None] * (q * q)
    for i, x in enumerate(n_cols):
        for j in range(i, q):
            dp = sum(map(int.__mul__, x, mn_cols[j]))
            entries[i * q + j] = entries[j * q + i] = Fraction(
                (diag if i == j else 0) + sign * dp, d
            )
    return ExactMatrix(q, q, entries)


# -- subspace-lattice embeddings ----------------------------------------------


@_frozen
class SubspaceEmbedding:
    """Subspaces U (rows) and V (columns) of a shared ambient space."""

    ambient_dim: int
    U: tuple[Subspace, ...]
    V: tuple[Subspace, ...]

    def __post_init__(self):
        for s in self.U + self.V:
            if s.ambient_dim != self.ambient_dim:
                raise ValueError("all subspaces must share the ambient dimension")

    @property
    def m(self) -> int:
        return len(self.U)

    @property
    def n(self) -> int:
        return len(self.V)


def verify_embedding(e: SubspaceEmbedding, m: SupportPattern) -> bool:
    """True iff U_k <= V_l holds exactly where the pattern is zero."""
    if e.m != m.rows or e.n != m.cols:
        raise ValueError(
            f"embedding is {e.m}x{e.n} but the pattern is {m.rows}x{m.cols}"
        )
    # each basis is scaled to integers once, not once per pair
    u_rows = [_integer_rows(u.basis) for u in e.U]
    v_rows = [_integer_rows(v.basis) for v in e.V]
    for k, u in enumerate(u_rows):
        for l, v in enumerate(v_rows):
            if _spans(v, u, e.ambient_dim) != (m[k, l] == 0):
                return False
    return True


def embedding_from_rank_factorization(s: ExactMatrix) -> SubspaceEmbedding:
    """Embedding of supp(s) with ambient dimension exactly rank(s).

    U_k is the line spanned by the k-th row, V_l the span of the rows that
    vanish in column l.  Rows with S(k,l) != 0 have a nonzero l-coordinate
    while V_l only contains vectors vanishing there, so containment holds
    exactly at the zeros.  Coordinates are re-expressed in the RREF basis
    of the row space, shrinking the ambient space from n to rank(s): the
    coefficient on basis row i is the coordinate at its pivot column.
    """
    rows = _integer_rows(s)
    pivots, _ = _eliminate(list(rows), s.cols)  # replaces rows, never changes one
    q = len(pivots)
    row_coords = [[row[p] for p in pivots] for row in rows]
    u_spaces = tuple(Subspace.from_vectors(q, [rc]) for rc in row_coords)
    v_spaces = []
    for l in range(s.cols):
        gens = [rc for rc, row in zip(row_coords, rows) if not row[l]]
        v_spaces.append(Subspace.from_vectors(q, gens))
    return SubspaceEmbedding(q, u_spaces, tuple(v_spaces))


def psd_from_embedding(e: SubspaceEmbedding) -> tuple[PsdFactorization, ExactMatrix]:
    """Projection factorization of an embedding.

    A_k projects onto U_k and B_l onto the orthogonal complement of V_l;
    then T(k,l) = tr(A_k B_l) vanishes exactly when U_k <= V_l, so T is a
    nonnegative matrix whose support realizes the embedded pattern with
    factors of order ambient_dim.
    """
    q = e.ambient_dim
    a_mats = tuple(projection_matrix(u) for u in e.U)
    b_mats = tuple(projection_matrix(v, complement=True) for v in e.V)
    f = PsdFactorization(q, a_mats, b_mats)
    return f, f.product_matrix()


def embedding_from_psd(f: PsdFactorization) -> SubspaceEmbedding:
    """Embedding with U_k the image of A_k and V_l the kernel of B_l.

    For psd factors, tr(A_k B_l) = 0 iff A_k B_l = 0 iff img A_k <= ker B_l,
    so the result verifies against the support of the factored matrix.
    Rejects input whose factors fail the exact psd certificate.
    """
    _require_psd(f)
    u_spaces = tuple(image(a) for a in f.A)
    v_spaces = tuple(kernel(b) for b in f.B)
    return SubspaceEmbedding(f.order, u_spaces, v_spaces)
