"""Exact positive semidefinite factorizations and subspace-lattice embeddings.

This is the certify chain of the pattern side.  An embedding assigns
subspaces U_1..U_m (rows) and V_1..V_n (columns) of a common Q^q with
``U_k <= V_l`` exactly at the zero entries of the pattern.  This module
builds such embeddings from rank factorizations, turns them into psd
factorizations via orthogonal projections, and recovers embeddings from
factorizations again.  It also holds the exact subspace algebra those
steps run on: RREF, canonical subspaces with exact containment, kernel,
image, row space and orthogonal projections, all from the fraction-free
elimination of `linalg`.  Everything is rational arithmetic: psd-ness is
certified by an LDL^T elimination with diagonal pivoting (no
eigenvalues), and support realization samples rational vectors.  The
bounds on the embedding dimension are in `pattern`, the order-3
square-root argument in `scalars`, and the floating-point rank reduction
in `reduction`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import ExactMatrix, _eliminate, _integer_rows, scaled_dot, scaled_entries

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
    s = f.product_matrix()
    pattern = s.support_bits()
    rng = random.Random(seed)
    amplitude = max(17, f.m * f.n)
    a = [scaled_entries(x.entries) for x in f.A]
    b = [scaled_entries(x.entries) for x in f.B]
    for _ in range(max_tries):
        xs = [_times_random_vector(x, f.order, rng, amplitude) for x in a]
        ys = [_times_random_vector(y, f.order, rng, amplitude) for y in b]
        t = ExactMatrix(f.m, f.n, [scaled_dot(x, y) for x in xs for y in ys])
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


def _rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """RREF of rational rows: (its nonzero rows, their pivot columns)."""
    if not rows:
        return [], []
    a = [scaled_entries(row)[0] for row in rows]
    pivots, d = _eliminate(a, len(a[0]))
    return [[Fraction(v, d) for v in a[i]] for i in range(len(pivots))], pivots


class Subspace:
    """A linear subspace of Q^q, held as a canonical RREF row basis.

    Two equal subspaces always carry identical basis matrices, so set
    containment and equality are plain entry comparisons.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        """Refuses, with ``ValueError``, a basis that is not in RREF: one
        scan for a leading 1 in each row, pivots strictly increasing, and
        zeros above each pivot (below it the echelon form gives them)."""
        if basis.cols != ambient_dim:
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
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length must equal the ambient dimension")
        rows = [[Fraction(v) for v in r] for r in rows]
        reduced, _ = _rref(rows)
        return cls(ambient_dim, ExactMatrix.from_rows(reduced) if reduced
                   else ExactMatrix.zeros(0, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        vecs = ", ".join(
            "(" + ", ".join(str(v) for v in self.basis.row(i)) + ")"
            for i in range(self.dim)
        )
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {vecs})"

    def _reduce_vector(self, vec: list[Fraction]) -> list[Fraction]:
        v = list(vec)
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            lead = next(j for j in range(self.ambient_dim) if row[j])
            if v[lead]:
                f = v[lead]  # leading entries are 1 in RREF
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length must equal the ambient dimension")
        return not any(self._reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        """Exact set containment: ``other`` is a subspace of ``self``."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(
            self.contains_vector(other.basis.row(i)) for i in range(other.dim)
        )


def kernel(m: ExactMatrix) -> Subspace:
    """Null space {x : m @ x = 0} as a canonical subspace of Q^cols."""
    reduced, pivots = _rref(m.row_lists())
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def image(m: ExactMatrix) -> Subspace:
    """Column space of ``m`` as a canonical subspace of Q^rows."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


def row_space(m: ExactMatrix) -> Subspace:
    return Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)])


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
    for k in range(e.m):
        for l in range(e.n):
            contained = e.V[l].contains(e.U[k])
            if contained != (m[k, l] == 0):
                return False
    return True


def embedding_from_rank_factorization(s: ExactMatrix) -> SubspaceEmbedding:
    """Embedding of supp(s) with ambient dimension exactly rank(s).

    U_k is the line spanned by the k-th row, V_l the span of the rows that
    vanish in column l.  Rows with S(k,l) != 0 have a nonzero l-coordinate
    while V_l only contains vectors vanishing there, so containment holds
    exactly at the zeros.  Coordinates are re-expressed in a row-space
    basis, shrinking the ambient space from n to rank(s).
    """
    basis = row_space(s)  # RREF basis of the row space, dimension = rank
    q = basis.dim
    pivots = []
    for i in range(q):
        row = basis.basis.row(i)
        pivots.append(next(j for j in range(s.cols) if row[j]))

    def coords(vec) -> list[Fraction]:
        # RREF basis: the coefficient on basis row i is the pivot coordinate
        return [vec[p] for p in pivots]

    row_coords = [coords(s.row(k)) for k in range(s.rows)]
    u_spaces = tuple(Subspace.from_vectors(q, [rc]) for rc in row_coords)
    v_spaces = []
    for l in range(s.cols):
        gens = [row_coords[k] for k in range(s.rows) if not s[k, l]]
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
