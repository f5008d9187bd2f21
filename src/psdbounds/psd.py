"""Exact positive semidefinite factorizations and subspace-lattice embeddings.

This is the certify chain of the pattern side.  An embedding assigns
subspaces U_1..U_m (rows) and V_1..V_n (columns) of a common Q^q with
``U_k <= V_l`` exactly at the zero entries of the pattern.  This module
builds such embeddings from rank factorizations, turns them into psd
factorizations via orthogonal projections, and recovers embeddings from
factorizations again.  Everything is rational arithmetic: psd-ness is
certified by an LDL^T elimination with diagonal pivoting (no eigenvalues),
and support realization samples rational vectors.  The bounds on the
embedding dimension are in `pattern`, the order-3 square-root argument in
`scalars`, and the floating-point rank reduction in `reduction`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import (ExactMatrix, Subspace, image, kernel, projection_matrix, row_space,
                     scaled_dot, scaled_entries)

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
