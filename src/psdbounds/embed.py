"""Subspace-lattice embeddings of support patterns and their conversions.

An embedding assigns subspaces U_1..U_m (rows) and V_1..V_n (columns) of a
common Q^q with ``U_k <= V_l`` exactly at the zero entries of the pattern.
This module builds such embeddings from rank factorizations, turns them
into positive semidefinite factorizations via orthogonal projections, and
recovers embeddings from factorizations again; the bounds are in `pattern`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import _frozen
from .linalg import ExactMatrix, Subspace, image, kernel, projection_matrix, row_space

# `psd` is imported only where factors are built or checked, so `embed from-rank` skips it
if TYPE_CHECKING:
    from .pattern import SupportPattern
    from .psd import PsdFactorization


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
    from .psd import PsdFactorization

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
    from .psd import _require_psd

    _require_psd(f)
    u_spaces = tuple(image(a) for a in f.A)
    v_spaces = tuple(kernel(b) for b in f.B)
    return SubspaceEmbedding(f.order, u_spaces, v_spaces)
