"""Subspace-lattice embeddings of support patterns and their conversions.

An embedding assigns subspaces U_1..U_m (rows) and V_1..V_n (columns) of a
common Q^q with ``U_k <= V_l`` exactly at the zero entries of the pattern.
This module builds such embeddings from rank factorizations, turns them
into positive semidefinite factorizations via orthogonal projections, and
recovers embeddings from factorizations again.
"""

from __future__ import annotations

from fractions import Fraction

from . import _frozen
from .linalg import ExactMatrix, Subspace, image, kernel, projection_matrix, row_space
from .pattern import (
    DEFAULT_BUDGET,
    EnumerationTooLarge,
    SearchBudgetExceeded,
    SupportPattern,
    boolean_rank,
    boolean_rank_interval,
    embrkl_bounds,
    support,
)
from .psd import PsdFactorization, order3_exclusion, verify_psd_factorization


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
    report = verify_psd_factorization(f)
    if not report.psd_ok:
        raise ValueError(f"factors are not positive semidefinite: {report.summary()}")
    u_spaces = tuple(image(a) for a in f.A)
    v_spaces = tuple(kernel(b) for b in f.B)
    return SubspaceEmbedding(f.order, u_spaces, v_spaces)


@_frozen
class BoundReport:
    """Everything the support and the exact entries certify about a matrix."""

    rank: int
    triangular_rank: int
    boolean_rank: int | None
    boolean_rank_bounds: tuple[int, int] | None
    boolean_rank_source: str
    embedding_dim_bounds: tuple[int, int]
    psd_lower_bound: int
    psd_lower_bound_source: str

    def to_doc(self, identity: str) -> dict:
        return {
            "kind": "bound_report",
            "matrix": identity,
            "rank": {"value": self.rank, "via": "fraction-free elimination"},
            "triangular_rank": {
                "value": self.triangular_rank,
                "via": "triangular_rank branch and bound",
            },
            "boolean_rank": {
                "value": self.boolean_rank,
                "bounds": list(self.boolean_rank_bounds)
                if self.boolean_rank_bounds
                else None,
                "via": self.boolean_rank_source,
            },
            "embedding_dim_bounds": {
                "value": list(self.embedding_dim_bounds),
                "via": "embrkl_bounds (triangular rank / rank)",
            },
            "psd_rank_lower_bound": {
                "value": self.psd_lower_bound,
                "via": self.psd_lower_bound_source,
            },
        }

    def to_text(self, identity: str) -> str:
        lines = [f"matrix:               {identity}"]
        lines.append(f"rank:                 {self.rank}")
        lines.append(f"triangular rank:      {self.triangular_rank}")
        if self.boolean_rank is not None:
            lines.append(f"boolean rank:         {self.boolean_rank}")
        else:
            lo, hi = self.boolean_rank_bounds
            lines.append(f"boolean rank:         unknown, bounds [{lo},{hi}]")
        lo, hi = self.embedding_dim_bounds
        lines.append(f"embedding dimension:  between {lo} and {hi}")
        lines.append(
            f"psd rank lower bound: {self.psd_lower_bound}"
            f" (via {self.psd_lower_bound_source})"
        )
        return "\n".join(lines)


def analyze(s: ExactMatrix, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """The report ``psdbounds bounds`` prints; ``budget`` caps the cover search.

    When the cover search runs out of budget, or refuses a graph too large
    to list its candidates, the boolean rank is reported as the proven
    interval of :func:`~psdbounds.pattern.boolean_rank_interval`; a value
    when its ends meet.  The order-3 certificate runs only when the
    triangular rank is below 4, the most it can prove.
    """
    tri, rk = embrkl_bounds(s)
    pat = support(s)
    bbounds, bsource = None, "minimum_biclique_cover branch and bound"
    try:
        brank = boolean_rank(pat, budget=budget)
    except (SearchBudgetExceeded, EnumerationTooLarge) as exc:
        lo, hi, bsource = boolean_rank_interval(pat, exc, tri)
        brank, bbounds = (lo, None) if lo == hi else (None, (lo, hi))
    psd_lb, source = tri, "triangular rank"
    if tri < 4 and s.is_nonnegative():
        # keep the report snappy: small enumeration cap and few blocks here,
        # the dedicated order3-exclude command has the full defaults
        cert = order3_exclusion(s, cap=12, max_attempts=8)
        if cert.conclusive:
            psd_lb, source = cert.bound, "order-3 exclusion certificate"
    return BoundReport(
        rank=rk,
        triangular_rank=tri,
        boolean_rank=brank,
        boolean_rank_bounds=bbounds,
        boolean_rank_source=bsource,
        embedding_dim_bounds=(tri, rk),
        psd_lower_bound=psd_lb,
        psd_lower_bound_source=source,
    )
