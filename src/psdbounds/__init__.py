"""Exact lower bounds for positive semidefinite and nonnegative rank.

The package computes and certifies, in exact arithmetic:

* ranks, kernels, images and canonical subspaces over Q (`linalg`),
  plus multi-quadratic extension scalars for entrywise square roots
  (`scalars`);
* support patterns, triangular rank and exact biclique covers
  (`pattern`);
* subspace-lattice embeddings of a support, conversions between rank
  factorizations, embeddings and psd factorizations, and the bound
  report `analyze` (`embed`);
* psd factorization certificates, randomized support realization and the
  order-3 sign-enumeration exclusion (`psd`);
* floating-point psd rank reduction along constraint-preserving
  directions (`reduction`, loaded with numpy on first use);
* cut/clique slack matrices and disjointness graphs (`cutpoly`).
"""

from .cutpoly import (
    AppendixCheckResult,
    Clique,
    Cut,
    SubsetVertex,
    all_cliques,
    all_cuts,
    appendix_reduction_check,
    cut_clique_slack,
    graph_G,
    graph_H,
    iter_slack_rows,
    slack_matrix_cut_clique,
)
from .embed import (
    BoundReport,
    SubspaceEmbedding,
    analyze,
    embedding_from_psd,
    embedding_from_rank_factorization,
    embrkl_bounds,
    psd_from_embedding,
    verify_embedding,
)
from .linalg import (
    ExactMatrix,
    Subspace,
    det,
    image,
    inverse,
    kernel,
    projection_matrix,
    rank,
    row_space,
    trace_product,
)
from .pattern import (
    Biclique,
    BicliqueCover,
    BipartiteGraph,
    CoverSearchResult,
    SearchBudgetExceeded,
    SupportPattern,
    boolean_rank,
    feasible_biclique_cover,
    minimum_biclique_cover,
    minimum_feasible_cover,
    poset_of,
    support,
    triangular_rank,
)
from .psd import (
    FactorizationReport,
    Order3Certificate,
    PsdCertificate,
    PsdFactorization,
    RealizationError,
    SignAssignment,
    SqrtRankResult,
    check_sign_square,
    generate_sn,
    min_sqrt_rank,
    order3_exclusion,
    psd_certificate,
    realize_support,
    verify_psd_factorization,
)
from .scalars import MultiQuadScalar, sqrt_embed, squarefree_decompose

__version__ = "0.1.0"

# the float reduction needs numpy: load it on first use of one of its names
_REDUCTION_NAMES = (
    "FactorReductionReport", "FloatPsdMatrix", "ReductionError",
    "barvinok_reduce", "factorization_to_float", "reduce_factor_ranks",
)


def __getattr__(name: str):
    if name in _REDUCTION_NAMES:
        from . import reduction

        return getattr(reduction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
