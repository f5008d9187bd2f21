"""The lazy package namespace keeps every name the eager one exported."""

import importlib
import subprocess
import sys

import pytest

import psdbounds
from test_cli import src_env

# defining module -> the names the package bound when it imported every layer
EAGER = {
    "cutpoly": [
        "AppendixCheckResult", "Clique", "Cut", "SubsetVertex", "all_cliques", "all_cuts",
        "appendix_reduction_check", "cut_clique_slack", "graph_G", "graph_H",
        "iter_slack_rows", "slack_matrix_cut_clique",
    ],
    "embed": [
        "BoundReport", "SubspaceEmbedding", "analyze", "embedding_from_psd",
        "embedding_from_rank_factorization", "embrkl_bounds", "psd_from_embedding",
        "verify_embedding",
    ],
    "linalg": [
        "ExactMatrix", "Subspace", "det", "image", "inverse", "kernel",
        "projection_matrix", "rank", "row_space", "trace_product",
    ],
    "pattern": [
        "Biclique", "BicliqueCover", "BipartiteGraph", "CoverSearchResult",
        "SearchBudgetExceeded", "SupportPattern", "boolean_rank", "feasible_biclique_cover",
        "minimum_biclique_cover", "minimum_feasible_cover", "poset_of", "support",
        "triangular_rank",
    ],
    "psd": [
        "FactorizationReport", "Order3Certificate", "PsdCertificate", "PsdFactorization",
        "RealizationError", "SignAssignment", "SqrtRankResult", "check_sign_square",
        "generate_sn", "min_sqrt_rank", "order3_exclusion", "psd_certificate",
        "realize_support", "verify_psd_factorization",
    ],
    "scalars": ["MultiQuadScalar", "sqrt_embed", "squarefree_decompose"],
}
# resolved on first use before, too: they need numpy
REDUCTION = [
    "FactorReductionReport", "FloatPsdMatrix", "ReductionError", "barvinok_reduce",
    "factorization_to_float", "reduce_factor_ranks",
]
STAR = [*EAGER, *(name for names in EAGER.values() for name in names)]


def test_dir_lists_every_exported_name():
    listed = set(dir(psdbounds))
    assert set(STAR) | set(REDUCTION) <= listed
    assert "__version__" in listed


def test_star_import_binds_what_it_bound_before():
    namespace = {}
    exec("from psdbounds import *", namespace)
    assert set(STAR) <= namespace.keys()
    # a star import needs no numpy
    assert not set(REDUCTION) & namespace.keys()


@pytest.mark.parametrize("module", [*EAGER, "reduction"])
def test_each_lazy_name_is_its_modules_attribute(module):
    defining = importlib.import_module(f"psdbounds.{module}")
    assert getattr(psdbounds, module) is defining
    for name in EAGER.get(module, REDUCTION):
        assert getattr(psdbounds, name) is getattr(defining, name), name


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        psdbounds.no_such_name  # noqa: B018
    # tools such as inspect and doctest probe dunder names
    assert not hasattr(psdbounds, "__wrapped__")
    with pytest.raises(ImportError):
        exec("from psdbounds import no_such_name", {})


def test_import_loads_no_layer():
    probe = (
        "import sys, psdbounds\n"
        "print(sorted(m for m in sys.modules if m.startswith('psdbounds.')))\n"
        "psdbounds.rank\n"
        "print(sorted(m for m in sys.modules if m.startswith('psdbounds.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['psdbounds.linalg', 'psdbounds.scalars']",
    ]
