"""The lazy package namespace keeps every name the eager one exported, and
the result records keep the contract of frozen dataclasses."""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import psdbounds
from psdbounds import Biclique, BicliqueCover, ExactMatrix, SignAssignment, Subspace
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
        "projection_matrix", "rank", "row_space",
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
        "[]", "['psdbounds.linalg']",
    ]


_ONE = ExactMatrix.identity(1)
_COVER = BicliqueCover((Biclique(1, 2),))
_SIGNS = SignAssignment(((0, 0),), (1,))
# each result record: the required fields of one instance, and fields that
# its __post_init__ refuses (None where it has no check); defaults are left
# out so that they fill in
RECORDS = {
    "AppendixCheckResult": ((True, 10, 4, 5, 2), None),
    "Clique": ((4, 0b0111), (4, 0b0100)),
    "Cut": ((4, 0b1110), (4, 0b10000)),
    "SubsetVertex": ((5, 0b00011, 2), (5, 0b00011, 1)),
    "BoundReport": ((3, 3, None, (3, 4), "x", (3, 3), 3, "rank"), None),
    "SubspaceEmbedding": ((2, (Subspace.zero(2),), (Subspace.full(2),)),
                          (3, (Subspace.zero(2),), ())),
    "Biclique": ((1, 2), (0, 1)),
    "BicliqueCover": (((Biclique(1, 2), Biclique(2, 1)),), None),
    "CoverSearchResult": ((1, _COVER, 5), None),
    "PsdFactorization": ((1, (_ONE,), (_ONE, _ONE)), (2, (_ONE,), ())),
    "PsdCertificate": ((True, (Fraction(1, 2),)), None),
    "FactorizationReport": ((True, (), (), True), None),
    "SignAssignment": ((((0, 0), (1, 2)), (1, -1)), (((0, 0),), (2,))),
    "SqrtRankResult": ((4, _SIGNS, 512), None),
    "Order3Certificate": ((True, 4, (0, 1), (2, 3), 4, 512, _SIGNS, (0,), (2,)), None),
    "FloatPsdMatrix": (([[1.0]],), ([1.0],)),
    "FactorReductionReport": (((), (), (1,), (2,), 0.0, -1e-12), None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_frozen_values(name):
    cls = getattr(psdbounds, name)
    args, refused = RECORDS[name]
    names = list(cls.__annotations__)
    record = cls(*args)
    values = tuple(getattr(record, field) for field in names)

    # by position, keyword or both; omitted fields take the class default
    assert cls(**dict(zip(names, args))) == record
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == record
    assert values[len(args):] == tuple(getattr(cls, field) for field in names[len(args):])
    for bad in ((), (*args, *names)):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, no_such_field=0)
    # __post_init__ runs
    if refused is not None:
        with pytest.raises(ValueError):
            cls(*refused)

    for change in (lambda: setattr(record, names[0], args[0]),
                   lambda: delattr(record, names[0]),
                   lambda: setattr(record, "no_such_field", 0)):
        with pytest.raises(AttributeError):
            change()
    assert vars(record) == dict(zip(names, values))

    # equal to a record of the same class and values only, and hashed as
    # the tuple of the values (an array field is unhashable)
    assert cls(*values) == record != values and record != object()
    if name != "FloatPsdMatrix":
        assert hash(record) == hash(cls(*args)) == hash(values)
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(names, values))})"
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


def test_post_init_rewrites_cut_and_float_matrix_fields():
    # a cut keeps the smaller of its two vertex classes
    assert psdbounds.Cut(4, 0b1110).members == 0b0001
    assert psdbounds.Cut(4, 0b1110) == psdbounds.Cut(4, 0b0001)
    assert psdbounds.Cut(4, 0b0011) != psdbounds.Clique(4, 0b0011)
    m = psdbounds.FloatPsdMatrix([[1.0, 2.0], [0.0, 1.0]])
    assert m.entries.tolist() == [[1.0, 1.0], [1.0, 1.0]]
