"""The lazy package namespace keeps every name the eager one exported, and
the result records keep the contract of frozen dataclasses."""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import psdbounds
from conftest import launch
from psdbounds import (
    Biclique, BicliqueCover, BipartiteGraph, ExactMatrix, SignAssignment, Subspace,
    SupportPattern,
)

# the names the package bound when it imported every layer, each under the
# module that defines it
EAGER = {
    "cutpoly": [
        "AppendixCheckResult", "Clique", "Cut", "all_cliques", "all_cuts",
        "appendix_reduction_check", "cut_clique_slack", "generate_sn", "graph_G",
        "graph_H", "iter_slack_rows", "slack_matrix_cut_clique",
    ],
    "linalg": ["ExactMatrix", "rank"],
    "pattern": [
        "Biclique", "BicliqueCover", "BipartiteGraph", "BoundReport", "CoverSearchResult",
        "SearchBudgetExceeded", "SupportPattern", "analyze", "boolean_rank",
        "embrkl_bounds", "feasible_biclique_cover", "minimum_biclique_cover",
        "minimum_feasible_cover", "poset_of", "support", "triangular_rank",
    ],
    "psd": [
        "FactorizationReport", "PsdCertificate", "PsdFactorization", "RealizationError",
        "Subspace", "SubspaceEmbedding", "embedding_from_psd",
        "embedding_from_rank_factorization", "image", "kernel",
        "projection_matrix", "psd_certificate", "psd_from_embedding", "realize_support",
        "verify_embedding", "verify_psd_factorization",
    ],
    "scalars": [
        "MultiQuadScalar", "Order3Certificate", "SignAssignment", "SqrtRankResult",
        "min_sqrt_rank", "multiquad_rank", "order3_exclusion", "sqrt_embed",
        "squarefree_decompose",
    ],
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


def test_embed_module_is_gone():
    # its names live in `psd`, and no alias module stands in for it
    assert "embed" not in psdbounds.__all__
    with pytest.raises(AttributeError, match="no attribute 'embed'"):
        psdbounds.embed  # noqa: B018
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("psdbounds.embed")


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
    proc = launch(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['psdbounds.linalg']",
    ]


_ONE = ExactMatrix.identity(1)
_ZERO_2 = Subspace.from_vectors(2, [])
_FULL_2 = Subspace.from_vectors(2, [[1, 0], [0, 1]])
_COVER = BicliqueCover((Biclique(1, 2),))
_SIGNS = SignAssignment(((0, 0),), (1,))
# each result record: the required fields of one instance, and fields that
# its __post_init__ refuses (None where it has no check); defaults are left
# out so that they fill in
RECORDS = {
    "AppendixCheckResult": ((True, 10, 5, 2), None),
    "Clique": ((4, 0b0111), (4, 0b0100)),
    "Cut": ((4, 0b1110), (4, 0b10000)),
    "BoundReport": ((3, 3, (3, 4), "x", 3, "rank"), None),
    "SubspaceEmbedding": ((2, (_ZERO_2,), (_FULL_2,)), (3, (_ZERO_2,), ())),
    "Biclique": ((1, 2), (0, 1)),
    "BicliqueCover": (((Biclique(1, 2), Biclique(2, 1)),), None),
    "CoverSearchResult": ((_COVER, 5), None),
    "PsdFactorization": ((1, (_ONE,), (_ONE, _ONE)), (2, (_ONE,), ())),
    "PsdCertificate": ((True, (Fraction(1, 2),)), None),
    "FactorizationReport": (((), ()), None),
    "SignAssignment": ((((0, 0), (1, 2)), (1, -1)), (((0, 0),), (2,))),
    "SqrtRankResult": ((4, _SIGNS, 512), None),
    "Order3Certificate": ((True, (0, 1), (2, 3), 4, 512, _SIGNS, (0,), (2,)), None),
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


# each exact value type: one value, its fields and its own repr, which
# the generic ``Name(field=...)`` form of RECORDS does not cover
VALUES = {
    "ExactMatrix": (ExactMatrix.identity(2), ("rows", "cols", "entries"),
                    "ExactMatrix(2x2: 1 0; 0 1)"),
    "SupportPattern": (SupportPattern.identity(2), ("rows", "cols", "row_bits"),
                       "SupportPattern(2x2: 10; 01)"),
    "BipartiteGraph": (BipartiteGraph(2, 2, (1, 2)), ("rows", "cols", "row_bits"),
                       "BipartiteGraph(2+2 vertices, 2 edges)"),
    "Subspace": (Subspace.from_vectors(2, [[1, 0]]), ("ambient_dim", "basis"),
                 "Subspace(dim 1 of Q^2: (1, 0))"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_exact_value_types_are_frozen_values(name):
    value, names, text = VALUES[name]
    cls = type(value)
    values = tuple(getattr(value, field) for field in names)
    before = hash(value)
    assert before == hash(values)

    for change in (lambda: setattr(value, names[0], values[0]),
                   lambda: setattr(value, names[-1], values[0]),
                   lambda: delattr(value, names[0]),
                   lambda: setattr(value, "no_such_field", 0)):
        with pytest.raises(AttributeError):
            change()
    assert tuple(getattr(value, field) for field in names) == values
    assert hash(value) == before

    assert cls(**dict(zip(names, values))) == cls(*values) == value
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
    # equal within one class only: a graph never equals the pattern of its bits
    assert value != values and value != object()
    for other, (_, other_names, _) in VALUES.items():
        if other != name and other_names == names:
            assert getattr(psdbounds, other)(*values) != value
    assert repr(value) == text


def test_post_init_rewrites_cut_and_float_matrix_fields():
    # a cut keeps the smaller of its two vertex classes
    assert psdbounds.Cut(4, 0b1110).members == 0b0001
    assert psdbounds.Cut(4, 0b1110) == psdbounds.Cut(4, 0b0001)
    assert psdbounds.Cut(4, 0b0011) != psdbounds.Clique(4, 0b0011)
    m = psdbounds.FloatPsdMatrix([[1.0, 2.0], [0.0, 1.0]])
    assert m.entries.tolist() == [[1.0, 1.0], [1.0, 1.0]]



_PSD, _NOT_PSD = psdbounds.PsdCertificate(True, ()), psdbounds.PsdCertificate(False, ())
_COVER_2 = BicliqueCover((Biclique(1, 2), Biclique(2, 1)))
_REPORT = psdbounds.BoundReport(4, 3, (5, 6), "x", 3, "rank")
_CERT = psdbounds.Order3Certificate(True, (0,), (1,), 4, 2, _SIGNS, (0,), (1,))
# a record and a name it once took as a field: a fact it now derives from
# another field, or a constant, or one that nothing read
REMOVED_FIELDS = [
    (psdbounds.CoverSearchResult(_COVER_2, 7), "size"),
    (psdbounds.FactorizationReport((_PSD,), (_NOT_PSD,)), "psd_ok"),
    (psdbounds.FactorizationReport((_PSD,), (_PSD,), ((0, 1),)), "traces_ok"),
    (_CERT, "bound"),
    (_CERT, "column_distinctness"),
    (_REPORT, "boolean_rank"),
    (_REPORT, "boolean_rank_bounds"),
    (_REPORT, "embedding_dim_bounds"),
    (psdbounds.AppendixCheckResult(True, 10, 5, 2), "n"),
]


@pytest.mark.parametrize(
    "record, field", REMOVED_FIELDS,
    ids=[f"{type(r).__name__}.{f}" for r, f in REMOVED_FIELDS],
)
def test_records_refuse_a_removed_field(record, field):
    with pytest.raises(TypeError):
        type(record)(*vars(record).values(), **{field: getattr(record, field, None)})
    assert field not in vars(record)


def test_derived_facts_follow_their_source():
    report = psdbounds.FactorizationReport
    assert report((_PSD,), (_PSD,)).passed
    for a, b, mismatches, verdicts in (
        ((_PSD,), (_NOT_PSD,), (), (False, True, False)),
        ((_NOT_PSD,), (_PSD,), (), (False, True, False)),
        ((_PSD,), (_PSD,), ((0, 1),), (True, False, False)),
    ):
        r = report(a, b, mismatches)
        assert (r.psd_ok, r.traces_ok, r.passed) == verdicts

    assert psdbounds.CoverSearchResult(_COVER_2, 7).size == 2

    assert (_CERT.bound, _CERT.claim) == (4, "psd rank >= 4")
    cert = psdbounds.Order3Certificate(False, (), (), None, 0, None, (), ())
    assert (cert.bound, cert.claim) == (None, "inconclusive")

    assert _REPORT.embedding_dim_bounds == (3, 4)
    assert (_REPORT.boolean_rank, _REPORT.boolean_rank_bounds) == (None, (5, 6))
    met = psdbounds.BoundReport(4, 3, (5, 5), "x", 3, "rank")
    assert (met.boolean_rank, met.boolean_rank_bounds) == (5, None)
