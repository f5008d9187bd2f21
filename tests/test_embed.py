import io
import json
import random
import sys
from fractions import Fraction

import pytest

from conftest import random_rational_matrix
from oracles import minimum_cover_bruteforce, triangular_rank_bruteforce
from test_cli import invoke
from psdbounds import (
    BoundReport,
    ExactMatrix,
    Subspace,
    SubspaceEmbedding,
    embedding_from_psd,
    embedding_from_rank_factorization,
    embrkl_bounds,
    generate_sn,
    psd_from_embedding,
    rank,
    realize_support,
    support,
    triangular_rank,
    verify_embedding,
    SearchBudgetExceeded,
    SupportPattern,
    analyze,
    boolean_rank,
    formats,
    minimum_biclique_cover,
    scalars,
    slack_matrix_cut_clique,
)
from psdbounds.cli import run
from psdbounds.pattern import EnumerationTooLarge, boolean_rank_outcome


def crossed_lines_embedding() -> SubspaceEmbedding:
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    return SubspaceEmbedding(2, (e1, e2), (e2, e1))


def test_verify_embedding_examples():
    emb = crossed_lines_embedding()
    assert verify_embedding(emb, SupportPattern.identity(2))
    assert not verify_embedding(emb, SupportPattern.ones(2, 2))
    with pytest.raises(ValueError):
        verify_embedding(emb, SupportPattern.ones(3, 2))


def test_embedding_from_rank_identity():
    emb = embedding_from_rank_factorization(ExactMatrix.identity(2))
    assert emb.ambient_dim == 2
    assert emb.U[0] == Subspace.from_vectors(2, [[1, 0]])
    assert emb.U[1] == Subspace.from_vectors(2, [[0, 1]])
    assert emb.V[0] == Subspace.from_vectors(2, [[0, 1]])
    assert emb.V[1] == Subspace.from_vectors(2, [[1, 0]])


def test_embedding_from_rank_s6():
    s = generate_sn(6)
    emb = embedding_from_rank_factorization(s)
    assert emb.ambient_dim == 3
    assert verify_embedding(emb, support(s))


def test_embedding_from_rank_all_ones():
    m = ExactMatrix.from_rows([[1, 1, 1]] * 3)
    emb = embedding_from_rank_factorization(m)
    assert emb.ambient_dim == 1
    assert emb.U[0] == emb.U[1] == emb.U[2]
    assert all(v.dim == 0 for v in emb.V)
    assert verify_embedding(emb, support(m))


def test_embedding_handles_zero_rows_and_columns():
    m = ExactMatrix.from_rows([[0, 0, 2], [0, 0, 0], [0, 0, 1]])
    emb = embedding_from_rank_factorization(m)
    assert verify_embedding(emb, support(m))
    assert emb.U[1].dim == 0  # zero row embeds as the zero subspace
    f, t = psd_from_embedding(emb)
    assert support(t) == support(m)


def test_psd_from_embedding_identity_pattern():
    f, t = psd_from_embedding(crossed_lines_embedding())
    assert t == ExactMatrix.identity(2)
    assert f.order == 2


def test_psd_from_embedding_containment_forces_zero():
    e1 = Subspace.from_vectors(1, [[1]])
    emb = SubspaceEmbedding(1, (e1,), (e1,))
    f, t = psd_from_embedding(emb)
    assert t == ExactMatrix.zeros(1, 1)


def test_psd_from_embedding_s6_roundtrip():
    s = generate_sn(6)
    emb = embedding_from_rank_factorization(s)
    f, t = psd_from_embedding(emb)
    assert f.order == 3
    assert support(t) == support(s)
    # factors are exact orthogonal projections
    for a in f.A:
        assert a @ a == a and a == a.transpose()
    for b in f.B:
        assert b @ b == b and b == b.transpose()


def test_embedding_from_psd_roundtrip():
    f, t = psd_from_embedding(crossed_lines_embedding())
    emb = embedding_from_psd(f)
    assert verify_embedding(emb, SupportPattern.identity(2))


def test_embedding_from_psd_order_one():
    one = ExactMatrix.from_rows([[1]])
    from psdbounds import PsdFactorization

    f = PsdFactorization(1, (one, one), (one, one))
    emb = embedding_from_psd(f)
    assert all(u.dim == 1 for u in emb.U)
    assert all(v.dim == 0 for v in emb.V)
    assert verify_embedding(emb, SupportPattern.ones(2, 2))


def test_embedding_from_psd_rejects_non_psd():
    from psdbounds import PsdFactorization

    neg = ExactMatrix.from_rows([[-1]])
    f = PsdFactorization(1, (neg,), (neg,))
    # realize_support runs the same check and raises the same text
    for reject in (embedding_from_psd, realize_support):
        with pytest.raises(ValueError) as info:
            reject(f)
        assert str(info.value) == (
            "factors are not positive semidefinite: "
            "non-psd A factors [0]; non-psd B factors [0]"
        )


def test_embrkl_bounds_examples():
    for n in (1, 3, 5):
        assert embrkl_bounds(ExactMatrix.identity(n)) == (n, n)
    assert embrkl_bounds(ExactMatrix.from_rows([[1, 1], [1, 1]])) == (1, 1)
    assert embrkl_bounds(generate_sn(6)) == (3, 3)


def test_roundtrip_properties_random():
    rng = random.Random(3)
    for _ in range(40):
        s = random_rational_matrix(rng)
        emb = embedding_from_rank_factorization(s)
        assert verify_embedding(emb, support(s))
        assert emb.ambient_dim == rank(s)
        f, t = psd_from_embedding(emb)
        assert support(t) == support(s)
        assert verify_embedding(embedding_from_psd(f), support(t))
        assert triangular_rank(support(s)) <= rank(s)


def test_embedding_validation():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    with pytest.raises(ValueError):
        SubspaceEmbedding(3, (e1,), (e1,))


def test_analyze_s6():
    report = analyze(generate_sn(6))
    assert isinstance(report, BoundReport)
    assert (report.rank, report.triangular_rank, report.boolean_rank) == (3, 3, 5)
    assert report.boolean_rank_bounds is None
    assert report.embedding_dim_bounds == (3, 3)
    assert report.psd_lower_bound == 4
    assert report.psd_lower_bound_source == "order-3 exclusion certificate"


def test_analyze_exhausted_budget_keeps_bounds():
    report = analyze(generate_sn(12), budget=20000)
    assert report.boolean_rank is None
    assert report.boolean_rank_bounds == (3, 7)


def test_analyze_refused_cover_reports_proven_bounds():
    # min side 32 is past the candidate enumeration limit: the boolean rank
    # is bracketed by the triangular rank and the count of nonzero columns
    report = analyze(slack_matrix_cut_clique(6))
    assert (report.rank, report.triangular_rank) == (16, 16)
    assert report.boolean_rank is None
    assert report.boolean_rank_bounds == (16, 32)
    assert report.psd_lower_bound == 16


def test_analyze_raises_a_cut_cover_search_to_the_triangular_rank():
    # the triangular rank is above the root's fooling bound on both; at
    # budget 0 the search is cut with the greedy cover as upper.  Both are
    # random patterns drawn from random.Random(7)
    via = "triangular rank / cover search incumbent (budget reached)"
    bracketed = ExactMatrix.from_rows([
        [1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 1], [1, 1, 0, 1, 1, 1],
        [0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 1, 0], [1, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 1],
    ])
    met = ExactMatrix.from_rows([
        [1, 0, 1, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 0, 1], [1, 0, 1, 1, 1],
        [1, 1, 1, 0, 0], [0, 1, 0, 0, 0],
    ])
    for m, tri, lower, upper, exact in ((bracketed, 5, 4, 6, 6), (met, 4, 3, 4, 4)):
        pat = support(m)
        assert triangular_rank(pat) == tri
        with pytest.raises(SearchBudgetExceeded) as info:
            boolean_rank(pat, budget=0)
        assert (info.value.lower, info.value.upper) == (lower, upper)
        assert boolean_rank(pat) == exact
    report = analyze(bracketed, budget=0)
    assert (report.boolean_rank, report.boolean_rank_bounds) == (None, (5, 6))
    assert report.boolean_rank_source == via
    report = analyze(met, budget=0)
    assert (report.boolean_rank, report.boolean_rank_bounds) == (4, None)
    doc = report.to_doc("m")["boolean_rank"]
    assert doc == {"value": 4, "bounds": None, "via": via}


def test_analyze_labels_which_search_gave_the_boolean_rank():
    searched = "minimum_biclique_cover branch and bound"
    refused = "triangular rank / nonzero lines (cover search refused the graph)"
    # exact, out of budget, refused
    for m, via in (
        (generate_sn(6), searched),
        (generate_sn(12), searched),
        (slack_matrix_cut_clique(6), refused),
    ):
        report = analyze(m, budget=20000)
        assert report.boolean_rank_source == via
        assert report.to_doc("m")["boolean_rank"]["via"] == via


def test_analyze_doc_is_the_cli_document(capsys):
    m = generate_sn(6)
    old = sys.stdin
    sys.stdin = io.StringIO(formats.format_matrix(m))
    try:
        assert run(["--json", "bounds"]) == 0
    finally:
        sys.stdin = old
    doc = json.loads(capsys.readouterr().out)
    del doc["schema"]
    assert analyze(m).to_doc("stdin") == doc


def boolrank_answer(capsys, m: ExactMatrix, budget: int):
    """(value, bounds) as ``boolrank --json`` prints them, and its exit code."""
    argv = ["boolrank", "--json", "--budget", str(budget)]
    code, out, _ = invoke(capsys, argv, stdin=formats.format_matrix(m))
    doc = json.loads(out)
    bounds = tuple(doc["bounds"]) if "bounds" in doc else None
    return (doc["value"], bounds), code


def test_undecided_boolean_rank_interval_is_sound_and_shared(capsys):
    # every budget short of a finished search: the interval holds the
    # brute-force boolean rank, and analyze and boolrank print the same
    rng = random.Random(16)
    cut = raised = lowered = 0
    for _ in range(150):
        rows, cols = rng.randint(2, 6), rng.randint(2, 7)
        pat = SupportPattern(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        m = ExactMatrix.from_rows(
            [[pat[i, j] for j in range(cols)] for i in range(rows)]
        )
        truth, tri = minimum_cover_bruteforce(pat), triangular_rank_bruteforce(pat)
        lines = min(sum(1 for r in pat.row_bits if r), sum(1 for c in pat.col_bits() if c))
        for budget in range(minimum_biclique_cover(pat).nodes + 1):
            lo, hi, via = boolean_rank_outcome(m, budget)
            try:
                assert boolean_rank(pat, budget=budget) == lo == hi
            except SearchBudgetExceeded as exc:
                cut += 1
                raised += lo > exc.lower
                lowered += hi < exc.upper
                assert tri <= lo <= truth <= hi <= lines, (pat, budget, via)
            else:
                assert lo == truth
            report = analyze(m, budget=budget)
            answer = (report.boolean_rank, report.boolean_rank_bounds)
            assert answer == ((lo, None) if lo == hi else (None, (lo, hi)))
            assert boolrank_answer(capsys, m, budget) == (answer, 0 if lo == hi else 3)
    # both ends of the shared rule are exercised
    assert cut and raised and lowered


@pytest.mark.parametrize(
    "m, interval",
    [
        (ExactMatrix.identity(21), (21, 21)),
        (ExactMatrix.from_rows([[1] * 21] * 21), (1, 21)),
        (slack_matrix_cut_clique(6), (16, 32)),
    ],
    ids=["identity 21", "ones 21x21", "cutpoly 6"],
)
def test_refused_cover_search_interval_is_shared(capsys, m, interval):
    pat = support(m)
    with pytest.raises(EnumerationTooLarge) as info:
        boolean_rank(pat)
    tri = triangular_rank(pat, upper=rank(m))
    lo, hi, via = boolean_rank_outcome(m, 0)
    assert boolean_rank_outcome(m, 0, tri) == (lo, hi, via)
    assert (lo, hi) == interval
    assert via == "triangular rank / nonzero lines (cover search refused the graph)"
    answer = (lo, None) if lo == hi else (None, (lo, hi))
    report = analyze(m)
    assert (report.boolean_rank, report.boolean_rank_bounds) == answer
    assert boolrank_answer(capsys, m, 0) == (answer, 0 if lo == hi else 3)


def test_analyze_runs_order3_only_when_it_can_raise_the_bound(monkeypatch):
    calls = []
    order3 = scalars.order3_exclusion
    monkeypatch.setattr(
        scalars, "order3_exclusion", lambda *a, **kw: calls.append(1) or order3(*a, **kw)
    )
    # triangular rank 7 already beats the certificate's 4; S_6's is 3
    assert analyze(slack_matrix_cut_clique(4)).psd_lower_bound == 7
    assert not calls
    assert analyze(generate_sn(6)).psd_lower_bound == 4
    assert len(calls) == 1
