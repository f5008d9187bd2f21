"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is either a frozen oracle result or a stated
tolerance, nothing is recalibrated here.
"""

import functools
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (
    minimum_cover_bruteforce,
    minimum_feasible_cover_bruteforce,
    triangular_rank_bruteforce,
)
from psdbounds import (
    FloatPsdMatrix,
    SupportPattern,
    all_cliques,
    all_cuts,
    barvinok_reduce,
    boolean_rank,
    cut_clique_slack,
    embedding_from_psd,
    embedding_from_rank_factorization,
    factorization_to_float,
    feasible_biclique_cover,
    formats,
    generate_sn,
    graph_G,
    graph_H,
    appendix_reduction_check,
    order3_exclusion,
    psd_from_embedding,
    rank,
    realize_support,
    reduce_factor_ranks,
    support,
    triangular_rank,
    verify_embedding,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {description}")
                raise
            print(f"criterion {number:2d}: PASS - {description}")

        return wrapper

    return decorate


# -- shared corpora ------------------------------------------------------------


@pytest.fixture(scope="module")
def factorizations(roundtrip_corpus):
    out = []
    for s in roundtrip_corpus[:100]:
        emb = embedding_from_rank_factorization(s)
        f, t = psd_from_embedding(emb)
        out.append((s, f, t))
    return out


def roundtrip_result(s):
    """Canonical record of every criterion-4 check for one matrix."""
    emb = embedding_from_rank_factorization(s)
    ok_embed = verify_embedding(emb, support(s))
    ok_dim = emb.ambient_dim == rank(s)
    f, t = psd_from_embedding(emb)
    ok_supp = support(t) == support(s)
    ok_back = verify_embedding(embedding_from_psd(f), support(t))
    ok_chain = triangular_rank(support(s)) <= rank(s)
    return (
        ok_embed,
        ok_dim,
        ok_supp,
        ok_back,
        ok_chain,
        formats.format_matrix(t),
        formats.embedding_to_json(emb),
    )


def criterion5_patterns():
    pats = [
        SupportPattern(3, 3, [bits & 7, (bits >> 3) & 7, (bits >> 6) & 7])
        for bits in range(512)
    ]
    rng = random.Random(514)
    pats += [
        SupportPattern(5, 5, [rng.getrandbits(5) for _ in range(5)])
        for _ in range(100)
    ]
    return pats


def realization_text(args):
    index, f = args
    t = realize_support(f, seed=index, max_tries=5)
    return formats.format_matrix(t)


@criterion(1, "rank of the 6x6 band matrix is exactly 3 in under 0.1 s")
def test_criterion_01_rank():
    start = time.perf_counter()
    value = rank(generate_sn(6))
    elapsed = time.perf_counter() - start
    assert value == 3
    assert elapsed < 0.1


@criterion(2, "order-3 exclusion certifies psd rank >= 4 via 512 sign assignments")
def test_criterion_02_certificate():
    from psdbounds import multiquad_rank, sqrt_embed

    start = time.perf_counter()
    cert = order3_exclusion(generate_sn(6), fix_global_sign=False)
    s = generate_sn(6)
    rows, cols = [2, 3, 4, 5], [0, 1, 2, 3]
    positions = [(i, j) for i in rows for j in cols if s[i, j]]
    roots = [sqrt_embed(s[p]) for p in positions]
    all_rank_four = True
    for code in range(1 << len(positions)):
        entries = [[sqrt_embed(0)] * 4 for _ in range(4)]
        for t, (i, j) in enumerate(positions):
            sign = -1 if (code >> t) & 1 else 1
            entries[rows.index(i)][cols.index(j)] = roots[t] * sign
        if multiquad_rank(entries) != 4:
            all_rank_four = False
            break
    elapsed = time.perf_counter() - start
    assert cert.conclusive and cert.bound == 4
    assert cert.rows == (2, 3, 4, 5)  # rows 3..6, cols 1..4 in 1-based terms
    assert cert.cols == (0, 1, 2, 3)
    assert cert.assignments_checked == 512
    assert len(positions) == 9 and all_rank_four
    assert cert.min_rank == 4
    assert elapsed < 2.0


@criterion(3, "family n = 6..12: rank 3 and a certificate via the 6x6 window")
def test_criterion_03_family():
    start = time.perf_counter()
    for n in range(6, 13):
        s = generate_sn(n)
        assert rank(s) == 3
        cert = order3_exclusion(s)
        assert cert.conclusive and cert.bound == 4
        assert max(cert.rows) < 6 and max(cert.cols) < 6  # upper-left window
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


@criterion(4, "200 seeded roundtrips: embed, factorize, recover, chain bound")
def test_criterion_04_roundtrips(roundtrip_corpus):
    assert len(roundtrip_corpus) == 200
    failures = 0
    for s in roundtrip_corpus:
        result = roundtrip_result(s)
        if not all(result[:5]):
            failures += 1
    assert failures == 0


@criterion(5, "boolean rank equals brute force on 512 3x3 + 100 random 5x5")
def test_criterion_05_boolean_rank_oracle():
    start = time.perf_counter()
    mismatches = 0
    for p in criterion5_patterns():
        if boolean_rank(p) != minimum_cover_bruteforce(p):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0


@criterion(6, "triangular rank equals the exhaustive oracle on 100 random 5x5")
def test_criterion_06_triangular_rank_oracle():
    rng = random.Random(606)
    for _ in range(100):
        p = SupportPattern(5, 5, [rng.getrandbits(5) for _ in range(5)])
        assert triangular_rank(p) == triangular_rank_bruteforce(p)
    assert triangular_rank(support(generate_sn(6))) == 3


@criterion(7, "support realization succeeds within 5 tries on 100 factorizations")
def test_criterion_07_realization(factorizations):
    assert len(factorizations) == 100
    for index, (s, f, t) in enumerate(factorizations):
        realized = formats.parse_matrix(realization_text((index, f)))
        assert support(realized) == support(s)
        assert rank(realized) <= f.order


@criterion(8, "rank reduction reaches r(r+1)/2 <= m within stated tolerances")
def test_criterion_08_reduction():
    rng = np.random.default_rng(808)
    for _ in range(50):
        g = rng.normal(size=(6, 6))
        x = FloatPsdMatrix(g @ g.T)
        constraints = []
        for _ in range(3):
            a = rng.normal(size=(6, 6))
            a = (a + a.T) / 2
            constraints.append((a, float(np.tensordot(a, x.entries))))
        out = barvinok_reduce(x, constraints, tol=1e-9)
        assert out.numerical_rank() <= 2
        assert out.min_eigenvalue() >= -1e-8
        for a, alpha in constraints:
            assert abs(float(np.tensordot(a, out.entries)) - alpha) <= 1e-6
    f, _ = psd_from_embedding(embedding_from_rank_factorization(generate_sn(6)))
    a, b = factorization_to_float(f)
    report = reduce_factor_ranks(a, b)
    assert all(r <= 3 for r in report.a_ranks + report.b_ranks)


@criterion(9, "cut/clique graph, subset identity and disjointness cover checks")
def test_criterion_09_appendix():
    for n in (4, 5, 6):
        g = graph_G(n)
        cliques = all_cliques(n)
        cuts = all_cuts(n)
        assert len(cuts) == 2 ** (n - 1)
        for i, u in enumerate(cliques):
            for j, w in enumerate(cuts):
                slack = cut_clique_slack(u, w)
                balanced = 2 * (u.members & w.members).bit_count() == u.size
                assert g.has_edge(i, j) == (slack > 0) == (not balanced)
    result = appendix_reduction_check(18)
    assert result.ok and result.pairs_checked == 1296
    h, hbar = graph_H(5, 1)
    value = feasible_biclique_cover(h, hbar)
    assert value == 4
    assert value == minimum_feasible_cover_bruteforce(h, hbar)
    assert value == minimum_cover_bruteforce(
        SupportPattern.identity(5).complement()
    )


@criterion(10, "criteria 4, 5, 7 results are identical at 1 and 4 worker threads")
def test_criterion_10_determinism(roundtrip_corpus, factorizations):
    sequential_roundtrips = [roundtrip_result(s) for s in roundtrip_corpus]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded_roundtrips = list(pool.map(roundtrip_result, roundtrip_corpus))
    assert sequential_roundtrips == threaded_roundtrips

    pats = criterion5_patterns()
    sequential_values = [boolean_rank(p) for p in pats]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded_values = list(pool.map(boolean_rank, pats))
    assert sequential_values == threaded_values

    jobs = [(i, f) for i, (_, f, _) in enumerate(factorizations)]
    sequential_t = [realization_text(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded_t = list(pool.map(realization_text, jobs))
    assert sequential_t == threaded_t
