import heapq
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice

import pytest

from conftest import random_rational_matrix
from oracles import is_psd_by_principal_minors, psd_certificate_reference
from psdbounds import formats, psd, scalars
from psdbounds import (
    ExactMatrix,
    MultiQuadScalar,
    PsdFactorization,
    SignAssignment,
    SqrtRankResult,
    check_sign_square,
    embedding_from_rank_factorization,
    generate_sn,
    min_sqrt_rank,
    order3_exclusion,
    psd_certificate,
    psd_from_embedding,
    rank,
    realize_support,
    slack_matrix_cut_clique,
    support,
    verify_psd_factorization,
)
from psdbounds.cli import run
from psdbounds.scalars import modular_images, multiquad_rank, sqrt_embed

S6_DISPLAY = [
    [1, 3, 6, 10, 15, 21],
    [0, 1, 3, 6, 10, 15],
    [0, 0, 1, 3, 6, 10],
    [1, 0, 0, 1, 3, 6],
    [3, 1, 0, 0, 1, 3],
    [6, 3, 1, 0, 0, 1],
]


def s6_factorization() -> tuple[PsdFactorization, ExactMatrix]:
    return psd_from_embedding(embedding_from_rank_factorization(generate_sn(6)))


def test_generate_sn():
    assert generate_sn(6) == ExactMatrix.from_rows(S6_DISPLAY)
    assert generate_sn(1)[0, 0] == 1  # (-1)(-2)/2
    for n in (3, 6, 10):
        assert rank(generate_sn(n)) == 3
        assert generate_sn(n).is_nonnegative()
    assert rank(generate_sn(2)) == 2
    with pytest.raises(ValueError):
        generate_sn(0)


def test_psd_certificate_basics():
    assert psd_certificate(ExactMatrix.identity(3)).is_psd
    assert psd_certificate(ExactMatrix.zeros(2, 2)).is_psd
    assert not psd_certificate(-ExactMatrix.identity(2)).is_psd
    assert not psd_certificate(ExactMatrix.from_rows([[0, 1], [1, 0]])).is_psd
    assert not psd_certificate(ExactMatrix.from_rows([[1, 2], [2, 1]])).is_psd
    assert not psd_certificate(ExactMatrix.from_rows([[1, 2], [3, 1]])).is_psd
    cert = psd_certificate(ExactMatrix.from_rows([[2, 1], [1, 2]]))
    assert cert.is_psd and cert.pivots == (Fraction(2), Fraction(3, 2))
    with pytest.raises(TypeError):  # an ExactMatrix holds rationals only
        ExactMatrix(1, 1, [MultiQuadScalar.from_rational(2)])


def test_psd_certificate_matches_principal_minors():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        g = ExactMatrix(
            n, n, [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n * n)]
        )
        m = g + g.transpose()  # random symmetric, psd or not
        assert psd_certificate(m).is_psd == is_psd_by_principal_minors(m)
        gram = g @ g.transpose()  # always psd
        assert psd_certificate(gram).is_psd


def ldl_corpus(rng) -> list[tuple[str, ExactMatrix]]:
    """Seeded symmetric rational matrices up to 8x8 that reach every exit of
    the LDL^T test, plus non-symmetric inputs and the 0x0 matrix."""

    def value(lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7, 12, 1009)))

    def gram(n, r):
        v = ExactMatrix(n, r, [value() for _ in range(n * r)])
        return v @ v.transpose()

    def symmetric(n, diag=None):
        e = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e[i][j] = e[j][i] = value() if i != j or diag is None else diag()
        return ExactMatrix.from_rows(e)

    corpus = [("empty", ExactMatrix(0, 0, []))]
    for n in range(1, 9):
        for r in range(n + 1):  # Gram matrices of every rank, psd
            corpus += [("gram", gram(n, r)) for _ in range(6)]
        for _ in range(10):
            corpus.append(("indefinite", symmetric(n)))
            corpus.append(("negative diagonal", symmetric(n, lambda: value(-9, -1))))
        if n >= 2:
            for _ in range(10):
                # a psd block, then two zeroed lines joined by one nonzero
                # entry: a zero diagonal over a nonzero block, or (with a
                # link to the block) a negative diagonal after elimination
                e = [list(gram(n, rng.randint(0, n)).row(i)) for i in range(n)]
                z1, z2 = rng.sample(range(n), 2)
                for z in (z1, z2):
                    for k in range(n):
                        e[z][k] = e[k][z] = Fraction(0)
                e[z1][z2] = e[z2][z1] = value(1, 9)
                if rng.random() < 0.5:
                    k = rng.randrange(n)
                    if k not in (z1, z2):
                        e[z1][k] = e[k][z1] = value(1, 9)
                corpus.append(("zero diagonal", ExactMatrix.from_rows(e)))
            for _ in range(4):
                a = symmetric(n)
                i, j = rng.sample(range(n), 2)
                e = list(a.entries)
                e[i * n + j] += 1
                corpus.append(("non-symmetric", ExactMatrix(n, n, e)))
        corpus.append(("non-square", ExactMatrix(n, n + 1, [value() for _ in range(n * n + n)])))
    return corpus


def test_psd_certificate_matches_the_fraction_ldl_reference():
    corpus = ldl_corpus(random.Random(2024))
    assert len(corpus) >= 500
    reasons = set()
    for kind, m in corpus:
        cert = psd_certificate(m)
        assert cert == psd_certificate_reference(m), (kind, m)
        assert all(type(p) is Fraction for p in cert.pivots)
        reasons.add(cert.reason.split(" at ")[0])
        if kind == "gram":
            assert cert.is_psd and len(cert.pivots) == rank(m)
    assert reasons == {
        "", "matrix is not symmetric", "negative diagonal entry",
        "zero diagonal with nonzero entry",
    }


def test_verify_psd_factorization():
    f, t = s6_factorization()
    report = verify_psd_factorization(f, t)
    assert report.passed and report.summary() == "ok"

    flipped = PsdFactorization(f.order, (-f.A[0],) + f.A[1:], f.B)
    bad = verify_psd_factorization(flipped, t)
    assert not bad.psd_ok and not bad.passed

    wrong = verify_psd_factorization(f, t + ExactMatrix.from_rows(
        [[1 if (i, j) == (0, 0) else 0 for j in range(6)] for i in range(6)]
    ))
    assert not wrong.passed and (0, 0) in wrong.mismatches

    with pytest.raises(ValueError):
        verify_psd_factorization(f, ExactMatrix.zeros(2, 2))


def random_symmetric(rng, order) -> ExactMatrix:
    # mixed denominators and signs; about a third of the factors are zero
    if rng.random() < 1 / 3:
        return ExactMatrix.zeros(order, order)
    upper = {
        (i, j): Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 12, 1009)))
        for i in range(order) for j in range(i, order)
    }
    return ExactMatrix(order, order, [
        upper[min(i, j), max(i, j)] for i in range(order) for j in range(order)
    ])


def fraction_sum_product(f: PsdFactorization) -> list[list[Fraction]]:
    """tr(A_k B_l) as a plain Fraction sum of a_ij b_ji."""
    return [
        [
            sum((a[i, j] * b[j, i] for i in range(f.order) for j in range(f.order)),
                Fraction(0))
            for b in f.B
        ]
        for a in f.A
    ]


def test_product_matrix_matches_fraction_sum(tmp_path, capsys):
    rng = random.Random(77)
    shapes = [(0, 2, 3), (3, 0, 2), (3, 2, 0), (1, 3, 2), (2, 4, 4), (4, 3, 5), (5, 2, 2)]
    for order, m, n in shapes * 4:
        f = PsdFactorization(
            order,
            tuple(random_symmetric(rng, order) for _ in range(m)),
            tuple(random_symmetric(rng, order) for _ in range(n)),
        )
        t = f.product_matrix()
        assert (t.rows, t.cols) == (m, n)
        assert t.row_lists() == fraction_sum_product(f)
        assert not verify_psd_factorization(f, t).mismatches

    # one corrupted entry of a 4x6 T is the only mismatch, in the library and the CLI
    s = generate_sn(6).submatrix(range(4), range(6))
    f, t = psd_from_embedding(embedding_from_rank_factorization(s))
    k, l = 2, 4
    bad = ExactMatrix(4, 6, [v + Fraction(1, 3) if divmod(i, 6) == (k, l) else v
                             for i, v in enumerate(t.entries)])
    assert verify_psd_factorization(f, bad).mismatches == ((k, l),)
    fact_file, bad_file = tmp_path / "fact.json", tmp_path / "bad.txt"
    fact_file.write_text(formats.factorization_to_json(f))
    bad_file.write_text(formats.format_matrix(bad))
    code = run(["verify", "psd", "--json", str(fact_file), str(bad_file)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and not doc["passed"] and doc["psd_ok"]
    assert doc["trace_mismatches"] == [[k + 1, l + 1]]


def test_order_one_column_factorization():
    column = ExactMatrix.from_rows([[2], [3], [5]])
    f = PsdFactorization(
        1,
        tuple(ExactMatrix.from_rows([[v]]) for v in (2, 3, 5)),
        (ExactMatrix.from_rows([[1]]),),
    )
    assert verify_psd_factorization(f, column).passed


def test_psd_factorization_validation():
    with pytest.raises(ValueError):
        PsdFactorization(2, (ExactMatrix.zeros(1, 1),), ())
    with pytest.raises(ValueError):
        PsdFactorization(2, (ExactMatrix.from_rows([[0, 1], [0, 0]]),), ())


def test_realize_support_diagonal():
    a1 = ExactMatrix.diagonal([1, 0])
    a2 = ExactMatrix.diagonal([0, 1])
    f = PsdFactorization(2, (a1, a2), (a1, a2))
    t = realize_support(f, seed=0)
    assert support(t) == support(f.product_matrix())
    assert rank(t) <= 2


def test_realize_support_scalar():
    one = ExactMatrix.from_rows([[1]])
    f = PsdFactorization(1, (one,), (one,))
    t = realize_support(f, seed=5)
    assert t[0, 0] != 0


def test_realize_support_s6():
    f, _ = s6_factorization()
    t = realize_support(f, seed=7)
    assert support(t) == support(generate_sn(6))
    assert rank(t) <= 3


def test_realize_support_deterministic():
    f, _ = s6_factorization()
    assert realize_support(f, seed=42) == realize_support(f, seed=42)


def test_realize_support_rejects_non_psd():
    neg = ExactMatrix.from_rows([[-1]])
    f = PsdFactorization(1, (neg,), (neg,))
    with pytest.raises(ValueError):
        realize_support(f, seed=0)


def test_realize_support_try_cap():
    from psdbounds import RealizationError

    one = ExactMatrix.from_rows([[1]])
    f = PsdFactorization(1, (one,), (one,))
    # seed 12 samples xi * eta = 0 on its first try and a nonzero on its second
    with pytest.raises(RealizationError, match="in 1 tries"):
        realize_support(f, seed=12, max_tries=1)
    assert realize_support(f, seed=12, max_tries=2) != ExactMatrix.zeros(1, 1)


def test_min_sqrt_rank_trivial():
    zeros = ExactMatrix.zeros(3, 3)
    res = min_sqrt_rank(zeros, [0, 1], [0, 1])
    assert res.min_rank == 0 and res.assignments_checked == 1

    single = ExactMatrix.from_rows([[4]])
    res = min_sqrt_rank(single, [0], [0])
    assert res.min_rank == 1
    assert res.witness.signs == (1,)
    root = res.witness.positions[0]
    assert root == (0, 0)
    assert check_sign_square(single, res.witness)


def test_min_sqrt_rank_s6_block():
    s = generate_sn(6)
    res = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3])
    assert res.min_rank == 4
    assert res.assignments_checked == 256
    full = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3], fix_global_sign=False)
    assert full.min_rank == 4
    assert full.assignments_checked == 512


def test_min_sqrt_rank_bounded_by_shape():
    rng = random.Random(21)
    for _ in range(15):
        m = random_rational_matrix(rng, max_rows=4, max_cols=4)
        nonneg = ExactMatrix(
            m.rows, m.cols, [abs(v) for v in m.entries]
        )
        rows = list(range(nonneg.rows))
        cols = list(range(nonneg.cols))
        z = support(nonneg).ones_count()
        if z > 12:
            continue
        res = min_sqrt_rank(nonneg, rows, cols)
        assert res.min_rank <= min(len(rows), len(cols))
        assert check_sign_square(nonneg, res.witness)


def test_min_sqrt_rank_invariant_under_global_flip():
    from psdbounds.scalars import sqrt_embed as root

    s = generate_sn(6)
    res = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3])

    def build(signs):
        rows, cols = [2, 3, 4, 5], [0, 1, 2, 3]
        entries = [[root(0)] * 4 for _ in range(4)]
        for (i, j), sign in zip(res.witness.positions, signs):
            entries[rows.index(i)][cols.index(j)] = root(s[i, j]) * sign
        return entries

    flipped = tuple(-x for x in res.witness.signs)
    assert multiquad_rank(build(res.witness.signs)) == multiquad_rank(build(flipped))


def test_min_sqrt_rank_validation():
    with pytest.raises(ValueError):
        min_sqrt_rank(-ExactMatrix.identity(2), [0], [0])
    allones = ExactMatrix.from_rows([[1] * 6] * 6)
    with pytest.raises(ValueError):
        min_sqrt_rank(allones, range(6), range(6), cap=10)


def test_min_sqrt_rank_rejects_out_of_range_indices():
    s = generate_sn(6)
    with pytest.raises(ValueError, match="row index 98"):
        min_sqrt_rank(s, [0, 1, 2, 98], [0, 1, 2, 3])
    with pytest.raises(ValueError, match="column index -1"):
        min_sqrt_rank(s, [0, 1], [-1, 0])


def test_min_sqrt_rank_witness_with_repeated_row():
    # the block repeats row 0; the witness must realize the minimum rank
    # with each copy of the row placed and signed on its own
    from psdbounds.scalars import sqrt_embed as root

    s = ExactMatrix.from_rows([[9, 1, 1], [1, 0, 1], [1, 1, 9]])
    rows, cols = [0, 0, 1, 2], [0, 1, 2]
    res = min_sqrt_rank(s, rows, cols)
    assert res.min_rank == 2
    signs = iter(res.witness.signs)
    entries = [
        [root(s[k, l]) * next(signs) if s[k, l] else root(0) for l in cols]
        for k in rows
    ]
    assert multiquad_rank(entries) == res.min_rank


def brute_min_sqrt_rank(s, rows, cols, fix_global_sign=True):
    """min_sqrt_rank without the modular filter: exact rank of every code."""
    cells = [(i, j) for i, k in enumerate(rows) for j, l in enumerate(cols) if s[k, l]]
    positions = tuple((rows[i], cols[j]) for i, j in cells)
    if not cells:
        return SqrtRankResult(0, SignAssignment((), ()), 1)
    z = len(cells)
    total = 1 << (z - 1 if fix_global_sign else z)
    best = None
    for code in range(total):
        word = code << 1 if fix_global_sign else code
        signs = tuple(-1 if (word >> t) & 1 else 1 for t in range(z))
        entries = [[sqrt_embed(0)] * len(cols) for _ in rows]
        for (i, j), (k, l), sign in zip(cells, positions, signs):
            entries[i][j] = sqrt_embed(s[k, l]) * sign
        r = multiquad_rank(entries)
        if best is None or r < best[0]:
            best = (r, signs)
    return SqrtRankResult(best[0], SignAssignment(positions, best[1]), total)


def count_exact_ranks(monkeypatch) -> list[int]:
    calls = []

    def counted(rows):
        calls.append(1)
        return multiquad_rank(rows)

    monkeypatch.setattr(scalars, "multiquad_rank", counted)
    return calls


def square_of_rank_two(rng, n_rows, n_cols) -> list[list]:
    # the entrywise square of Y = D_r (U V^T) D_c, of rank <= 2, where U, V
    # have entries in -2..2, D_r = diag(a_i sqrt(p_i)), D_c = diag(sqrt(q_j));
    # the minimum can then lie at the sign pattern of Y, past the all-plus code
    u = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n_rows)]
    v = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n_cols)]
    d_r = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) ** 2 * rng.choice((1, 2, 3, 5))
           for _ in range(n_rows)]
    d_c = [rng.choice((1, 2, 7)) for _ in range(n_cols)]
    return [
        [(x1 * y1 + x2 * y2) ** 2 * a * b for (y1, y2), b in zip(v, d_c)]
        for (x1, x2), a in zip(u, d_r)
    ]


def test_min_sqrt_rank_matches_the_unfiltered_enumeration():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.6:
            rows = square_of_rank_two(rng, rng.randint(3, 4), rng.randint(3, 4))
        else:  # sparse, with fractional entries
            rows = [
                [
                    0 if rng.random() < 0.4
                    else Fraction(rng.randint(1, 12), rng.randint(1, 3))
                    for _ in range(n_cols)
                ]
                for _ in range(n_rows)
            ]
        s = ExactMatrix.from_rows(rows)
        row_idx, col_idx = list(range(s.rows)), list(range(s.cols))
        if s.rows > 1 and rng.random() < 0.3:  # repeat a row
            row_idx[rng.randrange(1, s.rows)] = 0
        if support(s.submatrix(row_idx, col_idx)).ones_count() > 8:
            continue
        for fix in (True, False):
            assert min_sqrt_rank(
                s, row_idx, col_idx, fix_global_sign=fix
            ) == brute_min_sqrt_rank(s, row_idx, col_idx, fix)
        checked += 1


def test_min_sqrt_rank_falls_back_when_the_modular_rank_drops(monkeypatch):
    # with only rational roots the filter works modulo its first prime p;
    # the determinant of the all-plus root block is then (p+1) - 1 = p
    p, _ = modular_images([MultiQuadScalar.from_rational(1)])
    s = ExactMatrix.from_rows([[1, 1], [1, (p + 1) ** 2]])
    assert modular_images([sqrt_embed(v) for v in s.entries])[0] == p
    calls = count_exact_ranks(monkeypatch)
    res = min_sqrt_rank(s, [0, 1], [0, 1], fix_global_sign=False)
    assert res.min_rank == 2
    assert len(calls) == 8  # the codes whose determinant vanishes mod p
    assert res == brute_min_sqrt_rank(s, [0, 1], [0, 1], False)


def test_min_sqrt_rank_without_a_usable_prime():
    # 20 radicand primes: no prime in the capped search has all 20 as squares
    radicands = [2 * 3 * 5 * 7 * 11, 13 * 17 * 19 * 23 * 29,
                 31 * 37 * 41 * 43 * 47, 53 * 59 * 61 * 67 * 71]
    s = ExactMatrix.from_rows([radicands[:2], radicands[2:]])
    assert modular_images([sqrt_embed(v) for v in radicands]) is None
    assert min_sqrt_rank(s, [0, 1], [0, 1]) == brute_min_sqrt_rank(s, [0, 1], [0, 1])


def test_modular_images_is_a_ring_map():
    values = [sqrt_embed(v) for v in (2, Fraction(3, 4), 6, 45, Fraction(1, 7))]
    pairs = list(combinations_with_replacement(values, 2))
    p, images = modular_images(
        values + [x + y for x, y in pairs] + [x * y for x, y in pairs]
    )
    assert p % 4 == 3 and p < 2**31
    # a denominator divisible by the first candidate rules that prime out
    first, _ = modular_images([MultiQuadScalar.from_rational(1)])
    assert modular_images([MultiQuadScalar.from_rational(Fraction(1, first))])[0] < first
    sums, products = images[5 : 5 + len(pairs)], images[5 + len(pairs) :]
    for (a, b), sum_image, product_image in zip(
        combinations_with_replacement(images[:5], 2), sums, products
    ):
        assert sum_image == (a + b) % p
        assert product_image == a * b % p


def test_min_sqrt_rank_s12_block_needs_one_exact_rank(monkeypatch):
    calls = count_exact_ranks(monkeypatch)
    res = min_sqrt_rank(generate_sn(12), [0, 1, 2, 3], [0, 3, 4, 5], fix_global_sign=False)
    assert (res.min_rank, res.assignments_checked) == (4, 16384)
    assert len(calls) == 1  # the unfiltered enumeration makes 16,384


def test_order3_exclusion_s6():
    cert = order3_exclusion(generate_sn(6), fix_global_sign=False)
    assert cert.conclusive and cert.bound == 4
    assert cert.rows == (2, 3, 4, 5)
    assert cert.cols == (0, 1, 2, 3)
    assert cert.min_rank == 4
    assert cert.assignments_checked == 512
    assert cert.claim == "psd rank >= 4"
    assert cert.column_distinctness == "support-level"


def test_order3_exclusion_family():
    for n in (7, 8, 9):
        cert = order3_exclusion(generate_sn(n))
        assert cert.conclusive
        assert cert.rows == (2, 3, 4, 5) and cert.cols == (0, 1, 2, 3)


def test_order3_exclusion_inconclusive_cases():
    allones = ExactMatrix.from_rows([[1] * 6] * 6)
    cert = order3_exclusion(allones)
    assert not cert.conclusive and cert.bound is None
    assert "forced" in cert.reason

    ident = ExactMatrix.identity(6)  # psd rank 6 matrix, but no pinning
    cert = order3_exclusion(ident)
    assert not cert.conclusive

    with pytest.raises(ValueError):
        order3_exclusion(-ExactMatrix.identity(3))


def test_order3_exclusion_cap():
    cert = order3_exclusion(generate_sn(6), cap=3)
    assert not cert.conclusive
    assert "cap" in cert.reason


def test_order3_exclusion_zero_attempts_still_scans():
    cert = order3_exclusion(generate_sn(6), max_attempts=0)
    assert not cert.conclusive
    assert cert.reason == "all 0 candidate blocks admit a square root of rank <= 3"
    cert = order3_exclusion(generate_sn(6), cap=3, max_attempts=0)
    assert cert.reason == "every candidate block exceeds the enumeration cap"


def test_order3_exclusion_rejects_negative_attempts():
    with pytest.raises(ValueError, match="max_attempts must be nonnegative, got -3"):
        order3_exclusion(generate_sn(6), max_attempts=-3)


def test_order3_exclusion_tries_the_cheapest_blocks(monkeypatch):
    s = slack_matrix_cut_clique(4)
    tried = []

    def spy(s, rows, cols, **kw):
        tried.append((rows, cols))
        return min_sqrt_rank(s, rows, cols, **kw)

    monkeypatch.setattr(psd, "min_sqrt_rank", spy)
    cert = order3_exclusion(s, cap=12, max_attempts=8)
    blocks = sorted(
        (sum(1 for k in kr for l in lc if s[k, l]), kr, lc)
        for kr in combinations(cert.pinned_rows, 4)
        for lc in combinations(cert.pinned_cols, 4)
    )
    assert tried == [(kr, lc) for z, kr, lc in blocks if z <= 12][:8]
    assert cert.reason == "all 8 candidate blocks admit a square root of rank <= 3"

    # S_12 has C(10, 4) = 210 pinned column sets, so a limit of 1000 pairs
    # stops partway through the fifth row set
    s = generate_sn(12)
    monkeypatch.setattr(psd, "_SCAN_LIMIT", 1000)
    monkeypatch.setattr(
        psd, "min_sqrt_rank",
        lambda s, rows, cols, **kw: tried.append((rows, cols)) or SqrtRankResult(3, None, 0),
    )
    pinned_rows, pinned_cols = psd._pinned_sets(support(s))
    pairs = islice(
        ((kr, lc) for kr in combinations(pinned_rows, 4) for lc in combinations(pinned_cols, 4)),
        1000,
    )
    scored = [(sum(1 for k in kr for l in lc if s[k, l]), kr, lc) for kr, lc in pairs]
    for cap, attempts in ((12, 8), (24, 64)):
        tried.clear()
        cert = order3_exclusion(s, cap=cap, max_attempts=attempts)
        expected = heapq.nsmallest(attempts, (b for b in scored if b[0] <= cap))
        assert tried == [(kr, lc) for z, kr, lc in expected]
        assert len(tried) == attempts and not cert.conclusive


def test_order3_scan_memory_stays_bounded():
    s = slack_matrix_cut_clique(7)
    tracemalloc.start()
    try:
        order3_exclusion(s, cap=12, max_attempts=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
