import heapq
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import isqrt

import pytest

from conftest import random_rational_matrix
from oracles import cheapest_blocks_reference, min_sqrt_rank_reference
from psdbounds import scalars
from psdbounds import (
    ExactMatrix,
    MultiQuadScalar,
    SignAssignment,
    SqrtRankResult,
    generate_sn,
    min_sqrt_rank,
    order3_exclusion,
    rank,
    slack_matrix_cut_clique,
    sqrt_embed,
    squarefree_decompose,
    support,
)
from psdbounds.scalars import (
    _cheapest_blocks, _is_prime, _pinned_sets, modular_images, multiquad_rank,
)


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (0, 1)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(9) == (3, 1)
    assert squarefree_decompose(6) == (1, 6)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(-4)


def test_sqrt_embed_examples():
    assert sqrt_embed(9) == MultiQuadScalar.from_rational(3)
    assert sqrt_embed(6) == MultiQuadScalar({6: Fraction(1)})
    assert sqrt_embed(12) == MultiQuadScalar({3: Fraction(2)})
    assert sqrt_embed(0) == MultiQuadScalar.zero()
    assert sqrt_embed(Fraction(9, 4)) == MultiQuadScalar.from_rational(Fraction(3, 2))
    with pytest.raises(ValueError):
        sqrt_embed(-1)


def test_sqrt_embed_squares_back():
    rng = random.Random(11)
    for _ in range(200):
        r = Fraction(rng.randint(0, 400), rng.randint(1, 40))
        root = sqrt_embed(r)
        assert root * root == MultiQuadScalar.from_rational(r)


def test_radical_products():
    r2, r3, r6 = sqrt_embed(2), sqrt_embed(3), sqrt_embed(6)
    assert r2 * r3 == r6
    assert r3 * r6 == 3 * r2
    assert r6 * r6 == MultiQuadScalar.from_rational(6)


def test_field_laws_on_random_triples():
    rng = random.Random(5)

    def rand_scalar():
        terms = {}
        for rad in (1, 2, 3, 6, 7):
            if rng.random() < 0.6:
                terms[rad] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiQuadScalar(terms)

    for _ in range(100):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_round_trips():
    rng = random.Random(23)
    one = MultiQuadScalar.from_rational(1)
    for _ in range(60):
        terms = {
            rad: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for rad in (1, 2, 5, 10)
            if rng.random() < 0.7
        }
        x = MultiQuadScalar(terms)
        if not x:
            continue
        assert x * x.inverse() == one
        assert x.inverse().inverse() == x
    with pytest.raises(ZeroDivisionError):
        MultiQuadScalar.zero().inverse()


def test_rational_interop_and_predicates():
    x = MultiQuadScalar.from_rational(Fraction(3, 2))
    assert x.is_rational and x == Fraction(3, 2) and hash(x) == hash(Fraction(3, 2))
    assert x + Fraction(1, 2) == MultiQuadScalar.from_rational(2)
    assert 2 + -x == MultiQuadScalar.from_rational(Fraction(1, 2))
    y = sqrt_embed(2)
    assert not y.is_rational and not (y + 1).is_rational


def test_conjugate():
    x = 1 + sqrt_embed(2)
    assert x.conjugated(2) == 1 + -sqrt_embed(2)
    # conj is multiplicative into the p-free subfield
    assert x * x.conjugated(2) == MultiQuadScalar.from_rational(-1)


def test_validation_and_repr():
    with pytest.raises(ValueError):
        MultiQuadScalar({4: Fraction(1)})  # not square-free
    with pytest.raises(ValueError):
        MultiQuadScalar({0: Fraction(1)})
    assert str(MultiQuadScalar.zero()) == "0"
    assert str(1 + 2 * sqrt_embed(3)) == "1 + 2*sqrt(3)"
    assert str(-sqrt_embed(2) + 1) == "1 - sqrt(2)"


def test_rank_multiquad():
    one, r2, r3, r6 = sqrt_embed(1), sqrt_embed(2), sqrt_embed(3), sqrt_embed(6)
    zero = r2 - r2
    # second row is sqrt(2) times the first: rank 1
    assert multiquad_rank([[one, r2], [r2, r2 * r2]]) == 1
    assert multiquad_rank([[r2, r3], [r3, r2]]) == 2
    assert multiquad_rank([[zero, zero]]) == 0
    assert multiquad_rank([[r2, r3], [r6, r3 * r3]]) == 1  # row2 = sqrt(3)*row1
    assert multiquad_rank([]) == 0
    # rational scalars: the rank over Q
    rng = random.Random(5)
    for _ in range(40):
        m = random_rational_matrix(rng, max_rows=4, max_cols=4, zero_density=0.4)
        rows = [[one * v for v in m.row(i)] for i in range(m.rows)]
        assert multiquad_rank(rows) == rank(m)


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


def test_min_sqrt_rank_s6_block():
    s = generate_sn(6)
    res = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3])
    assert res.min_rank == 4
    assert res.assignments_checked == 256
    full = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3], fix_global_sign=False)
    assert full.min_rank == 4
    assert full.assignments_checked == 512


def test_min_sqrt_rank_keeps_the_first_minimizing_signs():
    # 16 of the 128 sign choices reach rank 2; the witness is the first of
    # them in the order of a binary counter over the free signs
    s = ExactMatrix.from_rows([[1, 9, 4], [1, 1, 1], [1, 1, 0]])
    res = min_sqrt_rank(s, range(3), range(3))
    assert (res.min_rank, res.assignments_checked) == (2, 128)
    assert res.witness.positions == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)
    )
    assert res.witness.signs == (1, -1, -1, -1, 1, 1, 1, 1)
    full = min_sqrt_rank(s, range(3), range(3), fix_global_sign=False)
    assert (full.min_rank, full.assignments_checked) == (2, 256)
    assert full.witness.signs == (-1, 1, 1, -1, 1, 1, 1, 1)


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


def test_min_sqrt_rank_invariant_under_global_flip():
    s = generate_sn(6)
    res = min_sqrt_rank(s, [2, 3, 4, 5], [0, 1, 2, 3])

    def build(signs):
        rows, cols = [2, 3, 4, 5], [0, 1, 2, 3]
        entries = [[sqrt_embed(0)] * 4 for _ in range(4)]
        for (i, j), sign in zip(res.witness.positions, signs):
            entries[rows.index(i)][cols.index(j)] = sqrt_embed(s[i, j]) * sign
        return entries

    flipped = tuple(-x for x in res.witness.signs)
    assert multiquad_rank(build(res.witness.signs)) == multiquad_rank(build(flipped))


def test_min_sqrt_rank_validation():
    with pytest.raises(ValueError):
        min_sqrt_rank(ExactMatrix.from_rows([[-1, 0], [0, -1]]), [0], [0])
    allones = ExactMatrix.from_rows([[1] * 6] * 6)
    with pytest.raises(ValueError):
        min_sqrt_rank(allones, range(6), range(6), cap=10)


def test_min_sqrt_rank_rejects_out_of_range_indices():
    s = generate_sn(6)
    with pytest.raises(ValueError, match="row index 98"):
        min_sqrt_rank(s, [0, 1, 2, 98], [0, 1, 2, 3])
    with pytest.raises(ValueError, match="column index -1"):
        min_sqrt_rank(s, [0, 1], [-1, 0])


def test_min_sqrt_rank_rejects_repeated_indices():
    # a repeated index would count one entry's sign twice, and list the
    # entry twice in the witness
    s = ExactMatrix.from_rows([[9, 1, 1], [1, 0, 1], [1, 1, 9]])
    with pytest.raises(ValueError, match="row index 0 is repeated"):
        min_sqrt_rank(s, [0, 0, 1, 2], [0, 1, 2])
    with pytest.raises(ValueError, match="column index 2 is repeated"):
        min_sqrt_rank(s, [0, 1, 2], [2, 1, 2], fix_global_sign=False)


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
        if s.rows > 1 and rng.random() < 0.3:  # swap row 0 with another
            k = rng.randrange(1, s.rows)
            row_idx[0], row_idx[k] = k, 0
        if support(s.submatrix(row_idx, col_idx)).ones_count() > 8:
            continue
        for fix in (True, False):
            assert min_sqrt_rank(
                s, row_idx, col_idx, fix_global_sign=fix
            ) == brute_min_sqrt_rank(s, row_idx, col_idx, fix)
        checked += 1


def test_min_sqrt_rank_falls_back_when_the_modular_rank_drops(monkeypatch):
    # with only rational roots the filter works modulo its first prime p; the
    # 2x2 block has two flip orbits: all-plus, of determinant (p-1) - 1, full
    # rank mod p, and one flipped sign, of determinant -(p-1) - 1 = -p, which
    # vanishes mod p but not over Q, so it too needs the exact rank
    p, _ = modular_images([MultiQuadScalar.from_rational(1)])
    s = ExactMatrix.from_rows([[1, 1], [1, (p - 1) ** 2]])
    assert modular_images([sqrt_embed(v) for v in s.entries])[0] == p
    calls = count_exact_ranks(monkeypatch)
    for fix in (True, False):
        calls.clear()
        res = min_sqrt_rank(s, [0, 1], [0, 1], fix_global_sign=fix)
        assert res.min_rank == 2
        assert len(calls) == 2  # the first orbit, then the fallback
        assert res == brute_min_sqrt_rank(s, [0, 1], [0, 1], fix)


def test_min_sqrt_rank_without_a_usable_prime():
    # 20 radicand primes: no prime in the capped search has all 20 as squares
    radicands = [2 * 3 * 5 * 7 * 11, 13 * 17 * 19 * 23 * 29,
                 31 * 37 * 41 * 43 * 47, 53 * 59 * 61 * 67 * 71]
    s = ExactMatrix.from_rows([radicands[:2], radicands[2:]])
    assert modular_images([sqrt_embed(v) for v in radicands]) is None
    assert min_sqrt_rank(s, [0, 1], [0, 1]) == brute_min_sqrt_rank(s, [0, 1], [0, 1])


def flip_span_dim(sub: ExactMatrix) -> int:
    """r + c - k: the block's nonzero rows r and columns c, less the k
    connected components of its nonzero entries.  Each component's row
    flips and column flips together flip it twice, the one relation."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i in range(sub.rows):
        for j in range(sub.cols):
            if sub[i, j]:
                parent[find(("row", i))] = find(("col", j))
    return len(parent) - len({find(x) for x in parent})


def random_sqrt_block(rng) -> tuple[ExactMatrix, list[int], list[int]]:
    """A nonnegative matrix and the row and column indices of a block with
    at most 12 nonzero entries.  A block with z > 8 is kept with
    probability 2^(8 - z), since the reference ranks all 2^z codes."""
    def entry():
        # perfect squares, fractions and square-free radicands
        return Fraction(rng.randint(1, 6), rng.randint(1, 3)) ** rng.choice((1, 2))

    while True:
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        density = min(1.0, 7 / (n_rows * n_cols))
        kind = rng.random()
        if kind < 0.6:
            n_rows, n_cols = rng.randint(3, 4), rng.randint(3, 4)
            rows = square_of_rank_two(rng, n_rows, n_cols)
        elif kind < 0.8:
            rows = [
                [entry() if rng.random() < density else 0 for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
        else:  # two diagonal blocks, so the support is disconnected
            a, b = rng.randint(0, n_rows), rng.randint(0, n_cols)
            rows = [
                [
                    entry() if (i < a) == (j < b) and rng.random() < 2 * density else 0
                    for j in range(n_cols)
                ]
                for i in range(n_rows)
            ]
        s = ExactMatrix.from_rows(rows)
        row_idx, col_idx = list(range(n_rows)), list(range(n_cols))
        for idx in (row_idx, col_idx):  # sometimes swap two indices
            if len(idx) > 1 and rng.random() < 0.2:
                i, j = rng.randrange(len(idx)), rng.randrange(len(idx))
                idx[i], idx[j] = idx[j], idx[i]
        z = support(s.submatrix(row_idx, col_idx)).ones_count()
        if z <= 12 and rng.random() < 2.0 ** (8 - z):
            return s, row_idx, col_idx


def test_min_sqrt_rank_matches_the_reference_enumeration():
    rng = random.Random(1203)
    seen = Counter()
    shapes = set()
    for _ in range(1000):
        s, rows, cols = random_sqrt_block(rng)
        sub = s.submatrix(rows, cols)
        shapes.add((sub.rows, sub.cols))
        nonzero = [v for v in sub.entries if v]
        lines = sum(map(any, (sub.row(i) for i in range(sub.rows)))) + sum(
            map(any, (sub.column(j) for j in range(sub.cols)))
        )
        seen["zero line"] += lines < sub.rows + sub.cols
        seen["disconnected"] += flip_span_dim(sub) < lines - 1
        seen["permuted index"] += rows != sorted(rows) or cols != sorted(cols)
        seen["square"] += any(sqrt_embed(v).is_rational for v in nonzero)
        seen["fraction"] += any(v.denominator > 1 for v in nonzero)
        for fix in (True, False):
            got = min_sqrt_rank(s, rows, cols, fix_global_sign=fix)
            want = min_sqrt_rank_reference(s, rows, cols, fix_global_sign=fix)
            assert (
                got.min_rank, got.witness.positions, got.witness.signs,
                got.assignments_checked,
            ) == (
                want.min_rank, want.witness.positions, want.witness.signs,
                want.assignments_checked,
            ), (s, rows, cols, fix)
            seen["not all-plus"] += -1 in got.witness.signs
    assert shapes == {(r, c) for r in range(1, 6) for c in range(1, 6)}
    assert min(seen.values()) >= 50 and seen["not all-plus"] >= 100, seen


def test_min_sqrt_rank_ranks_one_choice_per_flip_orbit(monkeypatch):
    # each representative is ranked once mod p, or exactly when no prime is
    # usable; there are 2^(z - (r + c - k)) of them whether the first sign
    # is fixed or not, and none in a block without a nonzero entry
    modular_calls = []
    rank_mod_p = scalars.rank_mod_p

    def counted(grid, p):
        modular_calls.append(1)
        return rank_mod_p(grid, p)

    monkeypatch.setattr(scalars, "rank_mod_p", counted)
    exact_calls = count_exact_ranks(monkeypatch)
    rng = random.Random(3961)
    radicands = [2 * 3 * 5 * 7 * 11, 13 * 17 * 19 * 23 * 29,
                 31 * 37 * 41 * 43 * 47, 53 * 59 * 61 * 67 * 71]
    cases = [random_sqrt_block(rng) for _ in range(200)] + [
        (ExactMatrix.from_rows([radicands[:2], radicands[2:]]), [0, 1], [0, 1])
    ]
    for s, rows, cols in cases:
        sub = s.submatrix(rows, cols)
        z = support(sub).ones_count()
        for fix in (True, False):
            modular_calls.clear()
            exact_calls.clear()
            min_sqrt_rank(s, rows, cols, fix_global_sign=fix)
            ranked = len(modular_calls) or len(exact_calls)
            assert ranked == (2 ** (z - flip_span_dim(sub)) if z else 0), (s, rows, cols, fix)
    assert len(exact_calls) == 2  # the block without a usable prime


def test_min_sqrt_rank_at_the_sign_cap(monkeypatch):
    # a 5x5 block with one zero has z = 24 = DEFAULT_SIGN_CAP; its 2^23
    # codes fall into 2^15 orbits of 2^9 (5 + 5 - 1 flips, less the global
    # one).  Y = U V^T has rank 2 and one zero, so the minimum is 2.
    u = [(1, 0), (0, 1), (1, 1), (1, 2), (2, -1)]
    v = [(0, 1), (1, 1), (1, -2), (2, 1), (3, 1)]
    y = [[a * c + b * d for c, d in v] for a, b in u]
    s = ExactMatrix.from_rows([[x * x for x in row] for row in y])
    assert support(s).ones_count() == scalars.DEFAULT_SIGN_CAP == 24
    modular_calls = []
    rank_mod_p = scalars.rank_mod_p
    monkeypatch.setattr(
        scalars, "rank_mod_p", lambda grid, p: modular_calls.append(1) or rank_mod_p(grid, p)
    )
    res = min_sqrt_rank(s, range(5), range(5))
    assert (res.min_rank, res.assignments_checked) == (2, 2**23)
    assert len(modular_calls) <= 2**15
    cells = [(i, j) for i in range(5) for j in range(5) if y[i][j]]
    assert res.witness.positions == tuple(cells)
    sign = dict(zip(cells, res.witness.signs))
    root = [
        [sqrt_embed(x * x) * sign[i, j] if x else sqrt_embed(0) for j, x in enumerate(row)]
        for i, row in enumerate(y)
    ]
    assert multiquad_rank(root) == 2

    # the witness is the smallest code of its orbit: no row and column
    # flips, followed by the global flip when they change the first sign,
    # give a smaller code
    def code(signs):
        return sum(1 << t for t, x in enumerate(signs) if x < 0)

    for flips in range(1 << 10):
        flipped = [
            sign[i, j] * (-1) ** (((flips >> i) ^ (flips >> (5 + j))) & 1)
            for i, j in cells
        ]
        if flipped[0] < 0:
            flipped = [-x for x in flipped]
        assert code(flipped) >= code(res.witness.signs)


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


def test_is_prime_matches_trial_division_on_its_inputs():
    # modular_images tests only n = 3 (mod 4), and such an n is odd
    def by_trial(n):
        return n > 1 and all(n % q for q in range(3, isqrt(n) + 1, 2))

    for n in range(3, 200_000, 4):
        assert _is_prime(n) == by_trial(n), n


def test_modular_images_keeps_the_prime_of_the_s6_block():
    # the block of sqrt_s6.json: radicands 3 and 6, so the first prime
    # p = 3 (mod 4) below 2^31 - 1 with 2 and 3 squares mod p, 26 steps down
    sub = generate_sn(6).submatrix([2, 3, 4, 5], [0, 1, 2, 3])
    roots = [sqrt_embed(v) for v in sub.entries if v]
    assert modular_images(roots)[0] == 2147483543 == 2**31 - 1 - 4 * 26


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
        order3_exclusion(ExactMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))


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

    monkeypatch.setattr(scalars, "min_sqrt_rank", spy)
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
    monkeypatch.setattr(scalars, "_SCAN_LIMIT", 1000)
    monkeypatch.setattr(
        scalars, "min_sqrt_rank",
        lambda s, rows, cols, **kw: tried.append((rows, cols)) or SqrtRankResult(3, None, 0),
    )
    cert = order3_exclusion(s, max_attempts=0)
    pinned_rows, pinned_cols = cert.pinned_rows, cert.pinned_cols
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


def test_order3_scan_matches_the_list_table_scan():
    # the packed scan sums four rows' byte-packed counts per row set; it
    # must keep the same blocks in the same order as the scan that sums
    # four count lists, over several chunks and a cut at the scan limit
    matrices = [generate_sn(n) for n in (6, 12, 16, 24)] + [slack_matrix_cut_clique(5)]
    for s in matrices:
        row_bits = s.support_bits()
        pinned = _pinned_sets(row_bits, s.transpose().support_bits())
        for cap, keep in ((24, 64), (12, 8)):
            args = (row_bits, *pinned, cap, keep)
            assert _cheapest_blocks(*args) == cheapest_blocks_reference(*args)
    # 14 x 16 ones, but for a zero block on the last column set in the row
    # set that the scan limit cuts: that block lies past the limit
    row_sets, col_sets = list(combinations(range(14), 4)), list(combinations(range(16), 4))
    cut = scalars._SCAN_LIMIT // len(col_sets)
    row_bits = [(1 << 16) - 1 - (0xF << 12) * (k in row_sets[cut]) for k in range(14)]
    args = (row_bits, list(range(14)), list(range(16)), 24, 1)
    assert _cheapest_blocks(*args) == cheapest_blocks_reference(*args)
    assert _cheapest_blocks(*args)[0][0] > 0
    rng = random.Random(3001)
    for _ in range(400):
        rows, cols = rng.randint(4, 14), rng.randint(4, 16)
        # a density per row, so that the z values spread
        row_bits = [
            sum(1 << j for j in range(cols) if rng.random() < density)
            for density in [rng.random() for _ in range(rows)]
        ]
        pinned_rows = sorted(rng.sample(range(rows), rng.randint(4, rows)))
        pinned_cols = sorted(rng.sample(range(cols), rng.randint(4, cols)))
        args = (
            row_bits, pinned_rows, pinned_cols,
            rng.choice((0, 4, 8, 10, 12, 16, 24)), rng.choice((1, 3, 8, 64)),
        )
        assert _cheapest_blocks(*args) == cheapest_blocks_reference(*args)


def test_order3_scan_reads_full_blocks():
    # every 4x4 block of a 5x6 ones matrix has the largest cost, z = 16
    args = ([(1 << 6) - 1] * 5, list(range(5)), list(range(6)), 16, 8)
    blocks = _cheapest_blocks(*args)
    assert blocks == cheapest_blocks_reference(*args)
    assert [z for z, _, _ in blocks] == [16] * 8
    assert blocks[-1][1:] == ((0, 1, 2, 3), (0, 2, 3, 5))
    assert _cheapest_blocks(*args[:3], 15, 8) == []


def test_order3_scan_memory_stays_bounded():
    s = slack_matrix_cut_clique(7)
    tracemalloc.start()
    try:
        order3_exclusion(s, cap=12, max_attempts=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
