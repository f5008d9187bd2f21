import random
from fractions import Fraction

import pytest

from conftest import random_rational_matrix
from oracles import naive_product, naive_rank, rank_mod_p_reference
from psdbounds import linalg
from psdbounds import ExactMatrix, generate_sn, rank, sqrt_embed


def test_support_bits_sets_a_bit_per_nonzero_entry():
    m = ExactMatrix.from_rows([[0, Fraction(1, 3), 0], [-2, 0, 5], [0, 0, 0]])
    assert m.support_bits() == [0b010, 0b101, 0]
    assert ExactMatrix.zeros(2, 0).support_bits() == [0, 0]
    rng = random.Random(5)
    for _ in range(50):
        m = random_rational_matrix(rng)
        assert m.support_bits() == [
            sum(1 << j for j in range(m.cols) if m[i, j] != 0) for i in range(m.rows)
        ]
        assert m.transpose().support_bits() == [
            sum(1 << i for i in range(m.rows) if m[i, j] != 0) for j in range(m.cols)
        ]


def test_rank_examples():
    assert rank(generate_sn(6)) == 3
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(2, 3)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(200):
        m = random_rational_matrix(rng, max_rows=5, max_cols=5, zero_density=0.4)
        assert rank(m) == naive_rank(m)


def count_elimination_calls(monkeypatch) -> list[int]:
    calls = []
    eliminate = linalg._eliminate

    def counted(a, cols):
        calls.append(1)
        return eliminate(a, cols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return calls


def random_rank_r(rng, rows, cols, r) -> ExactMatrix:
    # a product of rows x r and r x cols rational factors with mixed
    # denominators, negative entries and large numerators: rank <= r
    def factor(m, n):
        return ExactMatrix(m, n, [
            Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
            for _ in range(m * n)
        ])

    if not r:
        return ExactMatrix.zeros(rows, cols)
    return naive_product(factor(rows, r), factor(r, cols))


def test_rank_modular_shortcut_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    calls = count_elimination_calls(monkeypatch)
    rng = random.Random(2024)
    shapes = [(n, n) for n in (1, 2, 5, 9)] + [(3, 8), (2, 11), (8, 3), (11, 2)]
    full_seen = deficient_seen = 0
    for rows, cols in shapes:
        for r in range(min(rows, cols) + 1):
            m = random_rank_r(rng, rows, cols, r)
            expected = sympy.Matrix(rows, cols, [sympy.Rational(v.numerator, v.denominator)
                                                 for v in m.entries]).rank()
            del calls[:]
            assert rank(m) == expected
            if expected == min(rows, cols):
                assert not calls  # full rank mod p: elimination skipped
                full_seen += 1
            else:
                assert len(calls) == 1
                deficient_seen += 1
    assert full_seen >= len(shapes) and deficient_seen > full_seen
    for cols in (0, 4):
        assert rank(ExactMatrix.zeros(0, cols)) == sympy.zeros(0, cols).rank() == 0
    assert rank(ExactMatrix.zeros(4, 0)) == 0

    # a dense 100x100 of positive p/q, p <= 99, q <= 9, full rank mod p: no elimination
    dense = ExactMatrix(100, 100, [
        Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(100 * 100)
    ])
    del calls[:]
    assert rank(dense) == 100
    assert not calls

    # full rank over Q but singular mod the filter's prime: the elimination decides
    p = linalg._MODULAR_PRIME
    m = ExactMatrix.from_rows([[1, 1], [1, 1 + p]])
    assert linalg.rank_mod_p(linalg._integer_rows(m), p) == 1
    del calls[:]
    assert rank(m) == 2 == sympy.Matrix([[1, 1], [1, 1 + p]]).rank()
    assert len(calls) == 1


def test_rank_is_exact_when_the_prime_divides_a_denominator(monkeypatch):
    # an entry 1/p has no residue mod the filter's prime p, but the filter
    # reads the rows scaled to integers, whose rank mod p never exceeds the
    # rank over Q: a full rank mod p is still a proof
    sympy = pytest.importorskip("sympy")
    p = linalg._MODULAR_PRIME
    assert p == 2147483647
    tiny = Fraction(1, p)

    def sympy_rank(m):
        return sympy.Matrix(m.rows, m.cols, [
            sympy.Rational(v.numerator, v.denominator) for v in m.entries
        ]).rank()

    for rows in (
        [[tiny, 1], [1, 1]],
        [[tiny, 1], [2 * tiny, 2]],
        # rank 1, but full if the entry 1/p were read as 0 mod p
        [[tiny, 1], [1, p]],
        [[tiny, Fraction(1, 3), 5], [0, Fraction(7, 2 * p), 1], [tiny, 0, 6]],
    ):
        m = ExactMatrix.from_rows(rows)
        assert rank(m) == sympy_rank(m)
    # seeded products of factors whose denominators are 1, 2, 3 or p: the
    # filter's rank never exceeds the true one, and falls below it often
    rng = random.Random(2147)

    def factor(a, b):
        return ExactMatrix(a, b, [
            Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, p))) for _ in range(a * b)
        ])

    below = at = 0
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, min(rows, cols))
        m = naive_product(factor(rows, r), factor(r, cols))
        expected = sympy_rank(m)
        filtered = linalg.rank_mod_p(linalg._integer_rows(m), p)
        assert filtered <= expected == rank(m)
        below += filtered < expected
        at += filtered == expected
    assert below >= 15 and at >= 15, (below, at)
    # denominators coprime to p: a full rank mod p needs no elimination
    calls = count_elimination_calls(monkeypatch)
    m = ExactMatrix.from_rows([[Fraction(1, p - 1), 1], [1, Fraction(3, p + 1)]])
    assert rank(m) == 2 and not calls


# the primes of the rank mod p tests: 2, 3, the largest prime below 2^15,
# 10^6 + 3 and rank's filter prime 2^31 - 1
PRIMES = [2, 3, 32749, 1000003, (1 << 31) - 1]


@pytest.mark.parametrize("p", PRIMES)
def test_rank_mod_p_matches_the_row_list_reference(p):
    rng = random.Random(p)
    draws = [  # small; unreduced, either sign; past 2^40, either sign
        lambda: rng.randint(-3, 3),
        lambda: rng.randint(-3 * p, 3 * p),
        lambda: rng.choice((-1, 1)) * rng.randint(1 << 40, 1 << 64),
    ]
    kinds = dict.fromkeys(["zero row", "zero column", "deficient", "full"], 0)
    for trial in range(2 * 13 * 13):
        m, n = trial % 13, trial // 13 % 13  # every shape from 0x0 to 12x12
        draw = draws[trial % 3]
        rows = [[draw() for _ in range(n)] for _ in range(m)]
        if m and n:
            kind = trial % 4  # 3: rows as drawn
            if kind == 0:
                rows[rng.randrange(m)] = [0] * n
                kinds["zero row"] += 1
            elif kind == 1:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
                kinds["zero column"] += 1
            elif kind == 2:  # a product of rank at most k < min(m, n)
                k = rng.randrange(min(m, n))
                a = [[draw() for _ in range(k)] for _ in range(m)]
                b = [[draw() for _ in range(n)] for _ in range(k)]
                rows = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
        expected = rank_mod_p_reference(rows, p)
        assert linalg.rank_mod_p(rows, p) == expected, (rows, p)
        kinds["full" if expected == min(m, n) else "deficient"] += 1
    assert min(kinds.values()) >= 40, kinds


@pytest.mark.parametrize("p", PRIMES)
def test_rank_mod_p_slots_never_carry(p):
    # entries -1 and -2 mod p, unreduced: pivot rows reduce to values all
    # over F_p, and each row takes an addition per pivot above it
    rng = random.Random(31)
    for rows_n, cols in ((300, 6), (6, 300), (60, 60)):
        for _ in range(3):
            rows = [[p - rng.choice((1, 2)) for _ in range(cols)] for _ in range(rows_n)]
            assert linalg.rank_mod_p(rows, p) == rank_mod_p_reference(rows, p)


def test_matrix_basics():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m.transpose() == ExactMatrix.from_rows([[1, 3], [2, 4]])
    assert m.submatrix([1], [0, 1]) == ExactMatrix.from_rows([[3, 4]])
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(IndexError):
        m[2, 0]


def test_multiquad_entries_are_rejected():
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[1, sqrt_embed(2)]])
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, [sqrt_embed(4)])  # a rational value, as a MultiQuadScalar
    assert ExactMatrix.from_rows([[1, Fraction(1, 2)]]).entries == (1, Fraction(1, 2))
