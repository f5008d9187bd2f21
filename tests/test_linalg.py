import random
from fractions import Fraction

import pytest

from conftest import random_rational_matrix
from oracles import naive_det, naive_rank, rank_mod_p_reference, rref_reference
from psdbounds import linalg, psd
from psdbounds import (
    ExactMatrix,
    Subspace,
    det,
    generate_sn,
    image,
    inverse,
    kernel,
    projection_matrix,
    rank,
    row_space,
    sqrt_embed,
)


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

    return factor(rows, r) @ factor(r, cols) if r else ExactMatrix.zeros(rows, cols)


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


def test_rank_takes_the_exact_path_when_the_prime_divides_a_denominator(monkeypatch):
    # an entry 1/p has no residue mod the filter's prime p, so the filter
    # is skipped and the elimination decides, full rank or not
    sympy = pytest.importorskip("sympy")
    calls = count_elimination_calls(monkeypatch)
    p = linalg._MODULAR_PRIME
    assert p == 2147483647
    tiny = Fraction(1, p)
    for rows in (
        [[tiny, 1], [1, 1]],
        [[tiny, 1], [2 * tiny, 2]],
        # rank 1, but full if the entry 1/p were read as 0 mod p
        [[tiny, 1], [1, p]],
        [[tiny, Fraction(1, 3), 5], [0, Fraction(7, 2 * p), 1], [tiny, 0, 6]],
    ):
        m = ExactMatrix.from_rows(rows)
        expected = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        ).rank()
        del calls[:]
        assert rank(m) == expected
        assert len(calls) == 1
    # the other entries reduce as numerator times the inverse denominator:
    # a full rank with denominators coprime to p needs no elimination
    m = ExactMatrix.from_rows([[Fraction(1, p - 1), 1], [1, Fraction(3, p + 1)]])
    del calls[:]
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


def test_det_examples():
    assert det(ExactMatrix.identity(4)) == 1
    assert det(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(ExactMatrix.zeros(0, 0)) == 1
    with pytest.raises(ValueError):
        det(ExactMatrix.zeros(2, 3))


def test_det_matches_permutation_expansion():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = ExactMatrix(
            n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n * n)]
        )
        assert det(m) == naive_det(m)


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    singular = swapped = 0
    for trial in range(320):
        n = trial % 8  # sizes 0x0 to 7x7
        entries = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else 0
            for _ in range(n * n)
        ]
        if n > 1 and trial % 5 == 0:  # a repeated row
            entries[n : 2 * n] = entries[:n]
        m = ExactMatrix(n, n, entries)
        expected = sympy.Matrix(
            n, n, [sympy.Rational(v.numerator, v.denominator) for v in m.entries]
        ).det()
        value = det(m)
        assert isinstance(value, Fraction)
        assert value == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))
        singular += value == 0
        scaled = linalg._integer_rows(m)
        swapped += linalg._eliminate(scaled, n)[1] < 0
    assert singular >= 40 and swapped >= 40


def test_rref_matches_reference_and_sympy():
    sympy = pytest.importorskip("sympy")

    def exact(v):
        return Fraction(int(sympy.numer(v)), int(sympy.denom(v)))

    rng = random.Random(4242)
    kinds = dict.fromkeys(["zero", "repeated", "dependent", "negative pivot",
                           "inverse"], 0)
    for trial in range(400):
        m, n = trial % 8, trial // 8 % 8  # every shape from 0x0 to 7x7
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6
             else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if m > 1 and n:
            kind = trial % 5  # 3 and 4: rows as drawn
            i, j = rng.sample(range(m), 2)
            if kind == 0:
                rows[i] = [0] * n
                kinds["zero"] += 1
            elif kind == 1:
                rows[i] = list(rows[j])
                kinds["repeated"] += 1
            elif kind == 2:
                a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(-3, 7)
                k = next(k for k in range(m) if k not in (i, j)) if m > 2 else j
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
                kinds["dependent"] += 1
        reduced, pivots = psd._rref([list(r) for r in rows])
        assert (reduced, pivots) == rref_reference([[Fraction(v) for v in r] for r in rows])
        expected = sympy.Matrix(m, n, [sympy.Rational(str(v)) for r in rows for v in r])
        sym_rows, sym_pivots = expected.rref()
        assert pivots == list(sym_pivots)
        assert reduced == [
            [exact(v) for v in sym_rows.row(i)] for i in range(len(sym_pivots))
        ]
        assert all(isinstance(v, Fraction) for r in reduced for v in r)
        if pivots and next(r[pivots[0]] for r in rows if r[pivots[0]]) < 0:
            kinds["negative pivot"] += 1
        if m == n and len(pivots) == n:
            inv = inverse(ExactMatrix.from_rows(rows))
            assert list(inv.entries) == [exact(v) for v in expected.inv()]
            kinds["inverse"] += 1
    assert kinds.pop("inverse") >= 20 and min(kinds.values()) >= 40, kinds


def test_kernel_image_examples():
    assert kernel(ExactMatrix.identity(3)).dim == 0
    assert image(ExactMatrix.zeros(3, 3)).dim == 0
    k = kernel(ExactMatrix.from_rows([[1, 1]]))
    assert k.dim == 1
    assert k.contains_vector([1, -1])


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(80):
        m = random_rational_matrix(rng, max_rows=5, max_cols=5, zero_density=0.4)
        assert kernel(m).dim + rank(m) == m.cols
        assert image(m).dim == rank(m)


def test_subspace_contains_and_sum():
    full = Subspace.full(2)
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    assert full.contains(e1) and full.contains(e2) and full.contains(full)
    assert not e1.contains(e2)
    assert e1.sum(e2) == full
    assert e1.sum(Subspace.zero(2)) == e1
    with pytest.raises(ValueError):
        e1.contains(Subspace.zero(3))
    with pytest.raises(ValueError):
        e1.sum(Subspace.zero(3))


# bases of Q^2 that are not in RREF: before they were refused, the first
# held no (1, 0) and did not contain itself, and the second had dim 2
NOT_RREF = {
    "leading 2": ([[2, 0]], "leads with 2, not 1"),
    "repeated pivot": ([[1, 1], [1, 1]], "does not lead right of the row above"),
    "decreasing pivots": ([[0, 1], [1, 0]], "does not lead right of the row above"),
    "entry above a pivot": ([[1, 1], [0, 1]], "column 1 is nonzero above its pivot"),
    "zero row": ([[1, 0], [0, 0]], "row 1 is zero"),
}


@pytest.mark.parametrize("shape", NOT_RREF)
def test_subspace_refuses_a_basis_not_in_rref(shape):
    rows, message = NOT_RREF[shape]
    with pytest.raises(ValueError, match=message):
        Subspace(2, ExactMatrix.from_rows(rows))


def test_subspace_accepts_every_canonical_basis():
    rng = random.Random(17)
    for _ in range(80):
        q = rng.randint(1, 5)
        u = Subspace.from_vectors(
            q,
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q)]
             for _ in range(rng.randint(0, q + 1))],
        )
        assert Subspace(q, u.basis) == u
        for v in (Subspace.zero(q), Subspace.full(q)):
            assert Subspace(q, v.basis) == v


def test_mutual_containment_is_basis_identity():
    rng = random.Random(31)
    for _ in range(60):
        q = rng.randint(1, 4)
        vecs = [
            [Fraction(rng.randint(-3, 3)) for _ in range(q)]
            for _ in range(rng.randint(0, 3))
        ]
        a = Subspace.from_vectors(q, vecs)
        # same space from scaled + permuted + summed generators
        scrambled = [
            [v * 3 for v in row] for row in reversed(vecs)
        ]
        if len(vecs) >= 2:
            scrambled.append([x + y for x, y in zip(vecs[0], vecs[1])])
        b = Subspace.from_vectors(q, scrambled)
        assert a.contains(b) and b.contains(a)
        assert a == b and a.basis == b.basis


def test_projection_examples():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    assert projection_matrix(e1) == ExactMatrix.from_rows([[1, 0], [0, 0]])
    assert projection_matrix(Subspace.zero(3)) == ExactMatrix.zeros(3, 3)
    diag = Subspace.from_vectors(2, [[1, 1]])
    half = Fraction(1, 2)
    assert projection_matrix(diag) == ExactMatrix.from_rows([[half, half], [half, half]])


def test_projection_properties():
    rng = random.Random(8)
    for _ in range(40):
        q = rng.randint(1, 4)
        u = Subspace.from_vectors(
            q,
            [
                [Fraction(rng.randint(-3, 3)) for _ in range(q)]
                for _ in range(rng.randint(0, q))
            ],
        )
        p = projection_matrix(u)
        assert p == p.transpose()
        assert p @ p == p
        assert row_space(p) == u  # symmetric, so row space equals image


def test_projection_matches_the_gram_formula():
    # B^T (B B^T)^{-1} B with Fraction products and inverse, and I minus it
    # for the orthogonal complement
    rng = random.Random(44)
    for _ in range(120):
        q = rng.randint(1, 6)
        u = Subspace.from_vectors(
            q,
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(q)]
                for _ in range(rng.randint(0, q + 1))
            ],
        )
        b = u.basis
        if u.dim:
            want = b.transpose() @ inverse(b @ b.transpose()) @ b
        else:
            want = ExactMatrix.zeros(q, q)
        assert projection_matrix(u) == want
        assert projection_matrix(u, complement=True) == ExactMatrix.identity(q) - want


def test_matrix_basics():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m.transpose() == ExactMatrix.from_rows([[1, 3], [2, 4]])
    assert m.trace() == 5
    assert (m @ inverse(m)) == ExactMatrix.identity(2)
    assert m.submatrix([1], [0, 1]) == ExactMatrix.from_rows([[3, 4]])
    assert (m * 2)[1, 1] == 8
    assert (m - m) == ExactMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        m @ ExactMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        inverse(ExactMatrix.from_rows([[1, 1], [1, 1]]))
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
