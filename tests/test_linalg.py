import random
from fractions import Fraction

import pytest

from conftest import random_rational_matrix
from oracles import naive_det, naive_rank
from psdbounds import linalg
from psdbounds import (
    ExactMatrix,
    Subspace,
    det,
    generate_sn,
    image,
    inverse,
    kernel,
    multiquad_rank,
    projection_matrix,
    rank,
    row_space,
    sqrt_embed,
)


def test_rank_examples():
    assert rank(generate_sn(6)) == 3
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(2, 3)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(200):
        m = random_rational_matrix(rng, max_rows=5, max_cols=5, zero_density=0.4)
        assert rank(m) == naive_rank(m)


def count_bareiss_calls(monkeypatch) -> list[int]:
    calls = []
    bareiss = linalg._bareiss

    def counted(a, rows, cols):
        calls.append(1)
        return bareiss(a, rows, cols)

    monkeypatch.setattr(linalg, "_bareiss", counted)
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
    calls = count_bareiss_calls(monkeypatch)
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
                assert not calls  # full rank mod p: Bareiss skipped
                full_seen += 1
            else:
                assert len(calls) == 1
                deficient_seen += 1
    assert full_seen >= len(shapes) and deficient_seen > full_seen
    for cols in (0, 4):
        assert rank(ExactMatrix.zeros(0, cols)) == sympy.zeros(0, cols).rank() == 0
    assert rank(ExactMatrix.zeros(4, 0)) == 0

    # full rank over Q but singular mod the filter's prime: Bareiss decides
    p = linalg._MODULAR_PRIME
    m = ExactMatrix.from_rows([[1, 1], [1, 1 + p]])
    assert linalg.rank_mod_p(linalg._integer_rows(m), p) == 1
    del calls[:]
    assert rank(m) == 2 == sympy.Matrix([[1, 1], [1, 1 + p]]).rank()
    assert len(calls) == 1


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
        swapped += linalg._bareiss(scaled, n, n)[1] < 0
    assert singular >= 40 and swapped >= 40


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
