import random
from fractions import Fraction

import pytest

from psdbounds import MultiQuadScalar, sqrt_embed, squarefree_decompose


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
        assert (one / x) * x == one
    with pytest.raises(ZeroDivisionError):
        MultiQuadScalar.zero().inverse()


def test_rational_interop_and_predicates():
    x = MultiQuadScalar.from_rational(Fraction(3, 2))
    assert x.is_rational and x.terms == {1: Fraction(3, 2)}
    assert x + Fraction(1, 2) == MultiQuadScalar.from_rational(2)
    assert 2 - x == MultiQuadScalar.from_rational(Fraction(1, 2))
    y = sqrt_embed(2)
    assert not y.is_rational
    assert y.generators == (2,)
    assert (y + 1).generators == (2,)
    assert MultiQuadScalar.zero().generators == ()


def test_pow_and_conjugate():
    x = 1 + sqrt_embed(2)
    assert x ** 2 == 3 + 2 * sqrt_embed(2)
    assert x ** 0 == MultiQuadScalar.from_rational(1)
    assert x ** -1 == x.inverse()
    assert x.conjugated(2) == 1 - sqrt_embed(2)
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
    assert abs(float(sqrt_embed(2)) - 2 ** 0.5) < 1e-12
