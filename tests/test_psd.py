import json
import random
from fractions import Fraction

import pytest

from conftest import random_rational_matrix
from oracles import (
    is_psd_by_principal_minors,
    naive_product,
    psd_certificate_reference,
    rref_reference,
)
from psdbounds import formats, psd
from psdbounds import (
    ExactMatrix,
    MultiQuadScalar,
    PsdFactorization,
    Subspace,
    SubspaceEmbedding,
    SupportPattern,
    embedding_from_psd,
    embedding_from_rank_factorization,
    generate_sn,
    image,
    kernel,
    projection_matrix,
    psd_certificate,
    psd_from_embedding,
    rank,
    realize_support,
    support,
    triangular_rank,
    verify_embedding,
    verify_psd_factorization,
)
from psdbounds.cli import run


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


def test_verify_embedding_scales_each_basis_once(monkeypatch):
    # one integer scaling per subspace, not one per (k, l) pair, and still
    # a containment test at every pair: each flipped entry is caught
    s = generate_sn(6)
    emb = embedding_from_rank_factorization(s)
    pattern = support(s)
    rows = [[pattern[k, l] for l in range(pattern.cols)] for k in range(pattern.rows)]
    calls = []
    scale = psd._integer_rows
    monkeypatch.setattr(psd, "_integer_rows", lambda m: calls.append(m) or scale(m))
    assert verify_embedding(emb, pattern)
    assert len(calls) == emb.m + emb.n
    for k in range(pattern.rows):
        for l in range(pattern.cols):
            flipped = [row[:] for row in rows]
            flipped[k][l] ^= 1
            assert not verify_embedding(emb, SupportPattern.from_rows(flipped))


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
        assert naive_product(a, a) == a and a == a.transpose()
    for b in f.B:
        assert naive_product(b, b) == b and b == b.transpose()


def test_embedding_from_psd_roundtrip():
    f, t = psd_from_embedding(crossed_lines_embedding())
    emb = embedding_from_psd(f)
    assert verify_embedding(emb, SupportPattern.identity(2))


def test_embedding_from_psd_order_one():
    one = ExactMatrix.from_rows([[1]])
    f = PsdFactorization(1, (one, one), (one, one))
    emb = embedding_from_psd(f)
    assert all(u.dim == 1 for u in emb.U)
    assert all(v.dim == 0 for v in emb.V)
    assert verify_embedding(emb, SupportPattern.ones(2, 2))


def test_embedding_from_psd_rejects_non_psd():
    neg = ExactMatrix.from_rows([[-1]])
    f = PsdFactorization(1, (neg,), (neg,))
    # realize_support runs the same check and raises the same text
    for reject in (embedding_from_psd, realize_support):
        with pytest.raises(ValueError) as info:
            reject(f)
        assert str(info.value) == (
            "factors are not positive semidefinite: "
            "non-psd A factors [1]; non-psd B factors [1]"
        )


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


def s6_factorization() -> tuple[PsdFactorization, ExactMatrix]:
    return psd_from_embedding(embedding_from_rank_factorization(generate_sn(6)))


def test_psd_certificate_basics():
    assert psd_certificate(ExactMatrix.identity(3)).is_psd
    assert psd_certificate(ExactMatrix.zeros(2, 2)).is_psd
    assert not psd_certificate(ExactMatrix.from_rows([[-1, 0], [0, -1]])).is_psd
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
        # g + g^T: random symmetric, psd or not
        m = ExactMatrix(n, n, [x + y for x, y in zip(g.entries, g.transpose().entries)])
        assert psd_certificate(m).is_psd == is_psd_by_principal_minors(m)
        gram = naive_product(g, g.transpose())  # always psd
        assert psd_certificate(gram).is_psd

    # the elimination's zero-diagonal exit: [[0, c], [c, 0]] beside a psd
    # block, rows and columns shuffled, and g + g^T with chosen diagonal
    # entries set to 0
    def value():
        return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))

    cases = []
    for _ in range(30):
        k = rng.randint(0, 3)
        h = ExactMatrix(k, k, [value() for _ in range(k * k)])
        gram = naive_product(h, h.transpose())
        n = k + 2
        e = [[gram[i, j] if i < k and j < k else Fraction(0) for j in range(n)]
             for i in range(n)]
        e[k][k + 1] = e[k + 1][k] = value()
        perm = rng.sample(range(n), n)
        cases.append(ExactMatrix.from_rows([[e[i][j] for j in perm] for i in perm]))

        n = rng.randint(2, 4)
        g = ExactMatrix(n, n, [value() for _ in range(n * n)])
        e = [x + y for x, y in zip(g.entries, g.transpose().entries)]
        for i in rng.sample(range(n), rng.randint(1, n)):
            e[i * n + i] = Fraction(0)
        cases.append(ExactMatrix(n, n, e))
    zero_exits = 0
    for m in cases:
        cert = psd_certificate(m)
        assert cert.is_psd == is_psd_by_principal_minors(m), m
        zero_exits += cert.reason.startswith("zero diagonal")
    assert zero_exits >= 30


def ldl_corpus(rng) -> list[tuple[str, ExactMatrix]]:
    """Seeded symmetric rational matrices up to 8x8 that reach every exit of
    the LDL^T test, plus non-symmetric inputs and the 0x0 matrix."""

    def value(lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7, 12, 1009)))

    def gram(n, r):
        v = ExactMatrix(n, r, [value() for _ in range(n * r)])
        return naive_product(v, v.transpose())

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

    negated = ExactMatrix(f.order, f.order, [-v for v in f.A[0].entries])
    flipped = PsdFactorization(f.order, (negated,) + f.A[1:], f.B)
    bad = verify_psd_factorization(flipped, t)
    assert not bad.psd_ok and not bad.passed

    wrong = verify_psd_factorization(f, ExactMatrix(6, 6, [t[0, 0] + 1, *t.entries[1:]]))
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


def extreme_factorization(rng, order, m, n, at_max) -> PsdFactorization:
    """Symmetric factors, each over a denominator of its own, with
    numerators up to about 2^200 and of both signs; with ``at_max`` every
    entry of a factor is +-(its numerator) over that denominator."""

    def factor(den):
        if at_max:
            top = rng.randint(1, 1 << 200)
            draw = lambda: rng.choice((-top, top))  # noqa: E731
        else:
            draw = lambda: rng.randint(-(1 << 200), 1 << 200)  # noqa: E731
        upper = {(i, j): Fraction(draw(), den) for i in range(order) for j in range(i, order)}
        return ExactMatrix(order, order, [
            upper[min(i, j), max(i, j)] for i in range(order) for j in range(order)
        ])

    dens = iter(rng.sample(range(1, 10**6), m + n))
    return PsdFactorization(order, tuple(factor(next(dens)) for _ in range(m)),
                            tuple(factor(next(dens)) for _ in range(n)))


def test_product_matrix_matches_fraction_sum(tmp_path, capsys):
    rng = random.Random(77)
    shapes = [(0, 2, 3), (3, 0, 2), (3, 2, 0), (1, 3, 2), (2, 4, 4), (4, 3, 5), (5, 2, 2)]
    factorizations = [
        PsdFactorization(
            order,
            tuple(random_symmetric(rng, order) for _ in range(m)),
            tuple(random_symmetric(rng, order) for _ in range(n)),
        )
        for order, m, n in shapes * 4
    ] + [
        extreme_factorization(rng, order, m, n, at_max)
        for order, m, n in shapes * 3 for at_max in (False, True)
    ]
    for f in factorizations:
        t = f.product_matrix()
        assert (t.rows, t.cols) == (f.m, f.n)
        assert [list(t.row(i)) for i in range(t.rows)] == fraction_sum_product(f)
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


def test_packed_dots_match_plain_sums():
    rng = random.Random(91)

    def plain(xs, ys):
        return [[sum(a * b for a, b in zip(x, y)) for y in ys] for x in xs]

    cases = [([], [[1, 2]]), ([[1, 2]], []), ([], []), ([[], []], [[], [], []])]
    for _ in range(40):
        m, n, length = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 7)
        bits = rng.choice((1, 8, 64, 200))
        draw = lambda: rng.randint(-(1 << bits), 1 << bits)  # noqa: E731
        cases.append(([[draw() for _ in range(length)] for _ in range(m)],
                      [[draw() for _ in range(length)] for _ in range(n)]))
        # every entry at +-max: the all-equal-sign pairs reach the slot's
        # bound len * max|x| * max|y| in both signs
        cx, cy = rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)
        cases.append(([[rng.choice((-cx, cx)) for _ in range(length)] for _ in range(m)]
                      + [[cx] * length, [-cx] * length],
                      [[rng.choice((-cy, cy)) for _ in range(length)] for _ in range(n)]
                      + [[cy] * length]))
    for xs, ys in cases:
        assert psd._packed_dots(xs, ys) == plain(xs, ys), (xs, ys)


def realized_reference(f: PsdFactorization, seed: int, max_tries: int = 5):
    """realize_support's T by Fraction sums: its draws, in its order, and
    T(k, l) = <A_k xi_k, B_l eta_l>."""
    q, rng = f.order, random.Random(seed)
    amplitude = max(17, f.m * f.n)
    pattern = [[v != 0 for v in row] for row in fraction_sum_product(f)]

    def times_random_vector(mat):
        v = [rng.randint(-amplitude, amplitude) for _ in range(q)]
        return [sum((mat[i, j] * v[j] for j in range(q)), Fraction(0)) for i in range(q)]

    for _ in range(max_tries):
        xs = [times_random_vector(a) for a in f.A]
        ys = [times_random_vector(b) for b in f.B]
        t = [[sum((a * b for a, b in zip(x, y)), Fraction(0)) for y in ys] for x in xs]
        if [[v != 0 for v in row] for row in t] == pattern:
            return t
    raise psd.RealizationError("no support-realizing sample")


def test_realize_support_matches_fraction_sums():
    # psd factors: Gram matrices g g^T of numerators up to about 2^100 of
    # both signs, each over a denominator of its own, and c v v^T with v in
    # {-1, 1}^q, every entry at +-c
    rng = random.Random(8)

    def gram(q, den):
        r = rng.randint(0, q)
        g = ExactMatrix(r, q, [Fraction(rng.randint(-(1 << 100), 1 << 100), den)
                               for _ in range(r * q)])
        return naive_product(g.transpose(), g)

    def signs(q, den):
        v = [rng.choice((-1, 1)) for _ in range(q)]
        c = Fraction(rng.randint(1, 1 << 200), den)
        return ExactMatrix(q, q, [c * a * b for a in v for b in v])

    for order, m, n in [(0, 2, 3), (2, 0, 3), (3, 2, 0), (1, 3, 2), (3, 4, 3), (4, 3, 5)] * 2:
        for build in (gram, signs):
            dens = iter(rng.sample(range(1, 10**6), m + n))
            f = PsdFactorization(order, tuple(build(order, next(dens)) for _ in range(m)),
                                 tuple(build(order, next(dens)) for _ in range(n)))
            seed = rng.randrange(1000)
            t = realize_support(f, seed=seed)
            assert [list(t.row(i)) for i in range(t.rows)] == realized_reference(f, seed)


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
    a1 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    a2 = ExactMatrix.from_rows([[0, 0], [0, 1]])
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


def test_rref_matches_reference_and_sympy():
    # the basis of Subspace.from_vectors is the RREF of the vectors
    sympy = pytest.importorskip("sympy")

    def exact(v):
        return Fraction(int(sympy.numer(v)), int(sympy.denom(v)))

    rng = random.Random(4242)
    kinds = dict.fromkeys(["zero", "repeated", "dependent", "negative pivot"], 0)
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
        basis = Subspace.from_vectors(n, rows).basis
        reduced = [list(basis.row(i)) for i in range(basis.rows)]
        pivots = [next(j for j, v in enumerate(r) if v) for r in reduced]
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
    assert min(kinds.values()) >= 40, kinds


def test_kernel_image_examples():
    assert kernel(ExactMatrix.identity(3)).dim == 0
    assert image(ExactMatrix.zeros(3, 3)).dim == 0
    k = kernel(ExactMatrix.from_rows([[1, 1]]))
    assert k.dim == 1
    assert k.contains(Subspace.from_vectors(2, [[1, -1]]))


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(80):
        m = random_rational_matrix(rng, max_rows=5, max_cols=5, zero_density=0.4)
        assert kernel(m).dim + rank(m) == m.cols
        assert image(m).dim == rank(m)


def test_subspace_contains():
    full = Subspace.from_vectors(2, [[1, 0], [0, 1]])
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    assert full.contains(e1) and full.contains(e2) and full.contains(full)
    assert not e1.contains(e2)
    assert e1.contains(Subspace.from_vectors(2, []))
    with pytest.raises(ValueError):
        e1.contains(Subspace.from_vectors(3, []))


def test_containment_matches_the_rank_of_the_stacked_bases():
    # U <= V exactly when U's basis rows add nothing to V's rank, in
    # sympy's exact rationals; U comes from combinations of V's generators
    # (contained) or at random (mostly not)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)

    def vector(q):
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q)]

    outcomes = {True: 0, False: 0}
    for case in range(200):
        q = rng.randint(1, 5)
        gens = [vector(q) for _ in range(rng.randint(0, q))]
        v = Subspace.from_vectors(q, gens)
        if case % 2:
            vecs = [vector(q) for _ in range(rng.randint(1, q))]
        else:
            coeffs = [vector(len(gens)) for _ in range(rng.randint(0, q))]
            vecs = [[sum((c * g[j] for c, g in zip(cs, gens)), Fraction(0)) for j in range(q)]
                    for cs in coeffs]
        u = Subspace.from_vectors(q, vecs)
        stacked = sympy.Matrix(v.dim + u.dim, q, [
            sympy.Rational(x.numerator, x.denominator)
            for x in v.basis.entries + u.basis.entries
        ])
        contained = stacked.rank() == v.dim
        assert v.contains(u) == contained, (v, u)
        outcomes[contained] += 1
    assert min(outcomes.values()) >= 40, outcomes


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
        for basis in (ExactMatrix.zeros(0, q), ExactMatrix.identity(q)):
            rows = map(basis.row, range(basis.rows))
            assert Subspace(q, basis) == Subspace.from_vectors(q, rows)


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
    assert projection_matrix(Subspace.from_vectors(3, [])) == ExactMatrix.zeros(3, 3)
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
        assert naive_product(p, p) == p
        assert Subspace.from_vectors(q, map(p.row, range(q))) == u  # symmetric: rows span the image


def test_projection_matches_the_gram_formula():
    # B^T (B B^T)^{-1} B in sympy's exact rationals, and I minus it for the
    # orthogonal complement
    sympy = pytest.importorskip("sympy")

    def exact(v):
        return Fraction(int(sympy.numer(v)), int(sympy.denom(v)))

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
        b = sympy.Matrix(u.dim, q, [sympy.Rational(str(v)) for v in u.basis.entries])
        want = b.T * (b * b.T).inv() * b if u.dim else sympy.zeros(q, q)
        assert projection_matrix(u) == ExactMatrix(q, q, map(exact, want))
        complement = sympy.eye(q) - want
        assert projection_matrix(u, complement=True) == ExactMatrix(q, q, map(exact, complement))
