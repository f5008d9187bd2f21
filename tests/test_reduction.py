import json
import random
from fractions import Fraction

import numpy as np
import pytest

from psdbounds import (
    ExactMatrix,
    FloatPsdMatrix,
    ReductionError,
    barvinok_reduce,
    embedding_from_rank_factorization,
    factorization_to_float,
    generate_sn,
    psd_from_embedding,
    reduce_factor_ranks,
)
from psdbounds.cli import run
from psdbounds.reduction import _null_vector


def random_psd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T


def test_trace_one_reduces_to_rank_one():
    x = FloatPsdMatrix(np.eye(3) / 3.0)
    out = barvinok_reduce(x, [(np.eye(3), 1.0)])
    assert out.numerical_rank() == 1
    assert abs(np.trace(out.entries) - 1.0) < 1e-9
    assert out.min_eigenvalue() >= -1e-9


def test_rank_one_input_unchanged():
    v = np.array([1.0, -2.0, 0.5])
    x = FloatPsdMatrix(np.outer(v, v))
    cons = [(np.eye(3), float(v @ v))]
    out = barvinok_reduce(x, cons)
    assert np.allclose(out.entries, x.entries)


def test_random_order6_reductions():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        x = FloatPsdMatrix(random_psd(rng, 6))
        cons = []
        for _ in range(3):
            a = rng.normal(size=(6, 6))
            a = (a + a.T) / 2
            cons.append((a, float(np.tensordot(a, x.entries))))
        out = barvinok_reduce(x, cons, tol=1e-9)
        assert out.numerical_rank() <= 2
        assert out.min_eigenvalue() >= -1e-8
        for a, alpha in cons:
            assert abs(float(np.tensordot(a, out.entries)) - alpha) <= 1e-6


def test_rejects_bad_input():
    not_psd = FloatPsdMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(ReductionError):
        barvinok_reduce(not_psd, [(np.eye(2), 0.0)])
    x = FloatPsdMatrix(np.eye(2))
    with pytest.raises(ReductionError):
        barvinok_reduce(x, [(np.eye(2), 5.0)])  # constraint not satisfied


def test_float_psd_matrix_accessors():
    with pytest.raises(ValueError):
        FloatPsdMatrix(np.zeros((2, 3)))
    x = FloatPsdMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.allclose(x.entries, x.entries.T)  # symmetrized on entry
    assert FloatPsdMatrix(np.diag([1.0, 0.0])).numerical_rank() == 1
    assert FloatPsdMatrix(np.eye(2)).is_certified_psd()
    assert not FloatPsdMatrix(np.diag([1.0, -1.0])).is_certified_psd()


def test_inflated_identity_factorization_reduces():
    # order-3 factors of the 2x2 identity with inflated ranks
    a = [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    b = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    report = reduce_factor_ranks(a, b)
    assert all(r <= 1 for r in report.a_ranks)
    assert all(r <= 1 for r in report.b_ranks)
    assert report.max_residual <= 1e-8


def test_minimal_factors_unchanged():
    a = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    b = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    report = reduce_factor_ranks(a, b)
    assert report.a_ranks == (1, 1) and report.b_ranks == (1, 1)
    for old, new in zip(a + b, list(report.a_factors) + list(report.b_factors)):
        assert np.allclose(old, new.entries)


def test_s6_factorization_ranks_bounded():
    f, _ = psd_from_embedding(embedding_from_rank_factorization(generate_sn(6)))
    a, b = factorization_to_float(f)
    report = reduce_factor_ranks(a, b)
    assert all(r <= 3 for r in report.a_ranks + report.b_ranks)
    assert report.max_residual <= 1e-8
    assert report.min_eigenvalue >= -1e-8


def null_vector_systems():
    """Seeded m x k systems with m < k: generic, repeated rows, a zero row,
    rank-deficient and empty."""
    rng = np.random.default_rng(77)
    for m, k in [(1, 3), (5, 6), (9, 15), (20, 21), (40, 120)]:
        yield pytest.param(rng.normal(size=(m, k)), id=f"gaussian-{m}x{k}")
    row = rng.normal(size=(1, 10))
    repeated = np.vstack([row, row, rng.normal(size=(3, 10))])
    yield pytest.param(repeated, id="repeated-row")
    zero_row = np.vstack([rng.normal(size=(4, 10)), np.zeros((1, 10))])
    yield pytest.param(zero_row, id="zero-row")
    low_rank = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 28)) * 1e6
    yield pytest.param(low_rank, id="rank-3-scaled")
    yield pytest.param(np.zeros((3, 6)), id="all-zero")
    for k in (1, 6):
        yield pytest.param(np.zeros((0, k)), id=f"empty-0x{k}")


@pytest.mark.parametrize("system", null_vector_systems())
def test_null_vector_is_a_unit_kernel_vector(system):
    v = _null_vector(system)
    assert v.shape == (system.shape[1],)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(system @ v) <= 1e-12 * max(1.0, np.linalg.norm(system))


@pytest.mark.parametrize("q, seed", [(30, 2), (40, 0), (40, 1)])
def test_step_toward_larger_eigenvalue_reduces(q, seed):
    # stepping toward any eigenvalue below -1e-9, however small, took t up
    # to 1e9 on these problems and stopped with "step failed to reduce the
    # rank below" 8, 11 and 17; the extreme eigenvalue of larger magnitude
    # keeps |t| <= sqrt(r)
    rng = np.random.default_rng(seed)
    x = FloatPsdMatrix(random_psd(rng, q))
    cons = []
    for _ in range(20):
        a = rng.normal(size=(q, q))
        a = (a + a.T) / 2
        cons.append((a, float(np.tensordot(a, x.entries))))
    out = barvinok_reduce(x, cons)
    assert out.numerical_rank() <= 5  # 5 * 6 / 2 <= 20
    assert out.min_eigenvalue() >= -1e-9
    for a, alpha in cons:
        assert abs(float(np.tensordot(a, out.entries)) - alpha) <= 1e-7 * max(1.0, abs(alpha))


def reference_reduce(x, mats, targets, tol=1e-9):
    """The reduction loop written one constraint matrix at a time."""
    while True:
        vals, vecs = np.linalg.eigh(x)
        big = vals > tol
        r = int(np.sum(big))
        if len(mats) >= r * (r + 1) // 2 or r == 0:
            return x
        g = vecs[:, big] * np.sqrt(vals[big])
        iu = list(zip(*np.triu_indices(r)))
        system = []
        for a in mats:
            reduced = g.T @ a @ g
            system.append([reduced[i, j] * (1.0 if i == j else 2.0) for i, j in iu])
        # e_i minus its projection on the row space, for the coordinate i
        # farthest from it
        q = np.linalg.qr(np.array(system).reshape(len(mats), len(iu)).T)[0]
        far = min(range(len(iu)), key=lambda row: float(q[row] @ q[row]))
        null = np.eye(len(iu))[far] - q @ q[far]
        delta = np.zeros((r, r))
        for (i, j), v in zip(iu, null):
            delta[i, j] = delta[j, i] = v
        delta /= np.linalg.norm(delta)
        dvals = np.linalg.eigvalsh(delta)
        if -dvals[0] >= dvals[-1]:
            t = -1.0 / dvals[0]
        else:
            delta, t = -delta, 1.0 / dvals[-1]
        new = g @ (np.eye(r) + t * delta) @ g.T
        x = (new + new.T) / 2.0
        assert np.sum(np.linalg.eigvalsh(x) > tol) < r
        for a, alpha in zip(mats, targets):
            assert abs(float(np.sum(a * x)) - alpha) <= 1e-7 * max(1.0, abs(alpha))


def chain_factors(seed, m, n, r):
    """Float factors of the projection factorization of a seeded W @ H."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(1, 9), rng.randint(1, 3))

    w = [[entry() for _ in range(r)] for _ in range(m)]
    h = [[entry() for _ in range(n)] for _ in range(r)]
    s = ExactMatrix(m, n, [
        sum(w[i][t] * h[t][j] for t in range(r)) for i in range(m) for j in range(n)
    ])
    f, _ = psd_from_embedding(embedding_from_rank_factorization(s))
    return factorization_to_float(f)


@pytest.mark.parametrize("seed,m,n,r", [(304, 8, 8, 4), (3101, 10, 12, 5)])
def test_chain_reduction_matches_per_constraint_reference(seed, m, n, r):
    a, b = chain_factors(seed, m, n, r)
    report = reduce_factor_ranks(a, b)
    targets = np.array([[float(np.sum(x * y)) for y in b] for x in a])
    ref_a = [reference_reduce((x + x.T) / 2.0, b, targets[k]) for k, x in enumerate(a)]
    ref_b = [
        reference_reduce((y + y.T) / 2.0, ref_a, targets[:, l]) for l, y in enumerate(b)
    ]

    def ranks(mats):
        return tuple(int(np.sum(np.linalg.eigvalsh(x) > 1e-9)) for x in mats)

    assert report.a_ranks == ranks(ref_a) and report.b_ranks == ranks(ref_b)
    assert max(report.b_ranks) < r  # the B side really was reduced
    for got, want in zip(report.a_factors + report.b_factors, ref_a + ref_b):
        assert np.max(np.abs(got.entries - want)) <= 1e-12


def test_reduce_rank_without_b_factors_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "psd_factorization", "order": 2,
        "A": [["1", "0", "0", "1"]], "B": [],
    }))
    assert run(["reduce-rank", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_order_zero_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="got order 0"):
        FloatPsdMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="got order 0"):
        reduce_factor_ranks([np.zeros((0, 0))], [np.zeros((0, 0))])
    # a zero matrix has rank 0, so its projection factorization has order 0
    (tmp_path / "zero.txt").write_text("2 2\n0 0\n0 0\n")
    for argv, out in (
        (["embed", "from-rank", "zero.txt"], "emb.json"),
        (["psd", "from-embedding", "emb.json"], "fact.json"),
    ):
        assert run([*argv[:-1], str(tmp_path / argv[-1])]) == 0
        (tmp_path / out).write_text(capsys.readouterr().out)
    assert json.loads((tmp_path / "fact.json").read_text())["order"] == 0
    assert run(["reduce-rank", str(tmp_path / "fact.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix must have order at least 1, got order 0\n"


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    message = f"tolerance must be finite and nonnegative, got {tol}"
    with pytest.raises(ValueError, match=message.replace(".", r"\.")):
        FloatPsdMatrix(np.eye(2), tol)
    # both entry points build their matrices with the caller's tolerance
    with pytest.raises(ValueError, match="tolerance must be"):
        barvinok_reduce(FloatPsdMatrix(np.eye(2)), [(np.eye(2), 2.0)], tol=tol)
    with pytest.raises(ValueError, match="tolerance must be"):
        reduce_factor_ranks([np.eye(2)], [np.eye(2)], tol=tol)


def test_zero_tolerance_is_accepted():
    assert FloatPsdMatrix(np.eye(2), 0.0).numerical_rank() == 2


@pytest.mark.parametrize("tol, shown", [
    ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
])
def test_reduce_rank_cli_rejects_bad_tolerance(tmp_path, capsys, tol, shown):
    # before, `--tol inf` reported every rank as 0 and exited 0
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "psd_factorization", "order": 2,
        "A": [["1", "0", "0", "1"]], "B": [["1", "0", "0", "1"]],
    }))
    # `--tol=-inf`: argparse reads a separate `-inf` as an option name
    assert run(["reduce-rank", f"--tol={tol}", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tolerance must be finite and nonnegative, got {shown}\n"
