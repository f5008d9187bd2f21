import itertools
import json
import random
from concurrent.futures import ThreadPoolExecutor
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
from psdbounds import reduction
from psdbounds.cli import run
from psdbounds.reduction import DEFAULT_TOL, _null_vector, _reduce_side


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
    assert FloatPsdMatrix(np.eye(2)).min_eigenvalue() == 1.0
    assert FloatPsdMatrix(np.diag([1.0, -1.0])).min_eigenvalue() == -1.0


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
    v = _null_vector(system[None])[0]
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


def block_order(m, r):
    """The least k with k(k+1)/2 > m, capped at r: the order of the leading
    block of the range that a step's direction D lives on."""
    return min(r, next(k for k in itertools.count(1) if k * (k + 1) // 2 > m))


def reference_reduce(x, mats, targets, tol=1e-9):
    """The reduction loop written one constraint matrix at a time."""
    while True:
        vals, vecs = np.linalg.eigh(x)
        big = vals > tol
        r = int(np.sum(big))
        if len(mats) >= r * (r + 1) // 2 or r == 0:
            return x
        g = vecs[:, big] * np.sqrt(vals[big])
        k = block_order(len(mats), r)
        gk = g[:, :k]
        iu = list(zip(*np.triu_indices(k)))
        system = []
        for a in mats:
            reduced = gk.T @ a @ gk
            system.append([reduced[i, j] * (1.0 if i == j else 2.0) for i, j in iu])
        # e_i minus its projection on the row space, for the coordinate i
        # farthest from it
        q = np.linalg.qr(np.array(system).reshape(len(mats), len(iu)).T)[0]
        far = min(range(len(iu)), key=lambda row: float(q[row] @ q[row]))
        null = np.eye(len(iu))[far] - q @ q[far]
        delta = np.zeros((r, r))  # zero outside the leading k x k block
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


def per_factor_reduce(x, mats, targets, tol=1e-9):
    """The reduction loop for one factor, one numpy call per operation:
    lockstep must give each factor these bits, not merely close ones."""
    vals, vecs = np.linalg.eigh(x)
    r = int(np.sum(vals > tol))
    while r and len(mats) < r * (r + 1) // 2:
        big = vals > tol
        g = vecs[:, big] * np.sqrt(vals[big])
        k = block_order(len(mats), r)
        iu = np.triu_indices(k)
        gk = g[:, :k]
        system = (gk.T @ mats @ gk)[:, iu[0], iu[1]] * np.where(iu[0] == iu[1], 1.0, 2.0)
        q = np.linalg.qr(system.T)[0]
        i = int(np.argmin(np.einsum("ij,ij->i", q, q)))
        null = -(q @ q[i])
        null[i] += 1.0
        null /= np.linalg.norm(null)
        delta = np.zeros((k, k))
        delta[iu] = null
        delta = delta + delta.T - np.diag(np.diag(delta))
        delta /= np.linalg.norm(delta)
        dvals = np.linalg.eigvalsh(delta)
        if -dvals[0] >= dvals[-1]:
            t = -1.0 / dvals[0]
        else:
            delta, t = -delta, 1.0 / dvals[-1]
        step = np.eye(r)  # I + tD, with D zero outside its k x k block
        step[:k, :k] += t * delta
        new = g @ step @ g.T
        x = (new + new.T) / 2.0
        vals, vecs = np.linalg.eigh(x)
        r = int(np.sum(vals > tol))
    return x


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


def test_reduction_without_constraints_reaches_rank_zero():
    # with no constraint every direction is free, so each step drops the
    # rank until none is left
    x = FloatPsdMatrix(np.diag([3.0, 2.0, 1.0]))
    out = barvinok_reduce(x, [])
    assert out.numerical_rank() == 0
    assert np.array_equal(out.entries, per_factor_reduce(x.entries, np.zeros((0, 3, 3)), []))


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


def test_overflowing_trace_products_raise_without_warning():
    # tr(A B) = 1e400 overflows; a nan residual must fail its check, and
    # numpy must not warn (package warnings are errors under pytest)
    huge = [np.array([[1e200]])]
    with pytest.raises(ReductionError, match="trace products tr\\(A_k B_l\\) are not finite"):
        reduce_factor_ranks(huge, huge)
    # a residual that overflows, or one against a nan target, fails its check
    with pytest.raises(ReductionError, match="constraint residual is not finite after input"):
        barvinok_reduce(FloatPsdMatrix(np.array([[1e200]])), [(np.array([[1e200]]), 1.0)])
    with pytest.raises(ReductionError, match="constraint residual is not finite after input"):
        barvinok_reduce(FloatPsdMatrix(np.eye(2)), [(np.eye(2), float("nan"))])


def test_reduce_rank_cli_refuses_overflowing_trace_products(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "psd_factorization", "order": 1,
        "A": [[1e200]], "B": [[1e200]],
    }))
    assert run(["reduce-rank", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trace products tr(A_k B_l) are not finite\n"
    # a bad tolerance is a usage error, found before any arithmetic
    assert run(["reduce-rank", "--tol=-1", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be finite and nonnegative, got -1.0\n"


def test_reduce_rank_huge_system_entry_passes_the_drift_check(tmp_path, capsys):
    # the null-vector systems of the A side hold 1e200; the drift limit, a
    # norm of the system, overflowed to inf and then let any drift pass
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "psd_factorization", "order": 2,
        "A": [[1, 0, 0, 1], [0, 0, 0, 0]], "B": [[1e200, 0, 0, 0], [1, 1, 1, 1]],
    }))
    assert run(["reduce-rank", "--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["a_ranks"] == [1, 0] and doc["b_ranks"] == [1, 1]


@pytest.mark.parametrize("entries", [[[np.inf]], [[np.inf, 0.0], [0.0, 1.0]]])
def test_non_finite_factor_is_refused_without_warning(entries):
    # with no constraint to catch it, [[inf]] came back as [[nan]] with a
    # numpy warning (an error under pytest)
    x = FloatPsdMatrix(np.array(entries))
    with pytest.raises(ReductionError, match="^input has an entry that is not finite$"):
        barvinok_reduce(x, [])
    # the lowest failing factor's error is raised, as for the other checks
    n = len(entries)
    bad = np.zeros((3, n, n))
    bad[1] = x.entries
    bad[2] = -np.eye(n)
    with pytest.raises(ReductionError, match="not finite"):
        _reduce_side(bad, np.zeros((0, n, n)), np.zeros((3, 0)), DEFAULT_TOL)
    bad[0] = -np.eye(n)
    with pytest.raises(ReductionError, match="input is not psd"):
        _reduce_side(bad, np.zeros((0, n, n)), np.zeros((3, 0)), DEFAULT_TOL)


def mixed_side(rng, ranks, order, m):
    """Factors of one side of the given ranks, so that they need different
    numbers of steps, and m psd factors of the other side."""
    side = []
    for r in ranks:
        g = rng.normal(size=(order, r))
        side.append(g @ g.T)
    return side, [random_psd(rng, order) for _ in range(m)]


# more than one group of factors, a zero factor, factors already within the
# bound, and factors that start at different ranks; the order-16 case runs
# through every rank from 16 down to 7, as the largest benchmark chain does
MIXED_SIDES = [
    pytest.param([6, 0, 4, 2, 5, 6, 3, 1, 6, 4, 5], 6, 4, id="order6"),
    pytest.param([16, 12, 0, 16, 9, 7, 16, 14, 3, 16, 11], 16, 32, id="order16"),
]


@pytest.mark.parametrize("ranks, order, m", MIXED_SIDES)
def test_lockstep_matches_each_factor_reduced_alone(ranks, order, m):
    a, b = mixed_side(np.random.default_rng(11), ranks, order, m)
    report = reduce_factor_ranks(a, b)
    targets = np.tensordot(np.array(a), np.array(b), axes=([1, 2], [1, 2]))
    alone_a = [
        barvinok_reduce(FloatPsdMatrix(x), [(y, targets[k, l]) for l, y in enumerate(b)])
        for k, x in enumerate(a)
    ]
    alone_b = [
        barvinok_reduce(
            FloatPsdMatrix(y), [(x.entries, targets[k, l]) for k, x in enumerate(alone_a)]
        )
        for l, y in enumerate(b)
    ]
    assert len(set(report.a_ranks)) > 1  # the side really was mixed
    for got, want in zip(report.a_factors + report.b_factors, alone_a + alone_b):
        assert np.array_equal(got.entries, want.entries)
    mats = np.array(b)
    for k, x in enumerate(a):
        want = per_factor_reduce((x + x.T) / 2.0, mats, targets[k])
        assert np.array_equal(report.a_factors[k].entries, want)
    assert report.a_ranks == tuple(x.numerical_rank() for x in alone_a)


@pytest.mark.parametrize("bad_target, not_psd", [(3, 6), (5, 1), (4, 9)])
def test_lockstep_raises_the_lowest_failing_factor(bad_target, not_psd):
    # the input checks meet the psd failure first; the error must still be
    # that of the lower factor, which a factor-by-factor loop meets first
    a, b = mixed_side(np.random.default_rng(12), [6, 0, 4, 2, 5, 6, 3, 1, 6, 4, 5], 6, 4)
    mats = np.array(b)
    targets = np.tensordot(np.array(a), mats, axes=([1, 2], [1, 2]))
    a[not_psd] = -a[not_psd] - np.eye(6)
    targets[bad_target] += 1.0

    def alone(k):
        with pytest.raises(ReductionError) as caught:
            barvinok_reduce(FloatPsdMatrix(a[k]), list(zip(b, targets[k])))
        return str(caught.value)

    stack = np.array([(x + x.T) / 2.0 for x in a])
    with pytest.raises(ReductionError) as caught:
        _reduce_side(stack, mats, targets, DEFAULT_TOL)
    assert str(caught.value) == alone(min(bad_target, not_psd))
    assert alone(bad_target).startswith("constraint residual")
    assert alone(not_psd).startswith("input is not psd")


def reduction_result(a, b):
    report = reduce_factor_ranks(a, b)
    return (
        [f.entries for f in report.a_factors + report.b_factors],
        report.a_ranks, report.b_ranks, report.max_residual, report.min_eigenvalue,
    )


def test_reduction_is_identical_across_threads():
    a, b = chain_factors(304, 8, 8, 4)

    def result(_):
        return reduction_result(a, b)

    with ThreadPoolExecutor(max_workers=1) as pool:
        (want,) = pool.map(result, [0])
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(result, range(8)))
    for factors, *rest in got:
        assert rest == list(want[1:])
        assert all(np.array_equal(x, y) for x, y in zip(factors, want[0]))


@pytest.fixture(scope="module")
def grouping_cases():
    rng = np.random.default_rng(11)
    return [
        chain_factors(304, 8, 8, 4),
        chain_factors(3101, 10, 12, 5),
        mixed_side(rng, [16, 12, 0, 16, 9, 7, 16, 14, 3, 16, 11], 16, 32),
    ]


@pytest.mark.parametrize("group, entries", [(1, 1), (1, 10**9), (10**9, 1), (3, 100)])
def test_grouping_constants_change_no_bit(grouping_cases, monkeypatch, group, entries):
    # the group size and the system batch only bound a step's memory
    wants = [reduction_result(a, b) for a, b in grouping_cases]
    monkeypatch.setattr(reduction, "_GROUP", group)
    monkeypatch.setattr(reduction, "_SYSTEM_ENTRIES", entries)
    for (a, b), (factors, *rest) in zip(grouping_cases, wants):
        got, *got_rest = reduction_result(a, b)
        assert got_rest == rest
        assert all(np.array_equal(x, y) for x, y in zip(got, factors))


def test_each_step_solves_on_the_least_block(monkeypatch):
    # the order16 side steps from rank 16 against 32 constraints (k = 8),
    # and its B side from rank 16 against 11 (k = 5): every system has
    # k(k+1)/2 columns, fewer than the r(r+1)/2 of the whole range
    a, b = mixed_side(np.random.default_rng(11), *MIXED_SIDES[1].values)
    shapes, ranks = [], []
    step, null_vector = reduction._step, reduction._null_vector

    def spy_step(vals, vecs, sel, mats, r):
        ranks.append(r)
        return step(vals, vecs, sel, mats, r)

    def spy_null_vector(system):
        shapes.append((ranks[-1], *system.shape[1:]))
        return null_vector(system)

    monkeypatch.setattr(reduction, "_step", spy_step)
    monkeypatch.setattr(reduction, "_null_vector", spy_null_vector)
    reduce_factor_ranks(a, b)
    assert {m for _, m, _ in shapes} == {len(b), len(a)}
    for r, m, cols in shapes:
        k = block_order(m, r)
        assert cols == k * (k + 1) // 2 > m
    assert any(cols < r * (r + 1) // 2 for r, _, cols in shapes)
    assert max(ranks) == 16


@pytest.mark.parametrize("seed", range(60))
def test_random_reductions_meet_the_bound(seed):
    # orders 2 to 12, ranks 0 to the order, and 0 to 40 constraints, but
    # no more than order(order+1)/2, past which no input takes a step: 20
    # of the 60 cases step, 16 of them on a block smaller than the range
    rng = np.random.default_rng([5077, seed])
    order = int(rng.integers(2, 13))
    rank = int(rng.integers(0, order + 1))
    m = int(rng.integers(0, min(40, order * (order + 1) // 2) + 1))
    g = rng.normal(size=(order, rank)) * rng.uniform(0.1, 10.0)
    x = FloatPsdMatrix(g @ g.T)
    cons = []
    for _ in range(m):
        c = rng.normal(size=(order, order))
        c = (c + c.T) / 2.0
        cons.append((c, float(np.tensordot(c, x.entries))))
    out = barvinok_reduce(x, cons)
    r = out.numerical_rank()
    assert r * (r + 1) // 2 <= m
    assert out.min_eigenvalue() >= -DEFAULT_TOL
    scale = max([1.0] + [abs(alpha) for _, alpha in cons])
    for c, alpha in cons:
        assert abs(float(np.tensordot(c, out.entries)) - alpha) <= 1e-7 * scale
