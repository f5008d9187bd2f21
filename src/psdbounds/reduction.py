"""Rank reduction of psd solutions to linear trace constraints (floats).

Given a psd matrix satisfying m linear constraints tr(A_j X) = alpha_j,
there is always one of rank r with r(r+1)/2 <= m; this module walks the
input down to such a solution by repeated null-space steps that stay on
the constraint set and land exactly on the psd boundary.  This is the one
floating-point corner of the package; everything exact stays elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from . import _frozen

DEFAULT_TOL = 1e-9


class ReductionError(Exception):
    """A reduction step could not make progress; carries diagnostics."""


@_frozen
class FloatPsdMatrix:
    """Symmetric float matrix with the tolerance used to certify it psd."""

    entries: np.ndarray
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if not arr.shape[0]:
            raise ValueError("matrix must have order at least 1, got order 0")
        if not 0 <= self.tolerance < np.inf:  # also refuses nan
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        object.__setattr__(self, "entries", (arr + arr.T) / 2.0)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def numerical_rank(self) -> int:
        return int(np.sum(self.eigenvalues() > self.tolerance))


def barvinok_reduce(
    x: FloatPsdMatrix,
    constraints: list[tuple[np.ndarray, float]],
    tol: float = DEFAULT_TOL,
) -> FloatPsdMatrix:
    """Reduce a psd solution of tr(A_j X) = alpha_j to rank r(r+1)/2 <= m.

    Each step factors X = G G^T on its numerical range, finds a symmetric
    direction D with <G^T A_j G, D> = 0 for all j, and moves to
    G(I + tD)G^T with t chosen so the smallest eigenvalue of I + tD is
    exactly zero: the constraints are untouched and the rank drops by at
    least one.  D lives on the leading k x k block, k the least with
    k(k+1)/2 > m; such a D exists, and k <= r, whenever r(r+1)/2 > m, so
    each step solves m equations in k(k+1)/2 unknowns, not r(r+1)/2.  An input
    with an entry that is not finite, one that is not psd within `tol`, or
    one off its constraints raises `ReductionError`.
    """
    m = len(constraints)
    x = FloatPsdMatrix(x.entries, tol)
    mats = np.array([a for a, _ in constraints], dtype=float).reshape(m, x.order, x.order)
    targets = np.array([[float(alpha) for _, alpha in constraints]])
    _reduce_side(x.entries[None], mats, targets, tol)  # updates x.entries
    return x


# The factors of one side step together in groups of this many, and the
# constraint systems of a step are formed for as many factors of a group at
# once as fit in this many entries (three factors' 32 x 36 systems: 32
# constraints on an 8 x 8 block).  Both keep a step's temporaries near one
# factor's: they set the peak memory of reduce-rank.  A factor-by-factor
# loop (_GROUP = 1) took about twice as long on the 32x32 benchmark
# chain, and one group per side raised reduce-rank's peak memory.
_GROUP = 8
_SYSTEM_ENTRIES = 4352


def _reduce_side(x, mats, targets, tol):
    """Reduce each factor x[i] of a stack, in place, against the shared
    constraints tr(mats[j] X_i) = targets[i, j], one group of consecutive
    factors after another.  A failure raises the error of the lowest
    failing factor, the one a factor-by-factor loop meets first."""
    for lo in range(0, len(x), _GROUP):
        _reduce_group(x[lo : lo + _GROUP], mats, targets[lo : lo + _GROUP], tol)


def _reduce_group(x, mats, targets, tol):
    """The steps of `barvinok_reduce` for a stack of factors in lockstep.

    The input checks refuse a factor with an entry that is not finite, then
    one not psd within tol, then one off its constraints.  Each round, the
    factors still above the bound that sit at one rank r take their step
    together, in stacked numpy calls that give every factor the bits its
    own calls give it.  A factor that fails stops, and so does every factor
    after it, which alone would never have run; the lowest failure is
    raised once the rest finish.
    """
    k, m, n = len(x), len(mats), x.shape[-1]
    failure = [k, ""]  # the lowest failing factor so far, and its error

    def fail(i, message):
        if i < failure[0]:
            failure[:] = i, message

    flat = mats.reshape(m, n * n)
    scales = np.abs(targets).max(axis=1, initial=0.0).tolist()
    limits = [max(tol, 1e-7 * max(1.0, scale)) for scale in scales]

    def check_residuals(rows, sel, stage):
        # an overflow shows as inf or nan here, and fails, instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            prods = flat @ x[sel].reshape(len(rows), n * n, 1)
            worst = np.abs(prods[..., 0] - targets[sel]).max(axis=1, initial=0.0).tolist()
        for i, residual in zip(rows, worst):
            if not residual <= limits[i]:
                fail(i, f"constraint residual {residual:.3e} too large after {stage}"
                     if residual < np.inf else
                     f"constraint residual is not finite after {stage}")

    for i, top in enumerate(np.abs(x).max(axis=(1, 2)).tolist()):
        if not top < np.inf:  # also catches nan
            fail(i, "input has an entry that is not finite")
    for i, low in enumerate(np.linalg.eigvalsh(x)[:, 0].tolist()):
        if not low >= -tol:
            fail(i, f"input is not psd within tolerance (min eig {low:.3e})")
    check_residuals(range(k), slice(None), "input")

    # one eigendecomposition per step: it gives the next G and the new rank
    vals, vecs = np.linalg.eigh(x)
    ranks = np.sum(vals > tol, axis=1).tolist()
    while True:
        levels = {}
        for i in range(failure[0]):
            if m < ranks[i] * (ranks[i] + 1) // 2:  # false at rank 0
                levels.setdefault(ranks[i], []).append(i)
        if not levels:
            break
        for r, rows in levels.items():
            rows = [i for i in rows if i < failure[0]]
            if not rows:
                continue
            # a run of consecutive factors is a slice: views, not copies
            contiguous = rows[-1] - rows[0] == len(rows) - 1
            sel = slice(rows[0], rows[-1] + 1) if contiguous else rows
            new, drifts, most = _step(vals, vecs, sel, mats, r)
            for i, drift, limit in zip(rows, drifts, most):
                if not drift <= limit:  # also fails nan
                    fail(i, f"no constraint-preserving direction at rank {r} "
                         f"(relative null-vector residual {drift:.3e})")
            x[sel] = new
            vals[sel], vecs[sel] = np.linalg.eigh(new)
            for i, new_r in zip(rows, np.sum(vals[sel] > tol, axis=1).tolist()):
                if new_r >= r:
                    fail(i, f"step failed to reduce the rank below {r}")
                ranks[i] = new_r
            check_residuals(rows, sel, "step")
    if failure[0] < k:
        raise ReductionError(failure[1])


def _step(vals, vecs, sel, mats, r):
    """One step of each factor vecs[sel] diag(vals[sel]) vecs[sel]^T of a
    stack, all at rank r: the new factors G (I + tD) G^T, then the
    null-vector residuals and their limits as lists, both in units of the
    largest entry of the factor's constraint system.

    D is zero outside its leading k x k block, k the least with k(k+1)/2
    above the m constraints: the k(k+1)/2 coordinates of that block leave
    a null direction against m rows, and k <= r since the factor is above
    the bound.  The system, its null vector and D's extreme eigenvalues
    are formed on that block only."""
    n, m = vecs.shape[-1], len(mats)
    k = (math.isqrt(8 * m + 1) + 1) // 2
    # eigh sorts ascending, so the range is the last r columns.  G is stored
    # column by column, as `vecs[:, big]` lays one out: BLAS then reads it
    # the same way, and gives each factor the bits of its own step
    gt = np.multiply(
        vecs[sel, :, n - r :].swapaxes(1, 2),
        np.sqrt(vals[sel, n - r :])[:, :, None],
        order="C",
    )
    g = gt.swapaxes(1, 2)
    # rows <G_k^T A_j G_k, .> over the k(k+1)/2 coordinates of a symmetric
    # block (each one off the diagonal counts twice), G_k the first k
    # columns of G, and their null vectors, in batches
    iu = np.triu_indices(k)
    weights = np.where(iu[0] == iu[1], 1.0, 2.0)
    null = np.empty((len(g), len(weights)))
    drifts, most = [], []
    batch = max(1, _SYSTEM_ENTRIES // (max(1, m) * len(weights)))
    for lo in range(0, len(g), batch):
        part = slice(lo, lo + batch)
        system = (gt[part, None, :k] @ mats @ g[part, None, :, :k])[..., iu[0], iu[1]] * weights
        null[part] = _null_vector(system)
        # check the drift on each system over its largest entry, where no norm
        # overflows; the smallest normal float as floor keeps 1 / big finite
        big = np.abs(system).max(axis=(1, 2), initial=np.finfo(float).tiny)
        system /= big[:, None, None]
        drifts += _norms(system @ null[part, :, None]).tolist()
        most += [1e-8 * max(1.0 / b, s) for b, s in zip(big.tolist(), _norms(system).tolist())]
        del system
    delta = np.zeros((len(g), k, k))
    delta[:, iu[0], iu[1]] = null
    delta[:, iu[1], iu[0]] = null
    delta /= _norms(delta)[:, None, None]
    dvals = np.linalg.eigvalsh(delta)
    # step toward the extreme eigenvalue of larger magnitude: delta has unit
    # norm, so that eigenvalue is at least 1/sqrt(k) and |t| <= sqrt(k).  The
    # zeros outside the block change neither that choice nor its magnitude
    flip = -dvals[:, 0] < dvals[:, -1]
    delta[flip] *= -1.0
    delta *= (1.0 / np.where(flip, dvals[:, -1], -dvals[:, 0]))[:, None, None]
    step = np.tile(np.eye(r), (len(g), 1, 1))  # the step I + tD
    step[:, :k, :k] += delta
    new = g @ step @ gt
    _symmetrize(new)
    return new, drifts, most


def _norms(a) -> np.ndarray:
    """The 2-norm of each matrix of a stack, flattened: one dot product per
    matrix, the sum `np.linalg.norm` takes, so each norm has its bits."""
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _null_vector(system: np.ndarray) -> np.ndarray:
    """For each m x k system of a stack, with m < k, a unit vector v with
    system @ v = 0.

    Q (k x m, orthonormal columns) spans the row space, so e_i - Q Q[i] is
    orthogonal to it for every i.  The row of Q with the smallest norm has
    squared norm at most m/k, so that choice has norm at least sqrt(1 - m/k).
    """
    q = np.linalg.qr(system.swapaxes(1, 2))[0]
    i = np.argmin(np.einsum("sij,sij->si", q, q), axis=1)
    each = np.arange(len(q))
    null = -(q @ q[each, i, :, None])[..., 0]
    null[each, i] += 1.0
    return null / _norms(null)[:, None]


@_frozen
class FactorReductionReport:
    a_factors: tuple[FloatPsdMatrix, ...]
    b_factors: tuple[FloatPsdMatrix, ...]
    a_ranks: tuple[int, ...]
    b_ranks: tuple[int, ...]
    max_residual: float
    min_eigenvalue: float


def reduce_factor_ranks(
    a_factors, b_factors, tol: float = DEFAULT_TOL
) -> FactorReductionReport:
    """Reduce each factor of a float psd factorization.

    First every A_k is reduced against the constraints tr(A_k B_l) = S(k,l)
    with B fixed, then every B_l against the updated A side; the factors of
    a side step together.  The final ranks r obey r(r+1)/2 <= n for the A
    side and <= m for the B side.
    """
    if not len(a_factors) or not len(b_factors):
        raise ValueError("rank reduction needs at least one A and one B factor")
    a, b = np.array(a_factors, dtype=float), np.array(b_factors, dtype=float)
    # the checks FloatPsdMatrix makes, before any arithmetic: the factors
    # share one shape, so the first one speaks for all
    FloatPsdMatrix(a[0], tol)
    targets = _traces(a, b)
    _symmetrize(a)
    _reduce_side(a, b, targets, tol)  # against the B factors as given
    _symmetrize(b)
    _reduce_side(b, a, targets.T, tol)

    residuals = _traces(a, b) - targets
    # one spectrum per factor gives both its rank and its smallest eigenvalue
    spectra = [np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]
    a_ranks, b_ranks = (tuple(np.sum(v > tol, axis=1).tolist()) for v in spectra)
    return FactorReductionReport(
        tuple(FloatPsdMatrix(f, tol) for f in a),
        tuple(FloatPsdMatrix(f, tol) for f in b),
        a_ranks,
        b_ranks,
        float(np.abs(residuals).max()),
        float(min(v[:, 0].min() for v in spectra)),
    )


def _symmetrize(stack):
    """Replace each factor X of a stack by (X + X^T) / 2, in place."""
    stack += stack.swapaxes(1, 2)
    stack /= 2.0


def _traces(a, b) -> np.ndarray:
    """The matrix of tr(A_k B_l), as one product of the flattened stacks.
    A product that overflows is an error, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.tensordot(a, b, axes=([1, 2], [1, 2]))
    if not np.abs(traces).max() < np.inf:  # also catches nan
        raise ReductionError("trace products tr(A_k B_l) are not finite")
    return traces


def factorization_to_float(f) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cast an exact psd factorization to float factor lists."""

    def floats(mat) -> np.ndarray:
        return np.array([float(v) for v in mat.entries]).reshape(mat.rows, mat.cols)

    return [floats(mat) for mat in f.A], [floats(mat) for mat in f.B]
