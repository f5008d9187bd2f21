"""Rank reduction of psd solutions to linear trace constraints (floats).

Given a psd matrix satisfying m linear constraints tr(A_j X) = alpha_j,
there is always one of rank r with r(r+1)/2 <= m; this module walks the
input down to such a solution by repeated null-space steps that stay on
the constraint set and land exactly on the psd boundary.  This is the one
floating-point corner of the package; everything exact stays elsewhere.
"""

from __future__ import annotations

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
        object.__setattr__(self, "entries", (arr + arr.T) / 2.0)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def is_certified_psd(self) -> bool:
        return self.min_eigenvalue() >= -self.tolerance

    def numerical_rank(self) -> int:
        return int(np.sum(self.eigenvalues() > self.tolerance))


def barvinok_reduce(
    x: FloatPsdMatrix,
    constraints: list[tuple[np.ndarray, float]],
    tol: float = DEFAULT_TOL,
) -> FloatPsdMatrix:
    """Reduce a psd solution of tr(A_j X) = alpha_j to rank r(r+1)/2 <= m.

    Each step factors X = G G^T on its numerical range, finds a symmetric
    direction D with <G^T A_j G, D> = 0 for all j (possible whenever
    r(r+1)/2 exceeds the constraint count), and moves to G(I + tD)G^T with
    t chosen so the smallest eigenvalue of I + tD is exactly zero: the
    constraints are untouched and the rank drops by at least one.
    """
    m = len(constraints)
    x = FloatPsdMatrix(x.entries, tol)
    mats = np.array([a for a, _ in constraints], dtype=float).reshape(m, x.order, x.order)
    targets = np.array([float(alpha) for _, alpha in constraints])
    if not x.is_certified_psd():
        raise ReductionError(
            f"input is not psd within tolerance (min eig {x.min_eigenvalue():.3e})"
        )
    _check_residuals(x.entries, mats, targets, tol, "input")

    # one eigendecomposition per step: it gives the next G and the new rank
    vals, vecs = np.linalg.eigh(x.entries)
    r = int(np.sum(vals > tol))
    while r and m < r * (r + 1) // 2:
        big = vals > tol
        g = vecs[:, big] * np.sqrt(vals[big])
        # rows <G^T A_j G, .> over the r(r+1)/2 coordinates of symmetric D
        iu = np.triu_indices(r)
        system = (g.T @ mats @ g)[:, iu[0], iu[1]] * np.where(iu[0] == iu[1], 1.0, 2.0)
        _, _, vt = np.linalg.svd(system, full_matrices=True)
        # more unknowns than equations here, so a null vector exists
        null = vt[-1]
        drift = float(np.linalg.norm(system @ null))
        if drift > 1e-8 * max(1.0, float(np.linalg.norm(system))):
            raise ReductionError(
                f"no constraint-preserving direction at rank {r} "
                f"(null-vector residual {drift:.3e})"
            )
        delta = np.zeros((r, r))
        delta[iu] = null
        delta = delta + delta.T - np.diag(np.diag(delta))
        delta /= np.linalg.norm(delta)
        dvals = np.linalg.eigvalsh(delta)
        if dvals[0] < -1e-9:
            t = -1.0 / dvals[0]
        else:
            delta = -delta
            t = 1.0 / dvals[-1]
        step = np.eye(r) + t * delta
        new = FloatPsdMatrix(g @ step @ g.T, tol)
        vals, vecs = np.linalg.eigh(new.entries)
        new_r = int(np.sum(vals > tol))
        if new_r >= r:
            raise ReductionError(f"step failed to reduce the rank below {r}")
        _check_residuals(new.entries, mats, targets, tol, "step")
        x, r = new, new_r
    return x


def _check_residuals(entries, mats, targets, tol, stage: str):
    if not len(mats):
        return
    residuals = np.abs(np.tensordot(mats, entries) - targets)
    scale = max(1.0, float(np.abs(targets).max()))
    if residuals.max() > max(tol, 1e-7 * scale):
        raise ReductionError(
            f"constraint residual {residuals.max():.3e} too large after {stage}"
        )


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
    """Reduce each factor of a float psd factorization in turn.

    First every A_k is reduced against the constraints tr(A_k B_l) = S(k,l)
    with B fixed, then every B_l against the updated A side.  The final
    ranks r obey r(r+1)/2 <= n for the A side and <= m for the B side.
    """
    a_mats = [np.asarray(a, dtype=float) for a in a_factors]
    b_mats = [np.asarray(b, dtype=float) for b in b_factors]
    if not a_mats or not b_mats:
        raise ValueError("rank reduction needs at least one A and one B factor")
    targets = np.array([[float(np.tensordot(a, b)) for b in b_mats] for a in a_mats])

    new_a = []
    for k, a in enumerate(a_mats):
        cons = [(b_mats[l], targets[k, l]) for l in range(len(b_mats))]
        new_a.append(barvinok_reduce(FloatPsdMatrix(a, tol), cons, tol))
    new_b = []
    for l, b in enumerate(b_mats):
        cons = [(new_a[k].entries, targets[k, l]) for k in range(len(new_a))]
        new_b.append(barvinok_reduce(FloatPsdMatrix(b, tol), cons, tol))

    residual = 0.0
    for k, a in enumerate(new_a):
        for l, b in enumerate(new_b):
            residual = max(
                residual, abs(float(np.tensordot(a.entries, b.entries)) - targets[k, l])
            )
    # one spectrum per factor gives both its rank and its smallest eigenvalue
    spectra = [(f.eigenvalues(), f.tolerance) for f in new_a + new_b]
    ranks = tuple(int(np.sum(v > t)) for v, t in spectra)
    return FactorReductionReport(
        tuple(new_a),
        tuple(new_b),
        ranks[: len(new_a)],
        ranks[len(new_a) :],
        residual,
        min(float(v[0]) for v, _ in spectra),
    )


def factorization_to_float(f) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cast an exact psd factorization to float factor lists."""

    def floats(mat) -> np.ndarray:
        return np.array([float(v) for v in mat.entries]).reshape(mat.rows, mat.cols)

    return [floats(mat) for mat in f.A], [floats(mat) for mat in f.B]
