"""Dense exact linear algebra over the rationals.

:class:`ExactMatrix` keeps every entry as a :class:`~fractions.Fraction`.
Rank, determinant, kernel, image and subspace operations are all exact;
there is no floating point anywhere in this module.  Ranks over the
multi-quadratic fields of entrywise square roots are
:func:`psdbounds.scalars.multiquad_rank`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

# 2^31 - 1, a prime: the modulus of rank's full-rank filter and the first
# prime scalars.modular_images tries
_MODULAR_PRIME = (1 << 31) - 1


class ExactMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        # a MultiQuadScalar entry fails here with the TypeError of Fraction()
        e = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in entries)
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self._e = e

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, [v for r in rows for v in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        vals = list(values)
        n = len(vals)
        return cls.from_rows(
            [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        rows = list(row_idx)
        cols = list(col_idx)
        return ExactMatrix(
            len(rows), len(cols), [self[i, j] for i in rows for j in cols]
        )

    @property
    def entries(self) -> tuple:
        return self._e

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        # row i left of the diagonal against column i above it
        n, e = self.cols, self._e
        return self.is_square and all(
            e[i * n : i * n + i] == e[i : i * n : n] for i in range(n)
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._e)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-v for v in self._e])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __mul__(self, scalar) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [v * scalar for v in self._e])

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc = acc + ri[k] * other[k, j]
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = Fraction(0)
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def _require_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def scaled_entries(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def scaled_dot(x: tuple[list[int], int], y: tuple[list[int], int]) -> Fraction:
    """Dot product of two :func:`scaled_entries` vectors: one Fraction in all."""
    return Fraction(sum(map(int.__mul__, x[0], y[0])), x[1] * y[1])


# -- rank and determinant ----------------------------------------------------


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    # Row scaling preserves rank; clearing denominators lets Bareiss run on
    # plain integers.
    return [scaled_entries(m.row(i))[0] for i in range(m.rows)]


def _bareiss(a: list[list[int]], rows: int, cols: int) -> tuple[int, int, int]:
    """Fraction-free elimination of the integer rows ``a``, in place.

    Returns (rank, the sign of the row permutation, the last pivot).  For a
    nonsingular square matrix the last pivot times that sign is its
    determinant.
    """
    prev = 1
    sign = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = a[i][j] * a[r][c] - a[i][c] * a[r][j]
                quot, rem = divmod(num, prev)
                if rem:  # Bareiss division is exact; anything else is a bug
                    raise AssertionError("inexact division in Bareiss elimination")
                a[i][j] = quot
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r, sign, prev


def rank(m: ExactMatrix) -> int:
    """Exact rank, by fraction-free (Bareiss) elimination.

    The rows are scaled to integers first, and their rank modulo the prime
    ``_MODULAR_PRIME`` = 2^31 - 1 is computed before Bareiss.  It never
    exceeds the rank over Q (a minor nonzero mod p is a nonzero integer
    minor), so when it is already ``min(rows, cols)`` that is the rank and
    Bareiss is skipped.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _integer_rows(m)
    full = min(m.rows, m.cols)
    if rank_mod_p(rows, _MODULAR_PRIME) == full:
        return full
    return _bareiss(rows, m.rows, m.cols)[0]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p (``p`` prime) of the integer matrix with these rows."""
    a = [[v % p for v in row] for row in rows]
    n_rows = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        for piv in range(r, n_rows):
            if a[piv][c]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        top, x = a[r], a[r][c]
        for i in range(r + 1, n_rows):
            y = a[i][c]
            if y:
                a[i] = [(x * u - y * w) % p for u, w in zip(a[i], top)]
        r += 1
        if r == n_rows:
            break
    return r


def det(m: ExactMatrix) -> Fraction:
    """Exact determinant: Bareiss on the rows scaled to integers, divided
    by the product of the row scales."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    scaled = [scaled_entries(m.row(i)) for i in range(m.rows)]
    r, sign, pivot = _bareiss([row for row, _ in scaled], m.rows, m.cols)
    if r < m.rows:
        return Fraction(0)
    return Fraction(sign * pivot, prod(den for _, den in scaled))


# -- reduced row echelon form and subspaces ---------------------------------


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place RREF; returns (nonzero rows, pivot column indices)."""
    if not rows:
        return [], []
    n = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


class Subspace:
    """A linear subspace of Q^q, held as a canonical RREF row basis.

    Two equal subspaces always carry identical basis matrices, so set
    containment and equality are plain entry comparisons.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width must equal the ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length must equal the ambient dimension")
        rows = [[Fraction(v) for v in r] for r in rows]
        reduced, _ = _rref(rows)
        return cls(ambient_dim, ExactMatrix.from_rows(reduced) if reduced
                   else ExactMatrix.zeros(0, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        vecs = ", ".join(
            "(" + ", ".join(str(v) for v in self.basis.row(i)) + ")"
            for i in range(self.dim)
        )
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {vecs})"

    def _reduce_vector(self, vec: list[Fraction]) -> list[Fraction]:
        v = list(vec)
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            lead = next(j for j in range(self.ambient_dim) if row[j])
            if v[lead]:
                f = v[lead]  # leading entries are 1 in RREF
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length must equal the ambient dimension")
        return not any(self._reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        """Exact set containment: ``other`` is a subspace of ``self``."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(
            self.contains_vector(other.basis.row(i)) for i in range(other.dim)
        )

    def sum(self, other: "Subspace") -> "Subspace":
        """Span of the union of both bases."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        vectors = [self.basis.row(i) for i in range(self.dim)]
        vectors += [other.basis.row(i) for i in range(other.dim)]
        return Subspace.from_vectors(self.ambient_dim, vectors)


def kernel(m: ExactMatrix) -> Subspace:
    """Null space {x : m @ x = 0} as a canonical subspace of Q^cols."""
    reduced, pivots = _rref(m.row_lists())
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def image(m: ExactMatrix) -> Subspace:
    """Column space of ``m`` as a canonical subspace of Q^rows."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


def row_space(m: ExactMatrix) -> Subspace:
    return Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)])


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    a = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = _rref(a)
    if len(pivots) < n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return ExactMatrix.from_rows([row[n:] for row in reduced])


def projection_matrix(u: Subspace) -> ExactMatrix:
    """Orthogonal projection onto ``u`` (standard inner product).

    For a basis-row matrix B this is B^T (B B^T)^{-1} B: symmetric,
    idempotent, rational, with image exactly ``u``.
    """
    q = u.ambient_dim
    if u.dim == 0:
        return ExactMatrix.zeros(q, q)
    b = u.basis
    gram_inv = inverse(b @ b.transpose())
    return b.transpose() @ gram_inv @ b
