"""Dense exact linear algebra over the rationals.

:class:`ExactMatrix` keeps every entry as a :class:`~fractions.Fraction`,
and there is no floating point anywhere in this module.  It is a frozen
record (``psdbounds._frozen``, the one package name imported here) of
its shape and its row-major ``entries``: it equals, hashes, copies and
pickles by value and refuses assignment.  Its support in
bitmask form, one int per row, is :meth:`ExactMatrix.support_bits`.  The
exact kernels run on integers: :func:`scaled_entries` puts rationals over
their least common denominator, and rank comes from one fraction-free
Gauss-Jordan elimination (:func:`_eliminate`) of the rows scaled to
integers.  Rank's full-rank filter, the rank mod p of :func:`rank_mod_p`,
reads the same integer rows, packed: each row is one int with a
fixed-width slot per column, wide enough that no carry crosses a slot,
and clearing a column from a row is one big-integer multiply-add.  Ranks
over the multi-quadratic fields of entrywise square roots are
:func:`psdbounds.scalars.multiquad_rank`.
Every command compiles this module, so the subspace algebra built on the
same elimination (RREF, kernel, image, canonical subspaces, projections)
lives in :mod:`psdbounds.psd`, the certify chain that alone uses it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _frozen

# 2^31 - 1, a prime: the modulus of rank's full-rank filter and the first
# prime scalars.modular_images tries
_MODULAR_PRIME = (1 << 31) - 1


@_frozen
class ExactMatrix:
    """Immutable dense matrix with exact rational entries, row by row."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        # a MultiQuadScalar entry fails here with the TypeError of Fraction()
        e = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.entries)
        if len(e) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(e)}")
        object.__setattr__(self, "entries", e)

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
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        rows = list(row_idx)
        cols = list(col_idx)
        return ExactMatrix(
            len(rows), len(cols), [self[i, j] for i in rows for j in cols]
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        # row i left of the diagonal against column i above it
        n, e = self.cols, self.entries
        return self.is_square and all(
            e[i * n : i * n + i] == e[i : i * n : n] for i in range(n)
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.entries)

    def support_bits(self) -> list[int]:
        """One int per row, bit j set where entry j is nonzero (exact zero test)."""
        rows = map(self.row, range(self.rows))
        return [sum(1 << j for j, v in enumerate(r) if v) for r in rows]

    # -- transpose ------------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def scaled_entries(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*{q for _, q in ratios})  # few distinct denominators, few gcds
    return [p * (den // q) for p, q in ratios], den


# -- rank ---------------------------------------------------------------------


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    # Row scaling preserves rank; clearing denominators lets the elimination
    # run on plain integers.
    return [scaled_entries(m.row(i))[0] for i in range(m.rows)]


def _eliminate(a: list[list[int]], cols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows ``a``, in place.

    Each pivot clears its column in every other row, above and below, and
    each update divides by the previous pivot; by Sylvester's identity
    every entry stays a minor of the input, so the division is exact.
    Afterwards the first ``len(pivots)`` rows are d times the reduced row
    echelon form, where d is the last pivot, and every other row is zero.

    Returns (the pivot columns, d).
    """
    prev = 1
    pivots: list[int] = []
    n_rows = len(a)
    for c in range(cols):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        x = top[c]
        for i in range(n_rows):
            if i == r:
                continue
            y = a[i][c]
            row = []
            for u, w in zip(a[i], top):
                quot, rem = divmod(x * u - y * w, prev)
                if rem:  # Sylvester's identity makes it exact; anything else is a bug
                    raise AssertionError("inexact division in fraction-free elimination")
                row.append(quot)
            a[i] = row
        pivots.append(c)
        prev = x
    return pivots, prev


def rank(m: ExactMatrix) -> int:
    """Exact rank, by fraction-free elimination.

    The rows are scaled to integers first (:func:`_integer_rows`), which
    keeps the rank over Q, and their rank modulo the prime
    ``_MODULAR_PRIME`` = 2^31 - 1 is computed by :func:`rank_mod_p` on
    packed rows (a ``2 * 31 + rows.bit_length()``-bit slot per column).
    It never exceeds the rank over Q, since a minor nonzero mod p is a
    nonzero integer minor, so when it is already ``min(rows, cols)`` that
    is the rank and the elimination of the same integer rows is skipped.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    full = min(m.rows, m.cols)
    rows = _integer_rows(m)
    if rank_mod_p(rows, _MODULAR_PRIME) == full:
        return full
    return len(_eliminate(rows, m.cols)[0])


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p (``p`` prime) of the integer matrix with these rows.

    Each row is packed into one int with one ``width``-bit slot per column,
    its first remaining column in the lowest slot, so that clearing a column
    is one big-integer multiply-add per row.  The pivot row is reduced mod
    p, scaled by the inverse of its pivot and keeps only the columns right
    of the pivot; every other row, with ``y`` in the pivot column, becomes
    ``(row >> width) + (p - y) * pivot_row``, which is ``row - y * pivot_row``
    mod p without the pivot column.  All other entries are reduced only when
    they are read, as ``(row & mask) % p``.
    """
    if not rows:
        return 0
    # Every slot stays non-negative, so no carry can cross into the next
    # slot while each stays below 2^width: a row starts reduced mod p and
    # receives fewer than len(rows) additions, each (p - y) times a reduced
    # entry, so below p^2, and len(rows) * p^2 < 2^width
    width = 2 * p.bit_length() + len(rows).bit_length()
    mask = (1 << width) - 1
    rest = []
    for row in rows:
        packed = 0
        for v in reversed(row):
            packed = packed << width | v % p
        rest.append(packed)
    r = 0
    # right: the number of columns right of the current one
    for right in range(len(rows[0]) - 1, -1, -1):
        for k, row in enumerate(rest):
            x = (row & mask) % p
            if x:
                break
        else:
            rest = [row >> width for row in rest]
            continue
        top = rest.pop(k)
        r += 1
        if not (rest and right):
            break
        inv = pow(x, -1, p)
        pivot_row = 0
        for shift in range(right * width, 0, -width):
            pivot_row = pivot_row << width | (top >> shift & mask) * inv % p
        rest = [
            (row >> width) + (p - y) * pivot_row if (y := (row & mask) % p)
            else row >> width
            for row in rest
        ]
    return r
