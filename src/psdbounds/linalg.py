"""Dense exact linear algebra over the rationals, with no floating point.

:class:`ExactMatrix` keeps the form its kernels read: integer numerators
over one positive denominator per row.  It is a frozen record
(``psdbounds._frozen``, the one package name imported here) of its shape
and its row-major ``entries``, Fractions built on the first read and
kept: it equals, hashes, copies and pickles by value and refuses
assignment.  Rank is one fraction-free Gauss-Jordan elimination
(:func:`_eliminate`) of the integer rows, after a full-rank filter, the
rank mod p of :func:`rank_mod_p` on the same rows packed one int per row
with a carry-free slot per column.  Ranks over the multi-quadratic fields
of entrywise square roots are :func:`psdbounds.scalars.multiquad_rank`.
Every command compiles this module, so the subspace algebra built on the
same elimination lives in :mod:`psdbounds.psd`, the certify chain that
alone uses it; and `fractions` (which loads `decimal`, about 2.5 ms of a
launch on a 2-vCPU host) is imported only where a Fraction is built.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING

from . import _frozen

if TYPE_CHECKING:
    from fractions import Fraction

# 2^31 - 1, a prime: the modulus of rank's full-rank filter and the first
# prime scalars.modular_images tries
_MODULAR_PRIME = (1 << 31) - 1


@_frozen
class ExactMatrix:
    """Immutable dense matrix with exact rational entries: row i is the
    integers ``nums[i * cols : (i + 1) * cols]`` over ``dens[i]`` > 0, in
    any terms (no denominator if ``cols`` is 0), as readers and kernels
    build it (:meth:`_of`).  ``entries``, ``row`` and indexing give Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        from fractions import Fraction
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        # a MultiQuadScalar entry fails here with the TypeError of Fraction()
        e = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.entries)
        if len(e) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(e)}")
        nums, dens = _over_lcm(list(map(Fraction.as_integer_ratio, e)), self.cols)
        self.__dict__.update(entries=e, nums=tuple(nums), dens=tuple(dens))

    @classmethod
    def _of(cls, rows: int, cols: int, nums, dens) -> "ExactMatrix":
        """The matrix of these ``nums`` over these ``dens``, as held."""
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, nums=tuple(nums), dens=tuple(dens))
        return m

    def __getattr__(self, name):
        if name != "entries":  # only a missing ``entries`` lands here: built once, then kept
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from fractions import Fraction
        rows = zip(self.integer_rows(), self.dens)
        e = self.__dict__["entries"] = tuple(Fraction(p, d) for row, d in rows for p in row)
        return e

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, [v for r in rows for v in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._of(n, n, [int(i == j) for i in range(n) for j in range(n)], [1] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._of(rows, cols, [0] * (rows * cols), [1] * (rows if cols else 0))

    def integer_rows(self) -> list[tuple[int, ...]]:
        """Each row times its denominator: the same rank, row space and zeros."""
        n, nums = self.cols, self.nums
        return [nums[i * n : (i + 1) * n] for i in range(self.rows)]

    def scaled(self) -> tuple[tuple[int, ...], int]:
        """Every entry, row by row, as an integer over the lcm of the rows' denominators."""
        dens, den = self.dens, lcm(*self.dens)
        if dens.count(den) == len(dens):
            return self.nums, den
        return tuple(v * (den // d) for d, row in zip(dens, self.integer_rows()) for v in row), den

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
        rows, cols, n = list(row_idx), list(col_idx), self.cols
        sub = [self.nums[i * n + j] for i in rows for j in cols]
        dens = [self.dens[i] for i in rows] if cols else []
        return ExactMatrix._of(len(rows), len(cols), sub, dens)

    def is_symmetric(self) -> bool:
        # row i left of the diagonal against column i above it
        n, (e, _) = self.cols, self.scaled()
        return self.rows == self.cols and all(
            e[i * n : i * n + i] == e[i : i * n : n] for i in range(n)
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.nums)

    def support_bits(self) -> list[int]:
        """One int per row, bit j set where entry j is nonzero (exact zero test)."""
        return [sum(1 << j for j, v in enumerate(r) if v) for r in self.integer_rows()]

    def transpose(self) -> "ExactMatrix":
        (e, den), m, n = self.scaled(), self.rows, self.cols
        nums = [v for j in range(n) for v in e[j::n]]
        return ExactMatrix._of(n, m, nums, [den] * (n if m else 0))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _over_lcm(ratios: list[tuple[int, int]], cols: int = 0) -> tuple[list[int], list[int]]:
    """(p, q) pairs, q > 0, in rows of ``cols`` (one if 0): numerators over each row's lcm."""
    step = cols or len(ratios) or 1
    nums, dens = [], []
    for i in range(0, len(ratios), step):
        row = ratios[i : i + step]
        den = lcm(*{q for _, q in row})  # few distinct denominators, few gcds
        nums += [p for p, _ in row] if den == 1 else [p * (den // q) for p, q in row]
        dens.append(den)
    return nums, dens


# -- rank ---------------------------------------------------------------------


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
    """Exact rank, by fraction-free elimination of the integer rows.

    Their rank modulo the prime ``_MODULAR_PRIME`` = 2^31 - 1, from
    :func:`rank_mod_p`, never exceeds the rank over Q, since a minor
    nonzero mod p is a nonzero integer minor; so when it is already
    ``min(rows, cols)`` that is the rank and the elimination is skipped.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    full = min(m.rows, m.cols)
    rows = m.integer_rows()
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
