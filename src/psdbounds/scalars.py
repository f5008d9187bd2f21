"""Entrywise square roots over multi-quadratic fields: the order-3 exclusion.

A :class:`MultiQuadScalar` is a finite sum ``sum_s c_s * sqrt(s)`` where the
radicands ``s`` are distinct square-free positive integers and the
coefficients ``c_s`` are rationals.  Square roots of distinct square-free
integers are linearly independent over Q, so this representation is
canonical: a scalar is zero exactly when every coefficient is zero, which
makes equality (and hence matrix rank over these fields, see
:func:`multiquad_rank`) decidable.  A scalar has the ring operations
``+``, ``-``, ``*`` and negation, with ints and Fractions on either side
of ``+`` and ``*``, and :meth:`MultiQuadScalar.inverse`; a rational one
equals and hashes like its Fraction.  These ranks carry the argument
beyond the pattern: the sign enumeration :func:`min_sqrt_rank` over the
entrywise square roots of a block, and :func:`order3_exclusion`, the
certificate that a matrix has psd rank at least 4.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, gcd, lcm, prod

from . import _frozen
from .linalg import _MODULAR_PRIME, ExactMatrix, rank_mod_p

# primes p = 3 (mod 4) that modular_images tries, downward from _MODULAR_PRIME
_PRIME_CANDIDATES = 4096

DEFAULT_SIGN_CAP = 24
_SCAN_LIMIT = 200_000  # block pairs the order-3 scan scores
_SCAN_CHUNK = 1024  # column sets the order-3 scan tables at a time


def _prime_factors(n: int) -> dict[int, int]:
    """Prime -> exponent for a positive integer, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:  # the rest is a prime
        factors[n] = factors.get(n, 0) + 1
    return factors


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = f*f*s`` with ``s`` square-free; return ``(f, s)``.

    ``n`` must be a nonnegative integer.  ``squarefree_decompose(0)`` is
    ``(0, 1)``.
    """
    if n < 0:
        raise ValueError("square-free decomposition needs a nonnegative integer")
    if n == 0:
        return 0, 1
    factors = _prime_factors(n).items()
    return prod(q ** (e // 2) for q, e in factors), prod(q for q, e in factors if e % 2)


def _mul_terms(x: dict, y: dict) -> dict:
    """Product of two radicand->coefficient maps (int or Fraction values).

    sqrt(s)*sqrt(t) = g*sqrt(s*t/g^2) with g = gcd(s, t); the new radicand
    is square-free because s/g and t/g are coprime and square-free.  Zero
    coefficients are dropped.
    """
    acc = {}
    for s, a in x.items():
        for t, b in y.items():
            g = gcd(s, t)
            r = (s // g) * (t // g)
            v = acc.get(r, 0) + a * b * g
            if v:
                acc[r] = v
            else:
                acc.pop(r, None)
    return acc


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime, for ``n = 3 (mod 4)`` below 4,759,123,141.

    Below that bound the Miller-Rabin test with bases 2, 7 and 61 is exact.
    Such an ``n`` has ``n - 1 = 2 d`` with ``d`` odd, so the test asks only
    whether ``a^d = +-1 (mod n)``.  The prime 7 fails it at its own base.
    """
    return n == 7 or all(pow(a, (n - 1) // 2, n) in (1, n - 1) for a in (2, 7, 61))


class MultiQuadScalar:
    """An element of Q(sqrt(d_1), ..., sqrt(d_k)) in canonical form.

    Stored as a map from square-free radicand to rational coefficient, with
    zero coefficients dropped.  Instances are immutable; all operators
    return fresh scalars.  Division is by :meth:`inverse`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for rad, coef in terms.items():
                if rad <= 0:
                    raise ValueError(f"radicand must be positive, got {rad}")
                f, s = squarefree_decompose(rad)
                if f != 1:
                    raise ValueError(f"radicand {rad} is not square-free")
                c = Fraction(coef)
                if c:
                    clean[s] = c
        self._terms = clean

    @classmethod
    def from_rational(cls, value) -> "MultiQuadScalar":
        return cls({1: Fraction(value)})

    @classmethod
    def zero(cls) -> "MultiQuadScalar":
        return cls()

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self.is_rational:  # keep hash equality with Fraction/int values
            return hash(self._terms.get(1, Fraction(0)))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "MultiQuadScalar":
        out = MultiQuadScalar()
        out._terms = {r: -c for r, c in self._terms.items()}
        return out

    def __add__(self, other) -> "MultiQuadScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for r, c in other._terms.items():
            v = merged.get(r, Fraction(0)) + c
            if v:
                merged[r] = v
            else:
                merged.pop(r, None)
        out = MultiQuadScalar()
        out._terms = merged
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiQuadScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = MultiQuadScalar()
        out._terms = _mul_terms(self._terms, other._terms)
        return out

    __rmul__ = __mul__

    def conjugated(self, p: int) -> "MultiQuadScalar":
        """Negate every term whose radicand is divisible by the prime ``p``."""
        out = MultiQuadScalar()
        out._terms = {r: (-c if r % p == 0 else c) for r, c in self._terms.items()}
        return out

    def inverse(self) -> "MultiQuadScalar":
        """Multiplicative inverse, by rationalizing one prime at a time.

        With ``x = a + b*sqrt(p)`` (``a``, ``b`` in the subfield without
        ``p``), ``x * conj_p(x) = a^2 - p*b^2`` lives in the subfield, so
        recursion terminates after one step per prime.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        primes = set().union(*map(_prime_factors, self._terms))
        if not primes:
            return MultiQuadScalar({1: 1 / self._terms[1]})
        p = min(primes)
        conj = self.conjugated(p)
        norm = self * conj
        if any(r % p == 0 for r in norm._terms):  # pragma: no cover
            raise ArithmeticError("rationalization failed to eliminate a prime")
        return conj * norm.inverse()

    def __repr__(self) -> str:
        return f"MultiQuadScalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for r in sorted(self._terms):
            c = self._terms[r]
            if r == 1:
                txt = str(c)
            elif c == 1:
                txt = f"sqrt({r})"
            elif c == -1:
                txt = f"-sqrt({r})"
            else:
                txt = f"{c}*sqrt({r})"
            parts.append(txt)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coerce(value) -> "MultiQuadScalar":
    if isinstance(value, MultiQuadScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiQuadScalar.from_rational(value)
    return NotImplemented


def sqrt_embed(value) -> MultiQuadScalar:
    """Exact square root of a nonnegative rational as a multi-quadratic scalar.

    Writes ``value = (f/q)^2 * s`` with ``s`` square-free and returns
    ``(f/q)*sqrt(s)``; squaring the result recovers ``value`` exactly.
    """
    r = Fraction(value)
    if r < 0:
        raise ValueError(f"cannot take a real square root of {r}")
    # sqrt(p/q) = sqrt(p*q)/q
    f, s = squarefree_decompose(r.numerator * r.denominator)
    return MultiQuadScalar({s: Fraction(f, r.denominator)})


def modular_images(values) -> tuple[int, list[int]] | None:
    """Images of multi-quadratic scalars under one ring map into F_p.

    p is the first prime p = 3 (mod 4) below 2^31 that divides no
    coefficient denominator and modulo which every prime factor q of every
    radicand is a nonzero square.  The map sends sqrt(q) to q^((p+1)/4),
    a square root of q mod p, and ``c*sqrt(s)`` to ``c`` times the product
    of the roots of the primes dividing ``s``.  It is a ring homomorphism
    on the subring the values generate, so a matrix of images has rank
    mod p at most its exact rank.  Returns ``(p, images)``, or ``None``
    when none of the first ``_PRIME_CANDIDATES`` such primes qualifies.
    """
    values = list(values)
    radicand_primes: set[int] = set()
    den = 1
    for v in values:
        for r, c in v._terms.items():
            radicand_primes.update(_prime_factors(r))
            den = lcm(den, c.denominator)
    p, tried = _MODULAR_PRIME, 0
    while True:
        if _is_prime(p):
            if den % p and all(
                pow(q, (p - 1) // 2, p) == 1 for q in radicand_primes
            ):
                break
            tried += 1
            if tried == _PRIME_CANDIDATES:
                return None
        p -= 4
    roots = {q: pow(q, (p + 1) // 4, p) for q in radicand_primes}
    images = []
    for v in values:
        acc = 0
        for r, c in v._terms.items():
            term = c.numerator * pow(c.denominator, -1, p)
            for q in _prime_factors(r):
                term = term * roots[q] % p
            acc += term
        images.append(acc % p)
    return p, images


def _cross(p: dict, x: dict, q: dict, y: dict) -> dict:
    """p*x - q*y over radicand -> integer coefficient maps."""
    acc = _mul_terms(p, x)
    for r, v in _mul_terms(q, y).items():
        w = acc.get(r, 0) - v
        if w:
            acc[r] = w
        else:
            acc.pop(r, None)
    return acc


def multiquad_rank(rows) -> int:
    """Exact rank of the matrix with these rows of :class:`MultiQuadScalar`.

    Each row is scaled to integer coefficients, then eliminated by two-row
    cross-multiplication.  That needs only ring operations, so it is exact
    over the multi-quadratic field; every new row is divided by the gcd of
    its coefficients to keep them small.
    """
    a = []
    for row in rows:
        terms = [v._terms for v in row]
        den = lcm(*(c.denominator for t in terms for c in t.values()))
        a.append([{r: int(c * den) for r, c in t.items()} for t in terms])
    n_rows = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, n_rows):
            q = a[i][c]
            if not q:
                continue
            new = [_cross(p, x, q, y) for x, y in zip(a[i], a[r])]
            g = gcd(*(v for d in new for v in d.values()))
            if g > 1:
                new = [{rad: v // g for rad, v in d.items()} for d in new]
            a[i] = new
        r += 1
    return r


# -- square-root sign enumeration ---------------------------------------------


@_frozen
class SignAssignment:
    """Signs for the nonzero entries of a submatrix, in row-major order."""

    positions: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.signs):
            raise ValueError("one sign per position")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@_frozen
class SqrtRankResult:
    min_rank: int
    witness: SignAssignment | None
    assignments_checked: int


def min_sqrt_rank(
    s: ExactMatrix,
    row_set,
    col_set,
    fix_global_sign: bool = True,
    cap: int = DEFAULT_SIGN_CAP,
) -> SqrtRankResult:
    """Minimum exact rank over all entrywise square roots of a submatrix.

    Every matrix Y with Y(k,l)^2 = S(k,l) on the selected block arises from
    one of 2^z sign choices on the z nonzero entries (zeros stay zero); the
    rank is computed exactly over the multi-quadratic field generated by
    the square-free parts.  Since Y and -Y have equal rank, the first sign
    is fixed unless ``fix_global_sign`` is false.

    Flipping the signs of one row or one column multiplies Y by a diagonal
    +-1 matrix D on that side, and rank(D_r Y D_c) = rank(Y) over every
    field, so the choices fall into orbits of 2^(r+c-k) choices of equal
    rank (r, c the block's nonzero rows and columns, k the connected
    components of its nonzero entries).  Only the smallest code of each
    orbit is ranked, in increasing code order, so the first minimizer is
    the first one of the full enumeration.  ``assignments_checked`` still
    counts every choice the orbits cover.  Both settings rank the same
    2^(z-(r+c-k)) representatives: ``fix_global_sign=False`` lets the first
    sign be negative, and ``assignments_checked`` then counts 2^z choices
    instead of 2^(z-1).
    """
    rows = list(row_set)
    cols = list(col_set)
    for kind, idx, size in (("row", rows, s.rows), ("column", cols, s.cols)):
        bad = [k for k in idx if not 0 <= k < size]
        if bad:
            raise ValueError(
                f"{kind} index {bad[0]} outside the {s.rows}x{s.cols} matrix "
                "(indices are 0-based)"
            )
        repeated = [k for i, k in enumerate(idx) if k in idx[:i]]
        if repeated:
            raise ValueError(
                f"{kind} index {repeated[0]} is repeated (indices are 0-based)"
            )
    sub = s.submatrix(rows, cols)
    if not sub.is_nonnegative():
        raise ValueError("selected submatrix must be nonnegative")
    local = [
        (i, j) for i in range(sub.rows) for j in range(sub.cols) if sub[i, j]
    ]
    positions = [(rows[i], cols[j]) for i, j in local]
    z = len(positions)
    if z > cap:
        raise ValueError(f"{z} nonzero entries exceed the enumeration cap {cap}")
    if z == 0:
        return SqrtRankResult(0, SignAssignment((), ()), 1)

    roots = [sqrt_embed(sub[p]) for p in local]
    zero = MultiQuadScalar.zero()
    n_free = z - 1 if fix_global_sign else z
    # the rank mod p never exceeds the exact rank, so a sign choice whose
    # modular rank already reaches the best exact rank cannot lower the minimum
    modular = modular_images(roots)

    # a sign choice's code has bit t set where sign t is negative; flipping a
    # row or a column xors the code with that line's mask.  With the first
    # sign fixed, a flip that changes it is followed by the global flip, so
    # a mask with bit 0 set acts as its complement
    lines = [0] * (sub.rows + sub.cols)
    for t, (i, j) in enumerate(local):
        lines[i] |= 1 << t
        lines[sub.rows + j] |= 1 << t
    full = (1 << z) - 1
    basis: dict[int, int] = {}  # highest set bit -> vector of the span
    for mask in lines:
        if fix_global_sign and mask & 1:
            mask ^= full
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                break
            mask ^= basis[top]
    # the codes zero at every pivot are the smallest code of each orbit; a
    # binary counter over the other free positions, the lowest in its lowest
    # bit, visits them in increasing code order, so the witness is the first
    # minimizing choice of the counter over all 2^n_free codes
    free = [t for t in range(z - n_free, z) if t not in basis][::-1]
    best_rank, best_signs = sub.rows + sub.cols + 1, ()
    signs = [1] * z
    for choice in product((1, -1), repeat=len(free)):
        for t, sign in zip(free, choice):
            signs[t] = sign
        if modular is not None:
            p, images = modular
            grid = [[0] * sub.cols for _ in range(sub.rows)]
            for t, (i, j) in enumerate(local):
                grid[i][j] = images[t] if signs[t] > 0 else p - images[t]
            if rank_mod_p(grid, p) >= best_rank:
                continue
        entries = [[zero] * sub.cols for _ in range(sub.rows)]
        for t, (i, j) in enumerate(local):
            entries[i][j] = roots[t] if signs[t] > 0 else -roots[t]
        r = multiquad_rank(entries)
        if r < best_rank:
            best_rank, best_signs = r, tuple(signs)

    witness = SignAssignment(tuple(positions), best_signs)
    return SqrtRankResult(best_rank, witness, 1 << n_free)


# -- the order-3 exclusion certificate ----------------------------------------


@_frozen
class Order3Certificate:
    """Result of the dimension-forcing + sign-enumeration argument.

    When ``conclusive``, no order-3 psd factorization of the matrix exists,
    i.e. its psd rank is at least ``bound`` (= 4; None when inconclusive).
    The hypothesis fields record which rows/columns had their subspace
    dimensions pinned; column distinctness is checked at support level
    only (distinct zero patterns), which is the machine-checkable form of
    the underlying argument.
    """

    conclusive: bool
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    min_rank: int | None
    assignments_checked: int
    witness: SignAssignment | None
    pinned_rows: tuple[int, ...]
    pinned_cols: tuple[int, ...]
    reason: str = ""

    @property
    def bound(self) -> int | None:
        return 4 if self.conclusive else None

    @property
    def claim(self) -> str:
        return "psd rank >= 4" if self.conclusive else "inconclusive"


def _pinned_sets(row_bits: list[int], col_bits: list[int]) -> tuple[list[int], list[int]]:
    """Rows forced to 1-dimensional lines and columns forced to planes.

    In any order-3 factorization, via the induced embedding with
    U_k = img A_k and V_l = ker B_l:

    * a row with a nonzero entry has dim U_k >= 1; if it also has two zeros
      in columns of distinct zero pattern (each column containing some
      nonzero entry, so dim V <= 2 there), dim U_k = 2 or 3 would force two
      distinct columns to share their V, hence dim U_k = 1;
    * a column with a nonzero entry has dim V_l <= 2; two zeros at rows of
      distinct zero pattern (each row containing a nonzero) rule out
      dim V_l <= 1, hence dim V_l = 2.
    """
    return _pinned(row_bits, col_bits), _pinned(col_bits, row_bits)


def _pinned(lines: list[int], cross: list[int]) -> list[int]:
    """Nonzero lines whose zeros meet nonzero cross lines of two distinct
    zero patterns; ``lines`` are the rows (or columns) as bitmasks over the
    ``cross`` lines."""
    return [
        k
        for k, bits in enumerate(lines)
        if bits and len({c for l, c in enumerate(cross) if c and not bits >> l & 1}) >= 2
    ]


def _cheapest_blocks(
    row_bits, pinned_rows: list[int], pinned_cols: list[int], cap: int, keep: int
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The ``keep`` smallest ``(z, rows, cols)`` with ``z <= cap``, sorted.

    The candidates are the 4x4 blocks of pinned rows x pinned columns, z
    counts a block's nonzero entries, and only the lexicographically first
    ``_SCAN_LIMIT`` (row set, column set) pairs are scored, which caps huge
    inputs deterministically.  The column sets are taken ``_SCAN_CHUNK`` at
    a time, and per chunk each row's nonzero counts on the column sets are
    packed into one int, one byte per set: the sum of the ints that mark
    the sets holding each of the row's columns.  A row set's z values are
    then the sum of four row ints, byte by byte, since no z exceeds 16 and
    so no byte carries.  Each z lands in one byte array at its pair's
    index, row set times column sets plus column set, which orders like
    (rows, cols) since combinations() yields the sets of a sorted list in
    lexicographic order.  The blocks are then the first ``keep`` bytes
    found for z = 0, 1, ... in turn.
    """
    n_col_sets = comb(len(pinned_cols), 4)
    n_pairs = min(_SCAN_LIMIT, comb(len(pinned_rows), 4) * n_col_sets)
    zs = bytearray(n_pairs)
    col_sets = combinations(pinned_cols, 4)
    for start in range(0, min(n_col_sets, n_pairs), _SCAN_CHUNK):
        chunk = list(islice(col_sets, _SCAN_CHUNK))
        # per pinned column, one byte per column set: 1 where the set holds it
        member = {c: bytearray(len(chunk)) for c in pinned_cols}
        for j, cols in enumerate(chunk):
            for c in cols:
                member[c][j] = 1
        holds = {c: int.from_bytes(b, "little") for c, b in member.items()}
        packed: dict[int, int] = {}  # each row's counts, one byte per set
        for r, krows in enumerate(combinations(pinned_rows, 4)):
            base = r * n_col_sets + start
            width = min(len(chunk), n_pairs - base)
            if width <= 0:
                break
            total = 0
            for k in krows:
                if k not in packed:
                    packed[k] = sum(holds[c] for c in pinned_cols if row_bits[k] >> c & 1)
                total += packed[k]
            zs[base : base + width] = total.to_bytes(len(chunk), "little")[:width]
    picked = []  # (z, pair index), in (z, rows, cols) order
    for z in range(min(cap, 16) + 1):
        j = zs.find(z)
        while j >= 0 and len(picked) < keep:
            picked.append((z, j))
            j = zs.find(z, j + 1)

    def sets_at(items: list[int], wanted: set[int]) -> dict[int, tuple[int, ...]]:
        # the 4-sets of items at these positions, in one pass up to the last
        sets = islice(combinations(items, 4), max(wanted, default=-1) + 1)
        return {i: s for i, s in enumerate(sets) if i in wanted}

    row_sets = sets_at(pinned_rows, {j // n_col_sets for _, j in picked})
    col_sets = sets_at(pinned_cols, {j % n_col_sets for _, j in picked})
    return [(z, row_sets[j // n_col_sets], col_sets[j % n_col_sets]) for z, j in picked]


def order3_exclusion(
    s: ExactMatrix,
    fix_global_sign: bool = True,
    cap: int = DEFAULT_SIGN_CAP,
    max_attempts: int = 64,
) -> Order3Certificate:
    """Certificate that a nonnegative matrix has psd rank at least 4.

    If an order-3 factorization existed, the pinned rows would carry rank-1
    A factors and the pinned columns rank-1 B factors, making the selected
    block an entrywise square of a rank <= 3 matrix.  Enumerating all sign
    choices of the square roots and finding every rank >= 4 refutes that.
    Returns an inconclusive certificate (not an error) when the hypothesis
    fails or every tried block admits a low-rank square root.
    """
    if not s.is_nonnegative():
        raise ValueError("order-3 exclusion needs a nonnegative matrix")
    if max_attempts < 0:
        raise ValueError(f"max_attempts must be nonnegative, got {max_attempts}")
    row_bits = s.support_bits()
    pinned_rows, pinned_cols = _pinned_sets(row_bits, s.transpose().support_bits())

    def inconclusive(reason: str) -> Order3Certificate:
        return Order3Certificate(
            False, (), (), None, 0, None,
            tuple(pinned_rows), tuple(pinned_cols), reason,
        )

    if len(pinned_rows) < 4 or len(pinned_cols) < 4:
        return inconclusive(
            "fewer than four rows or columns have forced subspace dimensions"
        )

    # one block is kept even when none will be tried, to tell an empty scan
    # from a zero attempt count
    blocks = _cheapest_blocks(
        row_bits, pinned_rows, pinned_cols, cap, max(max_attempts, 1)
    )
    if not blocks:
        return inconclusive("every candidate block exceeds the enumeration cap")
    blocks = blocks[:max_attempts]
    for z, krows, lcols in blocks:
        result = min_sqrt_rank(
            s, krows, lcols, fix_global_sign=fix_global_sign, cap=cap
        )
        if result.min_rank >= 4:
            return Order3Certificate(
                True, tuple(krows), tuple(lcols),
                result.min_rank, result.assignments_checked, result.witness,
                tuple(pinned_rows), tuple(pinned_cols),
            )
    return inconclusive(
        f"all {len(blocks)} candidate blocks admit a square root of rank <= 3"
    )

