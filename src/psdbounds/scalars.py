"""Exact arithmetic in real multi-quadratic extensions of the rationals.

A :class:`MultiQuadScalar` is a finite sum ``sum_s c_s * sqrt(s)`` where the
radicands ``s`` are distinct square-free positive integers and the
coefficients ``c_s`` are rationals.  Square roots of distinct square-free
integers are linearly independent over Q, so this representation is
canonical: a scalar is zero exactly when every coefficient is zero, which
makes equality (and hence matrix rank over these fields, see
:func:`multiquad_rank`) decidable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import _MODULAR_PRIME

# primes p = 3 (mod 4) that modular_images tries, downward from _MODULAR_PRIME
_PRIME_CANDIDATES = 4096


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
    # Miller-Rabin with bases 2, 7, 61 is exact below 4,759,123,141
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 61):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class MultiQuadScalar:
    """An element of Q(sqrt(d_1), ..., sqrt(d_k)) in canonical form.

    Stored as a map from square-free radicand to rational coefficient, with
    zero coefficients dropped.  Instances are immutable; all operators
    return fresh scalars.
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
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def generators(self) -> tuple[int, ...]:
        """Sorted square-free radicands (> 1) actually present."""
        return tuple(sorted(r for r in self._terms if r > 1))

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self._terms)

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

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

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiQuadScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = MultiQuadScalar()
        out._terms = _mul_terms(self._terms, other._terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiQuadScalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = MultiQuadScalar.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __float__(self) -> float:
        return sum(float(c) * (r ** 0.5) for r, c in self._terms.items())

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
