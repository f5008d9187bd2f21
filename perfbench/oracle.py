"""Independent checks of the program's answers, written without the package.

* Ranks modulo a prime: rank mod p never exceeds the rank over Q, so a
  matrix built as a product of an m x r and an r x n factor whose rank
  mod p is r has rank exactly r.
* Square-root blocks modulo a prime p in which every prime under a
  radical is a quadratic residue: sending each sqrt(q) to a fixed root of
  q mod p is a ring map from the multi-quadratic field, so a 4x4
  determinant that is nonzero mod p is nonzero over the field.
* Proven intervals for cover numbers: a fooling set (pairwise conflicting
  edges) bounds from below, an explicit checked cover from above.
* Triangular rank from below by an explicit triangular sequence; the rank
  bounds it from above.

Only equality tests modulo the 61-bit prime P61 (used to compare exact
matrices cheaply) are probabilistic; every bound returned here is a proof.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

P61 = (1 << 61) - 1


def to_mod(x: Fraction, p: int = P61) -> int:
    x = Fraction(x)
    return x.numerator % p * pow(x.denominator, -1, p) % p


def rank_mod(rows, p: int = P61) -> int:
    """Rank of a rational matrix reduced modulo p (a lower bound on its rank)."""
    work = [[to_mod(v, p) for v in row] for row in rows]
    rank = 0
    n_cols = len(work[0]) if work else 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        pivot_row = [v * inv % p for v in work[rank]]
        work[rank] = pivot_row
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], pivot_row)]
        rank += 1
    return rank


def _det_mod(m: list[list[int]], p: int) -> int:
    a = [row[:] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_parts(x: Fraction) -> tuple[int, int, tuple[int, ...]]:
    """sqrt(x) = f / den * prod(sqrt(q) for q in primes), x >= 0."""
    x = Fraction(x)
    f, primes = 1, []
    for q, e in _prime_factors(x.numerator * x.denominator).items():
        f *= q ** (e // 2)
        if e % 2:
            primes.append(q)
    return f, x.denominator, tuple(primes)


def sqrt_block_full_rank(block, fix_first_sign: bool, start: int = 1_000_003):
    """True if every sign choice for the square roots of the nonzero entries
    of a square block gives a nonsingular matrix, proven modulo one prime.

    Returns False only when some choice is singular modulo three distinct
    suitable primes (then it is singular over the field, barring a
    coincidence of order 1/p^3).  ``fix_first_sign`` fixes the first
    nonzero entry's sign, as the program does by default.
    """
    parts = {(i, j): _sqrt_parts(v) for i, row in enumerate(block) for j, v in enumerate(row) if v}
    radicals = sorted({q for _, _, qs in parts.values() for q in qs})
    bad_moduli = {q for f, den, _ in parts.values() for q in _prime_factors(f * den)}
    positions = sorted(parts)
    free = positions[1:] if fix_first_sign else positions
    n = len(block)
    p, tried = start, 0
    while tried < 3:
        p += 1
        if p % 4 != 3 or not _is_prime(p) or p in bad_moduli:
            continue
        if any(pow(q, (p - 1) // 2, p) != 1 for q in radicals):
            continue
        tried += 1
        root = {q: pow(q, (p + 1) // 4, p) for q in radicals}  # p = 3 mod 4
        value = {}
        for pos, (f, den, qs) in parts.items():
            v = f * pow(den, -1, p) % p
            for q in qs:
                v = v * root[q] % p
            value[pos] = v
        singular = False
        for signs in product((1, -1), repeat=len(free)):
            m = [[0] * n for _ in range(n)]
            for pos, v in value.items():
                m[pos[0]][pos[1]] = v
            for pos, s in zip(free, signs):
                if s < 0:
                    m[pos[0]][pos[1]] = -m[pos[0]][pos[1]] % p
            if _det_mod(m, p) == 0:
                singular = True
                break
        if not singular:
            return True
    return False


# -- proven intervals for cover numbers and triangular rank -------------------


def fooling_lower(ones: list[int], forbidden: list[int], right: int, tries: int, seed: int = 0) -> int:
    """Largest set of ones-edges found that pairwise cannot share a biclique
    avoiding ``forbidden``; its size bounds every such cover from below."""
    rng = random.Random(seed)
    edges = [(u, v) for u, mask in enumerate(ones) for v in range(right) if (mask >> v) & 1]

    def conflict(e, f) -> bool:
        return bool((forbidden[e[0]] >> f[1]) & 1 or (forbidden[f[0]] >> e[1]) & 1)

    best: list = []
    for _ in range(tries):
        rng.shuffle(edges)
        chosen: list = []
        for e in edges:
            if all(conflict(e, f) for f in chosen):
                chosen.append(e)
        if len(chosen) > len(best):
            best = chosen
    return len(best)


def greedy_cover_upper(ones: list[int], forbidden: list[int], right: int, tries: int, seed: int = 0) -> int:
    """Size of the smallest checked cover of the ones-edges by bicliques
    avoiding ``forbidden`` that randomized greedy growth finds."""
    rng = random.Random(seed)
    left = len(ones)
    allowed_cols = [~forbidden[u] & ((1 << right) - 1) for u in range(left)]
    best = None
    for _ in range(tries):
        uncovered = list(ones)
        cover = []
        while any(uncovered):
            u = rng.choice([x for x in range(left) if uncovered[x]])
            v = rng.choice([y for y in range(right) if (uncovered[u] >> y) & 1])
            rows, cols = 1 << u, 1 << v
            while True:
                gains = []
                col_ok = ~0
                for x in range(left):
                    if (rows >> x) & 1:
                        col_ok &= allowed_cols[x]
                for y in range(right):
                    if (col_ok >> y) & 1 and not (cols >> y) & 1:
                        g = sum(1 for x in range(left) if (rows >> x) & 1 and (uncovered[x] >> y) & 1)
                        gains.append((g, rng.random(), "c", y))
                for x in range(left):
                    if not (rows >> x) & 1 and allowed_cols[x] & cols == cols:
                        g = (uncovered[x] & cols).bit_count()
                        gains.append((g, rng.random(), "r", x))
                if not gains:
                    break
                _, _, kind, idx = max(gains)
                if kind == "c":
                    cols |= 1 << idx
                else:
                    rows |= 1 << idx
            cover.append((rows, cols))
            for x in range(left):
                if (rows >> x) & 1:
                    uncovered[x] &= ~cols
        for rows, cols in cover:  # check: no forbidden pair inside
            if any(forbidden[x] & cols for x in range(left) if (rows >> x) & 1):
                raise AssertionError("greedy biclique contains a forbidden pair")
        if best is None or len(cover) < best:
            best = len(cover)
    return best


def triangular_lower(row_bits: list[int], tries: int, seed: int = 0) -> int:
    """Length of the longest checked triangular sequence found: rows k_i,
    cols l_i with (k_i, l_i) nonzero and (k_i, l_j) zero for j < i."""
    rng = random.Random(seed)
    best = 0
    for _ in range(tries):
        used_cols, used_rows, seq = 0, 0, []
        while True:
            avail = [k for k, bits in enumerate(row_bits) if bits and not (used_rows >> k) & 1 and not bits & used_cols]
            if not avail:
                break
            moves = []
            for k in avail:
                for l in range(row_bits[k].bit_length()):
                    if (row_bits[k] >> l) & 1:
                        killed = sum((row_bits[x] >> l) & 1 for x in avail)
                        moves.append((killed, rng.random(), k, l))
            moves.sort()  # fewest rows ruled out first, sometimes a later one
            _, _, k, l = moves[min(int(rng.expovariate(1.0)), len(moves) - 1)]
            seq.append((k, l))
            used_rows |= 1 << k
            used_cols |= 1 << l
        for i, (k, l) in enumerate(seq):  # check the sequence
            if not (row_bits[k] >> l) & 1 or any((row_bits[k] >> lj) & 1 for _, lj in seq[:i]):
                raise AssertionError("greedy sequence is not triangular")
        best = max(best, len(seq))
    return best


def row_bits(rows) -> list[int]:
    return [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
