"""Walkthrough: exact arithmetic with nested square roots.

Sign enumeration needs the rank of matrices with entries like sqrt(6) to
be decided exactly, so scalars live in Q(sqrt(d_1), ..., sqrt(d_k)): sums
of rational multiples of square roots of square-free integers.  Equality
is coefficient-wise; inverses come from rationalizing one prime at a time.
A matrix over such a field is a list of rows: `multiquad_rank` decides its
rank by division-free elimination, and a 2x2 determinant is a*d - b*c.
(`ExactMatrix` and the rest of `linalg` hold rationals only.)
"""

from fractions import Fraction

from psdbounds import MultiQuadScalar, multiquad_rank, sqrt_embed


def det2(m):
    (a, b), (c, d) = m
    return a * d - b * c


r2, r3 = sqrt_embed(2), sqrt_embed(3)
print("sqrt(12) =", sqrt_embed(12))
print("sqrt(9/4) =", sqrt_embed(Fraction(9, 4)))
print("sqrt(2)*sqrt(3) =", r2 * r3)
print("sqrt(3)*sqrt(6) =", r3 * sqrt_embed(6))

x = 1 + r2 + r3
print("\nx =", x)
print("x^2 =", x * x)
print("1/x =", x.inverse())
print("x * 1/x =", x * x.inverse())

m = [[r2, r3], [r3, r2]]
print("\nM = [[sqrt2, sqrt3], [sqrt3, sqrt2]]")
print("det(M) =", det2(m), " rank(M) =", multiquad_rank(m))

# a rank drop that floating point would have to guess at:
n = [[r2, r3], [sqrt_embed(6), sqrt_embed(9)]]
print("\nN = [[sqrt2, sqrt3], [sqrt6, 3]]  (second row = sqrt3 * first)")
print("rank(N) =", multiquad_rank(n))
print("det(N) =", det2(n), "== 0:", det2(n) == MultiQuadScalar.zero())
