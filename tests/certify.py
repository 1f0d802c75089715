"""An independent checker of Gabidulin certificates.

classify._gabidulin_generator returns a generator g' as its proof that a code
C is theta-Gabidulin: C = Gab_{theta,k}(g'), the span of the Moore rows
g', theta(g'), ..., theta^(k-1)(g') with rank_q(g') = n.  check() verifies
such a g' using nothing of rankinv's elimination, rank or Frobenius code,
only tests/oracles.py:

* theta(a) = a^(q^r) is oracles.frob_p(a, e*r), square-and-multiply through
  field.mul;
* rank_q(g') is the F_{q^m}-rank of the n x n Moore matrix of g' under the
  oracle rref: for theta generating Gal(F_{q^m}/F_q), whose fixed field is
  F_q, the Moore rows of g' are independent over F_{q^m} exactly when the
  entries of g' are independent over F_q;
* the Moore span is compared with C by the oracle rref of both generators.

A g' that passes makes C theta-Gabidulin by definition, hence MRD.
"""

import math

import oracles


def moore_rows(field, g, rows: int, theta_exp: int):
    """g, theta(g), ..., theta^(rows-1)(g), theta applied entrywise."""
    out, cur = [], tuple(g)
    for _ in range(rows):
        out.append(cur)
        cur = tuple(oracles.frob_p(field, a, field.e * theta_exp) for a in cur)
    return out


def check(code, theta_exp: int, g) -> bool:
    """Whether g certifies code as theta-Gabidulin: theta generates the
    Galois group, g has n entries of full F_q-rank n, and its k Moore rows
    span the code."""
    field, n, k = code.field, code.n, code.k
    if math.gcd(theta_exp, field.m) != 1 or len(g) != n or not 1 <= k <= n:
        return False
    if len(oracles.rref(field, moore_rows(field, g, n, theta_exp))[0]) != n:
        return False
    return oracles.rref(field, moore_rows(field, g, k, theta_exp)) == oracles.rref(field, code.gen)
