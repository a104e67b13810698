"""Benchmark-side exact arithmetic over Q and GF(p).

The generators and the correctness oracle use only this module, never the
library, so that set-up cost and the expected answers stay fixed while the
library changes.  Scalars are ``Fraction`` over Q (``p == 0``) and plain
``int`` residues over GF(p); polynomials are coefficient tuples, low degree
first; matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q when ``p == 0``, otherwise the prime field GF(p)."""

    def __init__(self, p: int = 0):
        self.p = p

    def __repr__(self):
        return f"GF({self.p})" if self.p else "Q"

    def red(self, x):
        return x % self.p if self.p else Fraction(x)

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / Fraction(x)


# -- polynomials (coefficient tuples, low degree first, no trailing zeros)


def ptrim(f, cs):
    cs = [f.red(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(f, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(f, out)


def ppow(f, a, e):
    out = (f.red(1),)
    for _ in range(e):
        out = pmul(f, out, a)
    return out


def pdivmod(f, a, m):
    a = list(a)
    q = [0] * max(len(a) - len(m) + 1, 0)
    inv_lead = f.inv(m[-1])
    while len(a) >= len(m):
        c = f.red(a[-1] * inv_lead)
        shift = len(a) - len(m)
        q[shift] = c
        for k, mk in enumerate(m):
            a[shift + k] -= c * mk
        a = list(ptrim(f, a))
    return ptrim(f, q), ptrim(f, a)


def pmod(f, a, m):
    return pdivmod(f, a, m)[1]


def squarefree(f, a):
    """a / gcd(a, a'): the product of a's distinct irreducible factors
    (characteristic 0)."""
    deriv = ptrim(f, [k * c for k, c in enumerate(a)][1:])
    return pdivmod(f, a, pgcd(f, a, deriv))[0]


def pgcd(f, a, b):
    while b:
        a, b = b, pmod(f, a, b)
    return a


def peval(f, a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return f.red(acc)


def has_root(f, poly) -> bool:
    """Whether a monic polynomial has a root in the field.

    Over Q the polynomial has integer coefficients, so a root divides the
    constant term; over GF(p) it has one iff gcd(poly, x^p - x) != 1."""
    if poly[0] == 0:
        return True
    if not f.p:
        c0 = abs(int(poly[0]))
        divisors = [d for d in range(1, c0 + 1) if c0 % d == 0]
        return any(peval(f, poly, s * d) == 0 for d in divisors for s in (1, -1))
    xp, base, e = (1,), (0, 1), f.p
    while e:
        if e & 1:
            xp = pmod(f, pmul(f, xp, base), poly)
        base = pmod(f, pmul(f, base, base), poly)
        e >>= 1
    g = pgcd(f, poly, ptrim(f, [c - (1 if k == 1 else 0)
                                  for k, c in enumerate(list(xp) + [0, 0])]))
    return len(g) > 1


def irreducible(f, rng, degree: int, bound: int):
    """A seeded monic irreducible of degree 2 or 3 with coefficients in
    [-bound, bound]; irreducible because it has no root in the field."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(degree)] + [1]
        poly = ptrim(f, cs)
        if poly[0] != 0 and not has_root(f, poly):
            return poly


# -- matrices


def ident(f, n):
    return [[f.red(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(f, r, c):
    return [[f.red(0)] * c for _ in range(r)]


def mmul(f, a, b):
    bt = list(zip(*b))
    return [[f.red(sum(x * y for x, y in zip(row, col))) for col in bt] for row in a]


def mneg(f, a):
    return [[f.red(-x) for x in row] for row in a]


def madd(f, a, b):
    return [[f.red(x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(f, a, c):
    return [[f.red(x * c) for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def block_diag(f, blocks):
    n = sum(len(b) for b in blocks)
    out = zeros(f, n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def companion(f, poly):
    """Ones on the superdiagonal, negated coefficients in the last row."""
    n = len(poly) - 1
    out = zeros(f, n, n)
    for i in range(n - 1):
        out[i][i + 1] = f.red(1)
    out[n - 1] = [f.red(-c) for c in poly[:n]]
    return out


def hypercompanion(f, base, e):
    """Companion blocks of ``base`` chained by a one in each lower-left
    corner above the diagonal; a Jordan block when ``base`` is linear."""
    d = len(base) - 1
    out = block_diag(f, [companion(f, base)] * e)
    for b in range(e - 1):
        out[b * d + d - 1][b * d + d] = f.red(1)
    return out


def jordan(f, ev, size):
    return hypercompanion(f, ptrim(f, [-ev, 1]), size)


def rank(f, a) -> int:
    a = [list(row) for row in a]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                t = f.red(a[i][c] * inv)
                a[i] = [f.red(x - t * y) for x, y in zip(a[i], a[r])]
        r += 1
    return r


def det(f, a):
    a = [list(row) for row in a]
    n = len(a)
    d = f.red(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return f.red(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = f.red(-d)
        d = f.red(d * a[c][c])
        inv = f.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                t = f.red(a[i][c] * inv)
                a[i] = [f.red(x - t * y) for x, y in zip(a[i], a[c])]
    return d


# -- unimodular transforms as replayable elementary operations


def elementary_ops(where, signs, n: int, count: int):
    """``count`` seeded operations (i, j, c): add c = +-1 times row j to
    row i.  The rows come from the random stream ``where`` and the signs
    from ``signs``."""
    ops = []
    while len(ops) < count:
        i, j = where.randrange(n), where.randrange(n)
        if i != j:
            ops.append((i, j, signs.choice((-1, 1))))
    return ops


def unimodular(f, n, ops):
    """The product E_k ... E_1 of the elementary matrices of ``ops``."""
    m = ident(f, n)
    for i, j, c in ops:
        m[i] = [f.red(x + c * y) for x, y in zip(m[i], m[j])]
    return m


def conjugate(f, a, ops):
    """E A E^{-1} for each elementary E of ``ops`` in turn, i.e. U A U^{-1}
    with U = unimodular(ops); similar to A by construction."""
    a = [list(row) for row in a]
    n = len(a)
    for i, j, c in ops:
        a[i] = [f.red(x + c * y) for x, y in zip(a[i], a[j])]
        for r in range(n):
            a[r][j] = f.red(a[r][j] - c * a[r][i])
    return a
