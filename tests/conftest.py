"""Shared fixtures: golden matrices and randomized-input helpers."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from canonforms.algebra import (
    QQ,
    ZZ,
    DomainError,
    FactorTerm,
    IntegerRing,
    Poly,
    PrimeField,
    VerificationError,
    _is_prime,
    scalar_is_zero,
)
from canonforms.canonical import _block_sort_key, _checked, _krylov_transform, hypercompanion
from canonforms.matrix import (
    Mat,
    PolynomialRing,
    ShapeError,
    SingularMatrixError,
    _linear_pencil,
    det,
)
from canonforms.smith import _ledger, char_matrix, smith_form


def is_irreducible(f: Poly) -> bool:
    """Brute-force oracle: f has degree >= 1 and no divisor of degree 1 to
    deg(f) / 2.  Over GF(p) every monic candidate is tried; over Q every
    integer candidate h of degree k whose leading coefficient divides that of
    the primitive integer form g and whose coefficients obey Mignotte's
    bound |h_i| <= C(k, i) ||g||_2 (which every factor of g over Z obeys)."""
    d = f.degree
    if d < 1:
        return False
    if isinstance(f.domain, PrimeField):
        p = f.domain.characteristic
        cands = (Poly(f.domain, list(low) + [1])
                 for k in range(1, d // 2 + 1)
                 for low in itertools.product(range(p), repeat=k))
    else:
        den = math.lcm(*(c.denominator for c in f.coeffs))
        g = [int(c * den) for c in f.coeffs]
        g = [c // math.gcd(*g) for c in g]
        norm = math.isqrt(sum(c * c for c in g)) + 1
        lcs = [a for a in range(1, abs(g[-1]) + 1) if g[-1] % a == 0]
        cands = (Poly(QQ, list(low) + [a])
                 for k in range(1, d // 2 + 1) for a in lcs
                 for low in itertools.product(*(
                     range(-math.comb(k, i) * norm, math.comb(k, i) * norm + 1)
                     for i in range(k))))
    return not any((f % h).is_zero() for h in cands)


def rational_roots_by_divisors(f: Poly):
    """Divisor-enumeration oracle for the rational roots of f over Q: every
    root p/q of the primitive integer form has p | a_0 and q | a_n (after the
    root at zero is split off); each candidate is tested and divided out.
    Ascending (root, multiplicity) pairs."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    g = [int(c * den) for c in f.coeffs]
    zeros = next(k for k, c in enumerate(g) if c)
    roots = [(Fraction(0), zeros)] if zeros else []
    g = g[zeros:]
    if len(g) < 2:
        return roots

    def divisors(v):
        return [d for d in range(1, abs(v) + 1) if v % d == 0]

    fq = Poly(QQ, g)
    cands = {Fraction(s * a, b) for a in divisors(g[0]) for b in divisors(g[-1])
             for s in (1, -1)}
    for r in sorted(cands):
        mult = 0
        while fq(r) == 0:
            fq = exact_div(fq, Poly.linear(QQ, r))
            mult += 1
        if mult:
            roots.append((r, mult))
    return sorted(roots)


def exact_div(f: Poly, g: Poly) -> Poly:
    """f / g, raising ArithmeticError unless g divides f (over Z, with an
    integer quotient)."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.domain.is_field or g.leading() in (1, -1):
        q, r = divmod(f, g)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q
    q, r = divmod(Poly(QQ, f.coeffs), Poly(QQ, g.coeffs))
    if not r.is_zero() or any(c.denominator != 1 for c in q.coeffs):
        raise ArithmeticError("inexact polynomial division over Z")
    return Poly(f.domain, (c.numerator for c in q.coeffs))


def derivative(f: Poly) -> Poly:
    return Poly(f.domain, (k * c for k, c in enumerate(f.coeffs) if k >= 1))


# The factorization engine that ``algebra`` ran on ``Poly`` objects before
# gcd, square-free decomposition and factor moved to integer coefficient
# lists, kept as the oracle of that kernel: Euclid's gcd over the field, the
# gcd-quotient chain with p-th roots, distinct- and equal-degree splitting
# over GF(p), and over Q Zassenhaus with linear Hensel lifting and subset
# recombination.


def gcd_by_poly(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field by Euclid's algorithm; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def extended_gcd_by_poly(f: Poly, g: Poly):
    """(d, s, t) with s*f + t*g = d monic."""
    dom = f.domain
    r0, r1 = f, g
    s0, s1 = Poly.one(dom), Poly.zero(dom)
    t0, t1 = Poly.zero(dom), Poly.one(dom)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = dom.one / r0.leading()
    return (Poly(dom, (c * inv for c in r0.coeffs)), Poly(dom, (c * inv for c in s0.coeffs)),
            Poly(dom, (c * inv for c in t0.coeffs)))


def squarefree_by_poly(f: Poly):
    """[(g, m)] as ``squarefree_decompose`` returns them."""
    f = f.monic()
    if f.degree <= 0:
        return []
    acc: dict = {}
    _squarefree_accumulate(f, 1, acc)
    return sorted(acc.items(), key=lambda t: (t[1], t[0].sort_key()))


def _squarefree_accumulate(f: Poly, scale: int, acc: dict) -> None:
    # gcd-quotient chain; in characteristic p the factors whose multiplicity
    # is divisible by p survive in the residual, which is a p-th power
    p = f.domain.characteristic
    fp = derivative(f)
    if fp.is_zero():
        _squarefree_accumulate(_pth_root(f), scale * p, acc)
        return
    g = gcd_by_poly(f, fp)
    w = exact_div(f, g)
    i = 1
    while w.degree > 0:
        y = gcd_by_poly(w, g)
        z = exact_div(w, y)
        if z.degree > 0:
            acc[z] = i * scale
        w = y
        g = exact_div(g, y)
        i += 1
    if g.degree > 0:
        _squarefree_accumulate(_pth_root(g), scale * p, acc)


def _pth_root(f: Poly) -> Poly:
    """p-th root of a polynomial in GF(p)[x] whose derivative vanishes
    (c^(1/p) = c in the prime field)."""
    p = f.domain.characteristic
    return Poly(f.domain, [f.coeff(k) for k in range(0, f.degree + 1, p)])


def factor_by_poly(f: Poly):
    """[FactorTerm] as ``factor`` returns them."""
    if isinstance(f.domain, PrimeField):
        terms = [FactorTerm(h, mult) for g, mult in squarefree_by_poly(f)
                 for h in _split_gfp(_distinct_degree(g))]
    else:
        terms = [FactorTerm(Poly(QQ, h.coeffs).monic(), mult)
                 for g, mult in squarefree_by_poly(f)
                 for h in _factor_z(_primitive_int_poly(g))]
    terms.sort(key=lambda t: (t.base.sort_key(), t.exponent))
    return terms


def _distinct_degree(f: Poly):
    dom = f.domain
    x = Poly.x(dom)
    out = []
    rest, xq, d = f, x, 0    # xq = x^(p^d) mod rest
    while rest.degree >= 2 * (d + 1):
        d += 1
        xq = _pow_mod(xq, dom.characteristic, rest)
        g = gcd_by_poly(rest, xq - x)
        if g.degree > 0:
            out.append((g, d))
            rest = exact_div(rest, g)
            xq = xq % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _split_gfp(parts):
    rng = random.Random(0)
    return [h for g, d in parts for h in _equal_degree_split(g, d, rng)]


def _equal_degree_split(f: Poly, d: int, rng):
    if f.degree == d:
        return [f]
    dom = f.domain
    p = dom.characteristic
    while True:
        a = Poly(dom, [rng.randrange(p) for _ in range(f.degree)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = (t * t) % f
                b = b + t
        else:
            b = _pow_mod(a, (p ** d - 1) // 2, f) - 1
        g = gcd_by_poly(f, b)
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d, rng)
                    + _equal_degree_split(exact_div(f, g), d, rng))


def _pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    r = Poly.one(base.domain)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def _primitive_int_poly(f: Poly) -> Poly:
    """The primitive integer multiple of f over Q with positive leading
    coefficient, over ZZ."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    content = math.gcd(*ints)
    sign = -1 if ints[-1] < 0 else 1
    return Poly(ZZ, [sign * v // content for v in ints])


def _factor_z(g: Poly):
    n = g.degree
    best, count = None, n
    p = tried = 0
    while count > 1 and tried < 3:
        p += 1
        if not _is_prime(p) or g.leading() % p == 0:
            continue
        gp = Poly(PrimeField(p), g.coeffs).monic()
        if gcd_by_poly(gp, derivative(gp)).degree > 0:
            continue
        tried += 1
        parts = _distinct_degree(gp)
        k = sum(h.degree // d for h, d in parts)
        if best is None or k < count:
            best, count = parts, k
    if count == 1:
        return [g]
    bound = ((math.isqrt(n + 1) + 1) * 2 ** n * g.leading()
             * max(abs(c) for c in g.coeffs))
    m = p = best[0][0].domain.characteristic
    while m <= 2 * bound:
        m *= p
    return _recombine(g, _hensel_lift(g, _split_gfp(best), m), m)


def _hensel_lift(g: Poly, factors, m: int):
    """Lift monic f_i over GF(p) with g = lc(g) prod f_i (mod p) to monic
    integer u_i with g = lc(g) prod u_i (mod m), m a power of p."""
    dom = factors[0].domain
    p = dom.characteristic
    lc_inv = pow(g.leading(), -1, m)
    target = [c * lc_inv % m for c in g.coeffs]
    full = math.prod(factors, start=Poly.one(dom))
    inverses = [extended_gcd_by_poly(exact_div(full, f) % f, f)[1] for f in factors]
    lifted = [Poly(ZZ, (c.v for c in f.coeffs)) for f in factors]
    q = p
    while q < m:
        prod = math.prod(lifted, start=Poly.one(ZZ))
        err = Poly(dom, [(t - c) % (q * p) // q for t, c in zip(target, prod.coeffs)])
        lifted = [u + Poly(ZZ, (q * c.v for c in (err * s % f).coeffs))
                  for u, s, f in zip(lifted, inverses, factors)]
        q *= p
    return lifted


def _recombine(g: Poly, lifted, m: int):
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), s):
            cand = math.prod((lifted[i] for i in subset),
                             start=Poly.constant(ZZ, g.leading()))
            cs = [c % m - m if c % m > m // 2 else c % m for c in cand.coeffs]
            h = Poly(ZZ, (c // math.gcd(*cs) for c in cs))
            try:
                q = exact_div(g, h)
            except ArithmeticError:
                continue
            out.append(h)
            g = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            s += 1
    return out + [g]


def det_cofactor(m: Mat):
    """Determinant by recursive cofactor expansion along the first row
    (oracle for small n)."""
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    acc = m.domain.zero
    for j in range(n):
        c = m.entries[0][j]
        if scalar_is_zero(c):
            continue
        term = c * det_cofactor(m.submatrix(range(1, n), [x for x in range(n) if x != j]))
        acc = acc - term if j % 2 else acc + term
    return acc


def adjugate(m: Mat) -> Mat:
    """Transpose of the cofactor matrix, all n^2 minors of order n - 1
    (adj of a 1x1 matrix is [1]); M * adj(M) = det(M) * I."""
    if not m.is_square():
        raise ShapeError("adjugate of a non-square matrix")
    n = m.rows
    if n == 1:
        return Mat(m.domain, [[m.domain.one]])
    out = [[m.domain.zero] * n for _ in range(n)]
    for i in range(n):
        rows = [x for x in range(n) if x != i]
        for j in range(n):
            c = det(m.submatrix(rows, [x for x in range(n) if x != j]))
            out[j][i] = -c if (i + j) % 2 else c
    return Mat(m.domain, out)


def unimodular_inverse(m: Mat) -> Mat:
    """Inverse of a unimodular matrix over Z or F[x], as adjugate / det."""
    d = det(m)
    dom = m.domain
    if isinstance(dom, IntegerRing):
        if d not in (1, -1):
            raise SingularMatrixError("not unimodular over Z", determinant=d)
        adj = adjugate(m)
        return adj if d == 1 else -adj
    if isinstance(dom, PolynomialRing):
        if d.is_zero() or d.degree != 0:
            raise SingularMatrixError("not unimodular over F[x]", determinant=d)
        return adjugate(m) * Poly.constant(dom.base, dom.base.one / d.coeff(0))
    raise DomainError("unimodular_inverse expects Z or F[x] entries")


# The element-by-element Gauss-Jordan elimination and product that
# ``matrix.rref`` and ``Mat.__mul__`` ran before they moved to integer rows,
# kept as the oracles of that kernel.


def rref_by_elements(m: Mat):
    """(reduced row echelon form, pivot columns) over a field, one scalar
    operation at a time."""
    if not m.domain.is_field:
        raise DomainError("rref requires a field domain")
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    piv_cols = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not scalar_is_zero(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = m.domain.one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not scalar_is_zero(a[i][c]):
                t = a[i][c]
                a[i] = [x - t * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return Mat(m.domain, a), piv_cols


def product_by_elements(a: Mat, b: Mat) -> Mat:
    """A B, one scalar product at a time."""
    if a.cols != b.rows:
        raise ShapeError("shape mismatch in multiplication")
    oc = list(zip(*b.entries))
    z = a.domain.zero
    out = []
    for r in a.entries:
        new = []
        for c in oc:
            acc = z
            for x, y in zip(r, c):
                if not scalar_is_zero(x) and not scalar_is_zero(y):
                    acc = acc + x * y
            new.append(acc)
        out.append(tuple(new))
    return Mat(a.domain, out)


# The Smith-route transform engine, kept as the oracle of the kernel route:
# one tracked reduction U (xI - A) V = S, where column k of U^{-1} (column k
# of (xI - A) V divided by d_k) has a value at A that generates a cyclic
# summand with minimal polynomial d_k.


def smith_summands(a: Mat):
    """((d_k, u_k) for each d_k of degree >= 1) from U (xI - A) V = S."""
    x_mat = char_matrix(a)
    _, s, v = smith_form(x_mat)
    n = s.rows
    return tuple(
        (s.entries[k][k],
         tuple(exact_div(e, s.entries[k][k])
               for e in (x_mat * v.submatrix(range(n), (k,))).col(0)))
        for k in range(n) if s.entries[k][k].degree >= 1)


def smith_generator(a: Mat, u, g: Poly) -> Mat:
    """The column (g u)(A), powers of A on the left: for u = u_k it
    generates a cyclic summand with minimal polynomial d_k / g."""
    polys = [g * p for p in u]
    acc = Mat.zero(a.domain, a.rows, 1)
    for j in range(max(p.degree for p in polys), -1, -1):
        acc = a * acc + Mat(a.domain, ((p.coeff(j),) for p in polys))
    return acc


def smith_route_form(a: Mat, kind: str):
    """(F, T) for kind "rational" or "primary" through the Smith route; the
    Jordan transform is the primary one."""
    summands = smith_summands(a)
    if kind == "rational":
        pieces = sorted(((d, 1, smith_generator(a, u, Poly.one(a.domain))) for d, u in summands),
                        key=lambda p: _block_sort_key(p[0], p[0].degree))
    else:
        # a base's exponents, largest first, belong to the nontrivial d_k
        # from the last one back
        seen, keyed = Counter(), []
        for base, e in _ledger(a, [d for d, _ in summands]).elementary_divisors:
            keyed.append((_block_sort_key(base, e), len(summands) - 1 - seen[base], base, e))
            seen[base] += 1
        pieces = [(base, e, smith_generator(a, summands[k][1],
                                            exact_div(summands[k][0], base ** e)))
                  for _, k, base, e in sorted(keyed, key=lambda t: t[:2])]
    form = Mat.block_diagonal(a.domain, [hypercompanion(b, e) for b, e, _ in pieces])
    return form, _checked(a, _krylov_transform(a, pieces), form)


# The generator picking and the inertia elimination that ``canonical`` and
# ``oscillations`` ran before picks became pivot columns of one ``rref`` per
# level and inertia came from Descartes' rule on the characteristic
# polynomial, kept as the oracles of those routes.


def _extend(basis: list, v, dom) -> bool:
    """Add v to the echelon basis [(pivot, row)] and return True, unless v
    lies in its span."""
    for piv, row in basis:
        c = v[piv]
        if not scalar_is_zero(c):
            v = [x - c * y for x, y in zip(v, row)]
    piv = next((i for i, x in enumerate(v) if not scalar_is_zero(x)), None)
    if piv is None:
        return False
    inv = dom.one / v[piv]
    basis.append((piv, [x * inv for x in v]))
    return True


def generators_by_extension(a: Mat, base: Poly, m: Mat, kernels, exps):
    """[(e, z)] as ``canonical._generators`` returns them: at level e each
    pick avoids the span of K_(e-1), M K_(e+1) and the orbits of the picks
    already made, grown one vector at a time."""
    dom, d = a.domain, base.degree
    need = Counter(exps)
    picks = []
    for e in range(len(kernels), 0, -1):
        if not need[e]:
            continue
        span: list = []
        for v in kernels[e - 2] if e > 1 else ():
            _extend(span, v, dom)
        for v in kernels[e] if e < len(kernels) else ():
            _extend(span, (m * Mat(dom, [[x] for x in v])).col(0), dom)
        found = 0
        for v in kernels[e - 1]:
            if found == need[e]:
                break
            if not _extend(span, v, dom):
                continue
            z = Mat(dom, [[x] for x in v])
            picks.append((e, z))
            found += 1
            for _ in range(d - 1):
                z = a * z
                _extend(span, z.col(0), dom)
        if found != need[e]:
            raise VerificationError(f"{found} generators at level {e}, {need[e]} expected")
    return picks


def congruence_signature(k: Mat):
    """(positive, negative, zero) of a symmetric rational matrix by exact
    symmetric congruence elimination with diagonal pivoting.

    When a zero diagonal blocks progress, a symmetric swap brings a nonzero
    diagonal entry forward; if the whole remaining diagonal vanishes, a
    symmetric row+column addition manufactures one (valid over Q, where 2
    is invertible)."""
    a = [list(row) for row in k.entries]
    n = len(a)
    pos = neg = zero = 0

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_into(i, j):
        # row_i += row_j, col_i += col_j
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = row[i] + row[j]

    for t in range(n):
        if a[t][t] == 0:
            found = next((i for i in range(t + 1, n) if a[i][i] != 0), None)
            if found is not None:
                swap(t, found)
            else:
                off = next(((i, j) for i in range(t, n) for j in range(i + 1, n)
                            if a[i][j] != 0), None)
                if off is None:
                    zero += n - t
                    break
                i, j = off
                add_into(i, j)   # diagonal entry becomes 2*a[i][j]
                if i != t:
                    swap(t, i)
        p = a[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            f = a[i][t] / p
            if f != 0:
                # congruence by I - f e_t e_i^T: row then column
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                for r in range(n):
                    a[r][i] = a[r][i] - f * a[r][t]
    return pos, neg, zero


# The oscillation route that ``oscillations`` ran before it moved to
# A = M^-1 K over Q: ``det`` over Q[x] of K - s M for the characteristic
# polynomial, and n cofactors for one adjugate column, kept as the oracles
# of that route.


def osc_char_poly_by_bareiss(system):
    """det(K - s M) of an OscSystem, by ``det`` over Q[x]."""
    return det(_linear_pencil(-system.mass, system.stiffness))


def adjugate_column(m: Mat, j: int) -> tuple:
    """Column j of adj(M): the signed cofactors of row j of a square M
    (n minors of order n - 1; adj of a 1x1 matrix is [1])."""
    n = m.rows
    if n == 1:
        return (m.domain.one,)
    idx = range(n)
    rows = [x for x in idx if x != j]
    out = []
    for i in idx:
        c = det(m.submatrix(rows, [x for x in idx if x != i]))
        out.append(-c if (i + j) % 2 else c)
    return tuple(out)


def chain3():
    """Symmetric 3x3 with eigenvalues 0, 1, 3 (the worked tridiagonal demo)."""
    return Mat(QQ, [[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def jordan6(block_layout):
    """6x6 upper-bidiagonal matrix from (eigenvalue, size) blocks."""
    rows = []
    diag = []
    sup = []
    for ev, size in block_layout:
        for i in range(size):
            diag.append(ev)
            sup.append(1 if i < size - 1 else 0)
    n = len(diag)
    for i in range(n):
        row = [0] * n
        row[i] = diag[i]
        if i + 1 < n and sup[i]:
            row[i + 1] = 1
        rows.append(row)
    return Mat(QQ, rows)


# the three 6x6 matrices sharing char poly (x-1)^2 (x-2)^3 (x-3)
J6_SEMISIMPLE = [(1, 1), (1, 1), (2, 1), (2, 1), (2, 1), (3, 1)]
J6_CHAIN3 = [(1, 1), (1, 1), (2, 3), (3, 1)]
J6_CHAIN21 = [(1, 1), (1, 1), (2, 2), (2, 1), (3, 1)]


@pytest.fixture
def a_chain3():
    return chain3()


def rand_matrix(dom, n, rng, lo=-4, hi=4):
    if dom is QQ:
        return Mat(QQ, [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                        for _ in range(n)])
    p = dom.characteristic
    return Mat(dom, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def rand_invertible(dom, n, rng, lo=-4, hi=4):
    while True:
        m = rand_matrix(dom, n, rng, lo, hi)
        if not scalar_is_zero(det(m)):
            return m


def rand_unimodular(dom, n, rng, ops=None):
    """Product of elementary row additions: determinant is one."""
    m = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for _ in range(ops if ops is not None else 3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = dom.coerce(rng.randint(-2, 2))
        for col in range(n):
            m[i][col] = m[i][col] + c * m[j][col]
    return Mat(dom, m)


def proportional(v, w) -> bool:
    """True iff the vectors are nonzero scalar multiples of one another."""
    if len(v) != len(w):
        return False
    ratio = None
    for a, b in zip(v, w):
        az, bz = scalar_is_zero(a), scalar_is_zero(b)
        if az != bz:
            return False
        if az:
            continue
        r = a / b
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None
