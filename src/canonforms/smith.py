"""Smith normal form over Z and F[x], and invariant ledgers.

The Smith reduction is gcd-driven row/column elimination with the pivot
chosen as the entry of minimal Euclidean size (absolute value over Z, degree
over F[x]), ties broken by lowest (row, column).  To track U and V it
reduces M bordered by identities, [[M, I], [I]], so one set of row and
column operations builds S, U and V together.  The gcd-of-minors chain is
kept as an independent, combinatorial oracle for cross-checking.

Z and F[x] differ only in ``_IntOps`` and ``_PolyOps`` (size, quotient,
normalizing unit, divisibility, gcd, unit test, factoring, sort key), and
``_ops_for`` is the one place that picks between them.

``smith_form`` re-checks U M V = S without multiplying polynomial matrices:
``matrix._products_agree`` packs each factor at x = 2^K and decides the
identity as one exact product of integer matrices.

The invariant ledger of a square matrix comes two ways: Kronecker's, from
the Smith diagonal of xI - A (``_ledger``, which ``verify`` runs), and
Jordan's, from the nullities of p(A)^j over the base field for each
irreducible factor p of the characteristic polynomial (``_nested_kernels``),
which ``divisor_data`` and every canonical form take.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebra import (
    DomainError,
    IntegerRing,
    Poly,
    VerificationError,
    ZZ,
    factor,
    poly_gcd,
    scalar_is_zero,
)
from .matrix import (
    Mat,
    PolynomialRing,
    ShapeError,
    _linear_pencil,
    _kernel_basis,
    _products_agree,
    det,
    k_minors,
    rref,
)


class _IntOps:
    """Everything the Smith code needs to know about Z."""

    @staticmethod
    def size(a) -> int:
        return abs(a)

    @staticmethod
    def quo(a, b):
        # Euclidean quotient with |remainder| minimal (rounds to nearest);
        # divmod's remainder carries b's sign, so the adjustment is always +1
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    @staticmethod
    def unit(a):
        """The unit u with u * a canonical (positive)."""
        return -1 if a < 0 else 1

    @staticmethod
    def divides(a, b) -> bool:
        return b % a == 0

    @staticmethod
    def gcd(a, b):
        return math.gcd(a, b)

    @staticmethod
    def is_unit(a) -> bool:
        return abs(a) == 1

    @staticmethod
    def factor(c) -> dict:
        """{prime: exponent} of |c| by trial division, refused above 10^12."""
        n = abs(c)
        if n > 10 ** 12:
            raise DomainError("integer chain entries above 10^12 are refused "
                              "(trial division)")
        out: dict = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    @staticmethod
    def sort_key(base):
        return base


class _PolyOps:
    """Everything the Smith code needs to know about F[x]."""

    def __init__(self, ring: PolynomialRing):
        self.ring = ring

    @staticmethod
    def size(a: Poly) -> int:
        return a.degree

    @staticmethod
    def quo(a: Poly, b: Poly) -> Poly:
        return a // b

    def unit(self, a: Poly) -> Poly:
        """The unit u with u * a canonical (monic)."""
        return Poly.constant(self.ring.base, self.ring.base.one / a.leading())

    @staticmethod
    def divides(a: Poly, b: Poly) -> bool:
        return (b % a).is_zero()

    @staticmethod
    def gcd(a: Poly, b: Poly) -> Poly:
        return poly_gcd(a, b)

    @staticmethod
    def is_unit(a: Poly) -> bool:
        return a.degree == 0

    @staticmethod
    def factor(c: Poly) -> dict:
        """{monic irreducible base: exponent} of c."""
        return {t.base: t.exponent for t in factor(c)}

    @staticmethod
    def sort_key(base: Poly):
        return base.sort_key()


def _ops_for(domain):
    """The one place that tells Z from F[x]."""
    if isinstance(domain, IntegerRing):
        return _IntOps()
    if isinstance(domain, PolynomialRing) and domain.base.is_field:
        return _PolyOps(domain)
    raise DomainError(f"needs a Euclidean domain (Z or F[x] over a field), got {domain}")


def smith_form(m: Mat) -> Tuple[Mat, Mat, Mat]:
    """Return (U, S, V) with U*M*V = S, U and V unimodular, S diagonal.

    The diagonal satisfies d_1 | d_2 | ... with monic (over F[x]) or positive
    (over Z) entries; trailing zeros are allowed for rank-deficient input.
    The identity U*M*V = S and the divisibility chain are re-verified
    exactly before returning.
    """
    a, u, v = _smith_reduce(m, track=True)
    dom = m.domain
    um, s, vm = Mat(dom, u), Mat(dom, a), Mat(dom, v)
    if not _products_agree((um, m, vm), (s,)):
        raise VerificationError("Smith reduction identity U M V = S violated")
    _check_divisibility_chain([a[k][k] for k in range(min(m.rows, m.cols))],
                              _ops_for(dom))
    return um, s, vm


def _smith_reduce(m: Mat, track: bool):
    """(S, U, V) as lists of rows; U and V are None unless ``track``.

    To track, the reduction runs on M bordered as [[M, I], [I]]: every row
    operation on M's rows acts on the identity to their right, which becomes
    U, and every column operation on M's columns acts on the identity
    beneath, which becomes V.  Pivots are chosen in M's block alone, so the
    diagonal does not depend on ``track``."""
    ops = _ops_for(m.domain)
    dom = m.domain
    nr, nc = m.rows, m.cols
    nu, nv = (nr, nc) if track else (0, 0)
    a = [list(row) + [dom.one if j == i else dom.zero for j in range(nu)]
         for i, row in enumerate(m.entries)]
    a += [[dom.one if j == i else dom.zero for j in range(nc)] for i in range(nv)]

    t = 0
    while t < min(nr, nc):
        # the minimal-size entry of the trailing block becomes the pivot
        # (ties to the lowest row, then column); after every clearing pass
        # any leftover remainder is strictly smaller, so re-selecting makes
        # progress and curbs entry growth
        pivot = min(((ops.size(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc)
                     if not scalar_is_zero(a[i][j])), default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        clean = True
        for i in range(t + 1, nr):
            if scalar_is_zero(a[i][t]):
                continue
            q = ops.quo(a[i][t], a[t][t])
            if not scalar_is_zero(q):
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if not scalar_is_zero(a[i][t]):
                clean = False
        for j in range(t + 1, nc):
            if scalar_is_zero(a[t][j]):
                continue
            q = ops.quo(a[t][j], a[t][t])
            if not scalar_is_zero(q):
                for row in a:
                    row[j] = row[j] - q * row[t]
            if not scalar_is_zero(a[t][j]):
                clean = False
        if not clean:
            continue
        # enforce divisibility of the trailing block by the pivot
        offender = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                         if not scalar_is_zero(a[i][j])
                         and not ops.divides(a[t][t], a[i][j])), None)
        if offender is not None:
            # fold the offending row into the pivot row and redo this step
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1

    # normalize diagonal entries to canonical units (monic / positive)
    for k in range(min(nr, nc)):
        if not scalar_is_zero(a[k][k]):
            unit = ops.unit(a[k][k])
            if unit != dom.one:
                a[k] = [unit * x for x in a[k]]
    top = a[:nr]
    s, u, v = [row[:nc] for row in top], [row[nc:] for row in top], a[nr:]
    return (s, u, v) if track else (s, None, None)


def _check_divisibility_chain(diag: Sequence, ops) -> None:
    for d1, d2 in zip(diag, diag[1:]):
        if scalar_is_zero(d1):
            if not scalar_is_zero(d2):
                raise VerificationError("zero before nonzero on Smith diagonal")
        elif not scalar_is_zero(d2) and not ops.divides(d1, d2):
            raise VerificationError("Smith diagonal divisibility violated")


def smith_diagonal(m: Mat) -> List:
    """The diagonal of the Smith form, as a list of domain values.

    Runs the same reduction as smith_form without tracking the transforms
    (the invariant-ledger paths never need them)."""
    a, _, _ = _smith_reduce(m, track=False)
    diag = [a[k][k] for k in range(min(m.rows, m.cols))]
    _check_divisibility_chain(diag, _ops_for(m.domain))
    return diag


# ---------------------------------------------------------------------------
# Kronecker's definition: gcd of k x k minors


DEFAULT_MINOR_CAP = 5


def gcd_minors_chain(m: Mat, cap: int = DEFAULT_MINOR_CAP) -> List:
    """The chain D_k = gcd of all k x k minors, for k = 1..n.

    This is the combinatorial oracle; enumeration cost grows as C(n, k)^2,
    so sizes above ``cap`` are refused (pass a larger cap explicitly for a
    deliberate big run).  Entries are normalized monic / positive; D_k = 0
    when every k-minor vanishes.  Accumulation per k stops early once the
    running gcd becomes a unit.
    """
    if not m.is_square():
        raise ShapeError("gcd-of-minors chain of a non-square matrix")
    if m.rows > cap:
        raise ShapeError(f"size {m.rows} above the minor-enumeration cap {cap}")
    ops = _ops_for(m.domain)
    chain = []
    n = m.rows
    for k in range(1, n + 1):
        acc = None
        done = False
        # principal minors first: they diversify fast, so the unit-gcd
        # short circuit usually fires before the full enumeration
        for idx in itertools.combinations(range(n), k):
            val = det(m.submatrix(idx, idx))
            if scalar_is_zero(val):
                continue
            acc = val if acc is None else ops.gcd(acc, val)
            if ops.is_unit(acc):
                done = True
                break
        if not done:
            for (rows, cols), val in k_minors(m, k):
                if rows == cols or scalar_is_zero(val):
                    continue
                acc = val if acc is None else ops.gcd(acc, val)
                if ops.is_unit(acc):
                    break
        chain.append(m.domain.zero if acc is None else ops.unit(acc) * acc)
    return chain


def elementary_divisors_from_chain(chain: Sequence) -> List[Tuple]:
    """Elementary divisors from a gcd-of-minors chain D_1 | D_2 | ... .

    For each irreducible factor the exponents along the chain are
    non-decreasing; successive differences give the elementary-divisor
    exponents, zeros dropped.  The chain must satisfy D_k | D_(k+1) (leading
    units ignored); a violated chain is rejected with ValueError.  An
    invariant-factor chain i_1 | i_2 | ... is not a gcd chain: read as one
    it gives wrong divisors (for J_1(1) + J_2(1), [(x-1), (x-1)^2] gives
    (x-1), (x-1) instead of (x-1)^2, (x-1)); pass its running products.

    Returns a sorted multiset of (irreducible base, exponent) pairs; over Z
    the bases are prime numbers.  Integers are factored by trial division,
    so over Z any nonzero entry with |c| > 10^12 is refused with a
    DomainError (at the bound the worst case takes about 0.1 s).
    """
    items = [c for c in chain if not scalar_is_zero(c)]
    if not items:
        return []
    ops = _ops_for(PolynomialRing(items[0].domain) if isinstance(items[0], Poly) else ZZ)
    for a, b in zip(items, items[1:]):
        if not ops.divides(a, b):
            raise ValueError("chain violates divisibility")
    exps: dict = {}
    prev: dict = {}
    for c in items:
        cur = ops.factor(c)
        if any(cur.get(base, 0) < e for base, e in prev.items()):
            raise ValueError("chain violates divisibility")
        for base, e in cur.items():
            if e > prev.get(base, 0):
                exps.setdefault(base, []).append(e - prev.get(base, 0))
        prev = cur
    out = [(base, e) for base, steps in exps.items() for e in steps]
    out.sort(key=lambda t: (ops.sort_key(t[0]), -t[1]))
    return out


# ---------------------------------------------------------------------------
# The invariant ledger of a square matrix over a field


@dataclass(frozen=True)
class DivisorData:
    """Invariant ledger of a square matrix A over a field.

    The gcd chain D_1 | ... | D_n of xI - A, the invariant factors
    i_k = D_k / D_{k-1}, and the multiset of elementary divisors
    (irreducible base, exponent), deterministically sorted; every base is
    irreducible over the matrix's field.
    """

    domain: object
    size: int
    rank: int
    gcd_chain: Tuple[Poly, ...]
    invariant_factors: Tuple[Poly, ...]
    elementary_divisors: Tuple[Tuple[Poly, int], ...]

    def render(self, var: str = "x") -> str:
        return ", ".join(_divisor_str(b, e, var)
                         for b, e in self.elementary_divisors)


def _divisor_str(base: Poly, exp: int, var: str) -> str:
    s = f"({base.render(var, compact=True)})"
    return s if exp == 1 else f"{s}^{exp}"


def char_matrix(a: Mat) -> Mat:
    """xI - A over the polynomial ring on A's field."""
    if not a.is_square():
        raise ShapeError("characteristic matrix of a non-square matrix")
    return _linear_pencil(Mat.identity(a.domain, a.rows), -a)


def divisor_data(a: Mat) -> DivisorData:
    """Invariant factors and elementary divisors of a square matrix.

    Jordan's route, over the base field: the characteristic polynomial is
    factored once, and for each irreducible base the nullities of
    base(A)^j count its blocks (``_nested_kernels``).  No polynomial matrix
    is built and nothing is reduced over F[x].
    """
    if not a.is_square():
        raise ShapeError("divisor data of a non-square matrix")
    if not a.domain.is_field:
        raise DomainError("divisor_data requires a field domain")
    return _kernel_ledger(a, [(t.base, _nested_kernels(a, t.base, t.exponent)[2])
                              for t in factor(_char_poly(a))])


def _ledger(a: Mat, diag: Sequence[Poly]) -> DivisorData:
    """The invariant ledger of A from the Smith diagonal of xI - A."""
    if any(d.is_zero() for d in diag):
        raise VerificationError("xI - A must have full rank")
    return _assemble_ledger(a, diag, [(term.base, term.exponent)
                                      for f in diag if f.degree >= 1
                                      for term in factor(f)])


def _kernel_ledger(a: Mat, exponents) -> DivisorData:
    """The invariant ledger of A from the (base, block exponents, largest
    first) of each irreducible factor of its characteristic polynomial:
    the k-th invariant factor from the last is the product of every base
    raised to its k-th largest exponent."""
    width = max(len(exps) for _, exps in exponents)
    top = [functools.reduce(operator.mul, (base ** exps[k] for base, exps in exponents
                                           if k < len(exps)))
           for k in reversed(range(width))]
    return _assemble_ledger(a, [Poly.one(a.domain)] * (a.rows - width) + top,
                         [(base, e) for base, exps in exponents for e in exps])


def _assemble_ledger(a: Mat, diag: Sequence[Poly], eldivs) -> DivisorData:
    return DivisorData(
        domain=a.domain,
        size=a.rows,
        rank=a.rows,
        gcd_chain=tuple(itertools.accumulate(diag, operator.mul)),
        invariant_factors=tuple(diag),
        elementary_divisors=tuple(sorted(eldivs, key=lambda t: (t[0].sort_key(), -t[1]))),
    )


# ---------------------------------------------------------------------------
# Jordan's route: nested kernels over the base field


def _char_poly(a: Mat) -> Poly:
    """det(xI - A), from an upper Hessenberg matrix similar to A.

    Gaussian similarity steps (row_i -= u row_(j+1), then column_(j+1) +=
    u column_i) clear each column below its subdiagonal; the determinant of
    xI - H then follows column by column from H's entries (Cohen, A Course
    in Computational Algebraic Number Theory, 2.2.9).  O(n^3) operations in
    A's field, and no polynomial matrix."""
    dom, n = a.domain, a.rows
    h = [list(row) for row in a.entries]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if not scalar_is_zero(h[i][j])), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = dom.one / h[j + 1][j]
        for i in range(j + 2, n):
            if scalar_is_zero(h[i][j]):
                continue
            u = h[i][j] * inv
            h[i] = [x - u * y for x, y in zip(h[i], h[j + 1])]
            for row in h:
                row[j + 1] = row[j + 1] + u * row[i]
    # p_(k+1) = (x - h_kk) p_k - sum_i (h_(k-i),k h_(k-i+1),(k-i) ... h_k,(k-1)) p_(k-i)
    polys = [[dom.one]]
    for k in range(n):
        cur = [dom.zero] + polys[k]
        for i, c in enumerate(polys[k]):
            cur[i] = cur[i] - h[k][k] * c
        t = dom.one
        for i in range(1, k + 1):
            t = t * h[k - i + 1][k - i]
            if scalar_is_zero(t):
                break
            c = t * h[k - i][k]
            for idx, coef in enumerate(polys[k - i]):
                cur[idx] = cur[idx] - c * coef
        polys.append(cur)
    return Poly(dom, polys[n])


def _poly_at(a: Mat, f: Poly) -> Mat:
    """f(A) for a monic f, by Horner's rule: deg f - 1 matrix products."""
    acc = a
    for k in range(f.degree - 1, -1, -1):
        c = f.coeff(k)
        acc = Mat._raw(a.domain, tuple(tuple(e + c if i == j else e for j, e in enumerate(row))
                                       for i, row in enumerate(acc.entries)))
        if k:
            acc = acc * a
    return acc


def _nested_kernels(a: Mat, base: Poly, mult: int):
    """(M, [K_1, ..., K_m], block exponents largest first) for M = base(A),
    where base is irreducible of degree d and multiplicity mult in the
    characteristic polynomial, and K_j = ker M^j as a nullspace basis,
    taken until dim K_m = mult d.

    No power of M is formed.  With R_j the nonzero rows of the reduced
    echelon form at level j, K_j = ker R_j, so K_(j+1) = {v : M v in K_j}
    = ker R_j M: each level reduces a rank(M^j) x n product.  It is the
    subspace ker M^(j+1), so it has the same reduced echelon form and the
    same basis.

    The nullity steps (dim K_j - dim K_(j-1)) / d count the blocks of size
    at least j.  They must be whole, nonincreasing and positive, and sum to
    mult; otherwise VerificationError is raised (an explicit raise, so the
    check also holds under ``python -O``)."""
    d, full = base.degree, mult * base.degree
    m = _poly_at(a, base)
    red, piv_cols = rref(m)
    kernels = [_kernel_basis(red, piv_cols)]
    while len(kernels[-1]) < full and len(kernels) < mult:
        # R_j keeps one zero row when M^j = 0: a matrix has a row
        rows = red.submatrix(range(max(1, len(piv_cols))), range(red.cols))
        red, piv_cols = rref(rows * m)
        kernels.append(_kernel_basis(red, piv_cols))
    dims = [0] + [len(k) for k in kernels]
    steps = [y - x for x, y in zip(dims, dims[1:])]
    if (dims[-1] != full or any(s <= 0 or s % d for s in steps)
            or any(s < t for s, t in zip(steps, steps[1:]))):
        raise VerificationError(
            f"kernel counts of ({base.render(compact=True)})(A)^j: nullities "
            f"{dims[1:]} disagree with multiplicity {mult} in the "
            f"characteristic polynomial")
    at_least = [s // d for s in steps] + [0]
    exps = [e for e in range(len(kernels), 0, -1)
            for _ in range(at_least[e - 1] - at_least[e])]
    return m, kernels, exps
