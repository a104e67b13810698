"""Smith normal form and invariant ledgers over Z and F[x].

The production path is gcd-driven row/column elimination with the pivot
chosen as the entry of minimal Euclidean size (absolute value over Z, degree
over F[x]), ties broken by lowest (row, column).  The gcd-of-minors chain is
kept as an independent, combinatorial oracle for cross-checking.

``smith_form`` re-checks U M V = S without multiplying polynomial matrices:
``matrix._products_agree`` packs each factor at x = 2^K and decides the
identity as one exact product of integer matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebra import (
    DomainError,
    IntegerRing,
    Poly,
    VerificationError,
    factor,
    poly_gcd,
    scalar_is_zero,
)
from .matrix import (
    Mat,
    PolynomialRing,
    ShapeError,
    _linear_pencil,
    _products_agree,
    det,
    k_minors,
)


class _IntOps:
    """Euclidean scaffolding for Z."""

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
    def canonical_unit(a):
        """Unit u with a / u canonical (positive)."""
        return -1 if a < 0 else 1

    @staticmethod
    def divides(a, b) -> bool:
        return b % a == 0

    @staticmethod
    def exact_div(a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division over Z")
        return q


class _PolyOps:
    """Euclidean scaffolding for F[x]."""

    def __init__(self, ring: PolynomialRing):
        self.ring = ring

    @staticmethod
    def size(a: Poly) -> int:
        return a.degree

    @staticmethod
    def quo(a: Poly, b: Poly) -> Poly:
        return a // b

    def canonical_unit(self, a: Poly) -> Poly:
        return Poly.constant(self.ring.base, a.leading())

    @staticmethod
    def divides(a: Poly, b: Poly) -> bool:
        return (b % a).is_zero()

    @staticmethod
    def exact_div(a: Poly, b: Poly) -> Poly:
        return a.exact_div(b)


def _ops_for(domain):
    if isinstance(domain, IntegerRing):
        return _IntOps()
    if isinstance(domain, PolynomialRing) and domain.base.is_field:
        return _PolyOps(domain)
    raise DomainError(f"Smith reduction needs a Euclidean domain, got {domain}")


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
    ops = _ops_for(m.domain)
    dom = m.domain
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    def eye(k):
        return [[dom.one if i == j else dom.zero for j in range(k)] for i in range(k)]
    u, v = (eye(nr), eye(nc)) if track else (None, None)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            if track:
                u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            if track:
                for row in v:
                    row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        if track:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] = row[i] - q * row[j]
        if track:
            for row in v:
                row[i] = row[i] - q * row[j]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if scalar_is_zero(e):
                    continue
                key = (ops.size(e), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(nr, nc):
        # the minimal-size entry of the trailing block becomes the pivot;
        # after every clearing pass any leftover remainder is strictly
        # smaller, so re-selecting makes progress and curbs entry growth
        loc = find_pivot(t)
        if loc is None:
            break
        swap_rows(t, loc[0])
        swap_cols(t, loc[1])
        clean = True
        for i in range(t + 1, nr):
            if scalar_is_zero(a[i][t]):
                continue
            q = ops.quo(a[i][t], a[t][t])
            if not scalar_is_zero(q):
                row_sub(i, t, q)
            if not scalar_is_zero(a[i][t]):
                clean = False
        for j in range(t + 1, nc):
            if scalar_is_zero(a[t][j]):
                continue
            q = ops.quo(a[t][j], a[t][t])
            if not scalar_is_zero(q):
                col_sub(j, t, q)
            if not scalar_is_zero(a[t][j]):
                clean = False
        if not clean:
            continue
        # enforce divisibility of the trailing block by the pivot
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if scalar_is_zero(a[i][j]):
                    continue
                if not ops.divides(a[t][t], a[i][j]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # fold the offending row into the pivot row and redo this step
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            if track:
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1

    # normalize diagonal entries to canonical units (monic / positive)
    for k in range(min(nr, nc)):
        d = a[k][k]
        if scalar_is_zero(d):
            continue
        unit = ops.canonical_unit(d)
        if unit != dom.one:
            a[k][k] = ops.exact_div(d, unit)
            if track:
                u[k] = [_unit_div(x, unit, dom) for x in u[k]]
    return a, u, v


def _unit_div(x, unit, dom):
    if isinstance(dom, IntegerRing):
        return -x if unit == -1 else x
    inv = dom.base.one / unit.coeff(0)
    return x * Poly.constant(dom.base, inv)


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
    dom = m.domain
    if isinstance(dom, IntegerRing):
        gcd2, norm, is_unit = _int_gcd_tools()
    elif isinstance(dom, PolynomialRing) and dom.base.is_field:
        gcd2, norm, is_unit = _poly_gcd_tools()
    else:
        raise DomainError(f"gcd-of-minors needs Z or F[x], got {dom}")
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
            acc = val if acc is None else gcd2(acc, val)
            if is_unit(acc):
                done = True
                break
        if not done:
            for (rows, cols), val in k_minors(m, k):
                if rows == cols or scalar_is_zero(val):
                    continue
                acc = val if acc is None else gcd2(acc, val)
                if is_unit(acc):
                    break
        chain.append(dom.zero if acc is None else norm(acc))
    return chain


def _int_gcd_tools():
    return (lambda x, y: math.gcd(x, y),
            lambda x: abs(x),
            lambda x: abs(x) == 1)


def _poly_gcd_tools():
    return (poly_gcd,
            lambda p: p.monic(),
            lambda p: p.degree == 0)


def elementary_divisors_from_chain(chain: Sequence) -> List[Tuple]:
    """Elementary divisors from a gcd-of-minors (or invariant-factor) chain.

    For each irreducible factor the exponents along the chain are
    non-decreasing; successive differences give the elementary-divisor
    exponents, zeros dropped.  The chain must satisfy D_k | D_{k+1} (leading
    units ignored); a violated chain is rejected.

    Returns a sorted multiset of (irreducible base, exponent) pairs; over Z
    the bases are prime numbers.  Integers are factored by trial division,
    so over Z any nonzero entry with |c| > 10^12 is refused with a
    DomainError (at the bound the worst case takes about 0.1 s).
    """
    items = [c for c in chain if not scalar_is_zero(c)]
    if not items:
        return []
    if isinstance(items[0], Poly):
        for a, b in zip(items, items[1:]):
            if not (b % a).is_zero():
                raise ValueError("chain violates divisibility")
        exps: dict = {}
        prev: dict = {}
        for c in items:
            cur = {t.base: t.exponent for t in factor(c)}
            for base, e in cur.items():
                step = e - prev.get(base, 0)
                if step < 0:
                    raise ValueError("chain violates divisibility")
                if step > 0:
                    exps.setdefault(base, []).append(step)
            for base, e in prev.items():
                if cur.get(base, 0) < e:
                    raise ValueError("chain violates divisibility")
            prev = cur
        out = [(base, e) for base, steps in exps.items() for e in steps]
        out.sort(key=lambda t: (t[0].sort_key(), -t[1]))
        return out
    # integer chain
    if any(abs(c) > 10 ** 12 for c in items):
        raise DomainError("integer chain entries above 10^12 are refused "
                          "(trial division)")
    for a, b in zip(items, items[1:]):
        if b % a:
            raise ValueError("chain violates divisibility")
    exps = {}
    prev = {}
    for c in items:
        cur = _int_factor(abs(c))
        for base, e in cur.items():
            step = e - prev.get(base, 0)
            if step < 0:
                raise ValueError("chain violates divisibility")
            if step > 0:
                exps.setdefault(base, []).append(step)
        prev = cur
    out = [(base, e) for base, steps in exps.items() for e in steps]
    out.sort(key=lambda t: (t[0], -t[1]))
    return out


def _int_factor(n: int) -> dict:
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


# ---------------------------------------------------------------------------
# The invariant ledger of a square matrix over a field


@dataclass(frozen=True)
class DivisorData:
    """Invariant ledger of a square matrix A over a field.

    Built from the Smith form of xI - A: the gcd chain D_1 | ... | D_n, the
    invariant factors i_k = D_k / D_{k-1}, and the multiset of elementary
    divisors (irreducible base, exponent), deterministically sorted; every
    base is irreducible over the matrix's field.
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

    Runs the Smith reduction on xI - A; the rank is always n there, so the
    chain has n entries, the trailing ones carrying the nontrivial factors.
    """
    if not a.is_square():
        raise ShapeError("divisor data of a non-square matrix")
    if not a.domain.is_field:
        raise DomainError("divisor_data requires a field domain")
    return _ledger(a, smith_diagonal(char_matrix(a)))


def _ledger(a: Mat, diag: Sequence[Poly]) -> DivisorData:
    """The invariant ledger of A from the Smith diagonal of xI - A."""
    if any(d.is_zero() for d in diag):
        raise VerificationError("xI - A must have full rank")
    chain = []
    acc = Poly.one(a.domain)
    for d in diag:
        acc = acc * d
        chain.append(acc)
    eldivs: List[Tuple[Poly, int]] = []
    for f in diag:
        if f.degree < 1:
            continue
        for term in factor(f):
            eldivs.append((term.base, term.exponent))
    eldivs.sort(key=lambda t: (t[0].sort_key(), -t[1]))
    return DivisorData(
        domain=a.domain,
        size=a.rows,
        rank=a.rows,
        gcd_chain=tuple(chain),
        invariant_factors=tuple(diag),
        elementary_divisors=tuple(eldivs),
    )
