"""Dense exact matrices over Q, Z, GF(p), or a univariate polynomial ring.

Entries are raw domain values (Fraction, int, GFElement, Poly); the matrix
carries the domain object.  Everything is immutable; all operations are pure
functions, so concurrent use is safe.

Over Q, Z and GF(p), ``rref`` (and so ``nullspace`` and ``mat_inverse``)
and matrix products run on Python ints: a matrix is lifted once to integer
rows with one denominator (over Q) or as residues modulo p, computed on, and
mapped back to scalars once.  ``rref`` is fraction-free Gauss-Jordan over Q
and Gauss-Jordan on residues over GF(p); a product is one integer matrix
product.  Only products of polynomial matrices work entry by entry.

The determinant expands exactly along rows and columns with at most one
nonzero entry and hands the rest to the same ``_gauss_jordan`` on integer
rows: over Q, Z and GF(p) the rows of ``_int_rows``, over F[x] each entry
packed as its value at x = 2^K, the determinant read back digit by digit.

Every identity the library checks (U M V = S, A T = T F, M M^{-1} = I, the
pencil witness) is decided by ``_products_agree``: each factor becomes an
integer matrix, with its denominators cleared and a polynomial entry packed
as its value at x = 2^K (Kronecker substitution), and each side is one
product of integer matrices.  K is taken from a bound on every coefficient
either side can produce, so the evaluation is injective and the comparison
is an exact proof.  ``Mat.__mul__`` computes products; it checks nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .algebra import (
    DomainError,
    GFElement,
    Poly,
    RationalField,
    VerificationError,
    scalar_is_zero,
)


class PolynomialRing:
    """The ring F[x] of univariate polynomials over a base field (or Z)."""

    _instances: dict = {}
    is_field = False

    def __new__(cls, base):
        inst = cls._instances.get(base)
        if inst is None:
            inst = super().__new__(cls)
            inst.base = base
            cls._instances[base] = inst
        return inst

    @property
    def characteristic(self):
        return self.base.characteristic

    def coerce(self, x):
        if isinstance(x, Poly):
            if x.domain != self.base:
                raise DomainError(f"{x.domain}[x] element in {self}")
            return x
        return Poly.constant(self.base, self.base.coerce(x))

    @property
    def zero(self):
        return Poly.zero(self.base)

    @property
    def one(self):
        return Poly.one(self.base)

    def contains(self, x) -> bool:
        return isinstance(x, Poly) and x.domain == self.base

    def __repr__(self):
        return f"{self.base}[x]"


class ShapeError(ValueError):
    """Dimension mismatch or non-square input where a square one is required."""


class SingularMatrixError(ArithmeticError):
    """Inversion of a matrix whose determinant is zero."""

    def __init__(self, message, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class Mat:
    """An immutable dense matrix over one coefficient domain."""

    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain, rows: Iterable[Iterable]):
        data = tuple(tuple(domain.coerce(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ShapeError("matrix dimensions must be positive")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ShapeError("ragged rows")
        self.domain = domain
        self.rows = len(data)
        self.cols = w
        self.entries = data

    @classmethod
    def _raw(cls, domain, data: tuple) -> "Mat":
        # internal fast path: entries already coerced, shape already valid
        obj = object.__new__(cls)
        obj.domain = domain
        obj.rows = len(data)
        obj.cols = len(data[0])
        obj.entries = data
        return obj

    # -- constructors

    @classmethod
    def identity(cls, domain, n: int) -> "Mat":
        z, o = domain.zero, domain.one
        return cls(domain, ((o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, domain, rows: int, cols: int) -> "Mat":
        z = domain.zero
        return cls(domain, ((z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def block_diagonal(cls, domain, blocks: Sequence["Mat"]) -> "Mat":
        if not blocks:
            raise ShapeError("no blocks")
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        z = domain.zero
        out = [[z] * m for _ in range(n)]
        r = c = 0
        for b in blocks:
            if b.domain != domain:
                raise DomainError("block domain mismatch")
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.entries[i][j]
            r += b.rows
            c += b.cols
        return cls(domain, out)

    # -- structure

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Mat":
        return Mat._raw(self.domain, tuple(zip(*self.entries)))

    def submatrix(self, row_idx, col_idx) -> "Mat":
        ent = self.entries
        return Mat._raw(self.domain,
                        tuple(tuple(ent[i][j] for j in col_idx)
                              for i in row_idx))

    def map(self, fn, domain=None) -> "Mat":
        return Mat(domain or self.domain,
                   ((fn(e) for e in row) for row in self.entries))

    def _check(self, other) -> "Mat":
        if not isinstance(other, Mat):
            raise TypeError("expected a matrix")
        if other.domain != self.domain:
            raise DomainError(f"{self.domain} vs {other.domain}")
        return other

    # -- arithmetic

    def __add__(self, other):
        o = self._check(other)
        if (self.rows, self.cols) != (o.rows, o.cols):
            raise ShapeError("shape mismatch in addition")
        return Mat._raw(self.domain,
                        tuple(tuple(a + b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, o.entries)))

    def __sub__(self, other):
        o = self._check(other)
        if (self.rows, self.cols) != (o.rows, o.cols):
            raise ShapeError("shape mismatch in subtraction")
        return Mat._raw(self.domain,
                        tuple(tuple(a - b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, o.entries)))

    def __neg__(self):
        return Mat._raw(self.domain,
                        tuple(tuple(-e for e in row) for row in self.entries))

    def __mul__(self, other):
        if isinstance(other, Mat):
            o = self._check(other)
            if self.cols != o.rows:
                raise ShapeError("shape mismatch in multiplication")
            if not isinstance(self.domain, PolynomialRing):
                (a, den_a), (b, den_b) = _int_rows(self), _int_rows(o)
                return _from_int_rows(self.domain, _int_product([a, b]), den_a * den_b)
            oc = list(zip(*o.entries))
            z = self.domain.zero
            out = []
            for r in self.entries:
                new = []
                for c in oc:
                    acc = z
                    for a, b in zip(r, c):
                        if not scalar_is_zero(a) and not scalar_is_zero(b):
                            acc = acc + a * b
                    new.append(acc)
                out.append(tuple(new))
            return Mat._raw(self.domain, tuple(out))
        c = self.domain.coerce(other)
        return Mat._raw(self.domain,
                        tuple(tuple(c * e for e in row) for row in self.entries))

    __rmul__ = __mul__

    def scale(self, c) -> "Mat":
        return self * c

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.domain == other.domain and self.entries == other.entries)

    def __hash__(self):
        return hash((self.domain, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Mat({self.domain}, [{body}])"


def det(m: Mat):
    """Exact determinant.

    While a row or column of the remaining matrix has at most one nonzero
    entry, expand along it exactly: none gives 0, and one entry c at
    position (i, j) of the remaining matrix contributes (-1)^(i+j) c and
    drops its row and column.  What is left, every row and column with two
    nonzero entries or more, goes to ``_det_eliminated``.  So
    permutation-like minors cost no elimination and dense ones no cofactor
    sum, with no size or sparsity threshold.
    """
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    dom = m.domain
    ent = m.entries
    nonzero = [[not scalar_is_zero(e) for e in row] for row in ent]
    rows, cols = list(range(m.rows)), list(range(m.cols))
    factors, negate = [], False
    while rows:
        lone = _lone_entry(nonzero, rows, cols)
        if lone is None:
            factors.append(_det_eliminated(m.submatrix(rows, cols)))
            break
        if not lone:
            return dom.zero
        a, b = lone
        factors.append(ent[rows[a]][cols[b]])
        negate ^= (a + b) % 2 == 1
        del rows[a], cols[b]
    d = functools.reduce(operator.mul, factors)
    return -d if negate else d


def _lone_entry(nonzero, rows, cols):
    """Positions (a, b) in (rows, cols) of a nonzero entry alone in its row
    or column; () if a row or column is zero; None if every row and column
    has two nonzero entries or more."""
    for a, i in enumerate(rows):
        hits = [b for b, j in enumerate(cols) if nonzero[i][j]]
        if len(hits) < 2:
            return (a, hits[0]) if hits else ()
    for b, j in enumerate(cols):
        hits = [a for a, i in enumerate(rows) if nonzero[i][j]]
        if len(hits) < 2:
            return (hits[0], b) if hits else ()
    return None


def _det_eliminated(m: Mat):
    """det m by ``_gauss_jordan`` on integer rows: those of ``_int_rows``
    over Q, Z and GF(p), m = rows / den.  Over F[x] the entries of den m
    are lifted as in ``_products_agree`` (residues in [0, p) over GF(p)[x])
    and packed at x = 2^K; evaluation is a ring homomorphism, so the
    balanced digits of the integer determinant are the coefficients of
    det(den m), computed over Z and then divided by den^n or reduced mod p."""
    dom, n = m.domain, m.rows
    poly = isinstance(dom, PolynomialRing)
    if poly:
        coeffs, den, _, _ = _lift(m, dom.characteristic)
        # every coefficient of det(den m) is at most prod_i sum_j |c_ij|_1,
        # c = den m and |.|_1 the sum of absolute coefficients: expanding that
        # product over the rows covers every term of the sum over permutations
        bound = math.prod(sum(sum(map(abs, cs)) for cs in row) for row in _rows(coeffs, n))
        k, p = _packing_width(bound), 0
        rows = _rows([_pack(cs, k) for cs in coeffs], n)
    else:
        (rows, den), p = _int_rows(m), dom.characteristic
    piv_cols, d, sign, scale = _gauss_jordan(rows, p)
    value = sign * d * scale if len(piv_cols) == n else 0
    scalars = dom.base if poly else dom
    out = _from_int_rows(scalars, [_unpack(value, k) if poly else [value]], den ** n)
    return Poly(scalars, out.entries[0]) if poly else out.entries[0][0]


def _linear_pencil(first: Mat, second: Mat) -> Mat:
    """x * first + second over the polynomial ring on their domain."""
    dom = first.domain
    return Mat(PolynomialRing(dom),
               ((Poly(dom, (b, a)) for a, b in zip(r1, r2))
                for r1, r2 in zip(first.entries, second.entries)))


def rref(m: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form over a field, with the pivot column list.

    Over Q each row is first multiplied by the lcm of its denominators,
    which keeps the row space and so the reduced form; over GF(p) the rows
    are residues.  ``_gauss_jordan`` then works on the integer rows."""
    dom = m.domain
    if not dom.is_field:
        raise DomainError("rref requires a field domain")
    p = dom.characteristic
    rows = _int_rows(m)[0] if p else [_cleared(row)[0] for row in m.entries]
    piv_cols, d, _, _ = _gauss_jordan(rows, p)
    return _from_int_rows(dom, rows, d), piv_cols


def _gauss_jordan(a: list, p: int) -> Tuple[List[int], int, int, int]:
    """Gauss-Jordan elimination on the list of integer rows ``a``, in
    place; returns (pivot columns, d, sign, scale) with the reduced echelon
    form a / d, sign (+1 or -1) the parity of the row exchanges, and scale
    the product of the pivots scaled to 1.

    Over GF(p) (p > 0) the rows hold residues, each pivot row is scaled to
    a leading 1, and d = 1.  Over Q (p = 0) the elimination is
    fraction-free and scale = 1: a pivot step with pivot entry piv in row r
    replaces every other row by (piv row_i - t row_r) / prev, t its entry in
    the pivot column and prev the previous pivot (1 at the start).  Every
    entry stays a minor of the input, a pivot row's by Cramer's rule and any
    other row's by Sylvester's identity, so the division is exact (Bareiss,
    Math. Comp. 22 (1968)).  At the end every pivot row carries the last
    pivot d on its pivot entry and 0 on the other pivot columns.  So a
    square input of full rank has determinant sign d over Q (d is the full
    minor of the exchanged rows) and sign scale over GF(p)."""
    piv_cols, prev, sign, scale = [], 1, 1, 1
    for c in range(len(a[0])):
        r = len(piv_cols)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        if p:
            scale = scale * a[r][c] % p
            inv = pow(a[r][c], -1, p)
            a[r] = [x * inv % p for x in a[r]]
        row = a[r]
        piv = row[c]
        for i, other in enumerate(a):
            t = other[c]
            if i == r or (p and not t):
                continue
            if p:
                a[i] = [(x - t * y) % p for x, y in zip(other, row)]
            else:
                a[i] = [(piv * x - t * y) // prev for x, y in zip(other, row)]
        prev = piv
        piv_cols.append(c)
        if r + 1 == len(a):
            break
    return piv_cols, prev, sign, scale


def _pivot_columns(m: Mat) -> List[int]:
    """The pivot columns of m over a field, with no reduced form built.
    Scaling a column keeps the pivots, so over Q each column is cleared of
    its own denominators, which across a row can differ widely (Krylov
    columns z, A z, A^2 z, ...)."""
    if p := m.domain.characteristic:
        rows = _int_rows(m)[0]
    else:
        rows = list(zip(*(_cleared(col)[0] for col in zip(*m.entries))))
    return _gauss_jordan(rows, p)[0]


def nullspace(m: Mat) -> List[Tuple]:
    """Basis of the right nullspace of a matrix over a field.

    Each basis vector is a tuple of scalars; the list is empty iff the matrix
    is injective on columns.  Derived from the reduced echelon form, so the
    result is deterministic.
    """
    return _kernel_basis(*rref(m))


def _kernel_basis(red: Mat, piv_cols: List[int]) -> List[Tuple]:
    """The nullspace basis read off a reduced echelon form and its pivot
    columns: per free column, 1 there and minus that column at the pivots."""
    dom = red.domain
    basis = []
    for fc in range(red.cols):
        if fc in piv_cols:
            continue
        v = [dom.zero] * red.cols
        v[fc] = dom.one
        for r, pc in enumerate(piv_cols):
            v[pc] = -red.entries[r][fc]
        basis.append(tuple(v))
    return basis


def _leading_minors(m: Mat) -> List[Fraction]:
    """The leading principal minors of a square matrix over Q, in order of
    size, up to and including the first zero one.

    Fraction-free elimination without pivoting on the integer rows of m
    (one common denominator den): each step replaces the rows below the
    pivot by (piv row_i - t row_k) / prev, exactly as in ``_gauss_jordan``,
    and the k-th pivot is then the k-th leading minor of the integer rows
    (Bareiss, Math. Comp. 22 (1968)), so den^k times that of m.  A zero
    pivot ends the elimination."""
    a, den = _int_rows(m)
    minors, prev = [], 1
    while a:
        head = a[0]
        piv = head[0]
        minors.append(Fraction(piv, den ** (len(minors) + 1)))
        if not piv:
            break
        a = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], head[1:])]
             for row in a[1:]]
        prev = piv
    return minors


def k_minors(m: Mat, k: int):
    """Every k x k minor of m with its (row, column) index sets.

    Yields ((rows, cols), value) in lexicographic order of the index sets.
    Enumeration is combinatorial; intended for small matrices.
    """
    if not (1 <= k <= min(m.rows, m.cols)):
        raise ShapeError(f"minor order {k} out of range")
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            yield (rows, cols), det(m.submatrix(rows, cols))


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse over a field; raises SingularMatrixError when det = 0."""
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    if not m.domain.is_field:
        raise DomainError("mat_inverse requires a field domain")
    n = m.rows
    dom = m.domain
    aug = Mat(dom, (tuple(m.entries[i]) +
                    tuple(dom.one if i == j else dom.zero for j in range(n))
                    for i in range(n)))
    red, piv = rref(aug)
    if piv[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular", determinant=dom.zero)
    inv = red.submatrix(range(n), range(n, 2 * n))
    if not _products_agree((m, inv), (Mat.identity(dom, n),)):
        raise VerificationError("M * inverse(M) must be the identity")
    return inv


# ---------------------------------------------------------------------------
# Scalar matrices as integer rows


def _int_rows(m: Mat):
    """(rows, den) with m = rows / den for a matrix over Q, Z or GF(p): over
    Q the numerators over the lcm den of every denominator, over Z the
    entries, over GF(p) the residues in [0, p); den is 1 outside Q."""
    dom = m.domain
    if isinstance(dom, RationalField):
        flat, den = _cleared([e for row in m.entries for e in row])
        return _rows(flat, m.cols), den
    if dom.characteristic:
        return [[e.v for e in row] for row in m.entries], 1
    return list(m.entries), 1


def _cleared(values) -> Tuple[list, int]:
    """(numerators, den) for a sequence of Fractions: den the lcm of their
    denominators, each value times den."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _from_int_rows(dom, rows, den: int) -> Mat:
    """The matrix rows / den over Q, Z or GF(p), from integer rows; den is 1
    outside Q, and over GF(p) each entry is reduced modulo p."""
    if isinstance(dom, RationalField):
        data = (tuple(Fraction(x, den) for x in row) for row in rows)
    elif p := dom.characteristic:
        data = (tuple(GFElement(p, x) for x in row) for row in rows)
    else:
        data = map(tuple, rows)
    return Mat._raw(dom, tuple(data))


# ---------------------------------------------------------------------------
# Exact identity checks by one packed-integer evaluation


def _products_agree(left: Sequence[Mat], right: Sequence[Mat]) -> bool:
    """Decide L_1 L_2 ... == R_1 R_2 ... exactly, with integer arithmetic.

    The factors share one domain: Z, Q, GF(p), or polynomials over one of
    them.  Over Q each factor is multiplied by the lcm of its denominators,
    over GF(p) each residue is lifted to [0, p), and every polynomial entry
    is packed as the integer it takes at x = 2^K (Kronecker substitution).
    Each side is then one product of integer matrices P_L and P_R, and the
    identity holds iff P_L den_R - P_R den_L vanishes, over GF(p) digit by
    digit modulo p.  With B a bound on every coefficient either scaled side
    can produce, K = bitlen(B) + 1 keeps every coefficient of that difference
    below 2^K in absolute value (below 2^(K-1) over GF(p), where both sides
    are nonnegative), so evaluation at 2^K is injective and the answer is a
    proof (von zur Gathen & Gerhard, Modern Computer Algebra, section 8.4).
    """
    dom = left[0].domain
    for side in (left, right):
        for f in side:
            if f.domain != dom:
                raise DomainError(f"{dom} vs {f.domain}")
        for f, g in zip(side, side[1:]):
            if f.cols != g.rows:
                raise ShapeError("shape mismatch in multiplication")
    if (left[0].rows, left[-1].cols) != (right[0].rows, right[-1].cols):
        return False
    p = dom.characteristic
    sides = [[(f, *_lift(f, p)) for f in side] for side in (left, right)]
    (bound_l, den_l), (bound_r, den_r) = map(_side_bound, sides)
    k = _packing_width(max(bound_l * den_r, bound_r * den_l))
    lhs, rhs = (_int_product([_rows([_pack(cs, k) for cs in coeffs], f.cols)
                              for f, coeffs, *_ in side]) for side in sides)
    for row_l, row_r in zip(lhs, rhs):
        for x, y in zip(row_l, row_r):
            if p:
                if not _digits_vanish_mod(x - y, k, p):
                    return False
            elif x * den_r != y * den_l:
                return False
    return True


def _lift(m: Mat, p: int):
    """One factor as (its entries in row-major order as lists of
    low-to-high integer coefficients, denominator, degree, largest
    absolute coefficient)."""
    poly = isinstance(m.domain, PolynomialRing)
    coeffs = [e.coeffs if poly else (e,) for row in m.entries for e in row]
    den = 1
    if p:
        coeffs = [[c.v for c in cs] for cs in coeffs]
    elif isinstance(m.domain.base if poly else m.domain, RationalField):
        den = math.lcm(*{c.denominator for cs in coeffs for c in cs})
        coeffs = [[c.numerator * (den // c.denominator) for c in cs] for cs in coeffs]
    size = max(map(abs, (c for cs in coeffs for c in cs)), default=0)
    return coeffs, den, max(1, *map(len, coeffs)) - 1, size


def _side_bound(side):
    """(B, den) for one side's (factor, *lift) tuples: B bounds every
    coefficient of the product of the lifted factors, den is the product of
    their denominators.

    An entry of the product sums one term per path through the inner
    dimensions, and a coefficient of a product of polynomials of degrees
    d_i sums at most prod(d_i + 1) / max(d_i + 1) coefficient products."""
    bound = math.prod(f.rows for f, *_ in side[1:])
    den = 1
    lengths = []
    for _, _, factor_den, degree, size in side:
        bound *= size
        den *= factor_den
        lengths.append(degree + 1)
    return bound * math.prod(lengths) // max(lengths), den


def _packing_width(bound: int) -> int:
    """K with 2^(K-1) > bound: the smallest width at which a difference of
    two sides bounded by ``bound`` is read off its value at 2^K."""
    return bound.bit_length() + 1


def _pack(coeffs, k: int) -> int:
    """The integer value at x = 2^k of the polynomial with these
    low-to-high coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << k) + c
    return acc


def _rows(flat: list, cols: int) -> list:
    return [flat[i:i + cols] for i in range(0, len(flat), cols)]


def _int_product(factors):
    acc = factors[0]
    for f in factors[1:]:
        cols = tuple(zip(*f))
        acc = [[sum(map(operator.mul, r, c)) for c in cols] for r in acc]
    return acc


def _unpack(value: int, k: int) -> list:
    """The balanced base-2^k digits of value, low to high: the coefficients
    of the polynomial that is value at x = 2^k, if each is below 2^(k-1) in
    absolute value."""
    half, mask, digits = 1 << (k - 1), (1 << k) - 1, []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << k
        digits.append(digit)
        value = (value - digit) >> k
    return digits


def _digits_vanish_mod(delta: int, k: int, p: int) -> bool:
    """True iff every balanced base-2^k digit of delta is divisible by p."""
    return not any(digit % p for digit in _unpack(delta, k))
