"""Similarity theory of a single square matrix over an exact field.

Provides companion and hypercompanion blocks, the rational canonical form,
the primary form (one hypercompanion block per elementary divisor), the
Jordan form when the characteristic polynomial splits, and a similarity
decision with verified witness transforms.

One engine builds every transform over the base field from the one Smith
reduction U (xI - A) V = S that the invariant ledger also reads: column k of
U^{-1}, which is column k of (xI - A) V divided by d_k, has a value at A
that generates a cyclic summand with minimal polynomial d_k.  Krylov chains
from these generators (times (d_k / base^e)(A) for an elementary divisor
base^e) are the columns of the rational, primary and Jordan transforms, and
``similar`` composes two of them as T_A T_B^{-1}.  Every transform is
checked as A T = T F with det T != 0 by explicit raises; no check inverts,
and A T = T F is decided by one packed-integer product per side
(``matrix._products_agree``).

Each public form is a private builder applied to A's reduction (and ledger),
so ``canonforms verify`` reduces xI - A once for all three forms; the Jordan
form is the primary form read with linear bases.  What the Smith diagonal
alone decides (a Jordan refusal, a NOT SIMILAR answer) is decided before
any generator is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    DomainError,
    Poly,
    VerificationError,
    scalar_is_zero,
    scalar_key,
)
from .matrix import Mat, ShapeError, _products_agree, det, mat_inverse
from .smith import DivisorData, _ledger, char_matrix, smith_form


class SplitFieldRequired(ArithmeticError):
    """The characteristic polynomial has irreducible factors of degree >= 2
    over the base field; a Jordan form would need a splitting field."""

    def __init__(self, factors: Sequence[Poly]):
        self.factors = tuple(factors)
        names = ", ".join(f.render(compact=True) for f in self.factors)
        super().__init__(f"characteristic polynomial does not split; "
                         f"irreducible factor(s): {names}")


@dataclass(frozen=True)
class JordanStructure:
    """Eigenvalues with their Jordan block sizes (each sorted descending)."""

    blocks: Tuple[Tuple[object, Tuple[int, ...]], ...]

    @property
    def size(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)


@dataclass(frozen=True)
class CanonicalResult:
    """A canonical form with the transform realizing it.

    ``kind`` is one of "rational", "primary", "jordan".  ``blocks`` lists the
    block descriptors in assembly order: invariant-factor polynomials for the
    rational form, (irreducible base, exponent) pairs for the primary form,
    (eigenvalue, size) pairs for the Jordan form.  ``verified`` is set only
    after the exact checks A * T == T * matrix and det(T) != 0.  Every block
    comes from a complete factorization over the base field.
    """

    kind: str
    blocks: Tuple
    matrix: Mat
    transform: Mat
    verified: bool
    structure: Optional[JordanStructure] = None


def companion(f: Poly) -> Mat:
    """Companion matrix C of a monic polynomial, with det(xI - C) = f(x).

    Ones sit on the superdiagonal and the negated coefficients fill the last
    row."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    dom = f.domain
    if not dom.is_field:
        raise DomainError("companion matrix over a field domain only")
    if f.leading() != dom.one:
        raise ValueError("companion matrix needs a monic polynomial")
    n = f.degree
    z, o = dom.zero, dom.one
    rows = []
    for i in range(n - 1):
        rows.append([o if j == i + 1 else z for j in range(n)])
    rows.append([-f.coeff(j) for j in range(n)])
    return Mat(dom, rows)


def jordan_block(dom, eigenvalue, size: int) -> Mat:
    """The additive Jordan block: eigenvalue on the diagonal, ones above it."""
    c = dom.coerce(eigenvalue)
    z, o = dom.zero, dom.one
    return Mat(dom, ((c if i == j else o if j == i + 1 else z
                      for j in range(size)) for i in range(size)))


def multiplicative_jordan_block(dom, eigenvalue, size: int) -> Mat:
    """The multiplicative variant K*(I + N) of a Jordan block.

    Classical treatments of canonical substitutions write each block as the
    scalar K times the unipotent I + N (the substitution y -> K y,
    z -> K(z + y), ...).  The dictionary to the additive block cI + N is
    K*(I + N) = K I + K N; this helper is a documented conversion, not a
    second canonical form."""
    c = dom.coerce(eigenvalue)
    z = dom.zero
    return Mat(dom, ((c if i == j else c if j == i + 1 else z
                      for j in range(size)) for i in range(size)))


def hypercompanion(base: Poly, exponent: int) -> Mat:
    """The hypercompanion block of base^exponent.

    Companion blocks of ``base`` repeat along the diagonal; each block above
    the diagonal carries a single one in its lower-left corner, chaining the
    blocks so the whole matrix has base^exponent as its only elementary
    divisor.  For a linear base this is exactly the Jordan block."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    dom, d = base.domain, base.degree
    out = [list(row) for row in
           Mat.block_diagonal(dom, [companion(base)] * exponent).entries]
    for off in range(d, d * exponent, d):
        out[off - 1][off] = dom.one
    return Mat(dom, out)


# ---------------------------------------------------------------------------
# Transforms from the one Smith reduction of xI - A


def _reduce(a: Mat):
    """(xI - A, S, V) from the one Smith reduction U (xI - A) V = S."""
    x_mat = char_matrix(a)
    return (x_mat, *smith_form(x_mat)[1:])


def _diagonal(s: Mat) -> tuple:
    return tuple(s.entries[k][k] for k in range(s.rows))


def _summands(x_mat: Mat, s: Mat, v: Mat):
    """((d_k, u_k) for each d_k of degree >= 1) from U (xI - A) V = S, where
    u_k = column k of U^{-1} = column k of (xI - A) V divided by d_k."""
    n = s.rows
    return tuple(
        (d, tuple(e.exact_div(d) for e in (x_mat * v.submatrix(range(n), (k,))).col(0)))
        for k, d in enumerate(_diagonal(s)) if d.degree >= 1)


def _generator(a: Mat, u: Sequence[Poly], g: Poly) -> Mat:
    """The column (g u)(A), powers of A on the left: for u = u_k it
    generates a cyclic summand with minimal polynomial d_k / g."""
    polys = [g * p for p in u]
    acc = Mat.zero(a.domain, a.rows, 1)
    for j in range(max(p.degree for p in polys), -1, -1):
        acc = a * acc + Mat._raw(a.domain, tuple((p.coeff(j),) for p in polys))
    return acc


def _krylov_transform(a: Mat, pieces) -> Mat:
    """T with A T = T F for F the block diagonal of hypercompanion(base, e)
    over the (base, e, z) pieces: each block ends in z and, going back,
    t_(j-1) = A t_j + base_(j mod d) h, with d = deg(base) and h the last
    column of t_j's companion block."""
    cols = []
    for base, exponent, z in pieces:
        d = base.degree
        chain = [z]
        for i in range(d * exponent - 1, 0, -1):
            if i % d == d - 1:   # the last column of a companion block
                h = chain[-1]
            chain.append(a * chain[-1] + h * base.coeff(i % d))
        cols.extend(reversed(chain))
    return Mat._raw(a.domain, tuple(zip(*(c.col(0) for c in cols))))


def _checked(a: Mat, t: Mat, f: Mat) -> Mat:
    """T, once det T != 0 and A T = T F hold exactly."""
    if scalar_is_zero(det(t)):
        raise VerificationError("transform degenerated: det T = 0")
    if not _products_agree((a, t), (t, f)):
        raise VerificationError("transform fails A T = T F")
    return t


def _block_sort_key(base: Poly, size: int):
    return (base.sort_key(), -size)


def _assemble(kind: str, a: Mat, pieces, descriptors) -> CanonicalResult:
    form = Mat.block_diagonal(a.domain, [hypercompanion(b, e) for b, e, _ in pieces])
    return CanonicalResult(kind, tuple(descriptors), form,
                           _checked(a, _krylov_transform(a, pieces), form), verified=True)


def _rational_form(a: Mat, summands) -> CanonicalResult:
    pieces = sorted(((d, 1, _generator(a, u, Poly.one(a.domain))) for d, u in summands),
                    key=lambda p: _block_sort_key(p[0], p[0].degree))
    return _assemble("rational", a, pieces, [d for d, _, _ in pieces])


def _primary_form(a: Mat, summands, dd: DivisorData) -> CanonicalResult:
    # A base's exponent never falls along d_1 | ... | d_n, so its exponents,
    # largest first, belong to the nontrivial d_k from the last one back; the
    # generator of base^e in d_k is the column ((d_k / base^e) u_k)(A).
    seen, keyed = Counter(), []
    for base, e in dd.elementary_divisors:
        keyed.append((_block_sort_key(base, e), len(summands) - 1 - seen[base], base, e))
        seen[base] += 1
    pieces = [(base, e, _generator(a, summands[k][1], summands[k][0].exact_div(base ** e)))
              for _, k, base, e in sorted(keyed, key=lambda t: t[:2])]
    return _assemble("primary", a, pieces, [(base, e) for base, e, _ in pieces])


def _require_split(divisors) -> None:
    """Raise SplitFieldRequired unless every (base, e) has a linear base."""
    nonlinear = sorted({base for base, _ in divisors if base.degree != 1},
                       key=lambda f: f.sort_key())
    if nonlinear:
        raise SplitFieldRequired(nonlinear)


def _jordan_form(prim: CanonicalResult) -> CanonicalResult:
    """The primary form read as the Jordan form: for a linear base x - c the
    hypercompanion block of (x - c)^e is the Jordan block (c, e)."""
    _require_split(prim.blocks)
    return replace(prim, kind="jordan",
                   blocks=tuple((-base.coeff(0), e) for base, e in prim.blocks),
                   structure=eldiv_to_jordan(prim.blocks))


def _witness(a: Mat, rcf_a: CanonicalResult, b: Mat, rcf_b: CanonicalResult) -> Mat:
    """Checked T = T_A T_B^{-1} with A T = T B, for A's and B's transforms
    to one rational form: the value at B of V_A V_B^{-1} (powers of B on the
    right), as both send (u_k of B)(B) to (u_k of A)(A)."""
    return _checked(a, rcf_a.transform * mat_inverse(rcf_b.transform), b)


def rational_canonical_form(a: Mat) -> CanonicalResult:
    """Block diagonal of companion blocks of the nontrivial invariant factors.

    Exists over the base field for every square matrix; no root extraction
    is involved."""
    return _rational_form(a, _summands(*_reduce(a)))


def primary_form(a: Mat) -> CanonicalResult:
    """Block diagonal with one hypercompanion block per elementary divisor.

    For a linear irreducible base the block is the Jordan block, so this form
    refines the rational form without ever leaving the base field."""
    smith = _reduce(a)
    return _primary_form(a, _summands(*smith), _ledger(a, _diagonal(smith[1])))


def jordan_form(a: Mat) -> CanonicalResult:
    """Jordan form (eigenvalues on the diagonal, ones on the superdiagonal)
    plus a verified transform; requires the characteristic polynomial to
    split into linear factors over the base field.

    Raises SplitFieldRequired carrying the offending irreducible factors
    otherwise, decided from A's ledger before any transform is built;
    primary_form is the base-field fallback."""
    smith = _reduce(a)
    dd = _ledger(a, _diagonal(smith[1]))
    _require_split(dd.elementary_divisors)
    return _jordan_form(_primary_form(a, _summands(*smith), dd))


def eldiv_to_jordan(divisors: Sequence[Tuple[Poly, int]]) -> JordanStructure:
    """Dictionary: elementary divisor (x - c)^e  <->  Jordan block (c, e)."""
    grouped: dict = {}
    for base, e in divisors:
        if base.degree != 1:
            raise ValueError(f"nonlinear factor {base.render()} has no Jordan block")
        lc = base.leading()
        ev = -base.coeff(0) / lc if base.domain.is_field else -base.coeff(0)
        grouped.setdefault(ev, []).append(e)
    blocks = tuple(sorted(((ev, tuple(sorted(sizes, reverse=True)))
                           for ev, sizes in grouped.items()),
                          key=lambda t: scalar_key(t[0])))
    return JordanStructure(blocks)


def jordan_to_eldiv(structure: JordanStructure, dom) -> List[Tuple[Poly, int]]:
    """Inverse dictionary: block (c, e) -> elementary divisor (x - c)^e."""
    out = [(Poly.linear(dom, ev), e)
           for ev, sizes in structure.blocks for e in sizes]
    out.sort(key=lambda be: _block_sort_key(be[0], be[1]))
    return out


def similar(a: Mat, b: Mat) -> Tuple[bool, Optional[Mat]]:
    """Decide similarity; on success also return a witness T with
    inverse(T) * A * T == B, checked as A T = T B with det T != 0.

    The decision compares the Smith diagonals of xI - A and xI - B, which
    are the invariant factors, so nothing is factored and no generator is
    built for a NOT SIMILAR answer; the witness is T_A T_B^{-1} for the
    transforms of A and B to their rational form."""
    if a.domain != b.domain:
        raise DomainError("similarity needs a common base field")
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("similarity needs square matrices of equal size")
    a_smith, b_smith = _reduce(a), _reduce(b)
    if _diagonal(a_smith[1]) != _diagonal(b_smith[1]):
        return False, None
    return True, _witness(a, _rational_form(a, _summands(*a_smith)),
                          b, _rational_form(b, _summands(*b_smith)))
