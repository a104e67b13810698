"""Similarity theory of a single square matrix over an exact field.

Provides companion and hypercompanion blocks, the rational canonical form,
the primary form (one hypercompanion block per elementary divisor), the
Jordan form when the characteristic polynomial splits, and a similarity
decision with verified witness transforms.

One engine builds every transform over the base field, on Jordan's route:
the characteristic polynomial (by Hessenberg reduction) is factored once,
and for each irreducible base p of degree d the nested kernels
K_j = ker p(A)^j count its blocks (``smith._nested_kernels``).  At each level
e, largest first, the generators are pivot columns of one matrix
(``matrix._pivot_columns``): its columns are K_(e-1), p(A) K_(e+1) and,
for each basis vector z of K_e, the orbit z, A z, ..., A^(d-1) z, taken
only until they span K_e, and a z is picked when its own column is a
pivot.  Whole orbits come in or stay out together, so the picks stay
independent over F[x]/(p) (Steel, J. Symbolic Comput. 24 (1997)).
Krylov chains from these generators are the columns of the primary and
Jordan transforms; the generator of an invariant factor d_k is the sum of
its primary generators, whose orders are coprime, and ``similar`` composes
two rational transforms as T_A T_B^{-1}.  Every transform is checked by
explicit raises: T has full rank (n pivot columns), and A T = T F is
decided by one packed-integer product per side
(``matrix._products_agree``); no check inverts.

No call here reduces anything over F[x]: the Smith form of xI - A is left
to the ``smith`` and ``verify`` commands and to the pencil divisors.  What
the characteristic polynomial decides (a Jordan refusal, a NOT SIMILAR
answer) is decided before any kernel is computed, and what the nullities
decide before any generator is picked.  The Jordan form is the primary form
read with linear bases.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    DomainError,
    Poly,
    VerificationError,
    factor,
    scalar_key,
)
from .matrix import Mat, ShapeError, _pivot_columns, _products_agree, mat_inverse
from .smith import _char_poly, _nested_kernels


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
    after the exact checks A * T == T * matrix and rank T = n.  Every block
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
# Transforms from nested kernels over the base field


def _kernels(a: Mat, terms):
    """(base, base(A), [K_1, ..., K_m], block exponents) for each factor
    term of A's characteristic polynomial."""
    return [(t.base, *_nested_kernels(a, t.base, t.exponent)) for t in terms]


def _columns(dom, vectors) -> Mat:
    """The matrix whose columns are the given vectors."""
    return Mat._raw(dom, tuple(zip(*vectors)))


def _generators(a: Mat, base: Poly, m: Mat, kernels, exps):
    """[(e, z)] for the block exponents e of ``base`` (largest first): z
    lies in K_e = ker M^e, M = base(A), and spans a cyclic summand with
    minimal polynomial base^e; together the summands are A's base-primary
    component.

    At level e the picks are read off the pivot columns of one matrix: its
    columns are K_(e-1), M K_(e+1) and, for each basis vector z of K_e, the
    orbit z, A z, ..., A^(d-1) z, and z is picked when its own column is a
    pivot.  Since M K_e lies in K_(e-1), each orbit adds an A-invariant
    span: a z that is not picked lies in the span of the columns before it,
    and so does its whole orbit.  So the picks avoid K_(e-1), M K_(e+1) and
    the orbits of the earlier picks, and stay independent over the
    quotient, a vector space over F[x]/(base), also when d > 1.

    Every column lies in K_e, so once the pivots number dim K_e no later
    column is a pivot.  One elimination therefore takes the orbits of the
    first ceil(dim K_e / d) basis vectors, at most dim K_e + d - 1 columns
    and all of K_e when d = 1, and the count doubles only while the rank
    falls short.  A dense A, whose characteristic polynomial is one base of
    degree n, reduces one Krylov orbit rather than n^2 columns.
    """
    dom, d = a.domain, base.degree
    need = Counter(exps)
    picks = []
    for e in range(len(kernels), 0, -1):
        if not need[e]:
            continue
        prefix = list(kernels[e - 2]) if e > 1 else []
        if e < len(kernels):
            prefix.extend(zip(*(m * _columns(dom, kernels[e])).entries))
        basis = kernels[e - 1]
        count = -(-len(basis) // d)
        while True:
            powers = [_columns(dom, basis[:count])]
            for _ in range(d - 1):
                powers.append(a * powers[-1])
            orbits = zip(*(zip(*p.entries) for p in powers))   # z, A z, ..., A^(d-1) z
            pivots = set(_pivot_columns(
                _columns(dom, prefix + [c for orbit in orbits for c in orbit])))
            if len(pivots) == len(basis) or count >= len(basis):
                break
            count *= 2
        heads = range(len(prefix), len(prefix) + d * powers[0].cols, d)
        found = [_columns(dom, [z]) for z, h in zip(basis, heads) if h in pivots]
        if len(found) != need[e]:
            raise VerificationError(
                f"kernel generators of ({base.render(compact=True)})(A): "
                f"{len(found)} at level {e}, {need[e]} expected")
        picks.extend((e, z) for z in found)
    return picks


def _primary(a: Mat, kernels):
    """[(base, [(e, z)] largest e first)] from ``_kernels``."""
    return [(base, _generators(a, base, m, ks, exps)) for base, m, ks, exps in kernels]


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
    return _columns(a.domain, (c.col(0) for c in cols))


def _checked(a: Mat, t: Mat, f: Mat) -> Mat:
    """T, once T has full rank (n pivot columns) and A T = T F hold
    exactly."""
    if len(_pivot_columns(t)) != t.rows:
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


def _rational_form(a: Mat, primary) -> CanonicalResult:
    # the invariant factor d_k, k-th from the last, is the product of every
    # base^e with e its k-th largest exponent, and the generators of those
    # coprime primary summands add up to a generator of d_k
    pieces = []
    for k in range(max(len(gens) for _, gens in primary)):
        parts = [(base ** gens[k][0], gens[k][1]) for base, gens in primary if k < len(gens)]
        pieces.append((functools.reduce(operator.mul, (f for f, _ in parts)), 1,
                       functools.reduce(operator.add, (z for _, z in parts))))
    pieces.sort(key=lambda p: _block_sort_key(p[0], p[0].degree))
    return _assemble("rational", a, pieces, [d for d, _, _ in pieces])


def _primary_form(a: Mat, primary) -> CanonicalResult:
    pieces = sorted(((base, e, z) for base, gens in primary for e, z in gens),
                    key=lambda p: _block_sort_key(p[0], p[1]))
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
    to one rational form."""
    return _checked(a, rcf_a.transform * mat_inverse(rcf_b.transform), b)


def _factors(a: Mat):
    return factor(_char_poly(a))


def rational_canonical_form(a: Mat) -> CanonicalResult:
    """Block diagonal of companion blocks of the nontrivial invariant factors.

    Exists over the base field for every square matrix; no root extraction
    is involved."""
    return _rational_form(a, _primary(a, _kernels(a, _factors(a))))


def primary_form(a: Mat) -> CanonicalResult:
    """Block diagonal with one hypercompanion block per elementary divisor.

    For a linear irreducible base the block is the Jordan block, so this form
    refines the rational form without ever leaving the base field."""
    return _primary_form(a, _primary(a, _kernels(a, _factors(a))))


def jordan_form(a: Mat) -> CanonicalResult:
    """Jordan form (eigenvalues on the diagonal, ones on the superdiagonal)
    plus a verified transform; requires the characteristic polynomial to
    split into linear factors over the base field.

    Raises SplitFieldRequired carrying the offending irreducible factors
    otherwise, decided from the factors of the characteristic polynomial
    before any kernel is computed; primary_form is the base-field
    fallback."""
    terms = _factors(a)
    _require_split([(t.base, t.exponent) for t in terms])
    return _jordan_form(_primary_form(a, _primary(a, _kernels(a, terms))))


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
    inverse(T) * A * T == B, checked as A T = T B with rank T = n.

    Unequal characteristic polynomials answer NOT SIMILAR before any kernel
    is computed; otherwise the block exponents from the nullities decide,
    before any generator is picked.  The witness is T_A T_B^{-1} for the
    transforms of A and B to their rational form."""
    if a.domain != b.domain:
        raise DomainError("similarity needs a common base field")
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("similarity needs square matrices of equal size")
    chi = _char_poly(a)
    if chi != _char_poly(b):
        return False, None
    terms = factor(chi)
    a_kernels, b_kernels = _kernels(a, terms), _kernels(b, terms)
    if [exps for *_, exps in a_kernels] != [exps for *_, exps in b_kernels]:
        return False, None
    return True, _witness(a, _rational_form(a, _primary(a, a_kernels)),
                          b, _rational_form(b, _primary(b, b_kernels)))
