"""Similarity theory of a single square matrix over an exact field.

Provides companion and hypercompanion blocks, the rational canonical form,
the primary form (one hypercompanion block per elementary divisor), the
Jordan form when the characteristic polynomial splits, and a similarity
decision with verified witness transforms.

Transforms are recovered uniformly from the Smith reductions of xI - A: if
U (xI - A) V and U' (xI - B) V' share one Smith form, the matrix polynomial
V V'^{-1} evaluated at B (powers of B on the right) conjugates A into B.

Each characteristic matrix is reduced once per call, by the tracked Smith
reduction, and that one reduction supplies everything: its diagonal gives
the invariant ledger (and decides similarity), V gives the left factor, and
V^{-1} is carried through the reduction itself, so no transform goes
through an adjugate or any other matrix inverse over F[x].

Each public form is a private builder (``_rational_form``, ``_primary_form``,
``_jordan_form``) applied to A's reduction and ledger, so a caller holding
both (``canonforms verify``) reduces xI - A once for all three forms; each
form adds only the reduction of its own xI - F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    DomainError,
    Poly,
    VerificationError,
    scalar_is_zero,
    scalar_key,
)
from .matrix import Mat, ShapeError, det, mat_inverse
from .smith import DivisorData, _ledger, _tracked_smith, char_matrix


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
    after the exact check inverse(T) * A * T == matrix.  Every block comes
    from a complete factorization over the base field.
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
    dom = base.domain
    d = base.degree
    c = companion(base)
    n = d * exponent
    z = dom.zero
    out = [[z] * n for _ in range(n)]
    for b in range(exponent):
        off = b * d
        for i in range(d):
            for j in range(d):
                out[off + i][off + j] = c.entries[i][j]
        if b + 1 < exponent:
            out[off + d - 1][off + d] = dom.one
    return Mat(dom, out)


# ---------------------------------------------------------------------------
# Transform recovery through the Smith reduction of xI - A


def _right_value(q: Mat, b: Mat) -> Mat:
    """Evaluate a matrix polynomial at B with the powers on the right
    (Horner's rule on its constant-matrix coefficients)."""
    base = q.domain.base
    deg = max(e.degree for row in q.entries for e in row)
    acc = None
    for k in range(max(deg, 0), -1, -1):
        coeff = Mat(base, ((e.coeff(k) for e in row) for row in q.entries))
        acc = coeff if acc is None else acc * b + coeff
    return acc


def _char_smith(a: Mat) -> Tuple[Tuple[Poly, ...], Mat, Mat]:
    """(Smith diagonal, V, V^{-1}) from the one tracked Smith reduction of
    xI - A; the diagonal entries are the invariant factors of A."""
    _, s, v, w = _tracked_smith(char_matrix(a))
    return tuple(s.entries[k][k] for k in range(s.rows)), v, w


def _conjugator(a: Mat, a_red, b: Mat, b_red) -> Mat:
    """Verified T with inverse(T) * A * T == B from the reductions of xI - A
    and xI - B.  Callers decide similarity first, so Smith forms that differ
    here are a failed internal check."""
    diag_a, va, _ = a_red
    diag_b, _, wb = b_red
    if diag_a != diag_b:
        raise VerificationError("conjugator needs equal Smith forms")
    t = _right_value(va * wb, b)
    if scalar_is_zero(det(t)):
        raise VerificationError("similarity transform degenerated")
    if mat_inverse(t) * a * t != b:
        raise VerificationError("similarity transform fails inverse(T) A T = B")
    return t


def _block_sort_key(base: Poly, size: int):
    return (base.sort_key(), -size)


def _reduce(a: Mat):
    """A's reduction (diagonal, V, V^{-1}) and the ledger read off its
    diagonal: everything a form builder needs."""
    a_red = _char_smith(a)
    return a_red, _ledger(a, a_red[0])


def _assemble(kind: str, a: Mat, a_red, blocks: Sequence[Mat], descriptors,
              structure: Optional[JordanStructure] = None) -> CanonicalResult:
    """The block diagonal form, conjugated to A through A's reduction and
    the form's own, as a verified CanonicalResult."""
    form = Mat.block_diagonal(a.domain, blocks)
    return CanonicalResult(kind, tuple(descriptors), form,
                           _conjugator(a, a_red, form, _char_smith(form)),
                           verified=True, structure=structure)


def _rational_form(a: Mat, a_red, dd: DivisorData) -> CanonicalResult:
    factors = sorted(dd.nontrivial_invariant_factors(),
                     key=lambda f: _block_sort_key(f, f.degree))
    return _assemble("rational", a, a_red, [companion(f) for f in factors],
                     factors)


def _primary_form(a: Mat, a_red, dd: DivisorData) -> CanonicalResult:
    divisors = sorted(dd.elementary_divisors,
                      key=lambda be: _block_sort_key(be[0], be[1]))
    return _assemble("primary", a, a_red,
                     [hypercompanion(base, e) for base, e in divisors], divisors)


def _jordan_form(a: Mat, a_red, dd: DivisorData) -> CanonicalResult:
    nonlinear = sorted({base for base, _ in dd.elementary_divisors
                        if base.degree != 1},
                       key=lambda f: f.sort_key())
    if nonlinear:
        raise SplitFieldRequired(nonlinear)
    divisors = sorted(dd.elementary_divisors,
                      key=lambda be: _block_sort_key(be[0], be[1]))
    pairs = [(-base.coeff(0), e) for base, e in divisors]
    return _assemble("jordan", a, a_red,
                     [jordan_block(a.domain, ev, e) for ev, e in pairs], pairs,
                     structure=eldiv_to_jordan(divisors))


def rational_canonical_form(a: Mat) -> CanonicalResult:
    """Block diagonal of companion blocks of the nontrivial invariant factors.

    Exists over the base field for every square matrix; no root extraction
    is involved."""
    return _rational_form(a, *_reduce(a))


def primary_form(a: Mat) -> CanonicalResult:
    """Block diagonal with one hypercompanion block per elementary divisor.

    For a linear irreducible base the block is the Jordan block, so this form
    refines the rational form without ever leaving the base field."""
    return _primary_form(a, *_reduce(a))


def jordan_form(a: Mat) -> CanonicalResult:
    """Jordan form (eigenvalues on the diagonal, ones on the superdiagonal)
    plus a verified transform; requires the characteristic polynomial to
    split into linear factors over the base field.

    Raises SplitFieldRequired carrying the offending irreducible factors
    otherwise; primary_form is the base-field fallback."""
    return _jordan_form(a, *_reduce(a))


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
    """Decide similarity; on success also return a verified witness T with
    inverse(T) * A * T == B.

    The decision compares the Smith diagonals of xI - A and xI - B, which
    are the invariant factors, so nothing is factored; the witness composes
    the transforms of those same two reductions."""
    if a.domain != b.domain:
        raise DomainError("similarity needs a common base field")
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("similarity needs square matrices of equal size")
    a_red, b_red = _char_smith(a), _char_smith(b)
    if a_red[0] != b_red[0]:
        return False, None
    return True, _conjugator(a, a_red, b, b_red)
