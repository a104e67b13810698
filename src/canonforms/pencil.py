"""Matrix pencils (P, Q) under strict equivalence.

The pencil's invariants are the homogeneous elementary divisors of
det(u P + v Q).  A regular pencil is read Jordan's way: an invertible
parameter substitution with an invertible leading member P' = alpha P +
gamma Q turns u P + v Q into P'(u' I + v' A), so its divisors are those of
the one matrix A over the base field (``divisor_data``), mapped back
through the substitution.  Only a pencil without such a shift (a singular
one, or a regular one over GF(p) whose divisors cover every point) takes
Kronecker's route: finite divisors from the Smith form of x P + Q over
F[x], divisors at the point (1 : 0) from the powers of y in the Smith form
of P + y Q.  Singular pencils are detected and reported, their canonical
minimal-index theory is deliberately not implemented.

Strict equivalence of regular pencils goes through the shifted members: a
joint parameter shift that makes both leading members invertible turns each
pencil into (I, A), and one similarity decision of the two A's decides and
witnesses (Weierstrass).  The divisor multisets are compared only when no
such shift exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .algebra import (
    BinaryForm,
    DomainError,
    HomogeneousPoint,
    Poly,
    RationalField,
    VerificationError,
    _divisor_key,
    _homogeneous_divisors,
    factor,
    scalar_is_zero,
)
from .canonical import hypercompanion, jordan_block, similar
from .matrix import (
    Mat,
    ShapeError,
    SingularMatrixError,
    _linear_pencil,
    _products_agree,
    det,
    mat_inverse,
)
from .smith import _divisor_str, divisor_data, smith_diagonal


class SingularPencilError(ArithmeticError):
    """Raised when an operation defined only for regular pencils meets a
    pencil whose determinant form vanishes identically."""


@dataclass(frozen=True)
class Pencil:
    """A pair of square matrices over one field, read as u P + v Q."""

    p: Mat
    q: Mat

    def __post_init__(self):
        if self.p.domain != self.q.domain:
            raise DomainError("pencil members over different fields")
        if not (self.p.is_square() and self.q.is_square()
                and self.p.rows == self.q.rows):
            raise ShapeError("pencil members must be square of equal size")
        if not self.p.domain.is_field:
            raise DomainError("pencil entries must lie in a field")

    @property
    def size(self) -> int:
        return self.p.rows

    @property
    def domain(self):
        return self.p.domain

    def transform(self, h: Mat, k: Mat) -> "Pencil":
        """The strictly equivalent pencil (H^T P K, H^T Q K)."""
        ht = h.transpose()
        return Pencil(ht * self.p * k, ht * self.q * k)


@dataclass(frozen=True)
class PencilInvariants:
    """Invariant ledger of a pencil.

    ``divisors`` is the multiset of homogeneous elementary divisors, each a
    (HomogeneousPoint or irreducible Poly of degree >= 2, exponent) pair;
    the point (1 : 0) marks divisors at infinity.  For regular pencils the
    divisor degrees sum to the size.  For singular pencils only the rank and
    the finite gcd data that stays well defined are recorded.  Every
    polynomial base is irreducible over the pencil's field.
    """

    regular: bool
    size: int
    rank: int
    infinity_defect: int
    divisors: Tuple[Tuple[object, int], ...]

    def multiset(self):
        return tuple(sorted(self.divisors, key=_divisor_key))

    def total_degree(self) -> int:
        return sum(_divisor_degree(b, e) for b, e in self.divisors)

    def render(self, var: str = "x") -> str:
        return ", ".join(_pencil_divisor_str(b, e, var)
                         for b, e in self.multiset())


def _pencil_divisor_str(base, e: int, var: str) -> str:
    """One homogeneous divisor as text: a finite point (c : 1) as (x - c),
    the point (1 : 0) as (infinity)."""
    if isinstance(base, HomogeneousPoint) and base.is_infinity:
        return "(infinity)" if e == 1 else f"(infinity)^{e}"
    if isinstance(base, HomogeneousPoint):
        base = Poly.linear(base.domain, base.a)
    return _divisor_str(base, e, var)


def _divisor_degree(base, e: int) -> int:
    if isinstance(base, HomogeneousPoint):
        return e
    return base.degree * e


def pencil_det(pc: Pencil) -> BinaryForm:
    """The homogeneous determinant form det(u P + v Q) of degree n.

    Computed from the dehomogenization det(x P + Q); the complementary
    dehomogenization det(P + y Q) and evaluations at n + 1 parameter points
    cross-check the stitching.  The zero form signals a singular pencil.
    """
    n = pc.size
    dom = pc.domain
    fx = det(_linear_pencil(pc.p, pc.q))     # det(x P + Q)
    gy = det(_linear_pencil(pc.q, pc.p))     # det(P + y Q)
    form = BinaryForm(dom, n, [fx.coeff(k) for k in range(n + 1)])
    mirror = BinaryForm(dom, n, [gy.coeff(n - k) for k in range(n + 1)])
    if form != mirror:
        raise VerificationError("dehomogenizations disagree")
    for t in _parameter_points(dom, n + 1):
        lhs = det(pc.p + pc.q * t)
        if form.evaluate(dom.one, t) != lhs:
            raise VerificationError("determinant form evaluation mismatch")
    return form


def _parameter_points(dom, count: int):
    """Deterministic scalar sample points (may repeat cyclically over small
    prime fields, which only weakens the redundant cross-check)."""
    if isinstance(dom, RationalField):
        return [Fraction(k) for k in range(count)]
    p = dom.characteristic
    return [dom.coerce(k % p) for k in range(count)]


def pencil_regular(pc: Pencil) -> bool:
    """True iff det(u P + v Q) is not the identically zero form."""
    return not pencil_det(pc).is_zero()


def pencil_divisors(pc: Pencil) -> PencilInvariants:
    """Homogeneous elementary divisors of a pencil.

    Divisors are points (a : b) of the projective line, (1 : 0) marking
    infinity, or irreducible polynomials of degree >= 2 for finite
    divisors without a root in the field.  A regular pencil with an
    invertible member P' = alpha P + gamma Q is shifted to P'(u' I + v' A)
    and its divisors are those of A, from ``divisor_data`` over the base
    field.  Only a pencil without such a member takes the Smith forms of
    x P + Q and P + y Q over F[x].  For regular pencils the divisor degrees
    sum to n and the finite divisors multiply to det(x P + Q) up to its
    leading coefficient (both checked).  Singular pencils get a report
    carrying the rank and the well-defined finite gcd data only.
    """
    return _pencil_divisors(pc, det(_linear_pencil(pc.p, pc.q)))


def _pencil_divisors(pc: Pencil, fx: Poly) -> PencilInvariants:
    """pencil_divisors given fx = det(x P + Q), against which the divisors
    of a regular pencil are checked."""
    shift = _joint_regular_shift(pc)
    if shift is None:
        return _smith_pencil_divisors(pc, fx)
    coords, lead_inv = shift
    beta, delta = coords[1]
    n = pc.size
    # u P + v Q = P'(u' I + v' A) for u = alpha u' + beta v', v = gamma u' +
    # delta v'; the pencil (I, A) has the divisors of -A at (c : 1)
    a = lead_inv * (pc.p * beta + pc.q * delta)
    divisors = [(_unshift(base, coords), e)
                for base, e in divisor_data(-a).elementary_divisors]
    divisors.sort(key=_divisor_key)
    inf_total = sum(e for base, e in divisors
                    if isinstance(base, HomogeneousPoint) and base.is_infinity)
    inv = PencilInvariants(regular=True, size=n, rank=n,
                           infinity_defect=inf_total, divisors=tuple(divisors))
    _check_regular(inv, fx)
    return inv


def _unshift(base: Poly, coords):
    """A divisor base of -A, at x = u'/v', as a homogeneous divisor of the
    pencil: the inverse substitution u' = delta u - beta v, v' = -gamma u +
    alpha v carries the root c to the point (alpha c + beta : gamma c +
    delta) and a base g of degree d >= 2 to sum_k g_k (delta x - beta)^k
    (alpha - gamma x)^(d - k), made monic."""
    (alpha, gamma), (beta, delta) = coords
    dom = base.domain
    if base.degree == 1:
        c = -base.coeff(0)
        return HomogeneousPoint.of(dom, alpha * c + beta, gamma * c + delta)
    top, rest = Poly(dom, (-beta, delta)), Poly(dom, (alpha, -gamma))
    return sum((top ** k * rest ** (base.degree - k) * g
                for k, g in enumerate(base.coeffs)), Poly.zero(dom)).monic()


def _check_regular(inv: PencilInvariants, fx: Poly) -> None:
    """The divisors of a regular pencil against fx = det(x P + Q): their
    degrees sum to n, deg fx is n minus the count at infinity, and fx is its
    leading coefficient times the product of the finite divisors."""
    if inv.total_degree() != inv.size:
        raise VerificationError("divisor degrees must sum to n")
    if fx.degree != inv.size - inv.infinity_defect:
        raise VerificationError("infinity bookkeeping mismatch")
    product = Poly.constant(fx.domain, fx.leading())
    for base, e in inv.divisors:
        if isinstance(base, HomogeneousPoint):
            if base.is_infinity:
                continue
            base = Poly.linear(base.domain, base.a)
        product = product * base ** e
    if product != fx:
        raise VerificationError("finite divisors do not multiply to det(x P + Q)")


def _smith_pencil_divisors(pc: Pencil, fx: Poly) -> PencilInvariants:
    """Kronecker's route, for a pencil without a regular shift: the Smith
    diagonals of x P + Q and P + y Q over F[x]."""
    n = pc.size
    dom = pc.domain
    x_side = smith_diagonal(_linear_pencil(pc.p, pc.q))
    y_side = smith_diagonal(_linear_pencil(pc.q, pc.p))
    # x -> 1/y carries x P + Q to (P + y Q) / y, so both sides have one rank
    rank = sum(1 for d in x_side if not d.is_zero())
    if sum(1 for d in y_side if not d.is_zero()) != rank:
        raise VerificationError("x P + Q and P + y Q differ in rank")
    divisors: List[Tuple[object, int]] = []
    for d in x_side:
        if d.is_zero() or d.degree < 1:
            continue
        divisors.extend(_homogeneous_divisors(factor(d)))
    inf_total = 0
    for d in y_side:
        if d.is_zero():
            continue
        e = _zero_root_multiplicity(d)
        if e:
            divisors.append((HomogeneousPoint.infinity(dom), e))
            inf_total += e
    divisors.sort(key=_divisor_key)
    inv = PencilInvariants(
        regular=rank == n,
        size=n,
        rank=rank,
        infinity_defect=inf_total,
        divisors=tuple(divisors),
    )
    if inv.regular:
        _check_regular(inv, fx)
    return inv


def _zero_root_multiplicity(d: Poly) -> int:
    k = 0
    while k <= d.degree and scalar_is_zero(d.coeff(k)):
        k += 1
    return k


def canonical_pencil(inv: PencilInvariants) -> Pencil:
    """Canonical block pair realizing a regular invariant set.

    Finite divisor (x - c)^e gives the block pair (I_e, -J_e(c)); a finite
    irreducible base of degree >= 2 gives (I, -H) with H the hypercompanion;
    a divisor at infinity of exponent e gives (N_e, I_e) with N_e the
    nilpotent Jordan block.  Blockwise, x P + Q is literally x I - J on the
    finite part.  The output is self-tested: its divisors equal the input.
    """
    if not inv.regular:
        raise SingularPencilError(
            "singular pencil: canonical minimal-index theory out of scope")
    if not inv.divisors:
        raise ValueError("empty invariant set")
    dom = inv.divisors[0][0].domain
    if inv.total_degree() != inv.size:
        raise ValueError("divisor degrees do not sum to the pencil size")
    p_blocks: List[Mat] = []
    q_blocks: List[Mat] = []
    for base, e in sorted(inv.divisors, key=_divisor_key):
        if isinstance(base, HomogeneousPoint) and base.is_infinity:
            p_blocks.append(jordan_block(dom, dom.zero, e))
            q_blocks.append(Mat.identity(dom, e))
        elif isinstance(base, HomogeneousPoint):
            p_blocks.append(Mat.identity(dom, e))
            q_blocks.append(-jordan_block(dom, base.a, e))
        else:
            h = hypercompanion(base, e)
            p_blocks.append(Mat.identity(dom, h.rows))
            q_blocks.append(-h)
    out = Pencil(Mat.block_diagonal(dom, p_blocks),
                 Mat.block_diagonal(dom, q_blocks))
    back = pencil_divisors(out)
    if back.multiset() != inv.multiset():
        raise VerificationError("canonical pencil self-test failed")
    return out


def pencil_equivalent(pc1: Pencil, pc2: Pencil):
    """Decide strict equivalence of two regular pencils; on success return a
    verified witness (H, K) with H^T (u P + v Q) K = u P' + v Q'.

    A joint parameter shift makes the leading members of both pencils
    invertible; each shifted pencil is then (I, A) up to a left factor, and
    one similarity decision of the two A's (by nested kernels, with no
    Smith reduction) decides and yields the witness.  Only when no shift
    exists does the decision compare divisor multisets: singular input is
    refused there with an explicit diagnosis rather than a guess, and over a
    field with at most 2 * size elements, whose points the divisors can
    exhaust, the (still sound) decision comes back with witness None.
    """
    if pc1.domain != pc2.domain:
        raise DomainError("pencil equivalence needs a common field")
    if pc1.size != pc2.size:
        raise ShapeError("pencil equivalence needs equal sizes")
    shift = _joint_regular_shift(pc1, pc2)
    if shift is None:
        inv1 = pencil_divisors(pc1)
        inv2 = pencil_divisors(pc2)
        if not inv1.regular or not inv2.regular:
            raise SingularPencilError(
                "singular pencil: canonical minimal-index theory out of scope")
        return inv1.multiset() == inv2.multiset(), None
    # Invertible parameter substitution applied to both pencils: the witness
    # of the substituted pair is exactly the witness of the original pair.
    ((alpha, gamma), (beta, delta)), p1_inv, p2_inv = shift
    q1 = pc1.p * beta + pc1.q * delta
    q2 = pc2.p * beta + pc2.q * delta
    ok, k = similar(p1_inv * q1, p2_inv * q2)
    if not ok:
        return False, None
    # H^T = P2 K^{-1} P1^{-1}:  H^T (u P1 + v Q1) K = u P2 + v Q2, where
    # P_i = alpha P + gamma Q of pencil i
    ht = (pc2.p * alpha + pc2.q * gamma) * mat_inverse(k) * p1_inv
    if not (_products_agree((ht, pc1.p, k), (pc2.p,))
            and _products_agree((ht, pc1.q, k), (pc2.q,))):
        raise VerificationError("pencil witness failed verification")
    return True, (ht.transpose(), k)


def _joint_regular_shift(*pencils: Pencil):
    """(shift, P_1^{-1}, P_2^{-1}, ...) for an invertible parameter
    substitution shift = ((alpha, gamma), (beta, delta)) whose leading member
    P_i = alpha P + gamma Q is invertible for every pencil given, or None.

    det(P + c Q) is a nonzero polynomial in c of degree <= n for a regular
    pencil, so at most n values of c fail for each pencil, and the first
    2n + 1 values tried hold a working shift for a pair: c = 0, 1, -1, ...,
    n, -n over Q, and the residues 0 .. 2n over GF(p) whenever p > 2n.  Each
    candidate is tried by inverting its leading members in the order the
    pencils are given."""
    dom = pencils[0].domain
    n = pencils[0].size
    if isinstance(dom, RationalField):
        shifts = [0] + [s * k for k in range(1, n + 1) for s in (1, -1)]
    else:
        shifts = range(min(dom.characteristic, 2 * n + 1))
    leading = [(dom.one, dom.coerce(c)) for c in shifts]
    leading.append((dom.zero, dom.one))
    for alpha, gamma in leading:
        try:
            inverses = tuple(mat_inverse(pc.p * alpha + pc.q * gamma) for pc in pencils)
        except SingularMatrixError:
            continue
        # a complement independent of (alpha, gamma)
        complement = (dom.zero, dom.one) if scalar_is_zero(gamma) else (dom.one, dom.zero)
        return ((alpha, gamma), complement), *inverses
    return None


# ---------------------------------------------------------------------------
# Kronecker's elementary bilinear forms and their determinant identities


def kronecker_elementary_form(kind: str, size: int, a=None, b=None):
    """Build an elementary bilinear form M, its pencil (M, M^T), and the
    expected determinant of u M + v M^T.

    kind "I" (any size n+1 >= 2): ones chain with a corner term; expected
    determinant [u + (-1)^n v]^(n+1).  kind "II" (even size 2m >= 2): the
    cornerless variant; expected [u + (-1)^m v]^(2m).  kind "III" (size
    n+1 >= 2, parameters a, b with a^2 != b^2): constant weights a above and
    b below the diagonal; expected (a u + b v)^m (a v + b u)^m for even size
    2m and the zero form for odd size, matching the direct expansion up to a
    global sign that the caller records.

    The corner entry of kind I carries the sign (-1)^floor(n/2) so that the
    expected identity holds exactly at every size (for odd n the corner does
    not influence the determinant at all).
    """
    if size < 2:
        raise ValueError("elementary forms need size >= 2")
    if kind == "I":
        n = size - 1
        m = _chain_form(size, lambda h: _sign(n), lambda h: _sign(h))
        corner = _sign(n // 2) if n % 2 == 0 else 1
        m = _with_corner(m, corner)
        expected = BinaryForm.linear_power(m.domain, 1, _sign(n), size)
        return m, Pencil(m, m.transpose()), expected
    if kind == "II":
        if size % 2:
            raise ValueError("kind II needs an even size 2m")
        mm = size // 2
        m = _chain_form(size, lambda h: _sign(mm), lambda h: _sign(h))
        expected = BinaryForm.linear_power(m.domain, 1, _sign(mm), size)
        return m, Pencil(m, m.transpose()), expected
    if kind == "III":
        if a is None or b is None:
            raise ValueError("kind III needs parameters a and b")
        av, bv = Fraction(a), Fraction(b)
        if av * av == bv * bv:
            raise ValueError("kind III needs a^2 != b^2")
        m = _chain_form(size, lambda h: av, lambda h: bv)
        if size % 2:
            expected = BinaryForm.zero(m.domain, size)
        else:
            mm = size // 2
            expected = (BinaryForm.linear_power(m.domain, av, bv, mm)
                        * BinaryForm.linear_power(m.domain, bv, av, mm))
        return m, Pencil(m, m.transpose()), expected
    raise ValueError(f"unknown elementary form kind {kind!r}")


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _chain_form(size: int, above, below) -> Mat:
    from .algebra import QQ
    z = Fraction(0)
    out = [[z] * size for _ in range(size)]
    for h in range(size - 1):
        out[h][h + 1] = Fraction(above(h))
        out[h + 1][h] = Fraction(below(h))
    return Mat(QQ, out)


def _with_corner(m: Mat, corner) -> Mat:
    rows = [list(r) for r in m.entries]
    rows[-1][-1] = m.domain.coerce(corner)
    return Mat(m.domain, rows)
