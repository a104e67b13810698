"""Small-oscillations analysis of M y'' + K y = 0 in exact arithmetic.

M and K are symmetric rational matrices with M positive definite (checked by
leading principal minors).  The spectral variable s solves det(K - s M) = 0
with s = rho^2, so an oscillatory mode has s > 0 with angular frequency
sqrt(s); negative s gives hyperbolic growth and s = 0 an affine drift mode.

No matrix over Q[x] is built.  M is invertible, so A = M^-1 K exists and
det(K - s M) = det(M) (-1)^n chi_A(s), with chi_A the characteristic
polynomial of A from the Hessenberg reduction (``smith._char_poly``).  The
result is re-checked at s = 1 against the scalar det(K - M).

Eigenvectors follow the adjugate-column recipe: a nonzero column of
adj(K - s M) evaluated at the root is an eigenvector, and when every column
vanishes there (which happens exactly when the root's geometric multiplicity
exceeds one) the exact nullspace is used instead and the mode is marked
degenerate.  As polynomials in s, a column comes from the Faddeev-LeVerrier
recurrence for adj(sI - A) applied to one column of adj(M) = det(M) M^-1:
n matrix-vector products over Q and no determinant.  At an exact root with
a one-dimensional eigenspace, adj(K - s M) = c v v^T for its kernel vector
v, so one scalar minor fixes the column.

A report computes each intermediate once: M^-1, A, det M and chi_A, one
root analysis, and at most one polynomial adjugate column, shared by every
irrational root.

The inertia of a symmetric matrix comes from Descartes' rule of signs on its
characteristic polynomial, which is exact because that polynomial is
real-rooted; the leading principal-minor quotients, read off the pivots of
one fraction-free elimination, must give the same counts when they apply.

Two stability verdicts are reported side by side: the 1766 trichotomy that
demotes every repeated root to conditional stability, and the 1858 criterion
for which only the signs of the (always real) roots matter.  Their
disagreement is confined to repeated positive roots.
"""

from __future__ import annotations

import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    DomainError,
    Poly,
    QQ,
    RootInterval,
    VerificationError,
    _chain_count,
    _isolate,
    _split_linear,
    _sturm_chain,
    factor,
)
from .matrix import Mat, ShapeError, _leading_minors, det, mat_inverse, nullspace
from .smith import _char_poly


@dataclass(frozen=True)
class OscSystem:
    """Mass and stiffness matrices of a small-oscillations system."""

    mass: Mat
    stiffness: Mat

    def __post_init__(self):
        m, k = self.mass, self.stiffness
        if not isinstance(m.domain, type(QQ)) or not isinstance(k.domain, type(QQ)):
            raise DomainError("oscillation systems are rational")
        if not m.is_square() or not k.is_square() or m.rows != k.rows:
            raise ShapeError("mass and stiffness must be square of equal size")
        if m != m.transpose():
            raise ValueError("mass matrix must be symmetric")
        if k != k.transpose():
            raise ValueError("stiffness matrix must be symmetric")
        for t, minor in enumerate(_leading_minors(m), start=1):
            if minor <= 0:
                raise ValueError(
                    "mass matrix must be positive definite "
                    f"(leading principal minor {t} is {minor})")

    @property
    def size(self) -> int:
        return self.mass.rows


@dataclass(frozen=True)
class _Reduction:
    """M^-1, A = M^-1 K, det M and the characteristic polynomial chi_A of
    one system: everything its report needs from M and K."""

    inverse: Mat
    a: Mat
    det_mass: Fraction
    chi: Poly


def _reduce(sys: OscSystem) -> _Reduction:
    """The reduction of a system, with chi_A re-checked at s = 1:
    det(M) (-1)^n chi_A(1) must equal det(K - M) (an explicit raise, so the
    check also holds under ``python -O``)."""
    m, k = sys.mass, sys.stiffness
    inverse = mat_inverse(m)
    a = inverse * k
    det_mass = det(m)
    chi = _char_poly(a)
    if _signed(det_mass, sys.size) * chi(1) != det(k - m):
        raise VerificationError("det(K - s M) at s = 1 must equal det(K - M)")
    return _Reduction(inverse, a, det_mass, chi)


def _signed(c: Fraction, n: int) -> Fraction:
    return -c if n % 2 else c


# the system whose report is being built and its reduction, so that the
# steps ``mode_report`` calls share one
_REPORTING: ContextVar = ContextVar("_REPORTING", default=(None, None))


def _reduction(sys: OscSystem) -> _Reduction:
    held, reduction = _REPORTING.get()
    return reduction if held is sys else _reduce(sys)


def char_poly(sys: OscSystem) -> Poly:
    """det(K - s M) as an exact polynomial in s (degree n, leading
    coefficient (-1)^n det M), as det(M) (-1)^n chi_A(s) for A = M^-1 K."""
    r = _reduction(sys)
    c = _signed(r.det_mass, sys.size)
    f = Poly(QQ, (c * x for x in r.chi.coeffs))
    if f.degree != sys.size:
        raise VerificationError("definite mass must keep the full degree")
    return f


@dataclass(frozen=True)
class AdjugateEigenvector:
    """Eigenvector data for one exact root.

    ``vector`` is the first nonzero adjugate column evaluated at the root
    (unnormalized; proportionality is the contract), or the first nullspace
    basis vector on the degenerate path.  ``degenerate`` marks the fallback
    ("generic formula degenerate"); ``basis`` always carries a full exact
    nullspace-ready basis of the eigenspace.
    """

    vector: Tuple[Fraction, ...]
    degenerate: bool
    basis: Tuple[Tuple[Fraction, ...], ...]


def eigvec_adjugate(sys: OscSystem, root) -> AdjugateEigenvector:
    """Adjugate-column eigenvector at an exact rational root of char_poly.

    Raises ValueError when the argument is not a root (K - s M has no
    kernel).  The returned vector satisfies (K - s M) v = 0 exactly.
    adj(K - s M) vanishes exactly when the eigenspace has dimension two or
    more, so a column is computed only for a one-dimensional eigenspace.
    """
    s = Fraction(root)
    w = sys.stiffness - sys.mass * s
    basis = tuple(nullspace(w))
    if not basis:
        raise ValueError(f"{s} is not a characteristic root")
    if len(basis) > 1:
        return AdjugateEigenvector(vector=basis[0], degenerate=True, basis=basis)
    column = _kernel_column(w, basis[0])
    if all(c == 0 for c in column) or _apply(w, column) != (Fraction(0),) * w.rows:
        raise VerificationError("adjugate column must be a nonzero kernel vector")
    return AdjugateEigenvector(vector=column, degenerate=False, basis=basis)


def _kernel_column(w: Mat, v: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    """The first nonzero column of adj(w) for a symmetric w of rank n - 1
    with kernel vector v.  There adj(w) = c v v^T with c != 0, so that
    column sits at the first nonzero entry j of v and equals
    (adj(w)_jj / v_j) v: one minor of order n - 1."""
    n = w.rows
    j = next(i for i, x in enumerate(v) if x != 0)
    rest = [i for i in range(n) if i != j]
    minor = det(w.submatrix(rest, rest)) if rest else Fraction(1)
    scale = minor / v[j]
    return tuple(scale * x for x in v)


def _apply(m: Mat, v: Sequence) -> Tuple:
    return tuple(sum((m.entries[i][j] * v[j] for j in range(m.cols)),
                     start=m.domain.zero) for i in range(m.rows))


def adjugate_column_polynomials(sys: OscSystem, column: int = 0) -> Tuple[Poly, ...]:
    """One column of adj(K - s M) as polynomials in s (the closed-form
    eigenvector recipe, to be evaluated at a root).

    adj(K - s M) = adj(A - s I) adj(M) = (-1)^(n-1) adj(sI - A) adj(M), and
    column j of adj(M) is x = det(M) M^-1 e_j.  With adj(sI - A) =
    sum s^i B_i and chi_A = sum c_i s^i, the Faddeev-LeVerrier recurrence
    B_(n-1) = I, B_(i-1) = A B_i + c_i I gives adj(sI - A) x = sum s^i b_i
    with b_(n-1) = x and b_(i-1) = A b_i + c_i x (Faddeev & Faddeeva,
    Computational Methods of Linear Algebra, 1963)."""
    n = sys.size
    j = range(n)[column]
    r = _reduction(sys)
    # the sign (-1)^(n-1) rides along on x, since the recurrence is linear
    scale = _signed(r.det_mass, n - 1)
    x = [scale * row[j] for row in r.inverse.entries]
    chi = r.chi.coeffs
    b, bs = x, [x]
    for i in range(n - 1, 0, -1):
        b = [sum(map(operator.mul, row, b)) + chi[i] * e
             for row, e in zip(r.a.entries, x)]
        bs.append(b)
    bs.reverse()    # bs[i] = b_i, the coefficient of s^i
    return tuple(Poly(QQ, (b[k] for b in bs)) for k in range(n))


@dataclass(frozen=True)
class InertiaResult:
    """Signature of a symmetric rational form.

    The counts come from Descartes' rule of signs on the characteristic
    polynomial chi, which is exact because chi is real-rooted: positive
    eigenvalues are the sign changes of chi's coefficients, negative ones
    those of chi(-x), and the zero count is the multiplicity of the root 0.
    ``quotient_diagonal`` carries the principal-minor quotients when every
    leading principal minor through order n - 1 is nonzero (the closed-form
    diagonalization), and their signs must give the same counts; otherwise
    it is None.
    """

    positive: int
    negative: int
    zero: int
    quotient_diagonal: Optional[Tuple[Fraction, ...]]

    @property
    def signature(self) -> Tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


def inertia(k: Mat) -> InertiaResult:
    """Signature (positive, negative, zero squares) of a symmetric matrix."""
    if not k.is_square() or k != k.transpose():
        raise ValueError("inertia needs a symmetric matrix")
    if not isinstance(k.domain, type(QQ)):
        raise DomainError("inertia is computed over Q")
    n = k.rows
    # the minors stop at the first zero one, which then fails the test below
    # unless it is the last
    minors = _leading_minors(k)
    quotients = None
    if all(m != 0 for m in minors[: n - 1]):
        quotients = []
        prev = Fraction(1)
        for m in minors:
            quotients.append(m / prev)
            prev = m if m != 0 else prev
        quotients = tuple(quotients)
    # chi is real-rooted, so Descartes' rule of signs counts exactly; zero
    # coefficients are skipped, so chi's factor x^zero changes no count
    chi = _char_poly(k).coeffs
    zero = next(i for i, c in enumerate(chi) if c != 0)
    pos = _sign_changes(chi)
    neg = _sign_changes(-c if i % 2 else c for i, c in enumerate(chi))
    if pos + neg + zero != n:
        raise VerificationError("Descartes counts must sum to n")
    if quotients is not None:
        qp = sum(1 for q in quotients if q > 0)
        qn = sum(1 for q in quotients if q < 0)
        qz = sum(1 for q in quotients if q == 0)
        if (qp, qn, qz) != (pos, neg, zero):
            raise VerificationError("quotient and Descartes signatures disagree")
    return InertiaResult(pos, neg, zero, quotients)


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# Root analysis and the two stability verdicts


@dataclass(frozen=True)
class RootSummary:
    """Certified root data of det(K - s M)."""

    poly: Poly
    distinct: int
    positive: int
    negative: int
    zero: bool
    repeated: bool
    all_real: bool
    roots: Tuple[Tuple[object, int], ...]   # (Fraction or RootInterval, multiplicity)


def analyze_roots(sys: OscSystem) -> RootSummary:
    f = char_poly(sys)
    n = sys.size
    terms = factor(f)
    sf_degree = sum(t.base.degree for t in terms)
    chain = _sturm_chain(math.prod((t.base for t in terms), start=Poly.one(QQ)))
    distinct = _chain_count(chain)
    all_real = distinct == sf_degree
    positive = _chain_count(chain, Fraction(0))
    zero = f(0) == 0
    negative = distinct - positive - (1 if zero else 0)
    repeated = sf_degree < n
    mult = _root_multiplicities(terms, chain)
    if all_real and sum(m for _, m in mult) != n:
        raise VerificationError("multiplicities must sum to n")
    return RootSummary(
        poly=f,
        distinct=distinct,
        positive=positive,
        negative=negative,
        zero=zero,
        repeated=repeated,
        all_real=all_real,
        roots=mult,
    )


def _root_multiplicities(terms, chain) -> Tuple[Tuple[object, int], ...]:
    """Distinct roots with multiplicities from the factor terms of f: exact
    rationals (the linear terms) come back as Fractions, irrational roots as
    sign-definite isolating RootIntervals of the product of the nonlinear
    terms of each multiplicity.  ``chain`` is the Sturm chain of the product
    of all the bases; a product of its degree equals its head and reuses it."""
    out: List[Tuple[object, int]] = []
    for m in sorted({t.exponent for t in terms}):
        roots, rest = _split_linear([t for t in terms if t.exponent == m])
        out.extend(roots)
        if rest.degree >= 1:
            rest_chain = chain if rest.degree == len(chain[0]) - 1 else _sturm_chain(rest)
            for iv in _isolate(rest, rest_chain, ()):
                out.append((_sign_definite(rest_chain, iv), m))
    out.sort(key=_root_position)
    return tuple(out)


def _sign_definite(chain, iv: RootInterval) -> RootInterval:
    """Shrink an isolating interval until it does not straddle zero (the
    root itself is irrational here, so finitely many bisections suffice);
    ``chain`` is the Sturm chain of the square-free polynomial isolated."""
    lo, hi = iv.lo, iv.hi
    while lo < 0 < hi:
        mid = (lo + hi) / 2
        if _chain_count(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return RootInterval(lo, hi)


def _root_position(item):
    root, _ = item
    if isinstance(root, RootInterval):
        return (root.lo + root.hi) / 2
    return root


@dataclass(frozen=True)
class StabilityVerdicts:
    """The two historical stability verdicts, side by side.

    ``lagrange_1766`` applies the literal trichotomy (in the s = rho^2 sign
    convention, "all roots real positive and unequal" is the stable case and
    repeated positive roots are demoted to conditional).  ``weierstrass_1858``
    applies the corrected criterion: stable iff every root is positive,
    multiplicities irrelevant; marginal iff a zero root occurs and none is
    negative; unstable otherwise.
    """

    lagrange_1766: str
    weierstrass_1858: str


def classify_stability(sys: OscSystem) -> StabilityVerdicts:
    return _verdicts(analyze_roots(sys))


def _verdicts(summary: RootSummary) -> StabilityVerdicts:
    if not summary.all_real:
        raise VerificationError("symmetric definite systems must have real roots")
    if summary.negative > 0:
        # a growing mode: no stability at all
        lagrange = "unstable"
    elif summary.positive == summary.distinct and not summary.repeated:
        lagrange = "stable"
    else:
        # zero or repeated roots: demoted to restricted stability
        lagrange = "conditional"
    if summary.positive == summary.distinct and not summary.zero:
        weierstrass = "stable"
    elif summary.zero and summary.negative == 0:
        weierstrass = "marginal"
    else:
        weierstrass = "unstable"
    return StabilityVerdicts(lagrange_1766=lagrange, weierstrass_1858=weierstrass)


# ---------------------------------------------------------------------------
# Full mode report


@dataclass(frozen=True)
class Mode:
    """One spectral mode.

    ``root`` is a Fraction (exact) or a RootInterval (certified isolating
    interval).  For exact roots the eigenvector data is present and checked;
    for irrational roots the polynomial adjugate column plus the interval
    stand in for the evaluated vector.
    """

    root: object
    multiplicity: int
    eigenvector: Optional[AdjugateEigenvector]
    column_polynomials: Optional[Tuple[Poly, ...]]
    kind: str                  # "oscillatory" | "drift" | "hyperbolic"
    template: str


@dataclass(frozen=True)
class ModeReport:
    system: OscSystem
    char: Poly
    modes: Tuple[Mode, ...]
    verdicts: StabilityVerdicts
    real_root_certificate: bool
    solution_template: str
    notes: Tuple[str, ...]


def _sqrt_exact(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(v: int) -> Optional[int]:
    r = math.isqrt(v)
    return r if r * r == v else None


def _freq_str(s: Fraction) -> str:
    r = _sqrt_exact(s)
    if r is not None:
        return str(r) if r.denominator != 1 else str(r.numerator)
    return f"sqrt({s})"


def _mode_template(index: int, root, multiplicity: int) -> Tuple[str, str]:
    j = index + 1
    if isinstance(root, RootInterval):
        mid = f"s_{j}"
        kind = "oscillatory" if root.lo >= 0 else ("hyperbolic" if root.hi <= 0 else "?")
        if kind == "oscillatory":
            return kind, f"v_{j}*sin(sqrt({mid})*t + b_{j})"
        return kind, f"v_{j}*(c_{j}*exp(sqrt(-{mid})*t) + d_{j}*exp(-sqrt(-{mid})*t))"
    s = Fraction(root)
    if s > 0:
        return "oscillatory", f"v_{j}*sin({_freq_str(s)}*t + b_{j})"
    if s == 0:
        return "drift", f"v_{j}*(a_{j} + b_{j}*t)"
    return "hyperbolic", (f"v_{j}*(c_{j}*exp({_freq_str(-s)}*t) "
                          f"+ d_{j}*exp(-{_freq_str(-s)}*t))")


def mode_report(sys: OscSystem) -> ModeReport:
    """Every root with certificate, eigenvector data, both verdicts, and a
    rendered general-solution template."""
    token = _REPORTING.set((sys, _reduce(sys)))
    try:
        return _report(sys)
    finally:
        _REPORTING.reset(token)


def _report(sys: OscSystem) -> ModeReport:
    summary = analyze_roots(sys)
    verdicts = _verdicts(summary)
    modes = []
    notes: List[str] = []
    # one polynomial adjugate column serves every irrational root
    irrational = any(isinstance(root, RootInterval) for root, _ in summary.roots)
    cols = adjugate_column_polynomials(sys) if irrational else None
    for idx, (root, mult) in enumerate(summary.roots):
        kind, template = _mode_template(idx, root, mult)
        vec = None
        if not isinstance(root, RootInterval):
            vec = eigvec_adjugate(sys, root)
            if vec.degenerate:
                notes.append(
                    f"mode {idx + 1}: generic formula degenerate "
                    f"(adjugate vanishes at s = {root}); exact nullspace basis used")
        modes.append(Mode(root=root, multiplicity=mult, eigenvector=vec,
                          column_polynomials=cols if vec is None else None,
                          kind=kind, template=template))
    if summary.repeated and verdicts.weierstrass_1858 == "stable":
        notes.append("repeated root, stable: t does NOT leave the sine")
    template = " + ".join(m.template for m in modes) if modes else "0"
    return ModeReport(
        system=sys,
        char=summary.poly,
        modes=tuple(modes),
        verdicts=verdicts,
        real_root_certificate=summary.all_real,
        solution_template=f"y(t) = {template}",
        notes=tuple(notes),
    )
