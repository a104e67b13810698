"""Correctness oracle: re-checks library answers with benchmark-side
arithmetic, outside the timer.

Each ``check_*`` returns ``None`` when the answer is right and a short reason
otherwise; the runner counts a reason as a failed call.
"""

from __future__ import annotations

from collections import Counter

from . import arith as ar


# -- library objects to benchmark-side values


def scalar(x):
    """A library scalar as a ``Fraction`` (Q) or an ``int`` residue (GF)."""
    return getattr(x, "v", x)


def poly(p):
    return tuple(scalar(c) for c in p.coeffs)


def mat(m):
    return [[scalar(e) for e in row] for row in m.entries]


# -- expected invariants from a construction


def invariant_factors(f, eldivs, n):
    """Invariant factors i_1 | ... | i_n of a matrix whose elementary
    divisors are ``eldivs`` (pairs (base, exponent)): the k-th largest
    exponent of every base goes into the k-th last factor."""
    by_base = {}
    for base, e in eldivs:
        by_base.setdefault(base, []).append(e)
    out = [(f.red(1),)] * n
    for base, exps in by_base.items():
        for k, e in enumerate(sorted(exps, reverse=True)):
            out[n - 1 - k] = ar.pmul(f, out[n - 1 - k], ar.ppow(f, base, e))
    return out


def render(f, p, var="x"):
    """A polynomial in the CLI's compact notation, e.g. ``x^2-2x+1``."""
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        neg = not f.p and c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == 1 else f"{mag}{xk}"
        if parts:
            parts.append(("-" if neg else "+") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return "".join(parts)


def divisor_strs(f, eldivs):
    """Elementary divisors as the CLI prints them, in its sort order:
    degree, then coefficients high to low with negated values."""
    def key(item):
        base, e = item
        signed = tuple(f.red(-c) for c in reversed(base))
        return (len(base) - 1, signed, -e)
    out = []
    for base, e in sorted(eldivs, key=key):
        s = f"({render(f, base)})"
        out.append(s if e == 1 else f"{s}^{e}")
    return out


# -- checks


def _conjugates(f, a, t, target):
    """A T == T target with T nonsingular, i.e. inverse(T) A T == target."""
    n = len(a)
    if ar.mmul(f, a, t) != ar.mmul(f, t, target):
        return "inverse(T) A T != form"
    if ar.rank(f, t) != n:
        return "singular transform"
    return None


def _blocks_of(f, form, blocks):
    if mat(form) != ar.block_diag(f, blocks):
        return "form is not the block diagonal of its blocks"
    return None


def check_form(f, a, eldivs, kind, res):
    """A CanonicalResult of ``kind`` ("rational", "primary" or "jordan")
    against the construction's elementary divisors."""
    if not res.verified:
        return "result not marked verified"
    if kind == "rational":
        got = sorted(poly(g) for g in res.blocks)
        want = sorted(g for g in invariant_factors(f, eldivs, len(a)) if len(g) > 1)
        blocks = [ar.companion(f, poly(g)) for g in res.blocks]
    elif kind == "primary":
        got = sorted((poly(b), e) for b, e in res.blocks)
        want = sorted(eldivs)
        blocks = [ar.hypercompanion(f, poly(b), e) for b, e in res.blocks]
    else:
        got = sorted((scalar(ev), e) for ev, e in res.blocks)
        want = sorted((f.red(-b[0]), e) for b, e in eldivs)
        blocks = [ar.jordan(f, scalar(ev), e) for ev, e in res.blocks]
    if got != want:
        return f"{kind} blocks differ from the construction"
    return _blocks_of(f, res.matrix, blocks) or _conjugates(f, a, mat(res.transform), mat(res.matrix))


def check_divisor_data(f, eldivs, n, dd):
    if sorted((poly(b), e) for b, e in dd.elementary_divisors) != sorted(eldivs):
        return "elementary divisors differ from the construction"
    if [poly(g) for g in dd.invariant_factors] != invariant_factors(f, eldivs, n):
        return "invariant factors differ from the construction"
    return None


def check_similar(f, a, b, expected, out):
    ok, t = out
    if ok != expected:
        return "wrong similarity verdict"
    if not ok:
        return None if t is None else "witness for a non-similar pair"
    return _conjugates(f, a, mat(t), b)


def check_pencil_witness(f, pencils, out):
    """H^T (uP + vQ) K == uP' + vQ' with H and K nonsingular."""
    (p1, q1), (p2, q2) = pencils
    ok, wit = out
    if not ok:
        return "equivalent pencils judged inequivalent"
    if wit is None:
        return "no witness"
    h, k = mat(wit[0]), mat(wit[1])
    ht = ar.transpose(h)
    if ar.mmul(f, ar.mmul(f, ht, p1), k) != p2 or ar.mmul(f, ar.mmul(f, ht, q1), k) != q2:
        return "witness fails H^T (uP + vQ) K = uP' + vQ'"
    if ar.rank(f, h) != len(h) or ar.rank(f, k) != len(k):
        return "singular witness"
    return None


def pencil_divisor(base, e):
    """A pencil divisor as ("inf",), ("pt", c) or ("poly", coeffs)."""
    if hasattr(base, "is_infinity"):
        return (("inf",) if base.is_infinity else ("pt", scalar(base.a)), e)
    return (("poly", poly(base)), e)


def check_pencil_divisors(expected, inv):
    if not inv.regular:
        return "regular pencil reported singular"
    got = Counter(pencil_divisor(b, e) for b, e in inv.divisors)
    if got != Counter(expected):
        return "pencil divisors differ from the construction"
    return None


def check_modes(f, mass, stiff, roots, report):
    """A mode report of M y'' + K y = 0.

    The characteristic polynomial must agree with det(K - s M) at n + 1
    points; multiplicities must sum to n; each rational root must be a root
    with (K - s M) v = 0 for its eigenvector (and every basis vector on the
    degenerate path); each irrational root's interval must bracket a sign
    change of the square-free part.  ``roots`` is the expected multiset of rational roots, or None
    when the construction does not fix it."""
    n = len(mass)
    char = poly(report.char)
    for s in range(n + 1):
        w = ar.madd(f, stiff, ar.mscale(f, mass, -s))
        if ar.peval(f, char, s) != ar.det(f, w):
            return "char poly disagrees with det(K - sM)"
    if sum(m.multiplicity for m in report.modes) != n:
        return "multiplicities do not sum to n"
    # with the rational roots divided out, every root left is simple and
    # irrational, so each isolating interval must show a sign change
    irrational = ar.squarefree(f, char)
    for mode in report.modes:
        if mode.eigenvector is not None:
            irrational, rem = ar.pdivmod(f, irrational, ar.ptrim(f, [-mode.root, 1]))
            if rem:
                return "a rational root is not a root"
    rational = Counter()
    for mode in report.modes:
        if mode.eigenvector is None:
            lo, hi = mode.root.lo, mode.root.hi
            if ar.peval(f, irrational, lo) * ar.peval(f, irrational, hi) >= 0:
                return "root interval without a sign change"
            continue
        s = mode.root
        rational[s] += mode.multiplicity
        w = ar.madd(f, stiff, ar.mscale(f, mass, -s))
        vecs = [mode.eigenvector.vector] + list(mode.eigenvector.basis)
        for v in vecs:
            if not any(v) or any(row[0] != 0 for row in ar.mmul(f, w, [[c] for c in v])):
                return "(K - sM) v != 0 at a rational root"
        if len(mode.eigenvector.basis) != n - ar.rank(f, w):
            return "eigenspace basis has the wrong dimension"
    if roots is not None and rational != Counter(roots):
        return "rational roots differ from the construction"
    return None


def verdicts(roots):
    """(Lagrange 1766, Weierstrass 1858) verdicts for a known root multiset."""
    distinct = set(roots)
    if any(r < 0 for r in roots):
        lagrange = "unstable"
    elif all(r > 0 for r in roots) and len(distinct) == len(roots):
        lagrange = "stable"
    else:
        lagrange = "conditional"
    if all(r > 0 for r in roots):
        weierstrass = "stable"
    elif 0 in distinct and all(r >= 0 for r in roots):
        weierstrass = "marginal"
    else:
        weierstrass = "unstable"
    return lagrange, weierstrass
