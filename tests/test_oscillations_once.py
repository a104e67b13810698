"""One mode report computes each intermediate once, and its checks are
explicit: the same characteristic polynomial, adjugate columns and
eigenvectors as the route over Q[x], one reduction A = M^-1 K with one
characteristic polynomial of A, one root analysis, at most one polynomial
adjugate column, no determinant of a polynomial matrix, and
VerificationError (also under ``python -O``) when a re-check fails."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonforms.oscillations as osc
from canonforms.algebra import Poly, QQ, RootInterval, VerificationError, scalar_is_zero
from canonforms.matrix import Mat, PolynomialRing, _leading_minors, _linear_pencil, det
from canonforms.oscillations import OscSystem, mode_report

from conftest import adjugate, adjugate_column, osc_char_poly_by_bareiss

SRC = Path(__file__).resolve().parent.parent / "src"
I3 = Mat.identity(QQ, 3)
# roots (3 - sqrt 5)/2, (3 + sqrt 5)/2 and 5
MIXED = OscSystem(I3, Mat(QQ, [[2, 1, 0], [1, 1, 0], [0, 0, 5]]))


# ---------------------------------------------------------------------------
# the old route, kept here as the oracle: an inline K - s M and the full
# n x n adjugate of conftest (n^2 cofactors)


def _inline_pencil(sys_: OscSystem) -> Mat:
    n = sys_.size
    return Mat(PolynomialRing(QQ), [
        [Poly(QQ, (sys_.stiffness.entries[i][j], -sys_.mass.entries[i][j]))
         for j in range(n)] for i in range(n)])


def _oracle_eigenvector(sys_: OscSystem, s):
    """First nonzero column of adj(K - s M), or None when it vanishes."""
    adj = adjugate(sys_.stiffness - sys_.mass * s)
    for j in range(adj.cols):
        col = adj.col(j)
        if any(not scalar_is_zero(c) for c in col):
            return col
    return None


# ---------------------------------------------------------------------------
# random symmetric systems, n <= 5


def _unimodular(n, ops):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i % n != j % n:
            m[i % n] = [a + c * b for a, b in zip(m[i % n], m[j % n])]
    return Mat(QQ, m)


@st.composite
def systems(draw):
    """Either M = P^T P, K = P^T D P (rational roots, repeats give the
    degenerate path) or a random symmetric K against M = A A^T + I (mostly
    irrational roots)."""
    n = draw(st.integers(1, 5))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        ops = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), small),
                            max_size=3 * n))
        p = _unimodular(n, ops)
        d = Mat(QQ, [[draw(st.integers(-2, 3)) if i == j else 0 for j in range(n)]
                     for i in range(n)])
        return OscSystem(p.transpose() * p, p.transpose() * d * p)
    a = Mat(QQ, [[draw(small) for _ in range(n)] for _ in range(n)])
    upper = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    k = Mat(QQ, [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    return OscSystem(a * a.transpose() + Mat.identity(QQ, n), k)


@settings(max_examples=30, deadline=None)
@given(systems())
def test_modes_match_the_full_adjugate_route(sys_):
    rep = mode_report(sys_)
    assert rep.char == det(_inline_pencil(sys_))
    poly_col = tuple(adjugate(_inline_pencil(sys_)).col(0))
    for mode in rep.modes:
        if isinstance(mode.root, RootInterval):
            assert mode.eigenvector is None
            assert mode.column_polynomials == poly_col
            continue
        assert mode.column_polynomials is None
        expected = _oracle_eigenvector(sys_, mode.root)
        assert mode.eigenvector.degenerate == (expected is None)
        if expected is not None:
            assert mode.eigenvector.vector == expected
        else:
            assert mode.eigenvector.vector == mode.eigenvector.basis[0]
    assert osc.adjugate_column_polynomials(sys_) == poly_col
    last = sys_.size - 1
    assert (osc.adjugate_column_polynomials(sys_, -1)
            == tuple(adjugate(_inline_pencil(sys_)).col(last)))


def test_adjugate_is_the_columns_zipped():
    for m in (Mat(QQ, [[1, 2, 0], [3, -1, 4], [0, 5, 2]]), Mat(QQ, [[7]])):
        cols = [adjugate_column(m, j) for j in range(m.rows)]
        assert Mat(QQ, zip(*cols)) == adjugate(m)


# ---------------------------------------------------------------------------
# the route over Q against the Bareiss-over-Q[x] and cofactor oracles, on
# random symmetric systems with n <= 6 and a definite M of any determinant

_WEIGHTS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))


def _diag(values):
    n = len(values)
    return Mat(QQ, [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def oracle_systems(draw):
    """M = P^T E P and K = P^T D P for diagonal E > 0 and D (roots d_i /
    e_i), with K singular or with a repeated root; or a random symmetric K
    against M = A A^T + E (mostly irrational roots)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("singular", "repeated", "irrational")))
    e = [draw(st.sampled_from(_WEIGHTS)) for _ in range(n)]
    if kind == "irrational":
        a = Mat(QQ, [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
        upper = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
        k = Mat(QQ, [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        return OscSystem(a * a.transpose() + _diag(e), k)
    ops = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
                        max_size=3 * n))
    p = _unimodular(n, ops)
    d = [Fraction(draw(st.integers(-2, 3))) for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    if kind == "singular":
        d[i] = Fraction(0)
    elif n > 1:
        j = (i + draw(st.integers(1, n - 1))) % n
        d[j] = d[i] * e[j] / e[i]
    return OscSystem(p.transpose() * _diag(e) * p, p.transpose() * _diag(d) * p)


@settings(max_examples=40, deadline=None)
@given(oracle_systems())
def test_char_poly_matches_the_bareiss_oracle(sys_):
    assert osc.char_poly(sys_) == osc_char_poly_by_bareiss(sys_)


@settings(max_examples=25, deadline=None)
@given(oracle_systems())
def test_every_adjugate_column_matches_the_cofactor_oracle(sys_):
    pencil = _linear_pencil(-sys_.mass, sys_.stiffness)
    for j in range(sys_.size):
        assert osc.adjugate_column_polynomials(sys_, j) == adjugate_column(pencil, j)


@settings(max_examples=40, deadline=None)
@given(oracle_systems())
def test_eigenvector_matches_the_cofactor_oracle(sys_):
    for root, _ in osc.analyze_roots(sys_).roots:
        if isinstance(root, RootInterval):
            continue
        w = sys_.stiffness - sys_.mass * root
        expected = next((col for col in (adjugate_column(w, j) for j in range(w.rows))
                         if any(c != 0 for c in col)), None)
        vec = osc.eigvec_adjugate(sys_, root)
        assert vec.degenerate == (expected is None)
        assert vec.vector == (vec.basis[0] if expected is None else expected)


@settings(max_examples=60, deadline=None)
@given(oracle_systems())
def test_leading_minors_match_det(sys_):
    for m in (sys_.mass, sys_.stiffness, sys_.stiffness - sys_.mass):
        dets = [det(m.submatrix(range(t), range(t))) for t in range(1, m.rows + 1)]
        stop = next((t for t, d in enumerate(dets) if d == 0), m.rows - 1)
        assert _leading_minors(m) == dets[:stop + 1]


def test_leading_minors_stop_at_the_first_zero():
    m = Mat(QQ, [[Fraction(1, 2), 1, 0], [1, 2, 1], [0, 1, 5]])
    assert _leading_minors(m) == [Fraction(1, 2), 0]
    assert _leading_minors(Mat(QQ, [[0, 1], [1, 0]])) == [0]


# ---------------------------------------------------------------------------
# call counts


def _count(monkeypatch, module, name, calls, when=lambda *a: True, key=None):
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        if when(*args):
            calls[key or name] = calls.get(key or name, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counted_report(monkeypatch, sys_):
    calls = {}
    for name in ("char_poly", "analyze_roots", "adjugate_column_polynomials",
                 "_char_poly", "mat_inverse"):
        _count(monkeypatch, osc, name, calls)
    _count(monkeypatch, osc, "det", calls, key="polynomial det",
           when=lambda m: isinstance(m.domain, PolynomialRing))
    report = mode_report(sys_)
    return report, calls


def test_one_report_computes_each_intermediate_once(monkeypatch):
    calls = {}
    _count(monkeypatch, osc, "det", calls, key="scalar det")
    report, more = _counted_report(monkeypatch, MIXED)
    assert sum(isinstance(m.root, RootInterval) for m in report.modes) == 2
    # one reduction (M^-1, chi_A, det M and the check det(K - M)), one
    # column shared by both irrational roots, one minor for the root 5
    assert more == {"char_poly": 1, "analyze_roots": 1, "adjugate_column_polynomials": 1,
                    "_char_poly": 1, "mat_inverse": 1}
    assert calls == {"scalar det": 3}


def test_one_sturm_chain_without_rational_roots_or_repeats(monkeypatch):
    # det(K - s M) = s^2 - 3s + 1: no rational root, one multiplicity, so
    # the chain of the square-free part also isolates the roots
    calls = {}
    _count(monkeypatch, osc, "_sturm_chain", calls)
    summary = osc.analyze_roots(OscSystem(Mat.identity(QQ, 2), Mat(QQ, [[2, 1], [1, 1]])))
    assert [type(root) for root, _ in summary.roots] == [RootInterval, RootInterval]
    assert calls == {"_sturm_chain": 1}
    # with a rational root split off, the rest needs a chain of its own
    calls.clear()
    osc.analyze_roots(MIXED)
    assert calls == {"_sturm_chain": 2}


def test_rational_roots_build_no_polynomial_column(monkeypatch):
    _, calls = _counted_report(monkeypatch, OscSystem(I3, Mat(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])))
    assert calls == {"char_poly": 1, "analyze_roots": 1, "_char_poly": 1, "mat_inverse": 1}


def test_degenerate_root_computes_no_cofactor_column(monkeypatch):
    calls = {}
    _count(monkeypatch, osc, "_kernel_column", calls)
    _count(monkeypatch, osc, "det", calls)
    vec = osc.eigvec_adjugate(OscSystem(I3, I3), 1)
    assert vec.degenerate and len(vec.basis) == 3
    assert calls == {}


def test_first_nonzero_column_stops_the_scan(monkeypatch):
    minors = []
    orig = osc.det
    monkeypatch.setattr(osc, "det", lambda m: minors.append(m) or orig(m))
    vec = osc.eigvec_adjugate(OscSystem(I3, Mat(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])), 2)
    assert vec.vector == (0, -1, 0) and not vec.degenerate
    # adj = c v v^T: column 0 vanishes at s = 2, and v's first nonzero entry
    # points straight at column 1, whose diagonal cofactor is the one minor
    assert minors == [Mat(QQ, [[-1, 0], [0, 1]])]


# ---------------------------------------------------------------------------
# explicit checks


def test_wrong_cofactor_column_raises(monkeypatch):
    monkeypatch.setattr(osc, "_kernel_column", lambda w, v: (w.domain.one,) * w.rows)
    with pytest.raises(VerificationError, match="nonzero kernel vector"):
        mode_report(OscSystem(I3, Mat(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])))


def test_lost_degree_raises(monkeypatch):
    # a constant with the right value at s = 1 passes the evaluation
    # identity, so the degree check alone must catch it
    real = osc._char_poly
    monkeypatch.setattr(osc, "_char_poly", lambda a: Poly.constant(QQ, real(a)(1)))
    with pytest.raises(VerificationError, match="full degree"):
        osc.char_poly(MIXED)


def test_wrong_char_poly_fails_the_evaluation_identity(monkeypatch):
    # s^3 has the full degree, but -s^3 at s = 1 is not det(K - M) = -4
    monkeypatch.setattr(osc, "_char_poly", lambda a: Poly.x(QQ) ** a.rows)
    with pytest.raises(VerificationError, match="at s = 1"):
        mode_report(MIXED)
    with pytest.raises(VerificationError, match="at s = 1"):
        osc.adjugate_column_polynomials(MIXED)


def test_empty_eigenspace_raises(monkeypatch):
    with pytest.raises(ValueError, match="not a characteristic root"):
        osc.eigvec_adjugate(MIXED, 1)
    # an empty nullspace is never taken for an eigenspace, even at a root
    monkeypatch.setattr(osc, "nullspace", lambda m: [])
    with pytest.raises(ValueError, match="not a characteristic root"):
        osc.eigvec_adjugate(OscSystem(I3, I3), 1)


def test_signature_disagreement_raises(monkeypatch):
    # chi = x^3 claims three zero eigenvalues against I's positive quotients
    monkeypatch.setattr(osc, "_char_poly", lambda k: Poly.x(QQ) ** k.rows)
    with pytest.raises(VerificationError, match="quotient and Descartes"):
        osc.inertia(I3)


def test_descartes_shortfall_raises(monkeypatch):
    # x^2 + 1 has no sign change on either side: 0 + 0 + 0 counts for n = 2,
    # and no quotient diagonal exists to disagree with
    monkeypatch.setattr(osc, "_char_poly", lambda k: Poly(QQ, (1, 0, 1)))
    with pytest.raises(VerificationError, match="must sum to n"):
        osc.inertia(Mat(QQ, [[0, 1], [1, 0]]))


def test_multiplicity_shortfall_raises(monkeypatch):
    monkeypatch.setattr(osc, "_root_multiplicities", lambda terms, chain: ())
    with pytest.raises(VerificationError):
        osc.analyze_roots(MIXED)


def test_nonreal_roots_raise():
    summary = osc.analyze_roots(MIXED)
    with pytest.raises(VerificationError):
        osc._verdicts(osc.RootSummary(**{**summary.__dict__, "all_real": False}))


# mode_report with a column step that returns a wrong vector: the kernel
# check must catch it even with assertions compiled out
_WRONG_COLUMN_SCRIPT = """
import canonforms.oscillations as osc
from canonforms import QQ, Mat, VerificationError
print("debug", __debug__)
osc._kernel_column = lambda w, v: (w.domain.one,) * w.rows
system = osc.OscSystem(Mat.identity(QQ, 3), Mat(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
try:
    osc.mode_report(system)
except VerificationError as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("accepted a wrong eigenvector")
"""


def test_kernel_check_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_COLUMN_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1] == ("raised VerificationError adjugate column must be a "
                        "nonzero kernel vector"), proc.stdout
