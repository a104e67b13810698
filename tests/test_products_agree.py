"""The exact identity kernel ``matrix._products_agree`` against the oracle.

The oracle is ``Mat.__mul__`` followed by ``==``: the kernel must give the
same verdict on L_1 L_2 ... == R_1 R_2 ... over Z, Q, GF(2), GF(101) and
GF(2^61 - 1), on scalar and on polynomial factors, also when a coefficient
is moved by +-1, by p on its integer lift, or when a side is scaled.
"""

import functools
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonforms.matrix as matrix
from canonforms import QQ, ZZ, GF, Mat, Poly, jordan_form, smith_form
from canonforms.algebra import DomainError, PrimeField
from canonforms.canonical import _checked
from canonforms.matrix import PolynomialRing, ShapeError, _products_agree
from canonforms.smith import char_matrix

SRC = Path(__file__).resolve().parent.parent / "src"
P61 = 2 ** 61 - 1
BASES = [ZZ, QQ, GF(2), GF(101), GF(P61)]
SHIFT = 101     # the +p tamper over Z and Q


def _scalars(dom):
    if dom is QQ:
        return st.fractions(min_value=-20, max_value=20, max_denominator=12)
    if dom is ZZ:
        return st.integers(-20, 20)
    return st.integers(0, dom.characteristic - 1)


@st.composite
def _chains(draw, base, poly):
    """A chain of 1 to 3 conformable factors with sides of 1 to 3."""
    ring = PolynomialRing(base) if poly else base
    if poly:
        entry = st.lists(_scalars(base), max_size=4).map(lambda cs: Poly(base, cs))
    else:
        entry = _scalars(base)
    k = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=k + 1, max_size=k + 1))
    return [Mat(ring, [[draw(entry) for _ in range(c)] for _ in range(r)])
            for r, c in zip(dims, dims[1:])]


_CASES = st.tuples(st.sampled_from(BASES), st.booleans())


def _product(chain):
    return functools.reduce(operator.mul, chain)


def _base(m):
    return m.domain.base if isinstance(m.domain, PolynomialRing) else m.domain


def _moved(m, i, j, t, fn):
    """m with coefficient t of entry (i, j) replaced by fn(coefficient)."""
    rows = [list(r) for r in m.entries]
    if isinstance(m.domain, PolynomialRing):
        base = m.domain.base
        cs = list(rows[i][j].coeffs)
        cs += [base.zero] * (t + 1 - len(cs))
        cs[t] = fn(cs[t])
        rows[i][j] = Poly(base, cs)
    else:
        rows[i][j] = fn(rows[i][j])
    return Mat(m.domain, rows)


def _shift_lift(base, delta):
    """Move a scalar by delta on its integer lift ([0, p) over GF(p))."""
    if isinstance(base, PrimeField):
        return lambda c: base.coerce(c.v + delta)
    return lambda c: c + delta


def _scalings(base):
    if base is QQ:
        return [2, -1, Fraction(1, 3)]
    if base is ZZ:
        return [2, -1, 3]
    return [2, -1, base.characteristic + 1]


@settings(max_examples=150, deadline=None)
@given(case=_CASES, data=st.data())
def test_true_identities_are_accepted(case, data):
    chain = data.draw(_chains(*case))
    split = data.draw(st.integers(1, len(chain)))
    regrouped = [_product(chain[:split])] + chain[split:]
    assert _products_agree(chain, (_product(chain),))
    assert _products_agree(chain, regrouped)
    assert _products_agree(regrouped, chain)


@settings(max_examples=200, deadline=None)
@given(case=_CASES, data=st.data())
def test_tampered_target_matches_the_oracle(case, data):
    chain = data.draw(_chains(*case))
    target = _product(chain)
    base = _base(target)
    i = data.draw(st.integers(0, target.rows - 1))
    j = data.draw(st.integers(0, target.cols - 1))
    t = data.draw(st.integers(0, 6)) if case[1] else 0
    for delta in (1, -1):
        moved = _moved(target, i, j, t, _shift_lift(base, delta))
        assert moved != target
        assert not _products_agree(chain, (moved,))
    # p on the lift: the same residue over GF(p), a new value over Z and Q
    p = base.characteristic or SHIFT
    moved = _moved(target, i, j, t, _shift_lift(base, p))
    assert (moved == target) == bool(base.characteristic)
    assert _products_agree(chain, (moved,)) == (moved == target)
    for c in _scalings(base):
        scaled = target.scale(c)
        assert _products_agree(chain, (scaled,)) == (scaled == target)
        assert _products_agree([chain[0].scale(c)] + chain[1:], (target,)) \
            == (scaled == target)


@settings(max_examples=150, deadline=None)
@given(case=_CASES, data=st.data())
def test_tampered_factor_matches_the_oracle(case, data):
    chain = data.draw(_chains(*case))
    target = _product(chain)
    pos = data.draw(st.integers(0, len(chain) - 1))
    f = chain[pos]
    i = data.draw(st.integers(0, f.rows - 1))
    j = data.draw(st.integers(0, f.cols - 1))
    t = data.draw(st.integers(0, 4)) if case[1] else 0
    delta = data.draw(st.sampled_from([1, -1, _base(f).characteristic or SHIFT]))
    moved = chain[:pos] + [_moved(f, i, j, t, _shift_lift(_base(f), delta))] + chain[pos + 1:]
    assert _products_agree(moved, (target,)) == (_product(moved) == target)


@settings(max_examples=100, deadline=None)
@given(poly=st.booleans(), data=st.data())
def test_foreign_denominator_is_rejected(poly, data):
    # 7919 is a prime above every drawn denominator, so it divides no
    # denominator of the left side; clearing by the left's denominators
    # alone would leave a fraction to round away
    chain = data.draw(_chains(QQ, poly))
    target = _product(chain)
    num = data.draw(st.integers(1, 7918))
    moved = _moved(target, 0, 0, data.draw(st.integers(0, 3)) if poly else 0,
                   lambda c: c + Fraction(num, 7919))
    assert not _products_agree(chain, (moved,))
    assert not _products_agree((moved,), chain)


def _width_one_short(monkeypatch):
    real = matrix._packing_width
    monkeypatch.setattr(matrix, "_packing_width", lambda bound: real(bound) - 1)


def test_one_bit_short_of_the_bound_accepts_a_wrong_identity_over_z(monkeypatch):
    # [h] against [x - h] with h = 2^20: both sides are bounded by h, so
    # K = bitlen(h) + 1 = 22; at 2^21 the right side takes the value h
    zx = PolynomialRing(ZZ)
    h = 2 ** 20
    left = (Mat(zx, [[Poly(ZZ, [h])]]),)
    right = (Mat(zx, [[Poly(ZZ, [-h, 1])]]),)
    assert matrix._packing_width(h) == 22
    assert not _products_agree(left, right)
    _width_one_short(monkeypatch)
    assert _products_agree(left, right)


def test_one_bit_short_of_the_bound_accepts_a_wrong_identity_over_gf101(monkeypatch):
    # [34][67] against [x][1] over GF(101): the left's integer product 2278
    # bounds both sides, so K = 13; at 2^12 the difference 2278 - 4096 is
    # -18 * 101, one digit that vanishes mod 101, while 2278 = 56 mod 101
    fx = PolynomialRing(GF(101))

    def one(*cs):
        return Mat(fx, [[Poly(GF(101), cs)]])

    left, right = (one(34), one(67)), (one(0, 1), one(1))
    assert matrix._packing_width(34 * 67) == 13
    assert not _products_agree(left, right)
    _width_one_short(monkeypatch)
    assert _products_agree(left, right)


def test_shapes_and_domains():
    a = Mat(QQ, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        _products_agree((a, Mat(QQ, [[1, 2, 3]])), (a,))
    with pytest.raises(DomainError):
        _products_agree((a,), (Mat(GF(5), [[1, 2], [3, 4]]),))
    assert not _products_agree((a,), (Mat(QQ, [[1, 2]]),))
    assert _products_agree((Mat.zero(QQ, 2, 3), Mat.zero(QQ, 3, 2)), (Mat.zero(QQ, 2, 2),))


def _forbid_product(monkeypatch, refuse):
    real = Mat.__mul__

    def guarded(self, other):
        if refuse(self):
            raise RuntimeError(f"matrix product over {self.domain}")
        return real(self, other)

    monkeypatch.setattr(Mat, "__mul__", guarded)


def test_smith_form_multiplies_no_polynomial_matrices(monkeypatch):
    x_mat = char_matrix(Mat(QQ, [[Fraction(1, 2), 2, 0], [3, 4, 1], [0, 1, 1]]))
    expected = smith_form(x_mat)
    _forbid_product(monkeypatch, lambda m: isinstance(m.domain, PolynomialRing))
    assert smith_form(x_mat) == expected


def test_form_check_multiplies_no_fraction_matrices(monkeypatch):
    a = Mat(QQ, [[2, Fraction(1, 2), 0], [0, 2, 3], [0, 0, Fraction(-1, 3)]])
    res = jordan_form(a)
    _forbid_product(monkeypatch, lambda m: True)
    assert _checked(a, res.transform, res.matrix) is res.transform


# smith_form with a V whose first row is doubled: the kernel check must
# catch it with assertions compiled out
_WRONG_V_SCRIPT = """
import canonforms.smith as smith
from canonforms import QQ, Mat, VerificationError, smith_form
from canonforms.smith import char_matrix
print("debug", __debug__)
real = smith._smith_reduce
def reduce_with_bad_v(m, track):
    a, u, v = real(m, track)
    if track:
        v[0] = [x + x for x in v[0]]
    return a, u, v
smith._smith_reduce = reduce_with_bad_v
try:
    smith_form(char_matrix(Mat(QQ, [[1, 2], [3, 4]])))
except VerificationError as exc:
    print("raised", exc)
else:
    print("accepted a tampered V")
"""


def test_tampered_v_raises_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_V_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "raised Smith reduction identity U M V = S violated"]
