"""Factorization by distinct/equal-degree splitting over GF(p) and Hensel
lifting with subset recombination over Q, checked against constructions.

Over GF(p) every returned base is shown irreducible by brute force.  Over Q
the inputs are products of integer polynomials that are irreducible modulo 2
or 3 with a leading coefficient prime to that modulus, which proves them
irreducible over Q, so the expected factorization is known in advance.
"""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms import GF, QQ, Mat, Pencil, Poly, factor, pencil_equivalent
from canonforms.cli import run

from conftest import is_irreducible, rand_invertible

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "factor"
X = Poly.x(QQ)


def _pairs(terms):
    return [(t.base, t.exponent) for t in terms]


def _sorted_pairs(pairs):
    return sorted(pairs, key=lambda be: (be[0].sort_key(), be[1]))


# ---------------------------------------------------------------------------
# GF(p): brute-force irreducibility of every base


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       coeffs=st.lists(st.integers(0, 6), min_size=2, max_size=7))
def test_gfp_factors_are_irreducible_and_multiply_back(p, coeffs):
    dom = GF(p)
    f = Poly(dom, coeffs)
    if f.degree < 1:
        return
    terms = factor(f)
    assert _pairs(terms) == _sorted_pairs(_pairs(terms))
    assert len({t.base for t in terms}) == len(terms)
    for t in terms:
        assert t.exponent >= 1 and t.base.leading() == dom.one
        assert is_irreducible(t.base)
    prod = Poly.constant(dom, f.leading())
    for t in terms:
        prod = prod * t.base ** t.exponent
    assert prod == f


# ---------------------------------------------------------------------------
# Q: products of bases irreducible by construction


def _monic_irreducibles(p, max_degree=4):
    dom = GF(p)
    out = []
    for d in range(1, max_degree + 1):
        for k in range(p ** d):
            low = [(k // p ** i) % p for i in range(d)]
            f = Poly(dom, low + [1])
            if is_irreducible(f):
                out.append(low + [1])
    return out


_IRREDUCIBLE_MOD = {p: _monic_irreducibles(p) for p in (2, 3)}


@st.composite
def _irreducible_base(draw):
    """An integer polynomial of degree <= 4 that is irreducible modulo p = 2
    or 3 and has a leading coefficient prime to p: irreducible over Q."""
    p = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from(_IRREDUCIBLE_MOD[p]))
    unit = draw(st.integers(1, p - 1))
    lift = draw(st.lists(st.integers(-2, 2), min_size=len(shape),
                         max_size=len(shape)))
    cs = [unit * c + p * k for c, k in zip(shape, lift)]
    if cs[-1] % p == 0:
        cs[-1] += unit
    return Poly(QQ, cs)


@settings(max_examples=60, deadline=None)
@given(bases=st.lists(st.tuples(_irreducible_base(), st.integers(1, 3)),
                      min_size=1, max_size=3),
       num=st.integers(-9, 9).filter(bool), den=st.integers(1, 9))
def test_q_factorization_is_the_construction(bases, num, den):
    f = Poly.constant(QQ, Fraction(num, den))
    expected = {}
    for base, e in bases:
        f = f * base ** e
        expected[base.monic()] = expected.get(base.monic(), 0) + e
    terms = factor(f)
    assert _pairs(terms) == _sorted_pairs(expected.items())


# ---------------------------------------------------------------------------
# regression inputs


def test_sextic_product_of_rational_cubics():
    # once a 50 s interpolation search
    f = ((3 * X ** 3 - Fraction(4, 3) * X ** 2 + Fraction(9, 2) * X + Fraction(7, 3))
         * (2 * X ** 3 - 2 * X ** 2 + Fraction(5, 3) * X - Fraction(9, 2)))
    assert _pairs(factor(f)) == [
        (X ** 3 - Fraction(4, 9) * X ** 2 + Fraction(3, 2) * X + Fraction(7, 9), 1),
        (X ** 3 - X ** 2 + Fraction(5, 6) * X - Fraction(9, 4), 1),
    ]


def test_degree_nine_product_splits_into_three_cubics():
    # once reported unsplit above the degree-8 cap
    cubics = [X ** 3 + Fraction(3, 2) * X ** 2 + Fraction(7, 9) * X - Fraction(7, 6),
              X ** 3 + Fraction(1, 8) * X ** 2 + Fraction(1, 4) * X + Fraction(9, 4),
              X ** 3 - Fraction(9, 2) * X ** 2 - Fraction(1, 2) * X + 3]
    f = cubics[0] * cubics[1] * cubics[2]
    assert _pairs(factor(f)) == [(c, 1) for c in cubics]


BIG_P = 1000000007


def _write(path, dom_line, rows):
    path.write_text(f"{dom_line}\nROWS {len(rows)} COLS {len(rows[0])}\n"
                    + "\n".join(" ".join(str(v) for v in r) for r in rows) + "\n")
    return str(path)


def test_eldiv_over_a_large_prime_field(tmp_path):
    # x^2 - x - 6 = (x - 3)(x + 2): equal-degree splitting at p = 10^9 + 7
    a = _write(tmp_path / "a.mat", f"FIELD GF {BIG_P}", [[0, 1], [6, 1]])
    buf = io.StringIO()
    assert run(["eldiv", "--json", a], out=buf) == 0
    inv = json.loads(buf.getvalue())["invariants"]
    assert inv == {"certified": True,
                   "elementary_divisors": [f"(x+{BIG_P - 3})", "(x+2)"]}


@pytest.mark.parametrize("n", [2, 3])
def test_pencil_equivalence_over_a_large_prime_field(n):
    dom = GF(BIG_P)
    rng = random.Random(n)
    pc = Pencil(rand_invertible(dom, n, rng), Mat(dom, [
        [rng.randrange(BIG_P) for _ in range(n)] for _ in range(n)]))
    target = pc.transform(rand_invertible(dom, n, rng), rand_invertible(dom, n, rng))
    ok, witness = pencil_equivalent(pc, target)
    assert ok and witness is not None
    assert pc.transform(*witness) == target


def test_pencil_equiv_cli_over_a_large_prime_field(tmp_path):
    f = f"FIELD GF {BIG_P}"
    argv = ["pencil-equiv", "--json",
            _write(tmp_path / "p.mat", f, [[1, 0], [0, 1]]),
            _write(tmp_path / "q.mat", f, [[0, 1], [6, 1]]),
            _write(tmp_path / "p2.mat", f, [[1, 0], [0, 1]]),
            _write(tmp_path / "q2.mat", f, [[1, 1], [0, 0]])]
    buf = io.StringIO()
    assert run(argv, out=buf) == 0
    rep = json.loads(buf.getvalue())
    assert rep["invariants"] == {"equivalent": False}
    argv[-1] = _write(tmp_path / "q3.mat", f, [[3, 5], [0, BIG_P - 2]])
    buf = io.StringIO()
    assert run(argv, out=buf) == 0
    rep = json.loads(buf.getvalue())
    assert rep["invariants"] == {"equivalent": True}
    assert set(rep["transforms"]) == {"H", "K"}


# ---------------------------------------------------------------------------
# determinism


def test_factor_leaves_the_global_random_state_alone():
    state = random.getstate()
    y = Poly.x(GF(101))
    factor((y ** 3 + y + 1) * (y ** 4 + 2) * (y ** 2 - 4))
    factor((X ** 5 - X - 1) * (X ** 5 - X - 2))
    assert random.getstate() == state


def test_reports_do_not_depend_on_the_hash_seed():
    m = str(GOLDEN / "gf101_cubic_quartic.mat")
    i = str(GOLDEN / "i7_gf101.mat")
    script = ("from canonforms.cli import run; "
              f"run(['eldiv', '--json', {m!r}]); "
              f"run(['pencil-eldiv', '--json', {i!r}, {m!r}])")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == ((GOLDEN / "eldiv-gf101_cubic_quartic.json").read_text()
                       + (GOLDEN / "pencil-eldiv-I-gf101_cubic_quartic.json").read_text())
