"""The four seeded workloads.

A workload turns ``(seed, index)`` into a *spec*: plain benchmark-side data
(field, matrices, expected answers) built with :mod:`perfbench.arith` only,
so the same seed always gives the same inputs and the expected answers are
known by construction.  ``bind`` turns a spec into a :class:`Request` whose
``call`` looks up the library function at call time (so a traced run sees
the patched attribute) and whose ``check`` re-verifies the answer outside
the timer.

Call kinds, sizes and fields follow a fixed cycle rather than a random
draw, and a run measures whole periods of it, so every seed sees the same
mix; the seed only changes the values.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import arith as ar
from . import oracle


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class _Draws:
    """The two random streams of one request.

    ``shape`` depends only on the request's place in the period of its
    workload's call cycle, and fixes the structure: block kinds and sizes,
    and the magnitudes of eigenvalues and of polynomial coefficients.
    ``vals`` depends on the seed and the request index, and fixes signs: of
    the eigenvalues, of the conjugators' operations, and whether each
    polynomial f(x) becomes (-1)^deg f(-x), which keeps it irreducible.
    Every seed and every run of whole periods thus measures the same mix of
    structures and sizes of numbers, which keeps the spread between runs
    small."""

    def __init__(self, seed, name, i, period):
        self.shape = random.Random(f"{name}/{i % period}")
        self.vals = random.Random(f"{seed}/{name}/{i}")
        self._sign = {1: self.vals.choice((-1, 1)), 2: self.vals.choice((-1, 1))}
        self._mirrored = self.vals.random() < 0.5

    def eigenvalue(self):
        """A value in -2..2 for a label the shape stream draws from -2..2:
        the seed may flip the sign of all labels of one magnitude, which
        keeps equal labels equal and distinct ones distinct."""
        label = self.shape.randint(-2, 2)
        return label * self._sign.get(abs(label), 1)

    def irreducible(self, f, degree, bound):
        """A monic irreducible of the given degree from the shape stream,
        mirrored to (-1)^degree g(-x) for half the seeds."""
        g = ar.irreducible(f, self.shape, degree, bound)
        if not self._mirrored:
            return g
        return ar.ptrim(f, [c if (degree - k) % 2 == 0 else -c for k, c in enumerate(g)])

    def ops(self, n):
        """n elementary operations of a unimodular conjugator: which rows
        from the shape stream, the signs from the value stream."""
        return ar.elementary_ops(self.shape, self.vals, n, n)


def _dom(cf, p):
    return cf.GF(p) if p else cf.QQ


def _assemble(f, eldivs):
    return ar.block_diag(f, [ar.hypercompanion(f, b, e) for b, e in eldivs])


def _linear(f, ev):
    return ar.ptrim(f, [-ev, 1])


def _mixed_blocks(f, dr, n, nonlinear, bound, one_base):
    """Elementary divisors filling size n: Jordan blocks (x - c)^e with c in
    -2..2, and with probability ``nonlinear`` a power g^e of an irreducible g
    of degree 2..3 with |coeff| <= bound, where e = 2 for half the quadratics
    that fit twice.  ``one_base`` keeps a single distinct irreducible so that
    no invariant factor needs a product of two of them split."""
    out, base, left = [], None, n
    while left:
        if left >= 2 and dr.shape.random() < nonlinear:
            d = len(base) - 1 if one_base and base else dr.shape.choice(
                [d for d in (2, 3) if d <= left])
            if d <= left:
                if not (one_base and base):
                    base = dr.irreducible(f, d, bound)
                e = 2 if d == 2 and left >= 4 and dr.shape.random() < 0.5 else 1
                out.append((base, e))
                left -= d * e
                continue
        e = dr.shape.randint(1, min(3, left))
        out.append((_linear(f, dr.eigenvalue()), e))
        left -= e
    return out


def _conjugated(f, dr, eldivs):
    n = sum((len(b) - 1) * e for b, e in eldivs)
    return ar.conjugate(f, _assemble(f, eldivs), dr.ops(n))


def _unimodular(f, dr, n):
    return ar.unimodular(f, n, dr.ops(n))


# ---------------------------------------------------------------------------
# transform: canonical forms, similarity and pencil equivalence with witnesses

_T_KINDS = ("jordan", "rational", "primary", "similar", "not_similar", "pencil")
T_PERIOD = 72
_FORM_FN = {"jordan": "jordan_form", "rational": "rational_canonical_form",
            "primary": "primary_form"}


def transform_spec(seed, i):
    # each kind at each size n = 6..8 three times over Q, once over GF(101)
    j, r = i % len(_T_KINDS), (i // len(_T_KINDS)) % 12
    kind, n, p = _T_KINDS[j], 6 + r % 3, 101 if (j + r) % 4 == 3 else 0
    dr, f = _Draws(seed, "transform", i, T_PERIOD), ar.Field(p)
    nonlinear = 0.0 if kind == "jordan" else 0.4
    if kind == "not_similar":
        # same characteristic polynomial, one Jordan chain split in two
        k = dr.shape.randint(2, 3)
        ev = _linear(f, dr.eigenvalue())
        rest = _mixed_blocks(f, dr, n - k, nonlinear, 3, not p)
        eld_a = [(ev, k)] + rest
        eld_b = [(ev, k - 1), (ev, 1)] + rest
        return (kind, p, _conjugated(f, dr, eld_a), _conjugated(f, dr, eld_b))
    eld = _mixed_blocks(f, dr, n, nonlinear, 3, not p)
    a = _conjugated(f, dr, eld)
    if kind == "similar":
        return (kind, p, a, _conjugated(f, dr, eld))
    if kind == "pencil":
        h, k = _unimodular(f, dr, n), _unimodular(f, dr, n)
        ht = ar.transpose(h)
        return (kind, p, (ar.ident(f, n), a),
                (ar.mmul(f, ht, k), ar.mmul(f, ar.mmul(f, ht, a), k)))
    return (kind, p, a, sorted(eld))


def transform_bind(cf, spec, ctx=None):
    kind, p = spec[0], spec[1]
    f, dom = ar.Field(p), _dom(cf, p)
    if kind in _FORM_FN:
        a, eld = spec[2], spec[3]
        am, name = cf.Mat(dom, a), _FORM_FN[kind]
        return Request(f"{kind}/{f}", lambda: getattr(cf, name)(am),
                       lambda out: oracle.check_form(f, a, eld, kind, out))
    if kind in ("similar", "not_similar"):
        a, b = spec[2], spec[3]
        am, bm = cf.Mat(dom, a), cf.Mat(dom, b)
        return Request(f"{kind}/{f}", lambda: cf.similar(am, bm),
                       lambda out: oracle.check_similar(f, a, b, kind == "similar", out))
    (p1, q1), (p2, q2) = spec[2], spec[3]
    pc1 = cf.Pencil(cf.Mat(dom, p1), cf.Mat(dom, q1))
    pc2 = cf.Pencil(cf.Mat(dom, p2), cf.Mat(dom, q2))
    return Request(f"pencil/{f}", lambda: cf.pencil_equivalent(pc1, pc2),
                   lambda out: oracle.check_pencil_witness(f, (spec[2], spec[3]), out))


# ---------------------------------------------------------------------------
# invariants: divisor data and pencil divisors, no transforms

# GF(10007) costs about ten times GF(1009), so it is one call in eighteen
# and p90 falls among the GF(1009) calls rather than on a class boundary.
_I_CYCLE = ([("divisors", 0), ("pencil", 0), ("divisors", 101),
             ("divisors", 0), ("pencil", 101), ("divisors", 1009)] * 2
            + [("divisors", 0), ("pencil", 0), ("divisors", 10007),
               ("divisors", 0), ("pencil", 101), ("pencil", 0)])
I_PERIOD = 3 * len(_I_CYCLE)


# The polynomials the invariants workload factors come from the shape stream
# only, unmirrored: the cost of Kronecker's and Berlekamp's searches varies
# widely between similar inputs (12 ms median, about 1 s maximum per call
# over Q), and with mirrored inputs p90 spread by a quarter between seeds.
# The seed still changes the conjugators, and so the Smith reductions.


def _q_irreducible_blocks(f, dr, n):
    """Two distinct irreducibles f, g (degrees 2 and 2..3, |coeff| <= 9),
    repeated to fill n.  No invariant factor holds more than f * g, of degree
    at most 5: a product of two cubics took Kronecker's search up to 38 s."""
    fb = ar.irreducible(f, dr.shape, 2, 9)
    # an odd size needs the cubic
    dg = 3 if n % 2 else dr.shape.choice((2, 3))
    while True:
        gb = ar.irreducible(f, dr.shape, dg, 9)
        if gb != fb:
            break
    pieces = [(fb, 1), (gb, 1), (fb, 2)]
    out, left = [], n
    while left:
        fits = [(b, e) for b, e in pieces
                if (len(b) - 1) * e <= left and left - (len(b) - 1) * e != 1]
        b, e = fits[dr.shape.randrange(len(fits))]
        out.append((b, e))
        left -= (len(b) - 1) * e
    return out


def _gf_blocks(f, dr, n):
    """Jordan blocks at random residues and random irreducibles of degree
    2..3, so the last invariant factors have several distinct factors."""
    out, left = [], n
    while left:
        if left >= 2 and dr.shape.random() < 0.5:
            d = dr.shape.choice([d for d in (2, 3) if d <= left])
            b = ar.irreducible(f, dr.shape, d, f.p // 2)
            out.append((b, 1))
            left -= d
        else:
            e = dr.shape.randint(1, min(2, left))
            out.append((_linear(f, dr.shape.randrange(f.p)), e))
            left -= e
    return out


def _pencil_blocks(f, dr, n):
    """Canonical block pairs of a regular pencil and its divisors: (I, -J_e(c))
    for (x - c)^e, (I, -H) for an irreducible quadratic, (N_e, I) for a
    divisor of exponent e at infinity."""
    ps, qs, divs, left = [], [], [], n
    while left:
        r = dr.shape.random()
        if r < 0.25 and left >= 2:
            b = dr.irreducible(f, 2, 3)
            ps.append(ar.ident(f, 2))
            qs.append(ar.mneg(f, ar.companion(f, b)))
            divs.append((("poly", b), 1))
            left -= 2
        elif r < 0.5:
            e = dr.shape.randint(1, min(2, left))
            ps.append(ar.jordan(f, 0, e))
            qs.append(ar.ident(f, e))
            divs.append((("inf",), e))
            left -= e
        else:
            e = dr.shape.randint(1, min(2, left))
            c = f.red(dr.eigenvalue())
            ps.append(ar.ident(f, e))
            qs.append(ar.mneg(f, ar.jordan(f, c, e)))
            divs.append((("pt", c), e))
            left -= e
    return ar.block_diag(f, ps), ar.block_diag(f, qs), divs


def invariants_spec(seed, i):
    # each slot of the cycle once at each size n = 6..8
    kind, p = _I_CYCLE[i % len(_I_CYCLE)]
    n = 6 + (i // len(_I_CYCLE)) % 3
    dr, f = _Draws(seed, "invariants", i, I_PERIOD), ar.Field(p)
    if kind == "pencil":
        p0, q0, divs = _pencil_blocks(f, dr, n)
        h, k = _unimodular(f, dr, n), _unimodular(f, dr, n)
        ht = ar.transpose(h)
        return (kind, p, ar.mmul(f, ar.mmul(f, ht, p0), k),
                ar.mmul(f, ar.mmul(f, ht, q0), k), sorted(divs, key=repr))
    eld = _gf_blocks(f, dr, n) if p else _q_irreducible_blocks(f, dr, n)
    return (kind, p, _conjugated(f, dr, eld), sorted(eld))


def invariants_bind(cf, spec, ctx=None):
    kind, p = spec[0], spec[1]
    f, dom = ar.Field(p), _dom(cf, p)
    if kind == "pencil":
        pc = cf.Pencil(cf.Mat(dom, spec[2]), cf.Mat(dom, spec[3]))
        return Request(f"pencil_divisors/{f}", lambda: cf.pencil_divisors(pc),
                       lambda out: oracle.check_pencil_divisors(spec[4], out))
    a, eld = spec[2], spec[3]
    am = cf.Mat(dom, a)
    return Request(f"divisor_data/{f}", lambda: cf.divisor_data(am),
                   lambda out: oracle.check_divisor_data(f, eld, len(a), out))


# ---------------------------------------------------------------------------
# oscillations: mode reports of M y'' + K y = 0

# Costs rise steeply with n, and irrational roots cost several times more
# than rational ones of the same n, so n = 6 is one call in 24.  The
# irrational n = 5 calls and all n = 6 calls make one eighth of the mix, so
# p90 falls inside that group rather than on its edge; p50 falls among n = 4.
_O_SIZES = (3, 4, 5, 3, 4, 3, 5, 4, 3, 4, 5, 3, 4, 3, 5, 4, 3, 4, 5, 3, 4, 3, 5, 6)
_O_KINDS = ("distinct", "repeated", "irrational")
O_PERIOD = len(_O_SIZES) * len(_O_KINDS)


def _unit_lower(rng, n):
    return [[1 if i == j else rng.choice((-1, 1)) if j < i else 0
             for j in range(n)] for i in range(n)]


def oscillations_spec(seed, i):
    # the size cycle once per kind
    n = _O_SIZES[i % len(_O_SIZES)]
    kind = _O_KINDS[(i // len(_O_SIZES)) % len(_O_KINDS)]
    dr, f = _Draws(seed, "oscillations", i, O_PERIOD), ar.Field(0)
    low = _unit_lower(dr.vals, n)
    mass = ar.mmul(f, low, ar.transpose(low))
    if kind == "irrational":
        stiff = ar.zeros(f, n, n)
        for r in range(n):
            for c in range(r, n):
                stiff[r][c] = stiff[c][r] = f.red(dr.vals.choice((-2, -1, 1, 2)))
        return (kind, mass, stiff, None)
    # K = L D L^T and M = L L^T: the roots of det(K - sM) are D's entries
    if kind == "distinct":
        roots = dr.shape.sample(range(-3, 6), n)
    else:
        # one double root, the rest simple
        roots = dr.shape.sample(range(-2, 5), n - 1)
        roots.append(roots[0])
    d = [[f.red(roots[r]) if r == c else f.red(0) for c in range(n)] for r in range(n)]
    stiff = ar.mmul(f, ar.mmul(f, low, d), ar.transpose(low))
    return (kind, mass, stiff, sorted(f.red(r) for r in roots))


def _check_report(f, spec, report):
    _, mass, stiff, roots = spec
    err = oracle.check_modes(f, mass, stiff, roots, report)
    if err is None and roots is not None:
        got = (report.verdicts.lagrange_1766, report.verdicts.weierstrass_1858)
        if got != oracle.verdicts(roots):
            err = "stability verdicts differ from the construction"
    return err


def oscillations_bind(cf, spec, ctx=None):
    f = ar.Field(0)
    system = cf.OscSystem(cf.Mat(cf.QQ, spec[1]), cf.Mat(cf.QQ, spec[2]))
    return Request(f"mode_report/{spec[0]}/n{len(spec[1])}",
                   lambda: cf.mode_report(system),
                   lambda out: _check_report(f, spec, out))


# ---------------------------------------------------------------------------
# cli: in-process canonforms.cli.run over small generated files

_C_KINDS = ("smith", "invfactors", "eldiv", "jordan", "jordan_refused", "rcf",
            "primary", "similar", "not_similar", "pencil-eldiv", "pencil-equiv",
            "pencil-canon", "kron-form", "oscillate", "verify", "malformed")
C_PERIOD = 6 * len(_C_KINDS)
_MALFORMED = (
    "FIELD Q\nROWS 2 COLS 2\n1 2\n3\n",
    "FIELD Q\nROWS 2 COLS 2\n1 2\n3 1/0\n",
    "FIELD R\nROWS 1 COLS 1\n1\n",
    "FIELD GF 9\nROWS 1 COLS 1\n1\n",
    "FIELD Q\nROWS 2 COLS 2\n1 2\n3 4 5\n",
    "FIELD Q\nROWS 2 COLS x\n",
)


def matrix_text(f, m):
    """A matrix file as the CLI reads it."""
    head = f"FIELD GF {f.p}" if f.p else "FIELD Q"
    rows = [" ".join(str(x) for x in row) for row in m]
    return "\n".join([head, f"ROWS {len(m)} COLS {len(m[0])}"] + rows) + "\n"


def cli_spec(seed, i):
    """(kind, files, argv template with {0}, {1}.. for the files, expected)."""
    # each kind at n = 3..5 over Q and over GF(7)
    kind, r = _C_KINDS[i % len(_C_KINDS)], (i // len(_C_KINDS)) % 6
    n, p = 3 + r % 3, 7 if r % 2 else 0
    dr = _Draws(seed, "cli", i, C_PERIOD)
    f = ar.Field(p)
    flags = ["--json"] + (["--no-transform"] if r < 3 else [])
    if kind == "malformed":
        return (kind, [_MALFORMED[dr.shape.randrange(len(_MALFORMED))]],
                ["eldiv", "{0}"] + flags, 1)
    if kind == "kron-form":
        which = dr.shape.choice(("I", "II", "III"))
        extra = ["--a", str(dr.vals.randint(1, 3)), "--b", str(dr.vals.randint(4, 6))] \
            if which == "III" else []
        # kind II exists only at even sizes; an odd one is an input error
        code = 1 if which == "II" and n % 2 else 0
        return (kind, [], ["kron-form", "--kind", which, "--size", str(n)] + extra + flags, code)
    if kind == "oscillate":
        # index 24 i of the oscillations cycle is an n = 3 system
        _, mass, stiff, roots = oscillations_spec(seed, 24 * i)
        q = ar.Field(0)
        return (kind, [matrix_text(q, mass), matrix_text(q, stiff)],
                ["oscillate", "{0}", "{1}"] + flags, roots and oracle.verdicts(roots))
    if kind.startswith("pencil"):
        p0, q0, divs = _pencil_blocks(f, dr, n)
        h, k = _unimodular(f, dr, n), _unimodular(f, dr, n)
        ht = ar.transpose(h)
        files = [matrix_text(f, ar.mmul(f, ar.mmul(f, ht, m), k)) for m in (p0, q0)]
        if kind == "pencil-equiv":
            files += [matrix_text(f, p0), matrix_text(f, q0)]
            return (kind, files, ["pencil-equiv", "{0}", "{1}", "{2}", "{3}"] + flags, True)
        expected = sorted(_pencil_str(f, d, e) for d, e in divs)
        return (kind, files, [kind, "{0}", "{1}"] + flags, expected)
    if kind == "jordan_refused":
        f = ar.Field(0)
        eld = [(dr.irreducible(f, 2, 3), 1)] + _mixed_blocks(f, dr, n - 2, 0.0, 3, True)
        return (kind, [matrix_text(f, _conjugated(f, dr, eld))], ["jordan", "{0}"] + flags, 2)
    nonlinear = 0.0 if kind == "jordan" else 0.4
    if kind == "not_similar":
        ev = dr.eigenvalue()
        rest = _mixed_blocks(f, dr, n - 2, nonlinear, 3, True)
        eld_a = [(_linear(f, ev), 2)] + rest
        eld_b = [(_linear(f, ev), 1), (_linear(f, ev), 1)] + rest
        return (kind, [matrix_text(f, _conjugated(f, dr, e)) for e in (eld_a, eld_b)],
                ["similar", "{0}", "{1}"] + flags, False)
    eld = _mixed_blocks(f, dr, n, nonlinear, 3, True)
    a = _conjugated(f, dr, eld)
    if kind == "similar":
        return (kind, [matrix_text(f, a), matrix_text(f, _conjugated(f, dr, eld))],
                ["similar", "{0}", "{1}"] + flags, True)
    if kind == "verify":
        return (kind, [matrix_text(f, a)], ["verify", "{0}", "--trials", "1"] + flags, True)
    if kind == "jordan":
        structure = {}
        for b, e in eld:
            structure.setdefault(f.red(-b[0]), []).append(e)
        expected = sorted([str(ev), sorted(s, reverse=True)] for ev, s in structure.items())
        return (kind, [matrix_text(f, a)], ["jordan", "{0}"] + flags, expected)
    factors = [oracle.render(f, g) for g in oracle.invariant_factors(f, eld, n)]
    expected = {"eldiv": oracle.divisor_strs(f, eld), "invfactors": factors,
                "smith": factors, "rcf": sorted(g for g in factors if g != "1"),
                "primary": len(eld)}[kind]
    return (kind, [matrix_text(f, a)], [kind, "{0}"] + flags, expected)


def _pencil_str(f, div, e):
    if div[0] == "inf":
        s = "(infinity)"
    else:
        s = "(" + oracle.render(f, _linear(f, div[1]) if div[0] == "pt" else div[1]) + ")"
    return s if e == 1 else f"{s}^{e}"


def _check_cli(spec, out):
    kind, _, argv, expected = spec
    code, text = out
    want_code = expected if kind in ("malformed", "jordan_refused", "kron-form") else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if code:
        return None
    try:
        rep = json.loads(text)
    except ValueError:
        return "stdout is not one JSON object"
    inv = rep["invariants"]
    if not rep["verified"]:
        return "report not verified"
    if kind == "eldiv" and inv["elementary_divisors"] != expected:
        return "elementary divisors differ from the construction"
    if kind == "invfactors" and inv["invariant_factors"] != expected:
        return "invariant factors differ from the construction"
    if kind == "smith" and inv["smith_diagonal"] != expected:
        return "Smith diagonal differs from the construction"
    if kind == "rcf" and sorted(inv["blocks"]) != expected:
        return "rational form blocks differ from the construction"
    if kind == "jordan" and sorted(inv["structure"]) != expected:
        return "Jordan structure differs from the construction"
    if kind in ("similar", "not_similar") and inv["similar"] != expected:
        return "wrong similarity verdict"
    if kind == "pencil-equiv" and inv["equivalent"] is not True:
        return "equivalent pencils judged inequivalent"
    if kind in ("pencil-eldiv", "pencil-canon") and sorted(inv["divisors"]) != expected:
        return "pencil divisors differ from the construction"
    if kind == "primary" and len(inv["blocks"]) != expected:
        return "wrong number of primary blocks"
    if kind == "verify" and inv["all_passed"] is not True:
        return "verify reported a failed identity"
    if kind == "kron-form" and inv["match"] == "MISMATCH":
        return "determinant identity mismatch"
    if kind == "oscillate" and expected and (
            inv["verdict_lagrange_1766"], inv["verdict_weierstrass_1858"]) != expected:
        return "stability verdicts differ from the construction"
    return None


def _cli_paths(spec, ctx):
    return [f"{ctx}-{k}.mat" for k in range(len(spec[1]))]


def cli_write(spec, ctx):
    """Writes the spec's files as ``<ctx>-<k>.mat``."""
    for path, text in zip(_cli_paths(spec, ctx), spec[1]):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cli_bind(cf, spec, ctx):
    """Binds argv to the files ``cli_write`` wrote."""
    kind, _, argv, _ = spec
    args = [a.format(*_cli_paths(spec, ctx)) for a in argv]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cf.cli.run(args, out=out)
        return code, out.getvalue()

    return Request(f"cli/{kind}", call, lambda out: _check_cli(spec, out))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable
    bind: Callable
    period: int        # requests per whole cycle of the call mix; set-up
                       # generates and binds one period as the request pool
    reuse: bool        # reuse the pool (cli) instead of generating past it
    write: Optional[Callable] = None   # writes a spec's input files


WORKLOADS = {
    "transform": Workload("transform", transform_spec, transform_bind, T_PERIOD, False),
    "invariants": Workload("invariants", invariants_spec, invariants_bind, I_PERIOD, False),
    "oscillations": Workload("oscillations", oscillations_spec, oscillations_bind,
                             O_PERIOD, False),
    "cli": Workload("cli", cli_spec, cli_bind, C_PERIOD, True, cli_write),
}
