"""Command-line surface: parse matrix files, dispatch, report, self-verify.

Matrix file format (bit-exact, ASCII only, hyphen-minus for negatives):

    FIELD Q            # or: FIELD GF 7
    ROWS 3 COLS 3      # dimensions
    1 -1 0             # then ROWS whitespace-separated rows
    -1 2 1
    0 1 1

Integers are ``[+-]?[0-9]+``, rational entries ``a`` or ``a/b``; GF(p)
entries are integers reduced modulo p; ``#`` starts a comment.  Exit codes:
0 success, 1 input error (at its line:col when it has one, such as the
first byte outside ASCII), 2 mathematical refusal (the refusal message
names the reason), 3 failed internal verification (the message names the
check; always a library bug).

Integer arguments (``--seed``, ``--size``, ``--trials``, ``--a``, ``--b``)
are ``[+-]?[0-9]+`` as well.  Limits: ``verify --trials`` is at most
MAX_TRIALS = 100 and ``kron-form --size`` at most MAX_KRON_SIZE = 32; a
value outside 0..limit, like any malformed argument, is an input error
naming the flag, before any work.

Commands record their transform matrices in the report, and the report
alone applies ``--no-transform``, to the text and to ``--json`` alike.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .algebra import (
    GF,
    DomainError,
    GFElement,
    Poly,
    PrimeField,
    QQ,
    RootInterval,
    VerificationError,
    factor,
)
from .canonical import (
    SplitFieldRequired,
    _jordan_form,
    _kernels,
    _primary,
    _primary_form,
    _rational_form,
    jordan_form,
    primary_form,
    rational_canonical_form,
    similar,
)
from .matrix import Mat, det, mat_inverse
from .oscillations import OscSystem, mode_report
from .pencil import (
    Pencil,
    SingularPencilError,
    _pencil_divisor_str,
    _pencil_divisors,
    canonical_pencil,
    kronecker_elementary_form,
    pencil_det,
    pencil_divisors,
    pencil_equivalent,
)
from .smith import (
    _char_poly,
    _divisor_str,
    _kernel_ledger,
    _ledger,
    char_matrix,
    divisor_data,
    gcd_minors_chain,
    smith_form,
)

HUMAN_VAR = "λ"   # lambda; machine output spells it x
MAX_TRIALS = 100
MAX_KRON_SIZE = 32
EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSED = 2
EXIT_VERIFY = 3


class MatrixParseError(ValueError):
    """An input error, prefixed with its 1-based line:col when it has one."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _int(tok: str) -> int:
    """int() of ASCII decimal integers only; int() alone also takes '1_0'
    and the digits of other scripts."""
    if not re.fullmatch(r"[+-]?[0-9]+", tok):
        raise ValueError(f"not an integer: {tok!r}")
    return int(tok)


def _tokenize(text: str):
    """Tokens with 1-based (line, col) positions; '#' starts a comment.
    Only ASCII whitespace separates tokens (str.isspace also accepts a
    no-break space)."""
    out = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        out.extend((m.group(), ln, m.start() + 1)
                   for m in re.finditer(r"[^ \t\r\f\v]+", body))
    return out


def parse_matrix(text: str) -> Mat:
    """Parse the matrix file format into an exact matrix."""
    toks = _tokenize(text)
    pos = 0

    def need(what: str):
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1] if toks else ("", 1, 1)
            raise MatrixParseError(f"unexpected end of input, expected {what}",
                                   last[1], last[2])
        t = toks[pos]
        pos += 1
        return t

    def keyword(word: str) -> None:
        tok, ln, col = need(word)
        if tok != word:
            raise MatrixParseError(f"expected {word}, got {tok!r}", ln, col)

    def integer(what: str) -> Tuple[int, int, int]:
        tok, ln, col = need(what)
        try:
            return _int(tok), ln, col
        except ValueError:
            raise MatrixParseError(f"{what} must be an integer, got {tok!r}",
                                   ln, col) from None

    def count(word: str, what: str) -> int:
        keyword(word)
        n, ln, col = integer(what)
        if n < 1:
            raise MatrixParseError("dimensions must be positive", ln, col)
        return n

    keyword("FIELD")
    tok, ln, col = need("field name")
    if tok == "Q":
        dom = QQ
    elif tok == "GF":
        p, ln, col = integer("modulus")
        try:
            dom = GF(p)
        except DomainError as exc:
            raise MatrixParseError(str(exc), ln, col) from None
    else:
        raise MatrixParseError(f"unknown field {tok!r} (use Q or GF <p>)", ln, col)
    nrows, ncols = count("ROWS", "row count"), count("COLS", "column count")
    entries = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            tok, ln, col = need("matrix entry")
            row.append(_parse_entry(tok, dom, ln, col))
        entries.append(row)
    if pos != len(toks):
        tok, ln, col = toks[pos]
        raise MatrixParseError(f"wrong entry count: trailing token {tok!r}", ln, col)
    return Mat(dom, entries)


def _parse_entry(tok: str, dom, ln: int, col: int):
    if isinstance(dom, PrimeField):
        try:
            return dom.coerce(_int(tok))
        except ValueError:
            raise MatrixParseError(
                f"GF entries are integers, got {tok!r}", ln, col) from None
    if "/" in tok:
        num_s, den_s = tok.split("/", 1)
        try:
            num, den = _int(num_s), _int(den_s)
        except ValueError:
            raise MatrixParseError(f"malformed rational {tok!r}", ln, col) from None
        if den == 0:
            raise MatrixParseError(f"zero denominator in {tok!r}", ln, col)
        return Fraction(num, den)
    try:
        return Fraction(_int(tok))
    except ValueError:
        raise MatrixParseError(f"malformed entry {tok!r}", ln, col) from None


def print_matrix(m: Mat) -> str:
    """Canonical matrix-file text; print -> parse -> print is a fixed point."""
    if isinstance(m.domain, PrimeField):
        head = f"FIELD GF {m.domain.p}"
    else:
        head = "FIELD Q"
    lines = [head, f"ROWS {m.rows} COLS {m.cols}"]
    for row in m.entries:
        lines.append(" ".join(_entry_str(e) for e in row))
    return "\n".join(lines) + "\n"


def _entry_str(e) -> str:
    if isinstance(e, GFElement):
        return str(e.v)
    f = Fraction(e)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Rendering helpers


def _poly_str(p: Poly, var: str) -> str:
    return p.render(var, compact=True)


def _mat_json(m: Mat, var: str = "x") -> dict:
    ent = []
    for row in m.entries:
        for e in row:
            ent.append(_poly_str(e, var) if isinstance(e, Poly) else _entry_str(e))
    return {"rows": m.rows, "cols": m.cols, "entries": ent}


def _mat_human(m: Mat, var: str = HUMAN_VAR) -> str:
    cells = [[_poly_str(e, var) if isinstance(e, Poly) else _entry_str(e)
              for e in row] for row in m.entries]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = []
    for row in cells:
        lines.append("  [ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
    return "\n".join(lines)


class _Report:
    """A report on canonical input texts, rendered as text lines or as JSON."""

    def __init__(self, kind: str, *inputs: str):
        self.kind = kind
        h = hashlib.sha256()
        for text in inputs:
            h.update(text.encode("utf-8") + b"\x00")
        self.digest = h.hexdigest()
        self.lines: List[Tuple[str, bool]] = []   # (text, shows a transform)
        self.invariants: dict = {}
        self.transforms: dict = {}
        self.verified = True
        self.failed: Optional[str] = None   # the first failed check, if any

    def say(self, line: str = ""):
        self.lines.append((line, False))

    def transform(self, name: str, m: Mat, heading: Optional[str] = None):
        """Record ``name`` for --json; given a heading, the text shows it too."""
        self.transforms[name] = _mat_json(m)
        if heading is not None:
            self.lines += [(heading, True), (_mat_human(m), True)]

    def emit(self, json_mode: bool, no_transform: bool) -> str:
        if not json_mode:
            return "".join(f"{text}\n" for text, shows in self.lines
                           if not (shows and no_transform))
        payload = {
            "kind": self.kind,
            "input_digest": self.digest,
            "invariants": self.invariants,
            "verified": self.verified,
        }
        if not no_transform:
            payload["transforms"] = self.transforms
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (exit_code, report))


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror}") from None


def _ascii_text(data: bytes) -> str:
    if data.isascii():
        return data.decode("ascii")
    i = next(k for k, byte in enumerate(data) if byte > 0x7F)
    raise MatrixParseError(f"non-ASCII byte 0x{data[i]:02x}",
                           data.count(b"\n", 0, i) + 1, i - data.rfind(b"\n", 0, i))


def _load(path: str) -> Tuple[Mat, str]:
    data = _read_file(path)
    try:
        m = parse_matrix(_ascii_text(data))
    except MatrixParseError as exc:
        raise MatrixParseError(f"{path}:{exc}") from None
    return m, print_matrix(m)


def _require_square(m: Mat, path: str) -> None:
    if not m.is_square():
        raise MatrixParseError(f"{path}: expected a square matrix")


def _square_input(path: str, kind: str) -> Tuple[Mat, _Report]:
    """The square matrix in ``path`` and the report on it."""
    a, canon = _load(path)
    _require_square(a, path)
    return a, _Report(kind, canon)


def _cmd_smith(args) -> Tuple[int, _Report]:
    a, rep = _square_input(args.matrix, "smith")
    x_mat = char_matrix(a)
    u, s, v = smith_form(x_mat)
    du, dv = det(u), det(v)
    if du.degree != 0 or dv.degree != 0:
        raise VerificationError("smith transforms U and V are not unimodular")
    diag = [s.entries[i][i] for i in range(s.rows)]
    rep.invariants["smith_diagonal"] = [_poly_str(d, "x") for d in diag]
    rep.say(f"Smith form of {HUMAN_VAR}I - A    (U ({HUMAN_VAR}I - A) V = S)")
    rep.say(f"diagonal: {', '.join(_poly_str(d, HUMAN_VAR) for d in diag)}")
    rep.say(f"det U = {_poly_str(du, HUMAN_VAR)}, det V = {_poly_str(dv, HUMAN_VAR)} (unimodular)")
    rep.transform("U", u, "U =")
    rep.transform("S", s)
    rep.transform("V", v, "V =")
    rep.say(f"verified: U ({HUMAN_VAR}I - A) V = S exactly")
    return EXIT_OK, rep


def _cmd_invfactors(args) -> Tuple[int, _Report]:
    a, rep = _square_input(args.matrix, "invfactors")
    dd = divisor_data(a)
    rep.invariants["invariant_factors"] = [_poly_str(f, "x") for f in dd.invariant_factors]
    rep.invariants["gcd_chain"] = [_poly_str(f, "x") for f in dd.gcd_chain]
    rep.say("invariant factors (i_1 | i_2 | ... | i_n):")
    rep.say("  " + ", ".join(_poly_str(f, HUMAN_VAR) for f in dd.invariant_factors))
    rep.say("gcd-of-minors chain (D_1 | ... | D_n):")
    rep.say("  " + ", ".join(_poly_str(f, HUMAN_VAR) for f in dd.gcd_chain))
    return EXIT_OK, rep


def _cmd_eldiv(args) -> Tuple[int, _Report]:
    a, rep = _square_input(args.matrix, "eldiv")
    dd = divisor_data(a)
    rep.invariants["elementary_divisors"] = [
        _divisor_str(b, e, "x") for b, e in dd.elementary_divisors]
    rep.invariants["certified"] = True   # kept so reports stay byte-stable
    rep.say(dd.render(HUMAN_VAR))
    return EXIT_OK, rep


def _form_command(kind: str, builder, name: str = "form"):
    def run_it(args) -> Tuple[int, _Report]:
        a, rep = _square_input(args.matrix, kind)
        try:
            res = builder(a)
        except SplitFieldRequired as exc:
            names = ", ".join(_poly_str(f, HUMAN_VAR) for f in exc.factors)
            rep.say(f"refused: characteristic polynomial does not split over the "
                    f"base field; irreducible factor(s): {names}")
            rep.say("hint: `primary` produces the base-field normal form instead")
            rep.invariants["refusal"] = "SplitFieldRequired"
            rep.invariants["factors"] = [_poly_str(f, "x") for f in exc.factors]
            rep.verified = False
            return EXIT_REFUSED, rep
        rep.invariants["blocks"] = _blocks_json(res)
        rep.transform("form", res.matrix)
        rep.verified = res.verified
        rep.say(f"{kind} form:")
        rep.say(_mat_human(res.matrix))
        if res.structure is not None:
            pairs = [[_entry_str(ev), list(sizes)] for ev, sizes in res.structure.blocks]
            rep.invariants["structure"] = pairs
            rep.say("structure: " + "; ".join(
                f"eigenvalue {ev}: sizes {sizes}" for ev, sizes in pairs))
        rep.transform("T", res.transform, f"T =  (inverse(T) A T = {name})")
        rep.say(f"verified: {res.verified}")
        return EXIT_OK, rep
    return run_it


def _blocks_json(res) -> list:
    out = []
    for b in res.blocks:
        if isinstance(b, Poly):
            out.append(_poly_str(b, "x"))
        elif isinstance(b, tuple) and isinstance(b[0], Poly):
            out.append([_poly_str(b[0], "x"), b[1]])
        else:
            out.append([_entry_str(b[0]), b[1]])
    return out


_cmd_rcf = _form_command("rcf", rational_canonical_form)
_cmd_primary = _form_command("primary", primary_form)
_cmd_jordan = _form_command("jordan", jordan_form, "J")


def _cmd_similar(args) -> Tuple[int, _Report]:
    a, canon_a = _load(args.matrix_a)
    b, canon_b = _load(args.matrix_b)
    _require_square(a, args.matrix_a)
    _require_square(b, args.matrix_b)
    rep = _Report("similar", canon_a, canon_b)
    if a.domain != b.domain or a.rows != b.rows:
        raise MatrixParseError("similarity needs equal sizes over one field")
    ok, t = similar(a, b)
    rep.invariants["similar"] = ok
    if ok:
        rep.say("SIMILAR")
        rep.transform("T", t, "T =  (inverse(T) A T = B)")
    else:
        rep.say("NOT SIMILAR")
        for name, m in (("A", a), ("B", b)) if not args.json else ():
            dd = divisor_data(m)   # human report only
            rep.say(f"{name} divisors: {dd.render(HUMAN_VAR)}")
    return EXIT_OK, rep


def _load_pencil(path_p: str, path_q: str) -> Tuple[Pencil, str, str]:
    p, canon_p = _load(path_p)
    q, canon_q = _load(path_q)
    try:
        pc = Pencil(p, q)
    except Exception as exc:
        raise MatrixParseError(f"invalid pencil: {exc}") from None
    return pc, canon_p, canon_q


def _cmd_pencil_eldiv(args) -> Tuple[int, _Report]:
    pc, cp, cq = _load_pencil(args.matrix_p, args.matrix_q)
    rep = _Report("pencil-eldiv", cp, cq)
    det_form = pencil_det(pc)
    # the form's coefficients are those of det(x P + Q), built once
    inv = _pencil_divisors(pc, Poly(pc.domain, det_form.coeffs))
    rep.invariants["regular"] = inv.regular
    rep.invariants["rank"] = inv.rank
    rep.invariants["divisors"] = [
        _pencil_divisor_str(b, e, "x") for b, e in inv.multiset()]
    form = det_form.render()
    rep.invariants["determinant_form"] = form
    if inv.regular:
        rep.say("regular pencil")
        rep.say(f"divisors: {inv.render(HUMAN_VAR)}")
    else:
        rep.say(f"SINGULAR pencil (rank {inv.rank} of {inv.size}); "
                "canonical minimal-index theory out of scope")
        rep.say(f"well-defined finite gcd data: {inv.render(HUMAN_VAR) or 'none'}")
    rep.say(f"det(uP + vQ) = {form}")
    return EXIT_OK, rep


def _cmd_pencil_equiv(args) -> Tuple[int, _Report]:
    pc1, c1, c2 = _load_pencil(args.matrix_p, args.matrix_q)
    pc2, c3, c4 = _load_pencil(args.matrix_p2, args.matrix_q2)
    if pc1.domain != pc2.domain or pc1.size != pc2.size:
        raise MatrixParseError("pencil equivalence needs equal sizes over one field")
    rep = _Report("pencil-equiv", c1, c2, c3, c4)
    try:
        ok, witness = pencil_equivalent(pc1, pc2)
    except SingularPencilError as exc:
        rep.say(f"refused: {exc}")
        rep.invariants["refusal"] = "SingularPencil"
        rep.verified = False
        return EXIT_REFUSED, rep
    rep.invariants["equivalent"] = ok
    if ok:
        rep.say("EQUIVALENT")
        if witness is None:
            rep.say("note: no witness shift exists over this small base "
                    "field; the decision rests on the matching divisors")
        else:
            h, k = witness
            rep.transform("H", h, "H =  (transpose(H) (uP + vQ) K = uP' + vQ')")
            rep.transform("K", k, "K =")
    else:
        rep.say("NOT EQUIVALENT")
        for name, pc in (("first", pc1), ("second", pc2)) if not args.json else ():
            inv = pencil_divisors(pc)   # human report only
            rep.say(f"{name} divisors: {inv.render(HUMAN_VAR)}")
    return EXIT_OK, rep


def _cmd_pencil_canon(args) -> Tuple[int, _Report]:
    pc, cp, cq = _load_pencil(args.matrix_p, args.matrix_q)
    rep = _Report("pencil-canon", cp, cq)
    inv = pencil_divisors(pc)
    if not inv.regular:
        rep.say("refused: singular pencil: canonical minimal-index theory out of scope")
        rep.invariants["refusal"] = "SingularPencil"
        rep.verified = False
        return EXIT_REFUSED, rep
    out = canonical_pencil(inv)
    rep.invariants["divisors"] = [
        _pencil_divisor_str(b, e, "x") for b, e in inv.multiset()]
    rep.transform("P", out.p)
    rep.transform("Q", out.q)
    rep.say("canonical pair (P, Q):")
    rep.say("P =")
    rep.say(_mat_human(out.p))
    rep.say("Q =")
    rep.say(_mat_human(out.q))
    rep.say(f"divisors: {inv.render(HUMAN_VAR)}")
    return EXIT_OK, rep


def _cmd_kron_form(args) -> Tuple[int, _Report]:
    rep = _Report("kron-form", f"{args.kind} {args.size} {args.a} {args.b}")
    try:
        if args.kind == "III" and (args.a is None or args.b is None):
            raise ValueError("kind III needs --a and --b")
        m, pc, expected = kronecker_elementary_form(
            args.kind, args.size, args.a, args.b)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from None
    got = pencil_det(pc)
    if got == expected:
        match, sign = "exact", 1
    elif got == -expected:
        match, sign = "up to sign", -1
    else:
        match, sign = "MISMATCH", 0
    rep.invariants["kind"] = args.kind
    rep.invariants["size"] = args.size
    rep.invariants["expected_determinant"] = expected.render()
    rep.invariants["computed_determinant"] = got.render()
    rep.invariants["match"] = match
    rep.invariants["sign"] = sign
    rep.transform("M", m)
    rep.verified = sign != 0
    if not rep.verified:
        rep.failed = "det(uM + vM^T) matches the expected determinant"
    rep.say(f"elementary form {args.kind}, size {args.size}")
    rep.say("M =")
    rep.say(_mat_human(m))
    rep.say(f"det(uM + vM^T) = {got.render()}")
    rep.say(f"expected       = {expected.render()}   [{match}]")
    return (EXIT_OK if rep.verified else EXIT_VERIFY), rep


def _cmd_oscillate(args) -> Tuple[int, _Report]:
    m, canon_m = _load(args.matrix_m)
    k, canon_k = _load(args.matrix_k)
    rep = _Report("oscillate", canon_m, canon_k)
    try:
        sys_ = OscSystem(m, k)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from None
    report = mode_report(sys_)
    rep.invariants["char_poly"] = _poly_str(report.char, "x")
    rep.invariants["verdict_lagrange_1766"] = report.verdicts.lagrange_1766
    rep.invariants["verdict_weierstrass_1858"] = report.verdicts.weierstrass_1858
    rep.invariants["real_root_certificate"] = report.real_root_certificate
    modes_json = []
    for mode in report.modes:
        entry = {"kind": mode.kind, "multiplicity": mode.multiplicity,
                 "template": mode.template}
        if isinstance(mode.root, RootInterval):
            entry["root_interval"] = [_entry_str(mode.root.lo), _entry_str(mode.root.hi)]
            entry["eigenvector_polynomials"] = [
                _poly_str(p, "x") for p in mode.column_polynomials]
        else:
            entry["root"] = _entry_str(mode.root)
            entry["eigenvector"] = [_entry_str(c) for c in mode.eigenvector.vector]
            entry["degenerate"] = mode.eigenvector.degenerate
        modes_json.append(entry)
    rep.invariants["modes"] = modes_json
    rep.invariants["notes"] = list(report.notes)
    rep.say(f"characteristic polynomial det(K - s M) = {_poly_str(report.char, 's')}")
    rep.say("convention: s = rho^2, so oscillatory stability needs every "
            "root s positive")
    rep.say(f"real-root certificate: {report.real_root_certificate}")
    rep.say(f"verdict (Lagrange 1766):    {report.verdicts.lagrange_1766}")
    rep.say(f"verdict (Weierstrass 1858): {report.verdicts.weierstrass_1858}")
    for i, mode in enumerate(report.modes, start=1):
        if isinstance(mode.root, RootInterval):
            root_s = f"s in ({_entry_str(mode.root.lo)}, {_entry_str(mode.root.hi)}]"
        else:
            root_s = f"s = {_entry_str(mode.root)}"
        rep.say(f"mode {i}: {root_s} (multiplicity {mode.multiplicity}, {mode.kind})")
        if mode.eigenvector is not None:
            rep.say(f"  eigenvector: ({', '.join(_entry_str(c) for c in mode.eigenvector.vector)})")
            if mode.eigenvector.degenerate:
                rep.say("  generic formula degenerate; nullspace basis: " +
                        "; ".join("(" + ", ".join(_entry_str(c) for c in v) + ")"
                                  for v in mode.eigenvector.basis))
        else:
            rep.say("  eigenvector polynomials: (" +
                    ", ".join(_poly_str(p, "s") for p in mode.column_polynomials) + ")")
    rep.say(f"general solution: {report.solution_template}")
    for note in report.notes:
        rep.say(f"note: {note}")
    return EXIT_OK, rep


def _cmd_verify(args) -> Tuple[int, _Report]:
    a, rep = _square_input(args.matrix, "verify")
    rng = random.Random(args.seed)
    checks: List[Tuple[str, bool]] = []

    # the Smith reduction of xI - A gives Kronecker's ledger; the Hessenberg
    # characteristic polynomial and the nested kernels over the base field
    # give Jordan's, and all three forms.
    # smith_form has proved U (xI - A) V = S and d_k | d_(k+1), or raised
    x_mat = char_matrix(a)
    u, s, v = smith_form(x_mat)
    checks.append(("smith identity U (xI - A) V = S", True))
    du, dv = det(u), det(v)
    checks.append(("U unimodular", (not du.is_zero()) and du.degree == 0))
    checks.append(("V unimodular", (not dv.is_zero()) and dv.degree == 0))
    checks.append(("divisibility d_k | d_{k+1}", True))
    diag = tuple(s.entries[i][i] for i in range(s.rows))

    dd = _ledger(a, diag)
    chi = _char_poly(a)
    prod = Poly.one(a.domain)
    for f in dd.invariant_factors:
        prod = prod * f
    checks.append(("product of invariant factors = char poly", prod == chi))
    if a.rows <= 5:
        oracle = gcd_minors_chain(x_mat, cap=5)
        checks.append(("gcd-of-minors oracle matches Smith chain",
                       tuple(oracle) == dd.gcd_chain))
    else:
        rep.say(f"note: minor-enumeration oracle skipped (n = {a.rows} > 5)")

    kernels = _kernels(a, factor(chi))
    primary = _primary(a, kernels)
    rcf = _rational_form(a, primary)
    checks.append(("rational form transform", rcf.verified))
    prim = _primary_form(a, primary)
    checks.append(("primary form transform", prim.verified))
    try:
        jd = _jordan_form(prim)
        checks.append(("jordan form transform", jd.verified))
    except SplitFieldRequired:
        rep.say("note: jordan form refused (characteristic polynomial does "
                "not split); primary form covers this input")
    checks.append(("kernel-route ledger matches Smith ledger",
                   _kernel_ledger(a, [(base, exps) for base, _, _, exps in kernels])
                   == dd))

    for trial in range(args.trials):
        t0 = _random_unimodular(a.domain, a.rows, rng)
        conj = mat_inverse(t0) * a * t0
        checks.append((f"divisor invariance under conjugation #{trial + 1}",
                       divisor_data(conj).elementary_divisors
                       == dd.elementary_divisors))

    for name, ok in checks:
        rep.say(f"{'PASS' if ok else 'FAIL'}  {name}")
    rep.failed = next((name for name, ok in checks if not ok), None)
    all_ok = rep.failed is None
    rep.invariants["checks"] = [[name, bool(ok)] for name, ok in checks]
    rep.invariants["all_passed"] = all_ok
    rep.verified = all_ok
    rep.say(f"verify: {'all identities hold' if all_ok else 'FAILURES found'}")
    return (EXIT_OK if all_ok else EXIT_VERIFY), rep


def _random_unimodular(dom, n: int, rng: random.Random) -> Mat:
    """Product of random elementary row operations (determinant +-1)."""
    m = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = dom.coerce(rng.randint(-2, 2))
        for col in range(n):
            m[i][col] = m[i][col] + c * m[j][col]
    return Mat(dom, m)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one input-error line, not the usage text
        raise MatrixParseError(message)


def _integer(text: str) -> int:
    """argparse type: an ASCII decimal integer; argparse names the flag."""
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _bounded(name: str, limit: int):
    """argparse type: a decimal integer in 0..limit."""
    def integer(text: str) -> int:
        value = _integer(text)
        if not 0 <= value <= limit:
            raise argparse.ArgumentTypeError(f"{value} is outside 0..{name} = {limit}")
        return value
    return integer


def _global_flags(**defaults) -> argparse.ArgumentParser:
    # without defaults (a subcommand's copy) a flag given before the
    # subcommand keeps its value
    flags = argparse.ArgumentParser(add_help=False,
                                    argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", action="store_true",
                       help="machine-readable output (byte-stable)")
    flags.add_argument("--no-transform", action="store_true",
                       help="omit transform matrices from the output")
    flags.add_argument("--seed", type=_integer,
                       help="seed for randomized self-tests")
    flags.set_defaults(**defaults)
    return flags


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="canonforms",
        description="Exact canonical forms, invariant factors, and "
                    "matrix-pencil invariants.",
        parents=[_global_flags(json=False, no_transform=False, seed=0)],
    )
    common = _global_flags()
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *file_args):
        p = sub.add_parser(name, parents=[common], help=help_)
        for fa in file_args:
            p.add_argument(fa)
        p.set_defaults(fn=fn)
        return p

    add("smith", _cmd_smith, "Smith form of xI - A with transforms", "matrix")
    add("invfactors", _cmd_invfactors, "invariant factors of xI - A", "matrix")
    add("eldiv", _cmd_eldiv, "elementary divisors of a square matrix", "matrix")
    add("jordan", _cmd_jordan, "Jordan form (refuses when the field is too small)", "matrix")
    add("rcf", _cmd_rcf, "rational canonical form", "matrix")
    add("primary", _cmd_primary, "primary (hypercompanion) form", "matrix")
    add("similar", _cmd_similar, "similarity decision with witness",
        "matrix_a", "matrix_b")
    add("pencil-eldiv", _cmd_pencil_eldiv, "pencil elementary divisors",
        "matrix_p", "matrix_q")
    add("pencil-equiv", _cmd_pencil_equiv, "strict equivalence of pencils",
        "matrix_p", "matrix_q", "matrix_p2", "matrix_q2")
    add("pencil-canon", _cmd_pencil_canon, "canonical pencil pair",
        "matrix_p", "matrix_q")
    kron = sub.add_parser("kron-form", parents=[common],
                          help="elementary bilinear form with determinant identity")
    kron.add_argument("--kind", required=True, choices=["I", "II", "III"])
    kron.add_argument("--size", required=True,
                      type=_bounded("MAX_KRON_SIZE", MAX_KRON_SIZE),
                      help=f"size of the form, at most MAX_KRON_SIZE = {MAX_KRON_SIZE}")
    kron.add_argument("--a", type=_integer, default=None)
    kron.add_argument("--b", type=_integer, default=None)
    kron.set_defaults(fn=_cmd_kron_form)
    add("oscillate", _cmd_oscillate, "small-oscillations mode report",
        "matrix_m", "matrix_k")
    ver = sub.add_parser("verify", parents=[common],
                         help="recompute and check every transform identity")
    ver.add_argument("matrix")
    ver.add_argument("--trials", type=_bounded("MAX_TRIALS", MAX_TRIALS), default=3,
                     help=f"conjugation-invariance trials, at most MAX_TRIALS = {MAX_TRIALS}")
    ver.set_defaults(fn=_cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call: parsing leaves a
    parser unchanged, so one serves every call in a process."""
    return build_parser()


def run(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; prints the report and returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
        code, rep = args.fn(args)
    except SystemExit as exc:   # --help has printed its text
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except MatrixParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SplitFieldRequired, SingularPencilError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except VerificationError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    out.write(rep.emit(args.json, args.no_transform))
    if code == EXIT_VERIFY:
        print(f"internal check failed: {rep.failed}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
