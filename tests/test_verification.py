"""The exact re-checks raise VerificationError, also under ``python -O``."""

import ast
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import canonforms.canonical as canonical
import canonforms.cli as cli
import canonforms.matrix as matrix
import canonforms.pencil as pencil
import canonforms.smith as smith
from canonforms import (
    GF,
    QQ,
    HomogeneousPoint,
    Mat,
    Pencil,
    Poly,
    VerificationError,
    jordan_form,
    pencil_equivalent,
    similar,
    smith_form,
)
from canonforms.smith import char_matrix

SRC = Path(__file__).resolve().parent.parent / "src"

# jordan_form with a chain builder that returns the identity, then the zero
# matrix: the A T = T F and det T != 0 checks must catch both even with
# assertions compiled out
_WRONG_T_SCRIPT = """
import canonforms.canonical as canonical
from canonforms import QQ, Mat, VerificationError, jordan_form
print("debug", __debug__)
for name, fake in (("wrong", Mat.identity(QQ, 2)), ("singular", Mat.zero(QQ, 2, 2))):
    canonical._krylov_transform = lambda a, pieces: fake
    try:
        jordan_form(Mat(QQ, [[1, 1], [0, 2]]))
    except VerificationError as exc:
        print("raised", name, exc)
    else:
        print("accepted", name)
"""


def test_conjugation_check_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_T_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "raised wrong transform fails A T = T F",
        "raised singular transform degenerated: det T = 0"], proc.stdout


def test_wrong_transform_raises_in_process(monkeypatch):
    monkeypatch.setattr(canonical, "_krylov_transform",
                        lambda a, pieces: Mat.identity(a.domain, a.rows))
    with pytest.raises(VerificationError, match="A T = T F"):
        jordan_form(Mat(QQ, [[1, 1], [0, 2]]))
    with pytest.raises(VerificationError, match="A T = T F"):
        similar(Mat(QQ, [[1, 1], [0, 2]]), Mat(QQ, [[1, 0], [0, 2]]))


def test_singular_transform_raises(monkeypatch):
    monkeypatch.setattr(canonical, "_krylov_transform",
                        lambda a, pieces: Mat.zero(a.domain, a.rows, a.cols))
    with pytest.raises(VerificationError, match="degenerated"):
        jordan_form(Mat(QQ, [[1, 1], [0, 2]]))
    with pytest.raises(VerificationError, match="degenerated"):
        similar(Mat(QQ, [[1, 1], [0, 2]]), Mat(QQ, [[1, 0], [0, 2]]))


def test_smith_identity_check(monkeypatch):
    real = smith._smith_reduce

    def reduce_with_bad_v(m, track):
        a, u, v = real(m, track)
        if track:
            v[0] = [x + x for x in v[0]]
        return a, u, v

    monkeypatch.setattr(smith, "_smith_reduce", reduce_with_bad_v)
    with pytest.raises(VerificationError, match="U M V = S"):
        smith_form(char_matrix(Mat(QQ, [[1, 2], [3, 4]])))


def test_pencil_witness_check(monkeypatch):
    monkeypatch.setattr(pencil, "similar",
                        lambda a, b: (True, Mat.identity(QQ, 2)))
    p1 = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 1], [0, 2]]))
    p2 = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 0], [0, 2]]))
    with pytest.raises(VerificationError, match="pencil witness"):
        pencil_equivalent(p1, p2)


def test_verification_error_is_an_assertion_error():
    assert issubclass(VerificationError, AssertionError)


# pencil_divisors with shifted divisors whose degrees sum to n + 1: the
# explicit check must catch it even with assertions compiled out
_BAD_DIAGONAL_SCRIPT = """
from dataclasses import replace
import canonforms.pencil as pencil
from canonforms import QQ, Mat, Pencil, VerificationError, pencil_divisors
print("debug", __debug__)
real = pencil.divisor_data
def padded(a):
    dd = real(a)
    (base, e), *rest = dd.elementary_divisors
    return replace(dd, elementary_divisors=((base, e + 1), *rest))
pencil.divisor_data = padded
try:
    pencil_divisors(Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 1], [0, 2]])))
except VerificationError as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("accepted a wrong divisor count")
"""


def test_pencil_degree_check_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_DIAGONAL_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1] == ("raised VerificationError divisor degrees must sum "
                        "to n"), proc.stdout


# the nested kernels with a kernel basis that drops its last vector at every
# level: the kernel-count check must raise, also with assertions compiled
# out, and the CLI must exit 3 with one line
_SHORT_NULLSPACE_SCRIPT = """
import sys
import canonforms.cli as cli
import canonforms.smith as smith
from canonforms import QQ, Mat, VerificationError, divisor_data
real = smith._kernel_basis
smith._kernel_basis = lambda red, piv_cols: real(red, piv_cols)[:-1]
print("debug", __debug__)
try:
    divisor_data(Mat(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 2]]))
except VerificationError as exc:
    print("raised", exc)
else:
    print("accepted short kernels")
for command in ("eldiv", "rcf", "similar"):
    files = [sys.argv[1]] * (2 if command == "similar" else 1)
    print(command, "exit", cli.run([command, *files]))
"""


def test_kernel_count_check_survives_python_O(tmp_path):
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 1\n0 2\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHORT_NULLSPACE_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "raised kernel counts of (x-2)(A)^j: nullities [1, 2, 2] disagree with "
        "multiplicity 3 in the characteristic polynomial",
        "eldiv exit 3", "rcf exit 3", "similar exit 3"], proc.stdout
    line = ("internal check failed: kernel counts of (x-1)(A)^j: nullities [0] "
            "disagree with multiplicity 1 in the characteristic polynomial\n")
    assert proc.stderr == line * 3


# the generator picks with a pivot list that loses its last pivot: the
# pick-count check must raise, also with assertions compiled out, and the
# CLI must exit 3 with one line
_LOST_PIVOT_SCRIPT = """
import sys
import canonforms.canonical as canonical
import canonforms.cli as cli
real = canonical._pivot_columns
def lost_pivot(m):
    return real(m)[:-1]
canonical._pivot_columns = lost_pivot
print("debug", __debug__)
print("rcf exit", cli.run(["rcf", sys.argv[1]]))
"""


def test_generator_pick_check_survives_python_O(tmp_path):
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 1\n0 2\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LOST_PIVOT_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "rcf exit 3"], proc.stdout
    assert proc.stderr == ("internal check failed: kernel generators of (x-1)(A): "
                           "0 at level 1, 1 expected\n")


_PENCIL = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 1], [0, 2]]))


def test_pencil_det_checks(monkeypatch):
    real = pencil.det
    calls = []

    def second_poly_off(m):
        d = real(m)
        calls.append(m)
        return d + 1 if len(calls) == 2 else d

    monkeypatch.setattr(pencil, "det", second_poly_off)
    with pytest.raises(VerificationError, match="dehomogenizations"):
        pencil.pencil_det(_PENCIL)
    monkeypatch.setattr(pencil, "det",
                        lambda m: real(m) + (1 if m.domain is QQ else 0))
    with pytest.raises(VerificationError, match="evaluation mismatch"):
        pencil.pencil_det(_PENCIL)


# diag(1, 1, 0) u + diag(0, 1, 1) v over GF(2): P, P + Q and Q are all
# singular, so no parameter shift exists
_UNSHIFTABLE = Pencil(Mat(GF(2), [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                      Mat(GF(2), [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_pencil_infinity_bookkeeping_check(monkeypatch):
    real = pencil.det
    monkeypatch.setattr(pencil, "det", lambda m: real(m).shift(1))
    with pytest.raises(VerificationError, match="infinity bookkeeping"):
        pencil.pencil_divisors(_PENCIL)


def test_pencil_divisor_product_check(monkeypatch):
    # a mapped-back point moved by one keeps every degree and the count at
    # infinity, so only fx = lc(fx) prod b^e can catch it
    real = pencil._unshift

    def moved(base, coords):
        point = real(base, coords)
        return HomogeneousPoint.of(point.domain, point.a + 1, point.b)

    monkeypatch.setattr(pencil, "_unshift", moved)
    with pytest.raises(VerificationError, match="multiply to det"):
        pencil.pencil_divisors(_PENCIL)


def test_canonical_pencil_self_test(monkeypatch):
    inv = pencil.pencil_divisors(_PENCIL)
    monkeypatch.setattr(pencil, "pencil_divisors",
                        lambda pc: replace(inv, divisors=inv.divisors[:1]))
    with pytest.raises(VerificationError, match="self-test"):
        pencil.canonical_pencil(inv)


def test_mat_inverse_identity_check(monkeypatch):
    real = matrix.rref

    def doubled(m):
        red, piv = real(m)
        return Mat(m.domain, [[x + x for x in row] for row in red.entries]), piv

    monkeypatch.setattr(matrix, "rref", doubled)
    with pytest.raises(VerificationError, match="identity"):
        matrix.mat_inverse(Mat(QQ, [[1, 2], [3, 4]]))


# Every check in the library raises VerificationError explicitly: no
# `assert` statement (gone under python -O) and no bare AssertionError.
_ASSERT_ALLOWLIST = {}


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _asserts_by_function(path):
    found = {}

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Assert) or (
                    isinstance(child, ast.Raise) and child.exc is not None
                    and _raises_assertion_error(child)):
                key = (path.name, owner)
                found[key] = found.get(key, 0) + 1
            walk(child, owner)

    walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_assert_statements_outside_the_allowlist():
    found = {}
    for path in sorted((SRC / "canonforms").glob("*.py")):
        found.update(_asserts_by_function(path))
    assert found == _ASSERT_ALLOWLIST


def test_lint_counts_asserts_and_bare_assertion_errors(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(x):\n    assert x\n    raise AssertionError('no')\n"
                    "def g():\n    raise AssertionError\n"
                    "def h():\n    raise VerificationError('fine')\n",
                    encoding="utf-8")
    assert _asserts_by_function(path) == {("mod.py", "f"): 2, ("mod.py", "g"): 1}


# Every top-level function and class in the library has a user in the
# library: a reference in its own module outside its own body, or a
# relative import of its name in another module (__init__.py is the public
# API).  A bare name in another module does not count: a local variable or
# an attribute there is not a use of the definition.
def _unreferenced_definitions(package):
    defs, uses = set(), {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defs.add((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names, where = [node.id], path.name
                elif isinstance(node, ast.Attribute):
                    names, where = [node.attr], path.name
                elif isinstance(node, ast.ImportFrom) and node.level:
                    names, where = [a.name for a in node.names], None
                else:
                    continue
                for name in names:
                    uses.setdefault(name, set()).add((where, owner))

    def used(fname, name):
        return any(where is None or (where == fname and user != name)
                   for where, user in uses.get(name, ()))

    return sorted(d for d in defs if not used(*d))


def test_every_library_definition_has_a_library_user():
    assert _unreferenced_definitions(SRC / "canonforms") == []


def test_lint_finds_definitions_only_tests_could_use(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n", encoding="utf-8")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Unused:\n    pass\n"
        "def shadowed(m):\n    return 0\n", encoding="utf-8")
    # a same-named local variable and attribute in another module are not uses
    (tmp_path / "other.py").write_text(
        "from .mod import exported\n"
        "def g(x):\n    shadowed = x.shadowed\n    return exported(shadowed)\n",
        encoding="utf-8")
    assert _unreferenced_definitions(tmp_path) == [("mod.py", "Unused"),
                                                   ("mod.py", "recursive"),
                                                   ("mod.py", "shadowed"),
                                                   ("other.py", "g")]


# smith.py tells Z from F[x] in one place: an isinstance test against
# IntegerRing or PolynomialRing may appear only in _ops_for
def _ring_tests_by_function(path):
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and any(isinstance(n, ast.Name)
                            and n.id in ("IntegerRing", "PolynomialRing")
                            for n in ast.walk(child.args[1]))):
                found.add(owner)
            walk(child, owner)

    walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_smith_decides_the_ring_only_in_ops_for():
    assert _ring_tests_by_function(SRC / "canonforms" / "smith.py") == {"_ops_for"}


def test_lint_finds_ring_tests(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(d):\n    return isinstance(d, IntegerRing)\n"
                    "def g(d):\n    return isinstance(d, (Poly, PolynomialRing))\n"
                    "def h(d):\n    return isinstance(d, IntegerRing | str)\n"
                    "def k(p):\n    return isinstance(p, Poly)\n",
                    encoding="utf-8")
    assert _ring_tests_by_function(path) == {"f", "g", "h"}


# cli.py decides once whether a transform is shown: `run` reads the flag
# and hands it to `_Report.emit`, and no command reads it
def _no_transform_reads(path):
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "no_transform"
                    or isinstance(child, ast.Name) and child.id == "no_transform"):
                found.add(owner)
            walk(child, owner)

    walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_cli_applies_no_transform_only_in_the_report():
    assert _no_transform_reads(SRC / "canonforms" / "cli.py") <= {"run", "_Report.emit"}


def test_lint_finds_no_transform_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def run(args):\n    return args.no_transform\n"
                    "class R:\n    def emit(self, no_transform):\n"
                    "        return no_transform\n"
                    "def factory():\n    def cmd(args):\n"
                    "        return not args.no_transform\n    return cmd\n"
                    "def parser():\n    return dict(no_transform=False)\n",
                    encoding="utf-8")
    assert _no_transform_reads(path) == {"run", "R.emit", "factory.cmd"}


# oscillations.py works over Q alone: it names neither the builder of
# x P + Q nor the polynomial ring, and the cofactor column of the route over
# Q[x] is gone from matrix.py
def _names_used(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _names_defined(path):
    return {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_oscillations_builds_no_polynomial_matrix():
    assert _names_used(SRC / "canonforms" / "oscillations.py") & {
        "_linear_pencil", "PolynomialRing"} == set()
    assert "_adjugate_column" not in _names_defined(SRC / "canonforms" / "matrix.py")


# one integer elimination: det runs through _gauss_jordan like rref, and
# canonical.py reads pivots through matrix._pivot_columns, so it clears no
# denominators itself
def test_one_integer_elimination_serves_det_and_pivots():
    assert _names_defined(SRC / "canonforms" / "matrix.py") & {
        "_det_bareiss", "_exact_div"} == set()
    assert _names_used(SRC / "canonforms" / "canonical.py") & {
        "rref", "_cleared", "RationalField", "Fraction"} == set()


# pencil.py reduces over F[x] only on Kronecker's route, which runs when no
# regular shift exists
def _call_owners(path, name):
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(owner)
            walk(child, owner)

    walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_pencil_reduces_over_fx_only_without_a_shift():
    path = SRC / "canonforms" / "pencil.py"
    assert _call_owners(path, "smith_diagonal") == {"_smith_pencil_divisors"}
    assert _call_owners(path, "smith_form") == set()


def test_lint_finds_call_owners(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import smith\nx = smith.smith_diagonal(1)\n"
                    "def f(m):\n    return [smith_diagonal(r) for r in m]\n"
                    "class C:\n    def g(self):\n        return smith_diagonal\n",
                    encoding="utf-8")
    assert _call_owners(path, "smith_diagonal") == {None, "f"}


def test_lint_finds_polynomial_matrix_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .matrix import Mat, _linear_pencil\n"
                    "import canonforms.matrix\n"
                    "def f(m):\n    return canonforms.matrix.PolynomialRing(m)\n"
                    "class C:\n    def _adjugate_column(self):\n        pass\n",
                    encoding="utf-8")
    assert {"_linear_pencil", "PolynomialRing", "matrix"} <= _names_used(path)
    assert _names_defined(path) == {"f", "C", "_adjugate_column"}


# algebra.py runs gcd, square-free decomposition and factor on one kernel of
# integer coefficient lists: the kernel functions (_gfp_*, _zx_*) name no
# Poly, GFElement or Fraction, and factor, squarefree_decompose and poly_gcd
# each reach the kernel through the module's own calls
_KERNEL_ENTRIES = ("factor", "squarefree_decompose", "poly_gcd")


def _kernel_report(path):
    """(kernel functions, those naming a scalar or Poly class, entries that
    reach the kernel)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
             for name, node in funcs.items()}
    kernel = {name for name in funcs if name.startswith(("_gfp_", "_zx_"))}
    leaks = {name for name in kernel if names[name] & {"Poly", "GFElement", "Fraction"}}

    def reaches(name):
        seen, todo = set(), [name]
        while todo:
            cur = todo.pop()
            if cur in kernel:
                return True
            if cur not in seen and cur in funcs:
                seen.add(cur)
                todo.extend(names[cur])
        return False

    return kernel, leaks, {name for name in _KERNEL_ENTRIES if reaches(name)}


def test_gcd_squarefree_and_factor_run_on_the_list_kernel():
    kernel, leaks, entries = _kernel_report(SRC / "canonforms" / "algebra.py")
    assert {"_gfp_gcd", "_zx_gcd", "_zx_squarefree", "_zx_factor"} <= kernel
    assert leaks == set()
    assert entries == set(_KERNEL_ENTRIES)


def test_lint_finds_kernel_leaks_and_entries(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def _zx_ok(a):\n    return [c for c in a]\n"
                    "def _gfp_bad(a):\n    return Poly(a)\n"
                    "def _zx_attr(a):\n    return a.Fraction\n"
                    "def helper(f):\n    return _zx_ok(f)\n"
                    "def factor(f):\n    return helper(f)\n"
                    "def poly_gcd(f, g):\n    return Poly(f)\n"
                    "def squarefree_decompose(f):\n"
                    "    def inner():\n        return _gfp_bad(f)\n    return inner()\n",
                    encoding="utf-8")
    assert _kernel_report(path) == ({"_zx_ok", "_gfp_bad", "_zx_attr"},
                                    {"_gfp_bad", "_zx_attr"},
                                    {"factor", "squarefree_decompose"})


# ---------------------------------------------------------------------------
# exit code 3: a failed internal check reaches the CLI user as one line


def test_cli_verify_with_a_tampered_ledger_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 1\n0 2\n", encoding="utf-8")
    real = cli._kernel_ledger
    monkeypatch.setattr(cli, "_kernel_ledger",
                        lambda a, exponents: replace(real(a, exponents), rank=0))
    assert cli.run(["verify", "--json", str(path)]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["invariants"]["all_passed"] is False
    assert report["verified"] is False
    assert ["kernel-route ledger matches Smith ledger", False] in report["invariants"]["checks"]
    assert err == ("internal check failed: kernel-route ledger matches Smith "
                   "ledger\n")
    # the text report is printed too, with the failed check marked
    assert cli.run(["verify", str(path)]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert "FAIL  kernel-route ledger matches Smith ledger" in out.splitlines()
    assert err.count("\n") == 1


def test_cli_kron_form_mismatch_exits_3(monkeypatch, capsys):
    real = cli.pencil_det
    monkeypatch.setattr(cli, "pencil_det", lambda pc: real(pc) * 2)
    assert cli.run(["kron-form", "--json", "--kind", "I", "--size", "3"]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert json.loads(out)["invariants"]["match"] == "MISMATCH"
    assert err == ("internal check failed: det(uM + vM^T) matches the expected "
                   "determinant\n")


def test_pencil_sides_of_different_rank_raise(monkeypatch):
    # x -> 1/y keeps the rank, so a rank that differs between x P + Q and
    # P + y Q is a reduction bug, not a singular pencil; the GF(2) pencil
    # has no regular shift, so it takes the Smith route
    real = pencil.smith_diagonal
    calls = []

    def zero_last_on_the_y_side(m):
        calls.append(m)
        diag = real(m)
        return diag if len(calls) == 1 else diag[:-1] + [Poly.zero(diag[-1].domain)]

    monkeypatch.setattr(pencil, "smith_diagonal", zero_last_on_the_y_side)
    with pytest.raises(VerificationError, match="differ in rank"):
        pencil.pencil_divisors(_UNSHIFTABLE)


def test_cli_failed_check_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 2\n3 4\n", encoding="utf-8")
    real = smith._smith_reduce

    def wrong_u(m, track):
        a, u, v = real(m, track)
        return a, [[e + e for e in row] for row in u] if track else u, v

    monkeypatch.setattr(smith, "_smith_reduce", wrong_u)
    assert cli.run(["smith", str(path)]) == cli.EXIT_VERIFY == 3
    err = capsys.readouterr().err
    assert err == "internal check failed: Smith reduction identity U M V = S violated\n"


@pytest.mark.parametrize("command", ["rcf", "primary", "jordan", "similar"])
def test_cli_tampered_generator_exits_3(monkeypatch, tmp_path, capsys, command):
    # a generator that spans nothing is a library bug, not a decision, so it
    # must surface as a failed check rather than a traceback
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 1\n0 2\n", encoding="utf-8")
    calls = []

    def zero(a, base, m, kernels, exps):
        calls.append(base)
        return [(e, Mat.zero(a.domain, a.rows, 1)) for e in exps]

    monkeypatch.setattr(canonical, "_generators", zero)
    files = [str(path)] * (2 if command == "similar" else 1)
    assert cli.run([command, *files]) == cli.EXIT_VERIFY
    assert calls
    err = capsys.readouterr().err
    assert err == "internal check failed: transform degenerated: det T = 0\n"


_WRONG_U_CLI_SCRIPT = """
import sys
import canonforms.cli as cli
import canonforms.smith as smith
real = smith._smith_reduce
def wrong(m, track):
    a, u, v = real(m, track)
    return a, [[e + e for e in row] for row in u] if track else u, v
smith._smith_reduce = wrong
print("debug", __debug__)
print("exit", cli.run(sys.argv[1:]))
"""


def test_cli_failed_check_exits_3_under_python_O(tmp_path):
    path = tmp_path / "a.mat"
    path.write_text("FIELD Q\nROWS 2 COLS 2\n1 2\n3 4\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_U_CLI_SCRIPT, "smith", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "exit 3"]
    assert proc.stderr == ("internal check failed: Smith reduction identity "
                           "U M V = S violated\n")
