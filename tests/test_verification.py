"""The exact re-checks raise VerificationError, also under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import canonforms.canonical as canonical
import canonforms.pencil as pencil
import canonforms.smith as smith
from canonforms import (
    QQ,
    ZZ,
    Mat,
    Pencil,
    VerificationError,
    jordan_form,
    pencil_equivalent,
    similar,
    smith_form,
)
from canonforms.smith import char_matrix

SRC = Path(__file__).resolve().parent.parent / "src"

# jordan_form with a transform engine that returns the identity: the
# conjugation check must catch it even with assertions compiled out
_WRONG_T_SCRIPT = """
import canonforms.canonical as canonical
from canonforms import QQ, Mat, VerificationError, jordan_form
print("debug", __debug__)
canonical._right_value = lambda q, b: Mat.identity(b.domain, b.rows)
try:
    jordan_form(Mat(QQ, [[1, 1], [0, 2]]))
except VerificationError as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("accepted a wrong transform")
"""


def test_conjugation_check_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_T_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised VerificationError"), proc.stdout


def test_wrong_transform_raises_in_process(monkeypatch):
    monkeypatch.setattr(canonical, "_right_value",
                        lambda q, b: Mat.identity(b.domain, b.rows))
    with pytest.raises(VerificationError):
        jordan_form(Mat(QQ, [[1, 1], [0, 2]]))
    with pytest.raises(VerificationError):
        similar(Mat(QQ, [[1, 1], [0, 2]]), Mat(QQ, [[1, 0], [0, 2]]))


def test_singular_transform_raises(monkeypatch):
    monkeypatch.setattr(canonical, "_right_value",
                        lambda q, b: Mat.zero(b.domain, b.rows, b.cols))
    with pytest.raises(VerificationError, match="degenerated"):
        jordan_form(Mat(QQ, [[1, 1], [0, 2]]))


def _tamper_w(monkeypatch):
    real = smith._smith_reduce

    def reduce_with_bad_w(m, track):
        a, u, v, w = real(m, track)
        if track:
            w[0] = [x + x for x in w[0]]
        return a, u, v, w

    monkeypatch.setattr(smith, "_smith_reduce", reduce_with_bad_w)


def test_tracked_inverse_check_square_full_rank(monkeypatch):
    _tamper_w(monkeypatch)
    with pytest.raises(VerificationError, match="V\\^\\{-1\\}"):
        smith_form(char_matrix(Mat(QQ, [[1, 2], [3, 4]])))


def test_tracked_inverse_check_rank_deficient(monkeypatch):
    _tamper_w(monkeypatch)
    with pytest.raises(VerificationError, match="V\\^\\{-1\\}"):
        smith_form(Mat(ZZ, [[2, 4, 6], [1, 2, 3]]))


def test_smith_identity_check(monkeypatch):
    real = smith._smith_reduce

    def reduce_with_bad_v(m, track):
        a, u, v, w = real(m, track)
        if track:
            v[0] = [x + x for x in v[0]]
        return a, u, v, w

    monkeypatch.setattr(smith, "_smith_reduce", reduce_with_bad_v)
    with pytest.raises(VerificationError, match="U M V = S"):
        smith_form(char_matrix(Mat(QQ, [[1, 2], [3, 4]])))


def test_pencil_witness_check(monkeypatch):
    monkeypatch.setattr(
        pencil, "_strict_equivalence_witness",
        lambda pc1, pc2: (Mat.identity(QQ, 2), Mat.identity(QQ, 2)))
    p1 = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 1], [0, 2]]))
    p2 = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 0], [0, 2]]))
    with pytest.raises(VerificationError, match="pencil witness"):
        pencil_equivalent(p1, p2)


def test_verification_error_is_an_assertion_error():
    assert issubclass(VerificationError, AssertionError)
