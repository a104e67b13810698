"""Byte identity of the `--json` reports on the golden inputs.

The stored reports under tests/golden/ pin `smith`, `rcf`, `primary`,
`jordan` and `similar` on every sample_inputs/*.mat file and on the extra
inputs in tests/golden/*.mat (a conjugated Jordan matrix over Q, so that
`similar` has a nontrivial witness, and a GF(7) matrix whose characteristic
polynomial does not split, so that `jordan` refuses).  Invariants and forms
are unique, so every byte of them stays; a transform T is not, and a new
transform engine may change `transforms.T` alone, after which the stored T
is re-checked here from its bytes (A T = T F with det T != 0).  The whole
set is also replayed under ``python -O``, where the library's checks must
still hold.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_json.py --regen
"""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from canonforms.algebra import scalar_is_zero
from canonforms.cli import parse_matrix, run
from canonforms.matrix import Mat, det

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(ROOT.glob("sample_inputs/*.mat")) + sorted(GOLDEN.glob("*.mat"))
SINGLE = ("smith", "rcf", "primary", "jordan")


def _header(path: Path) -> tuple:
    lines = [ln.split("#")[0].strip() for ln in path.read_text().splitlines()]
    return tuple(ln for ln in lines if ln)[:2]


def _cases():
    out = []
    for path in INPUTS:
        for cmd in SINGLE:
            out.append((f"{cmd}-{path.stem}", [cmd, str(path)]))
    for a in INPUTS:
        for b in INPUTS:
            if _header(a) == _header(b):
                out.append((f"similar-{a.stem}-{b.stem}",
                            ["similar", str(a), str(b)]))
    return out


CASES = _cases()


def _run_json(argv):
    buf = io.StringIO()
    code = run(argv[:1] + ["--json"] + argv[1:], out=buf)
    return code, buf.getvalue()


def _codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_json_report_is_byte_identical(name, argv):
    code, text = _run_json(argv)
    assert code == _codes()[name]
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_case_has_a_stored_report():
    assert sorted(_codes()) == sorted(name for name, _ in CASES)


def _stored_mat(obj, dom):
    """A matrix from its stored `_mat_json` bytes."""
    scalar = Fraction if dom.is_field and dom.characteristic == 0 else int
    flat = [scalar(e) for e in obj["entries"]]
    cols = obj["cols"]
    return Mat(dom, [flat[i:i + cols] for i in range(0, len(flat), cols)])


def test_every_stored_transform_conjugates():
    checked = 0
    for name, argv in CASES:
        report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        transforms = report.get("transforms", {})
        if "T" not in transforms:
            continue
        a = parse_matrix(Path(argv[1]).read_text(encoding="ascii"))
        if argv[0] == "similar":
            f = parse_matrix(Path(argv[2]).read_text(encoding="ascii"))
        else:
            f = _stored_mat(transforms["form"], a.domain)
        t = _stored_mat(transforms["T"], a.domain)
        assert not scalar_is_zero(det(t)), name
        assert a * t == t * f, name
        checked += 1
    # 7 inputs x (rcf, primary), 6 jordan (GF(7) refuses), and 9 similar
    # pairs: each input with itself, and conj_j6_blocks21 with j6_blocks21
    # both ways
    assert checked == 14 + 6 + 9


_REPLAY_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden_json import CASES, _run_json
print(json.dumps({"debug": __debug__,
                  "runs": {name: _run_json(argv) for name, argv in CASES}}))
"""


def test_every_case_replays_byte_identically_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY_SCRIPT, str(GOLDEN.parent)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    # the comparison runs here: the child's asserts are compiled out
    child = json.loads(proc.stdout)
    assert child["debug"] is False
    codes = _codes()
    assert sorted(child["runs"]) == sorted(codes)
    for name, (code, text) in child["runs"].items():
        assert code == codes[name], name
        assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8"), name


def _regen():
    codes = {}
    for name, argv in CASES:
        code, text = _run_json(argv)
        codes[name] = code
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} reports to {GOLDEN}")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    _regen()
