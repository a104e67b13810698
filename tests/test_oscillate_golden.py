"""Byte identity of the `oscillate` reports and the stability demo script.

The stored reports under tests/golden/osc/ pin `oscillate` (both `--json`
and the human text, which alone carries the degenerate nullspace basis) on
systems that reach every branch of `mode_report`: distinct rational roots
including 0, a repeated root (the nullspace path), irrational roots (the
polynomial adjugate column), a root where column 0 of the adjugate vanishes
so the eigenvector comes from column 1, a 1x1 system, and non-identity mass
matrices with a negative root.  The inputs live in that subdirectory so the
`*.mat` glob of test_golden_json.py does not pick them up.

tests/golden/scripts/stability_verdicts_demo.txt is the stdout of
scripts/stability_verdicts_demo.py; every script under scripts/ must also
exit 0.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_oscillate_golden.py --regen
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from canonforms.cli import run

ROOT = Path(__file__).resolve().parent.parent
OSC = Path(__file__).resolve().parent / "golden" / "osc"
DEMO = Path(__file__).resolve().parent / "golden" / "scripts" / "stability_verdicts_demo.txt"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

SYSTEMS = {
    "i3-chain3": ("i3.mat", str(ROOT / "sample_inputs" / "chain3.mat")),
    "i2-i2": ("i2.mat", "i2.mat"),
    "i2-irrational": ("i2.mat", "k2_irrational.mat"),
    "i3-diag123": ("i3.mat", "k3_diag123.mat"),
    "one-by-one": ("i1_2.mat", "k1_3.mat"),
    "coupled3-inverted": ("m3_coupled.mat", "k3_inverted.mat"),
    "coupled2-inverted": ("m2_coupled.mat", "k2_inverted.mat"),
}
CASES = [(f"{name}{suffix}", name, flags)
         for name in SYSTEMS
         for suffix, flags in ((".json", ["--json"]), (".txt", []))]


def _run(name, flags):
    m, k = (str(OSC / f) for f in SYSTEMS[name])
    buf = io.StringIO()
    code = run(["oscillate"] + flags + [m, k], out=buf)
    return code, buf.getvalue()


def _codes():
    return json.loads((OSC / "exit_codes.json").read_text())


@pytest.mark.parametrize("stored,name,flags", CASES, ids=[c[0] for c in CASES])
def test_oscillate_report_is_byte_identical(stored, name, flags):
    code, text = _run(name, flags)
    assert code == _codes()[stored]
    assert text == (OSC / stored).read_text(encoding="utf-8")


def test_every_case_has_a_stored_report():
    assert sorted(_codes()) == sorted(stored for stored, _, _ in CASES)


def _run_script(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs(path):
    proc = _run_script(path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == DEMO.stem:
        assert proc.stdout == DEMO.read_text(encoding="utf-8")


def _regen():
    codes = {}
    for stored, name, flags in CASES:
        code, text = _run(name, flags)
        codes[stored] = code
        (OSC / stored).write_text(text, encoding="utf-8")
    (OSC / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    proc = _run_script(ROOT / "scripts" / "stability_verdicts_demo.py")
    DEMO.write_text(proc.stdout, encoding="utf-8")
    print(f"wrote {len(codes)} reports to {OSC} and {DEMO.name}")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    _regen()
