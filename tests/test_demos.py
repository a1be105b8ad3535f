"""Every demo prints exactly its golden output in tests/golden/, and nothing else.

The golden files hold the demos' recorded stdout, so a demo whose output
changes by one byte fails here.  Each demo runs with every warning turned
into an error and must leave stderr empty.  To accept an intended change, re-record
with `python demos/<name>.py > tests/golden/<name>.txt` and say why in the
change description.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_every_demo_has_a_golden_file():
    # cli_reports.txt and sweep_answers.txt belong to test_cli_golden.py and
    # test_acceptance.py, not to a demo.
    demo_files = sorted(p.stem for p in GOLDEN.glob("*.txt")
                        if p.stem not in ("cli_reports", "sweep_answers"))
    assert [d.stem for d in DEMOS] == demo_files
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_byte_identical(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
