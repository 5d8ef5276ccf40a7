"""The output digest gate: every CSV of the fixed command set is byte-identical
to the committed reference, ``tools/output_digests.sha256``.

A change that moves a result on purpose updates that file in the same commit.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_output_matches_reference(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOLS / "output_digests.py"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (TOOLS / "output_digests.sha256").read_text()
