"""The output digest gate: every CSV of the fixed command set is byte-identical
to the committed reference, ``tools/output_digests.sha256``.

A change that moves a result on purpose updates that file in the same commit.
The same run also gates reading a trace back: one trace file of each command
reads with ``read_trace`` on the step it was written with, finds its samples
on its grid, and re-writes to the same bytes.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fanshift import data_io

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# (trace file, the step of the command that wrote it): grids from zero at
# dt 1 and 20, a grid cut from t = 5400 s, and a measured file's epoch clock
READ_BACK = [
    ("sim_forced_settling_oa_error/forced_settling_oa_error_counterfactual.csv", 1.0),
    ("tune/open_loop_gta_event.csv", 1.0),
    ("fs/traces/oa_step_unpredicted_DOWN_UP.csv", 20.0),
    ("cmp/mixing_DOWN_UP.csv", 1.0),
    ("measured/measured.csv", 10.0),
]


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One run of the digest script: its completed process and output root."""
    out = tmp_path_factory.mktemp("digests") / "out"
    done = subprocess.run(
        [sys.executable, str(TOOLS / "output_digests.py"), str(out)],
        capture_output=True, text=True, timeout=300)
    return done, out


def test_every_output_matches_reference(digest_run):
    done, _ = digest_run
    assert done.returncode == 0, done.stderr
    assert done.stdout == (TOOLS / "output_digests.sha256").read_text()


@pytest.mark.parametrize("name, dt", READ_BACK, ids=[name for name, _ in READ_BACK])
def test_trace_reads_back(digest_run, tmp_path, name, dt):
    done, out = digest_run
    assert done.returncode == 0, done.stderr
    path = out / name
    trace = data_io.read_trace(path)
    assert trace.dt == dt
    for k in np.unique(np.linspace(0, trace.n_samples - 1, 101).astype(int)):
        assert trace.index_at(float(trace.t[k])) == k
    data_io.write_trace(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
