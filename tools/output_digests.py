#!/usr/bin/env python3
"""SHA-256 of every CSV a fixed set of fanshift commands writes.

Usage, from the root of a checkout:

    python3 tools/output_digests.py OUT_DIR

Runs the commands below with the checkout's own ``src/`` into
subdirectories of ``OUT_DIR`` (which must be new or empty) and prints one
``sha256  path`` line per CSV, sorted by path relative to ``OUT_DIR``. Run
it on two checkouts and diff the outputs to show that a change leaves every
result byte-identical.

* ``sim_<stem>``: ``simulate --window both`` on each ``configs/*.yaml``;
* ``tune``: ``simulate --tune-neutral`` on ``configs/open_loop_gta.yaml``;
* ``fs``: ``forced-settling --dt 20``;
* ``sweep``: ``sweep-mixing --r-grid 0.2:1.0:0.2 --c-grid 0.1,0.3 --dt 10``;
* ``cmp``: ``compare-models`` at its default dt of 1 s.

Exits 1 when any command exits non-zero. Takes about 20 s on one core.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fanshift import cli  # noqa: E402


def commands(out: Path) -> list[list[str]]:
    configs = ROOT / "configs"
    cmds = [["simulate", "--config", str(path), "--window", "both",
             "--out", str(out / f"sim_{path.stem}")]
            for path in sorted(configs.glob("*.yaml"))]
    cmds += [
        ["simulate", "--config", str(configs / "open_loop_gta.yaml"),
         "--tune-neutral", "--out", str(out / "tune")],
        ["forced-settling", "--dt", "20", "--out", str(out / "fs")],
        ["sweep-mixing", "--r-grid", "0.2:1.0:0.2", "--c-grid", "0.1,0.3",
         "--dt", "10", "--out", str(out / "sweep")],
        ["compare-models", "--out", str(out / "cmp")],
    ]
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py OUT_DIR", file=sys.stderr)
        return 1
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    for cmd in commands(out):
        code = cli.main(cmd)
        if code != 0:
            print(f"exit {code}: {' '.join(cmd)}", file=sys.stderr)
            return 1
    for path in sorted(out.rglob("*.csv")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
