#!/usr/bin/env python3
"""SHA-256 of every CSV a fixed set of fanshift commands writes.

Usage, from the root of a checkout:

    python3 tools/output_digests.py OUT_DIR

Runs the commands below with the checkout's own ``src/`` into
subdirectories of ``OUT_DIR`` (which must be new or empty) and prints one
``sha256  path`` line per CSV, sorted by path relative to ``OUT_DIR``.

* ``sim_<stem>``: ``simulate --window both`` on each ``configs/*.yaml``;
* ``tune``: ``simulate --tune-neutral`` on ``configs/open_loop_gta.yaml``;
* ``fs``: ``forced-settling --dt 20``;
* ``fs_both``: ``forced-settling --dt 20 --window both --step-offset 600``;
* ``sweep``: ``sweep-mixing --r-grid 0.2:1.0:0.2 --c-grid 0.1,0.3 --dt 10``;
* ``cmp``: ``compare-models`` at its default dt of 1 s;
* ``measured``: ``compare-models --dt 10`` with a measured CSV and window,
  read from ``inputs/measured_site.csv``, which this script writes first.

``tools/output_digests.sha256`` holds the lines this checkout prints. To
check that a change leaves every result byte-identical, run

    python3 tools/output_digests.py OUT_DIR | diff tools/output_digests.sha256 -

which prints nothing when every digest matches. A change that moves a result
on purpose updates that file in the same commit.

Exits 1 when any command exits non-zero. Takes 2.4-3.3 s whether the sweep
and the settling study fork or run under ``taskset -c 0`` (three runs each
on a 2-vCPU shared cloud host, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import hashlib
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fanshift import cli  # noqa: E402


# the synthetic measured file: a row a minute over 6 h with a few seconds of
# clock jitter, a +-0.5 kW event 2 h in, and one unparseable row (1 of 361 is
# within the 1% reject threshold)
MEASURED_T0 = 1719835200  # 2024-07-01T12:00:00Z
MEASURED_WINDOW = (MEASURED_T0 + 7200, MEASURED_T0 + 10800, MEASURED_T0 + 18000)


def write_measured(path: Path) -> None:
    """A measured fan-power CSV with ISO ``Z`` timestamps, kW and degF."""
    t_start, t_end, _ = MEASURED_WINDOW
    t_half = (t_start + t_end) // 2
    lines = ["ts,fan_kw,zone_f"]
    for i in range(361):
        t = MEASURED_T0 + 60 * i + (7 * i) % 13
        event = 0.0 if not t_start <= t < t_end else 0.5 if t < t_half else -0.5
        kw = "n/a" if i == 100 else f"{5.0 + 0.2 * math.sin(i / 40.0) + event:.4f}"
        zone = 71.0 + 0.3 * math.cos(i / 25.0) - event
        stamp = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"{stamp},{kw},{zone:.3f}")
    path.write_text("\n".join(lines) + "\n")


def commands(out: Path) -> list[list[str]]:
    """The command lines to run; writes the measured input file first."""
    configs = ROOT / "configs"
    measured = out / "inputs" / "measured_site.csv"
    measured.parent.mkdir(parents=True)
    write_measured(measured)
    cmds = [["simulate", "--config", str(path), "--window", "both",
             "--out", str(out / f"sim_{path.stem}")]
            for path in sorted(configs.glob("*.yaml"))]
    cmds += [
        ["simulate", "--config", str(configs / "open_loop_gta.yaml"),
         "--tune-neutral", "--out", str(out / "tune")],
        ["forced-settling", "--dt", "20", "--out", str(out / "fs")],
        ["forced-settling", "--dt", "20", "--window", "both", "--step-offset", "600",
         "--out", str(out / "fs_both")],
        ["sweep-mixing", "--r-grid", "0.2:1.0:0.2", "--c-grid", "0.1,0.3",
         "--dt", "10", "--out", str(out / "sweep")],
        ["compare-models", "--out", str(out / "cmp")],
        ["compare-models", "--dt", "10", "--measured", str(measured),
         "--column-map", "time=ts,power=fan_kw:kW,temp=zone_f:F",
         "--measured-window", ",".join(map(str, MEASURED_WINDOW)),
         "--out", str(out / "measured")],
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
