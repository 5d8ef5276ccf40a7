#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 15 s).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs ``run.py`` on the ``smoke`` workload (a generated short-horizon
``simulate`` config) twice with tracing off and twice with it on, and checks
that every metric named in ``BENCHMARK.json`` is emitted with its unit, that
the outputs pass their checks, and that the exact counts repeat between the
two traced runs. It also checks that ``run.py`` fails without printing a
result in a directory that holds only the benchmark's own files, that the
tracer reports every boundary it cannot find, and that a malformed results
row is a failed check rather than a crash.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import EXACT_COUNTS, SRC, WORK, check_outputs  # noqa: E402
from spans import BOUNDARIES, Tracer  # noqa: E402
from workloads import Command  # noqa: E402


def run_driver(cwd: Path, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    counts = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end"),
                           (1, "per_layer")):
        proc = run_driver(ROOT, trace)
        if proc.returncode != 0:
            failures.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            failures.append(f"trace {trace}: run not clean: {proc.stdout}")
        for metric in bench[section]:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"] \
                    or not isinstance(got.get("value"), (int, float)):
                failures.append(f"trace {trace}: {metric['name']} emitted as {got}")
            elif metric["name"] in ("wall_s", "setup_s", "kernel.calls") \
                    and got["value"] <= 0:
                failures.append(f"trace {trace}: {metric['name']} is {got['value']}")
        if trace:
            counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS
                           if k in result["metrics"]})
    if len(counts) == 2 and counts[0] != counts[1]:
        failures.append(f"exact counts differ between traced runs: {counts}")

    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_driver(bare, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    missing = Tracer().install(types.SimpleNamespace())
    if missing != [path for path, _ in BOUNDARIES]:
        failures.append(f"tracer on an empty package reported missing {missing}")

    sys.path.insert(0, str(SRC))
    from fanshift.data_io import RESULTS_HEADER

    bad = Path(tempfile.mkdtemp(prefix="badrow-", dir=WORK))
    try:
        (bad / "r.csv").write_text(",".join(RESULTS_HEADER) + "\nshort,row\n")
        problems, _ = check_outputs(Command([], ["r.csv"], {"r.csv": 1}, {}), bad)
        if not problems:
            failures.append("a short results row passed the output checks")
    except Exception as exc:  # noqa: BLE001 - the crash is what is tested
        failures.append(f"a short results row crashed the checks: {exc!r}")
    finally:
        shutil.rmtree(bad, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
