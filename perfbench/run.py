#!/usr/bin/env python3
"""Layered benchmark of the fanshift CLI studies.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds the workload's inputs from the seed, then starts the CLI
command in a fresh child process (``child.py``) again and again for
``--seconds``. Every end-to-end metric is the median over the run's
repetitions.

Other tenants of the host slow a repetition by up to a factor of two, in
phases from a fraction of a second to minutes, so raw times of the same code
spread by a third between runs. Each child therefore times a fixed
pure-Python loop right before and right after ``main``, and every time the
run reports is a repetition's time scaled by ``CAL_REF_S`` over that loop's
time (wall time by the loop's wall time, CPU time by its CPU time): the time
the repetition would take on a host that runs the loop in ``CAL_REF_S``.
The raw median of each time is printed beside it and kept in the run record.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  time in ``main``, CPU time, set-up time, peak memory and bytes written.
* ``--trace 1`` alternates untraced and traced repetitions and reports the
  per-layer metrics; the traced ones wrap each layer's public boundary
  (``spans.py``). The layer figures come from the fastest traced
  repetition, and ``trace_overhead_s`` is its wall time minus that of the
  fastest untraced one. A traced repetition in which a boundary is missing
  from the program fails, so an unmeasured layer cannot pass as a zero.

Every repetition writes to a fresh directory under ``.bench_work/`` that is
checked, fingerprinted (SHA-256 of every CSV) and deleted once measured. A
fingerprint that differs from the reference in ``perfbench/baseline.json``
for the same workload and seed is printed next to the metrics. Children
start from an environment without any ``FANSHIFT_*`` variable, so the
process pool and the numba switch stay at their defaults.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A run record with the environment block, each repetition's values
and the fingerprints is written to ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = HERE / "baseline.json"

# counts the program makes exactly; each must repeat between repetitions
EXACT_COUNTS = ("kernel.calls", "kernel.steps", "tune.probes",
                "trace_write.calls", "trace_write.bytes", "event_pair.calls",
                "metrics.calls")
END_TO_END_KEYS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "output_mb")
# Times reported in seconds of a host on which child.calibrate takes
# CAL_REF_S; the median on a 2-vCPU shared cloud host (Python 3.11).
CAL_REF_S = 0.05
# time metric -> the calibration time of the same repetition it is scaled by
NORMALISED_BY = {"wall_s": "cal_wall_s", "cpu_s": "cal_cpu_s",
                 "setup_s": "cal_wall_s"}
MIN_REPS = 3
# a run must end within 180 s; stop starting children well before that
RUN_DEADLINE_S = 170.0

ENV_PROBE = r"""
import importlib, json, os, platform, sys
import numpy
from fanshift import kernels
try:
    importlib.import_module("numba")
    numba = True
except ImportError:
    numba = False
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "jit_enabled": bool(kernels.JIT_ENABLED), "numba_imports": numba,
    "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    "platform": platform.platform()}))
"""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FANSHIFT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_environment(env: dict[str, str]) -> dict:
    """Versions and switches of the measured program; also warms its imports."""
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(command, out: Path) -> tuple[list[str], dict[str, str]]:
    """Output checks of one repetition: files, results round trip, digests."""
    from fanshift import data_io
    from fanshift.errors import DataFormatError

    problems = [f"missing output {name}" for name in command.expected_files
                if not (out / name).is_file()]
    for name, rows in command.results_rows.items():
        try:
            records = data_io.read_results(out / name)
        except (DataFormatError, ValueError, IndexError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(records) != rows:
            problems.append(f"{name}: {len(records)} rows, expected {rows}")
        if not all(math.isfinite(r.e_in_j) and math.isfinite(r.e_out_j)
                   for r in records):
            problems.append(f"{name}: non-finite energies")
    fingerprints = {str(p.relative_to(out)): sha256(p)
                    for p in sorted(out.rglob("*.csv"))}
    return problems, fingerprints


def run_repetition(command, spec_dir: Path, index: int, trace: bool,
                   env: dict[str, str], timeout: float) -> dict:
    """Run the command once in a child process and check what it wrote."""
    out = spec_dir / f"out-{index}"
    spec = spec_dir / f"spec-{index}.json"
    record = spec_dir / f"record-{index}.json"
    spec.write_text(json.dumps({"argv": command.argv + ["--out", str(out)],
                                "setup": command.setup, "trace": trace}))
    rep = {"trace": trace, "problems": []}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               str(spec), str(record)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"child exceeded {timeout:.0f} s")
        shutil.rmtree(out, ignore_errors=True)
        return rep
    if proc.returncode != 0 or not record.is_file():
        rep["problems"].append(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        shutil.rmtree(out, ignore_errors=True)
        return rep

    rep.update(json.loads(record.read_text()))
    if rep["missing_boundaries"]:
        rep["problems"].append("layer boundaries not found, their metrics are "
                               "unmeasured: " + ", ".join(rep["missing_boundaries"]))
    if rep["exit_code"] != 0:
        rep["problems"].append(f"fanshift exited {rep['exit_code']}: "
                               f"{(rep.get('error') or proc.stderr).strip()[-2000:]}")
    problems, rep["fingerprints"] = check_outputs(command, out)
    rep["problems"] += problems
    rep["output_mb"] = sum(p.stat().st_size for p in out.rglob("*")
                           if p.is_file()) / 1e6
    shutil.rmtree(out, ignore_errors=True)
    return rep


def reference_fingerprints(workload: str, seed: int) -> dict[str, str] | None:
    if not BASELINE.is_file():
        return None
    baseline = json.loads(BASELINE.read_text())
    return baseline.get("fingerprints", {}).get(workload, {}).get(str(seed))


def combined_digest(fingerprints: dict[str, str]) -> str:
    text = "".join(f"{name}:{digest}\n" for name, digest in sorted(fingerprints.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "fanshift" / "cli.py").is_file():
        print(f"error: no fanshift sources under {SRC}", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    sys.path.insert(0, str(SRC))

    env = child_env()
    environment = probe_environment(env)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        command = WORKLOADS[args.workload](args.seed, inputs)
        reps: list[dict] = []
        measure_start = time.perf_counter()
        while True:
            now = time.perf_counter()
            done = [r for r in reps if r["trace"] == bool(args.trace)]
            # stop before a repetition that would end past --seconds
            per_rep = (now - measure_start) / len(reps) if reps else 0.0
            if len(done) >= MIN_REPS and now + per_rep - measure_start > args.seconds:
                break
            if now - started >= RUN_DEADLINE_S:
                break
            # a traced run alternates untraced and traced repetitions
            trace = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_repetition(command, work, len(reps), trace, env,
                                       RUN_DEADLINE_S - (now - started)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    reference = None
    for i, rep in enumerate(reps):
        if "fingerprints" in rep:
            if reference is None:
                reference = rep["fingerprints"]
            elif rep["fingerprints"] != reference:
                rep["problems"].append("outputs differ from the first repetition")
        problems += [f"repetition {i}: {p}" for p in rep["problems"]]
    # figures come from the repetitions of each kind that passed their
    # checks, or from every timed one of that kind when none did (the run
    # then reports correct: false)
    timed = [r for r in reps if "wall_s" in r]
    untraced, traced = ([r for r in timed if r["trace"] == kind] for kind in (False, True))
    untraced = [r for r in untraced if not r["problems"]] or untraced
    traced = [r for r in traced if not r["problems"]] or traced
    if not untraced or (args.trace and not traced):
        print("error: too few repetitions produced a record", *problems,
              sep="\n  ", file=sys.stderr)
        return 1
    # value reported, raw median and slowest raw repetition, per metric
    stats: dict[str, tuple[float, float, float]] = {}
    if args.trace:
        for key in EXACT_COUNTS:
            values = [r["layers"][key] for r in traced]
            if len(set(values)) > 1:
                problems.append(f"{key} differs between repetitions: {values}")
        # every layer figure comes from the fastest traced repetition, so
        # they split one wall time
        fastest = min(traced, key=lambda r: r["wall_s"])
        for key, value in fastest["layers"].items():
            values = [r["layers"][key] for r in traced]
            stats[key] = (value, statistics.median(values), max(values))
        overhead = fastest["wall_s"] - min(r["wall_s"] for r in untraced)
        stats["trace_overhead_s"] = (overhead, overhead, overhead)
    else:
        for key in END_TO_END_KEYS:
            raw = [r[key] for r in untraced]
            values = raw
            if key in NORMALISED_BY:
                values = [r[key] * CAL_REF_S / r[NORMALISED_BY[key]]
                          for r in untraced]
            stats[key] = (statistics.median(values), statistics.median(raw),
                          max(raw))

    expected = reference_fingerprints(args.workload, args.seed)
    mismatched = sorted(name for name, digest in (reference or {}).items()
                        if expected is not None and expected.get(name) != digest)

    attempted = len(reps)
    failed = sum(1 for r in reps if r["problems"])
    n_rep = len(traced if args.trace else untraced)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {attempted} ({n_rep} measured, {failed} failed)")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"argv: fanshift {' '.join(command.argv)} --out <dir>")
    if reference is not None:
        print(f"output fingerprint {combined_digest(reference)[:16]} "
              f"({len(reference)} CSV files)")
    if expected is not None:
        print("fingerprint differs from reference: " + ", ".join(mismatched)
              if mismatched else "fingerprint matches reference")
    missing = sorted({b for r in traced for b in r["missing_boundaries"]})
    if missing:
        print("unmeasured layer boundaries: " + ", ".join(missing))
    for problem in problems:
        print(f"FAILED {problem}")

    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in stats:
            print(f"error: metric {name} is not measured", file=sys.stderr)
            return 1
        value, median, slowest = stats[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:28s} {value:14.6g} {unit:6s} "
              f"(raw median {median:.6g}, slowest {slowest:.6g}, n={n_rep})")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment,
              "argv": command.argv, "fingerprints": reference,
              "fingerprint_mismatches": mismatched,
              "missing_boundaries": missing, "problems": problems,
              "repetitions": [{k: v for k, v in r.items() if k != "fingerprints"}
                              for r in reps],
              "metrics": metrics}
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
