#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it per workload.

Usage, from the root of a checkout:

    python3 perfbench/study.py [--write-baseline]

For every workload of ``BENCHMARK.json`` it runs ``run.py`` for its
``run_seconds`` once per seed of ``SEEDS`` with tracing off and once per
seed of ``TRACED_SEEDS`` with tracing on, then prints every metric by name with
its unit: the median over seeds, the quartiles, the spread (interquartile
range over median) against the metric's bound, and the median of
``perfbench/baseline.json`` beside it. ``--write-baseline`` stores the
summary, the environment and the output fingerprints of every seed there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
RECORDS = ROOT / ".bench_work" / "records"
SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 2]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (RECORDS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED", "fingerprint differs")):
            print(f"    seed {seed}: {line}")
    return result, record


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    previous = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    summary = {"seconds": seconds, "seeds": SEEDS, "traced_seeds": TRACED_SEEDS,
               "end_to_end": {}, "per_layer": {}, "fingerprints": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        print(f"workload {workload}")
        for trace, seeds, section, metrics in (
                (0, SEEDS, "end_to_end", bench["end_to_end"]),
                (1, TRACED_SEEDS, "per_layer", bench["per_layer"])):
            values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
            for seed in seeds:
                result, record = run_once(workload, seed, seconds, trace)
                ok &= result["correct"]
                summary["environment"] = record["environment"]
                summary["fingerprints"].setdefault(workload, {})[str(seed)] = \
                    record["fingerprints"]
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
            table = summary[section][workload] = {}
            before = previous.get(section, {}).get(workload, {})
            for m in metrics:
                row = table[m["name"]] = summarise(values[m["name"]])
                row["unit"] = m["unit"]
                flag = ""
                if "bound" in m:
                    flag = "ok" if row["spread"] <= m["bound"] / 3 else "WIDE"
                    flag = f"spread {row['spread']:.3f} / bound {m['bound']} {flag}"
                base = before.get(m["name"], {}).get("median")
                base = f"baseline {base:.6g}" if base is not None else ""
                print(f"  {m['name']:28s} {row['median']:14.6g} {m['unit']:6s} "
                      f"(q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}) "
                      f"{flag} {base}")
    if args.write_baseline:
        BASELINE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
