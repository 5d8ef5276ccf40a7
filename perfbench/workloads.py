"""The benchmark's workloads: one fanshift CLI study each, built from a seed.

Each workload writes its input files into ``inputs`` and returns a
:class:`Command`: the CLI arguments without ``--out``, the files the command
must write under its output directory, and the row count of each results
CSV. The seed varies inputs that do not change the amount of work (outdoor
step size, event size, setpoint delta), so run time does not depend on it.
Horizons and grids are sized so one command takes about 0.9 to 1.6 s on a
2-vCPU host, which lets a 40 s run repeat it 20 to 30 times.

``compare-models`` (two-state plant, measured-CSV loading and resampling) is
not a workload: its shortest form marches 8 x 42,200 steps at dt = 1 s, 4 to
6 s per command, too few repetitions per run to hold its spread within the
bounds on a shared host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

STUDY_CASES = ("unforced", "forced", "oa_step_predicted",
               "oa_step_unpredicted", "oa_step_prediction_only")
# cases whose predicted and actual outdoor profiles differ, so the study
# marches an extra counterfactual baseline
COUNTERFACTUAL_CASES = ("oa_step_unpredicted", "oa_step_prediction_only")
KINDS = ("UP_DOWN", "DOWN_UP")


@dataclass
class Command:
    argv: list[str]
    expected_files: list[str]
    results_rows: dict[str, int]
    setup: dict  # how child.py builds the first scenario before main runs


def _scenario_setup(mode: str, dt: float, mix_r: float, mix_c: float,
                    event_kind: str = "UP_DOWN") -> dict:
    return {"kind": "scenario", "mode": mode, "dt": dt, "mix_r": mix_r,
            "mix_c": mix_c, "event_kind": event_kind}


# Why: the only forced-settling study with counterfactual marches, and the
# workload where writing traces takes about half the time (24 trace CSVs of
# 2,111 rows next to 24 marches), so vectorised trace I/O shows here.
def settling_study(seed: int, inputs: Path) -> Command:
    rng = random.Random(seed)
    step_f = round(rng.uniform(2.0, 4.0), 3)
    step_offset = 10.0 * rng.randrange(0, 91)
    argv = ["forced-settling", "--dt", "20",
            "--step-f", repr(step_f), "--step-offset", repr(step_offset)]
    files = ["settling_study.csv"]
    for case in STUDY_CASES:
        for kind in KINDS:
            sid = f"{case}_{kind}"
            files += [f"traces/{sid}.csv", f"traces/{sid}_baseline.csv"]
            if case in COUNTERFACTUAL_CASES:
                files.append(f"traces/{sid}_counterfactual.csv")
    return Command(argv, files, {"settling_study.csv": len(STUDY_CASES) * len(KINDS)},
                   _scenario_setup("closed_loop_forced_settling", 20.0, 0.5, 0.3))


# Why: 10 closed-loop grid points, 20 marches and one small results CSV; the
# kernel does nearly all the work and no trace is written, so it is the
# target for march and batching changes and the no-change check for I/O.
def mixing_sweep(seed: int, inputs: Path) -> Command:
    rng = random.Random(seed)
    power_frac = round(rng.uniform(0.08, 0.12), 4)
    kind = KINDS[seed % 2]
    argv = ["sweep-mixing", "--r-grid", "0.2:1.0:0.2", "--c-grid", "0.1,0.3",
            "--window", "both", "--kind", kind, "--power-frac", repr(power_frac),
            "--dt", "10"]
    return Command(argv, ["mixing_sweep.csv"], {"mixing_sweep.csv": 5 * 2 * 2},
                   _scenario_setup("closed_loop", 10.0, 0.1, 0.1, kind))


# Why: the open-loop neutrality tuner, 8 full-horizon marches before the
# event pair; the probe count sets the time, so a better root finder moves
# tune.probes and wall_s here and on no other workload. Setpoint deltas of
# 0.6-0.9 F all take 8 marches at this step size.
def neutral_tune(seed: int, inputs: Path) -> Command:
    rng = random.Random(seed)
    d1 = round(rng.uniform(0.6, 0.9), 3)
    sid = "open_loop_gta"
    config = inputs / "open_loop_gta.yaml"
    config.write_text(
        f"scenario_id: {sid}\n"
        "mode: open_loop\n"
        "dt_s: 8.0\n"
        "warmup_s: 7200\n"
        "settle_duration_s: 35000\n"
        "building:\n  mix_r: 0.3\n  mix_c: 0.1\n"
        "event:\n  kind: DOWN_UP\n  half_duration_s: 1800\n"
        f"  setpoint_deltas_f: [{d1!r}, {-d1!r}]\n")
    argv = ["simulate", "--config", str(config), "--tune-neutral"]
    files = [f"{sid}_event.csv", f"{sid}_baseline.csv", f"{sid}_metrics.csv"]
    return Command(argv, files, {f"{sid}_metrics.csv": 1},
                   {"kind": "config", "path": str(config)})


# Harness self-test only (not in BENCHMARK.json): a short-horizon
# closed-loop simulate config, about 0.1 s per command.
def smoke(seed: int, inputs: Path) -> Command:
    rng = random.Random(seed)
    frac = round(rng.uniform(0.08, 0.12), 4)
    sid = "smoke"
    config = inputs / "smoke.yaml"
    config.write_text(
        f"scenario_id: {sid}\n"
        "mode: closed_loop\n"
        "dt_s: 2.0\n"
        "warmup_s: 1800\n"
        "settle_duration_s: 7200\n"
        "building:\n  mix_r: 0.5\n  mix_c: 0.3\n"
        "event:\n  kind: UP_DOWN\n  half_duration_s: 900\n"
        f"  power_delta_frac: {frac!r}\n")
    argv = ["simulate", "--config", str(config), "--window", "both"]
    files = [f"{sid}_event.csv", f"{sid}_baseline.csv", f"{sid}_metrics.csv"]
    return Command(argv, files, {f"{sid}_metrics.csv": 2},
                   {"kind": "config", "path": str(config)})


WORKLOADS = {
    "settling_study": settling_study,
    "mixing_sweep": mixing_sweep,
    "neutral_tune": neutral_tune,
    "smoke": smoke,
}
