"""Run one fanshift CLI command in this process and time it.

Usage: child.py SPEC_JSON RECORD_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``setup`` (how to build the
first scenario before ``main`` runs: load the config file, or construct the
``Scenario``) and ``trace`` (wrap the layer boundaries or not). The record
written to RECORD_JSON holds the exit code, the timings and, when traced,
the per-layer metrics. ``run.py`` starts this script once per repetition so
every command runs in a fresh interpreter.

Right before and right after ``main`` the child times a fixed pure-Python
loop that does not touch fanshift (``calibrate``). Its wall and CPU times
measure how fast the shared host runs at that moment; ``run.py`` divides the
command's times by them.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_s() -> float:
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


CAL_LOOPS = 600_000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed float loop (median 0.05 s, see run.CAL_REF_S)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    x = 0.0
    for i in range(CAL_LOOPS):
        x = x * 0.5 + i
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _setup(fanshift, setup: dict) -> None:
    """Build the command's first scenario the way a library caller would."""
    from fanshift import data_io

    if setup["kind"] == "config":
        data_io.load_scenario_config(setup["path"])
    else:
        fanshift.Scenario(
            params=fanshift.BuildingParams().with_mixing(setup["mix_r"],
                                                         setup["mix_c"]),
            event=fanshift.EventSchedule(kind=setup["event_kind"],
                                         power_delta_frac=0.10),
            mode=setup["mode"], dt=setup["dt"])


def main() -> int:
    spec_path, record_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)

    import fanshift
    import fanshift.cli as cli

    config_start = time.perf_counter()
    _setup(fanshift, spec["setup"])
    setup_s = time.perf_counter() - _T0
    config_s = time.perf_counter() - config_start

    tracer = None
    missing = []
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install(fanshift)

    error = None
    cal_before = calibrate()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception:  # a raw traceback is a failed run, not a crash here
        code, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    cal_after = calibrate()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        # the set-up's config load or scenario build belongs to the config
        # layer too, so config.s is measured on every workload
        layers["config.s"] += config_s

    record = {
        "exit_code": code,
        "error": error,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        # calibration loop around main: mean wall and CPU seconds
        "cal_wall_s": (cal_before[0] + cal_after[0]) / 2,
        "cal_cpu_s": (cal_before[1] + cal_after[1]) / 2,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "missing_boundaries": missing,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
