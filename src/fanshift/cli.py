"""Command-line experiment runner.

Four subcommands compose the library into reproducible studies:

* ``simulate``        -- run one scenario from a YAML config
* ``sweep-mixing``    -- efficiency vs mixing parameters (r, c) grid
* ``forced-settling`` -- forced vs unforced settling plus baseline-error cases
* ``compare-models``  -- two-state vs mixing-air model under setpoint events

Everything is emitted as CSV (traces and flat metrics rows); plotting is left
to external tools. Exit codes: 0 success; 1 configuration error, bad data or
traces off a shared time grid; 2 numerical failure or a tuner that finds no
neutral schedule; 3 self-check failure. A sweep writes the rows of every point
that succeeded, lists the failed points on stderr and exits with the code of
the first failure.

``sweep-mixing`` checks the arguments every point shares once, then marches
its grid points on every usable CPU: with n CPUs the process forks n - 1
children and each of the n workers takes every n-th point. The rows, the
stderr lines and the exit code come back in grid order, the same bytes as a
serial run. ``forced-settling`` marches its two no-event runs in-process,
then its ten events the same way; the worker that marches an event writes
its trace. With one CPU, without ``os.fork`` or while another thread is
alive the points are marched in-process; a child that fails has its share
marched by the parent, and every child is reaped (killed first on an
interrupt) before the command returns. ``simulate`` and ``compare-models``
run in-process.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data_io, metrics
from .engine import (KIND_DOWN_UP, KIND_UP_DOWN, KINDS, MODE_CLOSED_LOOP,
                     MODE_FORCED_SETTLING, MODE_OPEN_LOOP, EventSchedule,
                     OutdoorProfile, Scenario, run_baseline, run_closed_loop,
                     run_open_loop, tune_open_loop_event)
from .errors import (ConfigurationError, DataFormatError, FanshiftError,
                     NumericalError, TraceAlignmentError, TuningError)
from .thermal import BuildingParams, delta_f_to_k
from .trace import Trace

__all__ = ["main", "cmd_simulate", "cmd_sweep_mixing", "cmd_forced_settling",
           "cmd_compare_models", "SelfCheckError"]

SHORT_WINDOW_HR = 2.0
# --window value -> the metrics windows written, in row order
WINDOWS = {"full": ("full",), "2h": ("2h",), "both": ("full", "2h")}


class SelfCheckError(FanshiftError):
    """A command's built-in result verification failed."""


def run_event_pair(scenario: Scenario) -> tuple[Trace, Trace, Trace]:
    """Run one event with its two baselines.

    Returns (event, control_baseline, counterfactual). The control baseline
    is the no-event run under the *predicted* outdoor profile that the power
    controller subtracts; the counterfactual is the no-event run under the
    *actual* profile that metrics compare against. Whenever the profiles
    agree they are one memoised trace, marched once.
    """
    control_base = run_baseline(scenario)
    if scenario.mode == MODE_OPEN_LOOP:
        event = run_open_loop(scenario)
    else:
        event = run_closed_loop(scenario, control_base)
    counterfactual = run_baseline(replace(scenario, oa_predicted=scenario.oa_actual))
    return event, control_base, counterfactual


def _metrics_window(scenario: Scenario,
                    window_name: str) -> tuple[metrics.EventWindow, float]:
    """The "full" settling window or the "2h" one after event start, and its hours."""
    window = scenario.window()
    if window_name == "full":
        return window, scenario.settle_duration / 3600.0
    t_short = scenario.t_start + SHORT_WINDOW_HR * 3600.0
    steps = SHORT_WINDOW_HR * 3600.0 / scenario.dt
    if (not scenario.t_end <= t_short <= scenario.t_settle
            or abs(steps - round(steps)) > 1e-9):
        raise ConfigurationError(
            f"the {SHORT_WINDOW_HR:g} h window ends at {t_short:g} s, which must lie on "
            f"the dt={scenario.dt:g} s grid, no earlier than the event end "
            f"({scenario.t_end:g} s) and no later than the end of the settling "
            f"window ({scenario.t_settle:g} s)")
    return window.with_settle(t_short), SHORT_WINDOW_HR


def _metrics_record(scenario: Scenario, event: Trace, counterfactual: Trace,
                    window_name: str) -> data_io.ResultRecord:
    """Metrics over the window named ``window_name`` (see ``_metrics_window``)."""
    window, window_hr = _metrics_window(scenario, window_name)
    m = metrics.evaluate_event(event, counterfactual, window)
    return data_io.ResultRecord.from_metrics(
        m, scenario_id=scenario.scenario_id, mode=scenario.mode,
        kind=scenario.event.kind, r=scenario.params.mix_r,
        c=scenario.params.mix_c, window_hr=window_hr)


def _windows(window: str) -> tuple[str, ...]:
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window {window!r} (use {', '.join(WINDOWS)})")
    return WINDOWS[window]


def _check_neutrality(records: list[data_io.ResultRecord]) -> None:
    # a full-window row carries the short label only when its settling window
    # is two hours long, and then both rows measure the same window
    bad = [r for r in records
           if r.window_hr != SHORT_WINDOW_HR and not r.neutral]
    if bad:
        ids = ", ".join(f"{r.scenario_id}/{r.kind}" for r in bad)
        raise SelfCheckError(f"events violate the energy-neutrality criterion: {ids}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(*, config: str | Path, out: str | Path, dt: float | None,
                 window: str, tune_neutral: bool) -> int:
    """Run the scenario described by a config file; write traces + metrics."""
    windows = _windows(window)
    out = data_io.check_output_dir(out)
    scenario = data_io.load_scenario_config(config)
    if dt is not None:
        scenario = replace(scenario, dt=dt)
    for name in windows:  # a window that does not fit is rejected before any march
        _metrics_window(scenario, name)
    if tune_neutral:
        if scenario.mode != MODE_OPEN_LOOP:
            raise ConfigurationError("--tune-neutral applies to open-loop scenarios")
        scenario = replace(scenario, event=tune_open_loop_event(scenario))

    event, control_base, counterfactual = run_event_pair(scenario)

    records = [_metrics_record(scenario, event, counterfactual, name)
               for name in windows]
    sid = scenario.scenario_id
    data_io.make_output_dir(out)
    data_io.write_trace(event, out / f"{sid}_event.csv")
    data_io.write_trace(control_base, out / f"{sid}_baseline.csv")
    if scenario.oa_actual != scenario.oa_predicted:
        data_io.write_trace(counterfactual, out / f"{sid}_counterfactual.csv")
    data_io.write_results(records, out / f"{sid}_metrics.csv")
    return 0


# ---------------------------------------------------------------------------
# sweep-mixing
# ---------------------------------------------------------------------------

def _numbers(spec: str, sep: str) -> list[float]:
    """The finite numbers of a ``sep``-separated list; empty items are skipped."""
    try:
        values = [float(p) for p in spec.split(sep) if p.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError("numbers must be finite")
    except ValueError as exc:
        raise ConfigurationError(f"bad number in {spec!r}: {exc}") from exc
    return values


def parse_grid(spec: str) -> list[float]:
    """Parse ``"0.1:1.0:0.1"`` (start:stop:step, inclusive) or ``"0.1,0.3"``."""
    spec = spec.strip()
    if ":" in spec:
        values = _numbers(spec, ":")
        if len(values) != 3:
            raise ConfigurationError(f"grid spec {spec!r} needs start:stop:step")
        start, stop, step_sz = values
        if step_sz <= 0 or stop < start:
            raise ConfigurationError(f"bad grid range {spec!r}")
        n = int(math.floor((stop - start) / step_sz + 1e-9))
        return [round(start + k * step_sz, 10) for k in range(n + 1)]
    values = _numbers(spec, ",")
    if not values:
        raise ConfigurationError(f"empty grid spec {spec!r}")
    return values


def _forked_map(func, items: list) -> list:
    """``[func(item) for item in items]``, computed on every usable CPU.

    With n = min(len(items), CPUs in ``os.sched_getaffinity``) this process
    forks n - 1 children. Worker k (this process is worker 0) computes items
    k, k + n, k + 2n, ...; each child pickles its list of values into a pipe
    and leaves by ``os._exit``, and the values come back in item order.
    ``func`` returns its failures as values. The share of a child that dies,
    sends bytes that cannot be read or cannot be forked is computed here, so
    an exception ``func`` lets out is raised here. ``func`` may write files;
    since a lost share is computed again, those writes must be idempotent.
    Nothing is forked with one CPU or item, without ``os.fork`` or
    ``os.sched_getaffinity``, or while another thread is alive (a fork
    copies the locks it holds). Every child is reaped, and killed first if
    this process is interrupted.
    """
    cpus = getattr(os, "sched_getaffinity", None)
    n = min(len(items), len(cpus(0))) if cpus and hasattr(os, "fork") else 1
    if n < 2 or threading.active_count() > 1:
        return [func(item) for item in items]
    children = {}  # worker -> (pid, read end of its pipe), until reaped
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process computes the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # the child never returns into the caller
                status = 1
                try:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps([func(item) for item in items[k::n]]))
                    status = 0
                finally:
                    os._exit(status)
            children[k] = pid, open(read_fd, "rb")
            os.close(write_fd)
        values = [None] * len(items)
        for k in range(n):
            share = None
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    data = pipe.read()
                if os.waitpid(pid, 0)[1] == 0:
                    try:
                        share = pickle.loads(data)
                    except Exception:  # unreadable: the share is computed below
                        pass
                del children[k]
            if not isinstance(share, list) or len(share) != len(items[k::n]):
                share = [func(item) for item in items[k::n]]
            values[k::n] = share
        return values
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep_mixing(*, r_grid: list[float], c_grid: list[float], kind: str,
                     power_frac: float, out: str | Path, dt: float,
                     window: str) -> int:
    """Closed-loop events across a mixing-parameter grid; one row per window.

    Arguments shared by every point (kind, event size, dt, windows) are
    checked once on a reference scenario, before the grid: a bad one exits
    with one error and no output directory. Each point's ``Scenario`` is that
    reference with the point's plant; a bad (r, c) is a listed failure.
    The points are marched by ``_forked_map``: on n usable CPUs, n workers
    (this process and n - 1 forked children) take every n-th point, serially
    with one CPU. Rows, stderr and exit code do not depend on the split.
    """
    if not r_grid or not c_grid:
        raise ConfigurationError("grids must be non-empty")
    windows = _windows(window)
    out = data_io.check_output_dir(out)
    reference = Scenario(event=EventSchedule(kind=kind, power_delta_frac=power_frac),
                         mode=MODE_CLOSED_LOOP, dt=dt)
    for name in windows:
        _metrics_window(reference, name)

    grid = [(r, c) for r in r_grid for c in c_grid]
    points: list[Scenario | FanshiftError] = []
    for r, c in grid:
        try:
            points.append(replace(reference, params=BuildingParams().with_mixing(r, c),
                                  scenario_id=f"mixing_r{r:g}_c{c:g}"))
        except FanshiftError as exc:
            points.append(exc)

    def march(point: Scenario | FanshiftError
              ) -> list[data_io.ResultRecord] | FanshiftError:
        """The point's metrics rows, or the error that stopped it."""
        if isinstance(point, FanshiftError):
            return point
        try:
            event, _, counterfactual = run_event_pair(point)
            return [_metrics_record(point, event, counterfactual, name)
                    for name in windows]
        except FanshiftError as exc:
            return exc

    outcomes = _forked_map(march, points)
    failures = [(r, c, exc) for (r, c), exc in zip(grid, outcomes)
                if isinstance(exc, FanshiftError)]
    results = sorted((rec for rows in outcomes if isinstance(rows, list)
                      for rec in rows),
                     key=lambda rec: (rec.r, rec.c, -rec.window_hr))
    data_io.make_output_dir(out)
    data_io.write_results(results, out / "mixing_sweep.csv")
    if failures:
        print("sweep points failed:",
              *(f"r={r} c={c}: {exc}" for r, c, exc in failures),
              sep="\n  ", file=sys.stderr)
        raise failures[0][2]
    _check_neutrality(results)
    return 0


# ---------------------------------------------------------------------------
# forced-settling
# ---------------------------------------------------------------------------

STUDY_CASES = ("unforced", "forced", "oa_step_predicted",
               "oa_step_unpredicted", "oa_step_prediction_only")


def _study_scenario(case: str, kind: str, dt: float, step_offset: float,
                    step_f: float, mix_r: float, mix_c: float) -> Scenario:
    params = BuildingParams().with_mixing(mix_r, mix_c)
    nominal = params.t_outdoor_nominal
    flat = OutdoorProfile.constant(nominal)
    warmup = 7200.0
    stepped = OutdoorProfile.step_at(nominal, warmup + step_offset,
                                     delta_f_to_k(step_f))
    actual, predicted = {
        "unforced": (flat, flat),
        "forced": (flat, flat),
        "oa_step_predicted": (stepped, stepped),
        "oa_step_unpredicted": (stepped, flat),
        "oa_step_prediction_only": (flat, stepped),
    }[case]
    mode = MODE_CLOSED_LOOP if case == "unforced" else MODE_FORCED_SETTLING
    return Scenario(
        params=params,
        event=EventSchedule(kind=kind, power_delta_frac=0.10),
        mode=mode, dt=dt, warmup=warmup,
        oa_actual=actual, oa_predicted=predicted,
        scenario_id=f"{case}_{kind}")


def cmd_forced_settling(*, out: str | Path, dt: float, step_offset: float,
                        step_f: float, mix_r: float, mix_c: float,
                        window: str) -> int:
    """Forced vs unforced settling and the three baseline-error cases.

    The outdoor step of the error cases lands ``step_offset`` seconds after
    event start.

    This process first marches, in case order, every case's control baseline
    and counterfactual. They are two distinct no-event runs (flat and stepped
    forecast), memoised by the engine, and their 14 files hold two traces,
    each encoded once. So a failing no-event run is reported before any event
    marches. Then ``_forked_map`` marches each case's event on every usable
    CPU: its worker finds the baselines in the memo it inherited, computes
    the case's rows and writes its event trace. The first failure in case
    order is raised; traces of later cases that a worker finished may remain
    on disk. Rows, stderr and exit code do not depend on the split.
    """
    if step_f == 0 or step_offset >= Scenario.settle_duration:
        raise ConfigurationError(
            "the oa_step cases need a non-zero --step-f and a --step-offset below "
            f"{Scenario.settle_duration:g} s, else their rows copy the forced ones")
    windows = _windows(window)
    out = data_io.check_output_dir(out)
    traces_dir = out / "traces"
    scenarios = [_study_scenario(case, kind, dt, step_offset, step_f, mix_r, mix_c)
                 for case in STUDY_CASES for kind in (KIND_UP_DOWN, KIND_DOWN_UP)]

    # the no-event runs repeat across cases; each distinct trace is encoded once
    written: dict[bytes, Path] = {}
    for scenario in scenarios:
        control_base = run_baseline(scenario)
        sid = scenario.scenario_id
        # made only now, so a study rejected before its first trace writes nothing
        data_io.make_output_dir(traces_dir)
        data_io.write_trace(control_base, traces_dir / f"{sid}_baseline.csv", written)
        if scenario.oa_actual != scenario.oa_predicted:
            counterfactual = run_baseline(replace(scenario,
                                                  oa_predicted=scenario.oa_actual))
            data_io.write_trace(counterfactual,
                                traces_dir / f"{sid}_counterfactual.csv", written)

    def march(scenario: Scenario) -> list[data_io.ResultRecord] | FanshiftError:
        """The case's metrics rows, its event trace written, or the error."""
        try:
            event, _, counterfactual = run_event_pair(scenario)
            rows = [_metrics_record(scenario, event, counterfactual, name)
                    for name in windows]
            data_io.write_trace(event, traces_dir / f"{scenario.scenario_id}.csv")
            return rows
        except FanshiftError as exc:
            return exc

    outcomes = _forked_map(march, scenarios)
    for outcome in outcomes:
        if isinstance(outcome, FanshiftError):
            raise outcome
    records = [rec for rows in outcomes for rec in rows]
    data_io.write_results(records, out / "settling_study.csv")
    _check_neutrality(records)
    return 0


# ---------------------------------------------------------------------------
# compare-models
# ---------------------------------------------------------------------------

def _drift_slope(event: Trace, baseline: Trace, t_start: float) -> tuple[float, float]:
    """Initial power step (2 min in) and mean drift slope 5-25 min in, W/s."""
    diff = event.p_fan - baseline.p_fan
    i0 = event.index_at(t_start)

    def at(seconds: float) -> int:
        return i0 + int(round(seconds / event.dt))

    step0 = float(diff[at(120.0)])
    a, z = at(300.0), at(1500.0)
    if z - a < 2:
        raise ConfigurationError(
            f"dt={event.dt} s leaves fewer than 2 samples in the 5-25 min "
            "drift window")
    slope = float(np.polyfit(event.t[a:z], diff[a:z], 1)[0])
    return step0, slope


def parse_window(spec: str) -> tuple[float, float, float]:
    """Parse ``"t_start,t_end,t_settle"``, seconds in the measured file's clock."""
    window = tuple(_numbers(spec, ","))
    if len(window) != 3:
        raise ConfigurationError("--measured-window needs t_start,t_end,t_settle")
    return window


def _measured_outputs(measured: str | Path, column_map: str | None, dt: float,
                      measured_window: tuple[float, float, float] | None
                      ) -> tuple[Trace, data_io.ResultRecord | None]:
    """The normalized measured trace and, given a window, its metrics row."""
    if column_map is None:
        raise ConfigurationError("--measured needs --column-map")
    series = data_io.load_measured_csv(measured, column_map)
    trace = data_io.resample(series, dt)
    if trace.n_samples < 2:
        raise DataFormatError(f"{measured}: need at least 2 samples at dt={dt}, "
                              f"got {trace.n_samples} from {len(series.t)} rows")
    if measured_window is None:
        full = metrics.EventWindow(float(trace.t[0]), float(trace.t[1]),
                                   float(trace.t[-1]))
        return metrics.normalize(trace, full), None
    w = metrics.EventWindow(*measured_window)
    baseline = metrics.linear_baseline(trace, w)
    record = data_io.ResultRecord.from_metrics(
        metrics.evaluate_event(trace, baseline, w),
        scenario_id=series.label or "measured", mode="measured",
        kind="MEASURED", r=float("nan"), c=float("nan"),
        window_hr=(w.t_settle - w.t_start) / 3600.0)
    norm_span = metrics.EventWindow(
        max(float(trace.t[0]), w.t_start - 1800.0), w.t_end,
        min(float(trace.t[-1]), w.t_start + 10800.0))
    return metrics.normalize(trace, norm_span), record


def cmd_compare_models(*, out: str | Path, dt: float, mix_r: float,
                       mix_c: float, setpoint_delta_f: float,
                       measured: str | Path | None, column_map: str | None,
                       measured_window: tuple[float, float, float] | None) -> int:
    """Open-loop setpoint events on both plant models, emitted normalized.

    Traces are trimmed to 30 min before through 3 h after event start and
    scaled so the mean fan power over that span is one. Self-checks the
    two-part response: drift away from the step for the two-state model,
    with the step for the mixing model. Measured data is read and checked
    before the first march, so bad data writes nothing.
    """
    if not 0 < setpoint_delta_f < math.inf:
        raise ConfigurationError(
            f"--setpoint-delta-f must be positive and finite, got {setpoint_delta_f:g}")
    out = data_io.check_output_dir(out)
    if measured is not None:
        measured_trace, measured_record = _measured_outputs(
            measured, column_map, dt, measured_window)
    elif column_map is not None or measured_window is not None:
        raise ConfigurationError("--column-map and --measured-window need --measured")
    delta = delta_f_to_k(setpoint_delta_f)
    plants = {"original": BuildingParams(),
              "mixing": BuildingParams().with_mixing(mix_r, mix_c)}
    deltas = {KIND_DOWN_UP: (delta, -delta), KIND_UP_DOWN: (-delta, delta)}

    for model_name, params in plants.items():
        for kind, (d1, d2) in deltas.items():
            scenario = Scenario(
                params=params, mode=MODE_OPEN_LOOP, dt=dt,
                event=EventSchedule(kind=kind, setpoint_deltas=(d1, d2)),
                scenario_id=f"{model_name}_{kind}")
            event, _, baseline = run_event_pair(scenario)

            step0, slope = _drift_slope(event, baseline, scenario.t_start)
            same_direction = slope * step0 > 0
            if model_name == "mixing" and not same_direction:
                raise SelfCheckError(
                    f"mixing model {kind}: drift opposes the initial step")
            if model_name == "original" and same_direction:
                raise SelfCheckError(
                    f"two-state model {kind}: drift follows the initial step")

            lo = event.index_at(scenario.t_start - 1800.0)
            hi = event.index_at(scenario.t_start + 10800.0)
            clipped = event.sliced(lo, hi)
            span = metrics.EventWindow(float(clipped.t[0]), float(clipped.t[1]),
                                       float(clipped.t[-1]))
            normalized = metrics.normalize(clipped, span)
            data_io.make_output_dir(out)
            data_io.write_trace(normalized, out / f"{model_name}_{kind}.csv")

    if measured is not None:
        if measured_record is not None:
            data_io.write_results([measured_record], out / "measured_metrics.csv")
        data_io.write_trace(measured_trace, out / "measured.csv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanshift",
        description="HVAC fan load-shifting simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario from a config file")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--config", required=True, help="scenario YAML path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dt", type=float, default=None, help="override timestep, s")
    p.add_argument("--window", choices=list(WINDOWS), default="full")
    p.add_argument("--tune-neutral", action="store_true",
                   help="adjust the second setpoint delta until energy neutral")

    p = sub.add_parser("sweep-mixing", help="efficiency across (r, c) grid")
    p.set_defaults(run=cmd_sweep_mixing)
    p.add_argument("--r-grid", type=parse_grid, default="0.1:1.0:0.1",
                   help="start:stop:step or comma list (default %(default)s)")
    p.add_argument("--c-grid", type=parse_grid, default="0.1",
                   help="same syntax (default %(default)s)")
    p.add_argument("--kind", choices=list(KINDS), default=KIND_UP_DOWN)
    p.add_argument("--power-frac", type=float, default=0.10,
                   help="event size as fraction of baseline fan power")
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--window", choices=list(WINDOWS), default="both")

    p = sub.add_parser("forced-settling",
                       help="forced vs unforced settling and baseline-error cases")
    p.set_defaults(run=cmd_forced_settling)
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--step-offset", type=float, default=0.0,
                   help="outdoor step delay after event start, s")
    p.add_argument("--step-f", type=float, default=3.0,
                   help="outdoor step size, degF")
    p.add_argument("--mix-r", type=float, default=0.5)
    p.add_argument("--mix-c", type=float, default=0.3)
    p.add_argument("--window", choices=["full", "both"], default="full")

    p = sub.add_parser("compare-models",
                       help="two-state vs mixing-air model under setpoint events")
    p.set_defaults(run=cmd_compare_models)
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--mix-r", type=float, default=0.3)
    p.add_argument("--mix-c", type=float, default=0.1)
    p.add_argument("--setpoint-delta-f", type=float, default=1.0)
    p.add_argument("--measured", default=None, help="measured fan-power CSV")
    p.add_argument("--column-map", default=None,
                   help='e.g. "time=ts,power=fan_kw:kW,temp=zone:F"')
    p.add_argument("--measured-window", type=parse_window, default=None,
                   help="t_start,t_end,t_settle in the measured file's clock, s")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # a converter's ConfigurationError leaves parse_args, and exits 1 here
        args = vars(_build_parser().parse_args(argv))
        del args["command"]
        return args.pop("run")(**args)
    except (ConfigurationError, DataFormatError, TraceAlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.sample:
            print(f"  state: {exc.sample}", file=sys.stderr)
        return 2
    except TuningError as exc:
        print(f"tuning failed: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
