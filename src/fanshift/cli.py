"""Command-line experiment runner.

Four subcommands compose the library into reproducible studies:

* ``simulate``        -- run one scenario from a YAML config
* ``sweep-mixing``    -- efficiency vs mixing parameters (r, c) grid
* ``forced-settling`` -- forced vs unforced settling plus baseline-error cases
* ``compare-models``  -- two-state vs mixing-air model under setpoint events

Everything is emitted as CSV (traces and flat metrics rows); plotting is left
to external tools. ``simulate`` and the two studies take ``--window full`` (the
settling window's row) or ``both`` (it, then the 2 h window's). A command
exits 0, or with the code its error's class carries (``errors``): 1 for a
configuration error (a usage error included), bad data or traces off a
shared time grid; 2 numerical failure or a tuner that finds no neutral
schedule; 3 self-check failure.

``sweep-mixing`` (over its grid points in (r, c) order) and
``forced-settling`` (its two no-event traces, then its ten events) are studies
with one failure policy, ``_study``: the rows of every case that succeeded are
written, every failed case is listed on stderr in case order, and the command
exits with the code of the first failure; with none, each case's full-window
row must be energy neutral. Each checks what its cases share, windows
included, once before the first march. The cases are marched on every usable
CPU: with n CPUs the process forks n - 1 children and each of the n workers
takes every n-th case. The rows, the stderr lines and the exit code come back
in case order, the same bytes as a serial run. ``forced-settling`` first
marches its two no-event runs in-process, writing nothing; the worker that
takes a no-event trace encodes its first file and copies that file to the
rest. With one CPU, without ``os.fork`` or while another thread is alive the
cases are marched in-process; a child that fails has its share marched by the
parent, and every child is reaped (killed first on an interrupt) before the
command returns. ``simulate`` and ``compare-models`` run in-process.
The code of ``compare-models`` is in ``compare``, imported when it runs, and
``data_io`` loads its trace and config codecs on first use (see there).
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import sys
import threading
from dataclasses import replace
from pathlib import Path

from . import data_io, metrics
from .engine import (FORCED_SETTLE_DEFAULT, KIND_UP_DOWN, KINDS, EventSchedule,
                     OutdoorProfile, Scenario, run_baseline, run_closed_loop,
                     run_open_loop, tune_open_loop_event)
from .errors import ConfigurationError, FanshiftError, SelfCheckError
from .thermal import BuildingParams, delta_f_to_k
from .trace import Trace

__all__ = ["main", "cmd_simulate", "cmd_sweep_mixing", "cmd_forced_settling"]

SHORT_WINDOW_HR = 2.0
# --window values: the settling window alone, or it and the 2 h window
WINDOWS = ("full", "both")
COMMANDS = ("simulate", "sweep-mixing", "forced-settling", "compare-models")


def run_event_pair(scenario: Scenario) -> tuple[Trace, Trace]:
    """Run one event; returns (event, counterfactual).

    The counterfactual, which metrics compare against, is the no-event run
    under the *actual* outdoor profile. When the forecast agrees, it is the
    memoised baseline a closed loop subtracts, marched once.
    """
    run = run_open_loop if scenario.event.power_delta_frac is None else run_closed_loop
    return run(scenario), run_baseline(replace(scenario, oa_predicted=scenario.oa_actual))


def _windows(scenario: Scenario, window: str) -> list[metrics.EventWindow]:
    """The metrics windows ``--window`` names, in row order.

    "full" is the settling window alone; "both" adds the 2 h window, which
    ends ``SHORT_WINDOW_HR`` after event start, a whole number of steps,
    between the event end and ``t_settle``. The first row is always the
    settling window's. Any other name is a ``ConfigurationError``. A command
    calls this before its first march.
    """
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window {window!r} (use {' or '.join(WINDOWS)})")
    spans = [scenario.window()]
    if window == "both":
        t_short = scenario.t_start + SHORT_WINDOW_HR * 3600.0
        if (not scenario.t_end <= t_short <= scenario.t_settle
                or scenario.whole_steps(SHORT_WINDOW_HR * 3600.0) is None):
            raise ConfigurationError(
                f"the {SHORT_WINDOW_HR:g} h window ends at {t_short:g} s, which must lie on "
                f"the dt={scenario.dt:g} s grid, no earlier than the event end "
                f"({scenario.t_end:g} s) and no later than the end of the settling "
                f"window ({scenario.t_settle:g} s)")
        spans.append(spans[0].with_settle(t_short))
    return spans


def _records(scenario: Scenario, event: Trace, counterfactual: Trace,
             windows: list[metrics.EventWindow]) -> list[data_io.ResultRecord]:
    """The metrics rows of one event, one per window of ``_windows``."""
    return [data_io.ResultRecord.from_metrics(
        metrics.evaluate_event(event, counterfactual, window), window,
        scenario_id=scenario.scenario_id, mode=scenario.event.mode,
        kind=scenario.event.kind, r=scenario.params.mix_r,
        c=scenario.params.mix_c) for window in windows]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(*, config: str | Path, out: str | Path, dt: float | None,
                 window: str, tune_neutral: bool) -> int:
    """Run the scenario described by a config file; write traces + metrics."""
    out = data_io.check_output_dir(out)
    scenario = data_io.load_scenario_config(config)
    if dt is not None:
        scenario = replace(scenario, dt=dt)
    windows = _windows(scenario, window)
    if tune_neutral:
        scenario = replace(scenario, event=tune_open_loop_event(scenario))

    event, counterfactual = run_event_pair(scenario)
    control_base = run_baseline(scenario)

    records = _records(scenario, event, counterfactual, windows)
    sid = scenario.scenario_id
    data_io.write_trace(event, out / f"{sid}_event.csv")
    data_io.write_trace(control_base, out / f"{sid}_baseline.csv")
    if scenario.oa_actual != scenario.oa_predicted:
        data_io.write_trace(counterfactual, out / f"{sid}_counterfactual.csv")
    data_io.write_results(records, out / f"{sid}_metrics.csv")
    return 0


# ---------------------------------------------------------------------------
# studies: the spine, and sweep-mixing
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
    ``os.sched_getaffinity``, or while another Python thread is alive (a
    fork copies the locks it holds). ``threading.active_count`` sees no
    native thread; OpenBLAS's pool, which numpy starts, is stopped by
    OpenBLAS itself at a fork and restarted by its next call. Every child is
    reaped, and killed first if this process is interrupted.
    """
    cpus = getattr(os, "sched_getaffinity", None)
    forkable = cpus and hasattr(os, "fork") and threading.active_count() == 1
    n = min(len(items), len(cpus(0))) if forkable else 1
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
            import signal  # only a map cut short kills; importing it costs every command
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _study(march, cases: list, names: list[str], what: str, results: Path) -> list:
    """March a study's cases, write their rows and report every failure.

    ``march(case)`` returns the case's metrics rows or raises a
    ``FanshiftError``; ``_forked_map`` marches the cases. The rows of every
    case that succeeded are written to ``results`` in case order. Each
    failure is listed on stderr under "``what`` failed:" by its name in
    ``names``, in case order, and the first is raised. With none, a case
    whose first row, the full window's, is not energy neutral is a
    ``SelfCheckError``; a case may return no rows, and is then not checked.
    It returns the rows it wrote.
    """
    def attempt(case) -> list[data_io.ResultRecord] | FanshiftError:
        try:
            return march(case)
        except FanshiftError as exc:
            return exc

    outcomes = _forked_map(attempt, cases)
    failures = [(name, exc) for name, exc in zip(names, outcomes)
                if isinstance(exc, FanshiftError)]
    records = [rec for rows in outcomes if isinstance(rows, list) for rec in rows]
    data_io.write_results(records, results)
    if failures:
        print(f"{what} failed:", *(f"{name}: {exc}" for name, exc in failures),
              sep="\n  ", file=sys.stderr)
        raise failures[0][1]
    bad = [rows[0] for rows in outcomes if rows and not rows[0].neutral]
    if bad:
        ids = ", ".join(f"{r.scenario_id}/{r.kind}" for r in bad)
        raise SelfCheckError(f"events violate the energy-neutrality criterion: {ids}")
    return records


def cmd_sweep_mixing(*, r_grid: list[float], c_grid: list[float], kind: str,
                     power_frac: float, out: str | Path, dt: float,
                     window: str) -> int:
    """Closed-loop events across a mixing-parameter grid; one row per window.

    A ``_study`` of the distinct grid points in (r, c) order, whatever the
    order of the grids: rows and listed failures come in that order.
    Arguments shared by every point (kind, event size, dt, windows) are
    checked once on a reference scenario, before the grid: a bad one exits
    with one error and no output directory. A point's march builds its
    ``Scenario``, the reference with the point's plant, so a bad (r, c) is a
    listed failure.
    """
    if not r_grid or not c_grid:
        raise ConfigurationError("grids must be non-empty")
    out = data_io.check_output_dir(out)
    reference = Scenario(event=EventSchedule(kind=kind, power_delta_frac=power_frac), dt=dt)
    windows = _windows(reference, window)
    grid = sorted({(r, c) for r in r_grid for c in c_grid})

    def march(point: tuple[float, float]) -> list[data_io.ResultRecord]:
        r, c = point
        scenario = replace(reference, params=BuildingParams().with_mixing(r, c),
                           scenario_id=f"mixing_r{r:g}_c{c:g}")
        event, counterfactual = run_event_pair(scenario)
        return _records(scenario, event, counterfactual, windows)

    _study(march, grid, [f"r={r} c={c}" for r, c in grid], "sweep points",
           out / "mixing_sweep.csv")
    return 0


# ---------------------------------------------------------------------------
# forced-settling
# ---------------------------------------------------------------------------

# forced-settling's cases: each one's (actual, forecast) outdoor profile and hold, s
STUDY_CASES = {"unforced": ("flat", "flat", 0.0),
               "forced": ("flat", "flat", FORCED_SETTLE_DEFAULT),
               "oa_step_predicted": ("stepped", "stepped", FORCED_SETTLE_DEFAULT),
               "oa_step_unpredicted": ("stepped", "flat", FORCED_SETTLE_DEFAULT),
               "oa_step_prediction_only": ("flat", "stepped", FORCED_SETTLE_DEFAULT)}


def cmd_forced_settling(*, out: str | Path, dt: float, step_offset: float,
                        step_f: float, mix_r: float, mix_c: float,
                        window: str) -> int:
    """Forced vs unforced settling and the three baseline-error cases.

    Each case of ``STUDY_CASES`` runs for both kinds under its profiles and
    hold. The stepped profile's outdoor step lands ``step_offset`` seconds
    after event start, from 0 to one step before ``t_settle``: the march
    reads no later outdoor temperature. A step may still move no metric (a
    forecast is read only while the power loop is engaged, to t_end + hold;
    an actual step in the last steps moves event and counterfactual alike),
    so once every row and trace is written, each oa_step case whose
    full-window row equals its kind's forced row in every metric column is a
    ``SelfCheckError``.

    A case's control baseline (under its forecast) and counterfactual (under
    its actual profile, when that differs) are one of two no-event runs, flat
    and stepped. This process marches each once, writing nothing, through
    the first case that sees it (unforced_UP_DOWN and
    oa_step_predicted_UP_DOWN), so a failing one stops the command before any
    event; the engine memoises both. Then a ``_study`` takes each no-event
    trace with its files (8 and 6), then the ten events. A worker encodes a
    trace into its first file and copies that file to the rest; for an event
    it finds the baselines in the memo it inherited, computes the rows and
    writes the event trace. A failed event is listed by its scenario id, a
    trace by its forecast; the rows and traces of every item that succeeded
    are kept.
    """
    if step_f == 0 or step_offset < 0 or step_offset > Scenario.settle_duration - dt:
        raise ConfigurationError(
            "the oa_step cases need a non-zero --step-f and a --step-offset from 0 to "
            f"{Scenario.settle_duration - dt:g} s, one step before the march ends")
    out = data_io.check_output_dir(out)
    traces_dir = out / "traces"
    params = BuildingParams().with_mixing(mix_r, mix_c)
    nominal = params.t_outdoor_nominal
    profiles = {"flat": OutdoorProfile.constant(nominal),
                "stepped": OutdoorProfile.step_at(nominal, Scenario.warmup + step_offset,
                                                  delta_f_to_k(step_f))}
    scenarios = []
    groups: dict[str, tuple[Scenario, list[Path]]] = {}  # profile: first case, files
    for case, (actual, forecast, hold) in STUDY_CASES.items():
        for kind in KINDS:
            scenario = Scenario(
                params=params, dt=dt,
                event=EventSchedule(kind=kind, power_delta_frac=0.10,
                                    forced_settle_duration=hold),
                oa_actual=profiles[actual], oa_predicted=profiles[forecast],
                scenario_id=f"{case}_{kind}")
            scenarios.append(scenario)
            # the baseline runs under the forecast, the counterfactual under an
            # actual profile that differs; equal keys leave the baseline alone
            for profile, label in {actual: "counterfactual", forecast: "baseline"}.items():
                groups.setdefault(profile, (scenario, []))[1].append(
                    traces_dir / f"{scenario.scenario_id}_{label}.csv")
    windows = _windows(scenarios[0], window)
    items = [(run_baseline(replace(first, oa_predicted=profiles[profile])), files)
             for profile, (first, files) in groups.items()]
    write_trace = data_io.write_trace  # the codec loads here, not in each worker

    def march(item) -> list[data_io.ResultRecord]:
        """A case's metrics rows, its event trace written, or a group's files."""
        if not isinstance(item, Scenario):  # one encode, then copies
            trace, (first, *copies) = item
            write_trace(trace, first)
            for path in copies:
                write_trace(trace, path, first)
            return []
        event, counterfactual = run_event_pair(item)
        rows = _records(item, event, counterfactual, windows)
        write_trace(event, traces_dir / f"{item.scenario_id}.csv")
        return rows

    rows = _study(march, [*items, *scenarios],
                  [f"no-event trace, {profile} forecast" for profile in groups]
                  + [s.scenario_id for s in scenarios],
                  "study cases", out / "settling_study.csv")
    # each event's rows, its full window's first; compared without the id
    full = {r.scenario_id: replace(r, scenario_id="") for r in rows[::len(windows)]}
    copies = [sid for sid, row in full.items()
              if sid.startswith("oa_step") and row == full[f"forced_{row.kind}"]]
    if copies:
        raise SelfCheckError(f"the outdoor step moved no metric of {', '.join(copies)}: "
                             "each row equals its kind's forced row")
    return 0


# ---------------------------------------------------------------------------
# compare-models
# ---------------------------------------------------------------------------

def parse_window(spec: str) -> tuple[float, float, float]:
    """Parse ``"t_start,t_end,t_settle"``, seconds in the measured file's clock."""
    window = tuple(_numbers(spec, ","))
    if len(window) != 3:
        raise ConfigurationError("--measured-window needs t_start,t_end,t_settle")
    return window


def _compare_models(*, out, dt, mix_r, mix_c, setpoint_delta_f, measured,
                    column_map, measured_window) -> int:
    """``compare.cmd_compare_models``, imported only when compare-models runs."""
    from . import compare
    return compare.cmd_compare_models(
        out=out, dt=dt, mix_r=mix_r, mix_c=mix_c, setpoint_delta_f=setpoint_delta_f,
        measured=measured, column_map=column_map, measured_window=measured_window)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as a configuration error
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fanshift",
        description="HVAC fan load-shifting simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario from a config file")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--config", required=True, help="scenario YAML path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dt", type=float, default=None, help="override timestep, s")
    p.add_argument("--window", choices=WINDOWS, default="full")
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
    p.add_argument("--window", choices=WINDOWS, default="both")

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
    p.add_argument("--window", choices=WINDOWS, default="full")

    p = sub.add_parser("compare-models",
                       help="two-state vs mixing-air model under setpoint events")
    p.set_defaults(run=_compare_models)
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _build_parser()
        # argparse would read an option's value here as the subcommand
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"the subcommand comes first, one of {', '.join(COMMANDS)}")
        # a usage error or a converter's ConfigurationError exits 1 here
        args = vars(parser.parse_args(argv))
        del args["command"]
        return args.pop("run")(**args)
    except FanshiftError as exc:  # the class names its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        if getattr(exc, "sample", None):
            print(f"  state: {exc.sample}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
