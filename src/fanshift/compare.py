"""The ``compare-models`` command, which ``cli`` imports only when it runs.

Its runs go through ``cli.run_event_pair``, looked up at call time as in
every command; ``--measured`` also imports ``measured``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import cli, data_io, metrics
from .engine import KIND_DOWN_UP, KIND_SIGN, KIND_UP_DOWN, EventSchedule, Scenario
from .errors import ConfigurationError, DataFormatError, SelfCheckError
from .thermal import BuildingParams, delta_f_to_k
from .trace import Trace

__all__ = ["cmd_compare_models"]

# the span every output trace is trimmed to and normalized over, around event start, s
_BEFORE_S, _AFTER_S = 1800.0, 10800.0  # 30 min before through 3 h after


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


def _measured_outputs(measured: str | Path, column_map: str | None, dt: float,
                      measured_window: tuple[float, float, float] | None
                      ) -> tuple[Trace, data_io.ResultRecord | None]:
    """The normalized measured trace and, given a window, its metrics row."""
    from .measured import load_measured_csv, resample  # only --measured needs them

    if column_map is None:
        raise ConfigurationError("--measured needs --column-map")
    series = load_measured_csv(measured, column_map)
    trace = resample(series, dt)
    if trace.n_samples < 2:
        raise DataFormatError(f"{measured}: need at least 2 samples at dt={dt}, "
                              f"got {trace.n_samples} from {len(series.t)} rows")
    t_first, t_last = float(trace.t[0]), float(trace.t[-1])
    if measured_window is None:
        return metrics.normalize(trace, t_first, t_last), None
    w = metrics.EventWindow(*measured_window)
    baseline = metrics.linear_baseline(trace, w)
    record = data_io.ResultRecord.from_metrics(
        metrics.evaluate_event(trace, baseline, w), w,
        scenario_id=series.label or "measured", mode="measured",
        kind="MEASURED", r=float("nan"), c=float("nan"))
    return metrics.normalize(trace, max(t_first, w.t_start - _BEFORE_S),
                             min(t_last, w.t_start + _AFTER_S)), record


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
    plants = {"original": BuildingParams(),
              "mixing": BuildingParams().with_mixing(mix_r, mix_c)}
    if not plants["mixing"].uses_mixing_model:  # it would be the two-state model
        raise ConfigurationError("compare-models needs a mixing pocket: --mix-r > 0")
    out = data_io.check_output_dir(out)
    if measured is not None:
        measured_trace, measured_record = _measured_outputs(
            measured, column_map, dt, measured_window)
    elif column_map is not None or measured_window is not None:
        raise ConfigurationError("--column-map and --measured-window need --measured")
    delta = delta_f_to_k(setpoint_delta_f)

    for model_name, params in plants.items():
        for kind in (KIND_DOWN_UP, KIND_UP_DOWN):
            d2 = KIND_SIGN[kind] * delta  # setpoint up cuts power
            scenario = Scenario(
                params=params, dt=dt,
                event=EventSchedule(kind=kind, setpoint_deltas=(-d2, d2)),
                scenario_id=f"{model_name}_{kind}")
            event, baseline = cli.run_event_pair(scenario)

            step0, slope = _drift_slope(event, baseline, scenario.t_start)
            same_direction = slope * step0 > 0
            if model_name == "mixing" and not same_direction:
                raise SelfCheckError(
                    f"mixing model {kind}: drift opposes the initial step")
            if model_name == "original" and same_direction:
                raise SelfCheckError(
                    f"two-state model {kind}: drift follows the initial step")

            lo = event.index_at(scenario.t_start - _BEFORE_S)
            hi = event.index_at(scenario.t_start + _AFTER_S)
            clipped = event.sliced(lo, hi)
            normalized = metrics.normalize(clipped, float(clipped.t[0]),
                                           float(clipped.t[-1]))
            data_io.write_trace(normalized, out / f"{model_name}_{kind}.csv")

    if measured is not None:
        if measured_record is not None:
            data_io.write_results([measured_record], out / "measured_metrics.csv")
        data_io.write_trace(measured_trace, out / "measured.csv")
    return 0
