"""Measured-data ingestion, scenario config files, and trace/results files.

On-disk units are SI with explicit header suffixes. Fahrenheit exists only at
the boundaries: measured columns declared as ``F`` are converted on load, and
config files may give any temperature field with an ``_f`` suffix instead of
``_c`` (and setpoint deltas as ``setpoint_deltas_f``).

Both output files are CSV: a header line, CRLF line ends, and every float as
``%.17g`` (``FLOAT_FMT``, an exact round trip). A trace file has one row per
sample in the columns of ``trace.SERIES_COLUMNS``. A results file has one row
per ``ResultRecord``, whose fields are its columns; an undefined RTE is an
empty field, never 0. Readers reject a malformed row with ``DataFormatError``.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .control import ControllerGains
from .engine import EventSchedule, OutdoorProfile, Scenario
from .errors import ConfigurationError, DataFormatError
from .metrics import EventMetrics
from .thermal import BuildingParams, delta_f_to_k, fahrenheit_to_celsius
from .trace import SERIES_COLUMNS, SERIES_FIELDS, Trace

__all__ = [
    "MeasuredSeries",
    "ResultRecord",
    "RESULTS_HEADER",
    "parse_column_map",
    "load_measured_csv",
    "resample",
    "write_results",
    "read_results",
    "write_trace",
    "read_trace",
    "load_scenario_config",
]

log = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"
TRACE_HEADER = [column for _, column in SERIES_COLUMNS]


def _fmt(x: float | None) -> str:
    return "" if x is None else FLOAT_FMT % x


def _column(name: str, render=_fmt, parse=float):
    """A results field with its CSV column name and its text codec."""
    return field(metadata={"column": name, "render": render, "parse": parse})


@dataclass(frozen=True)
class ResultRecord:
    """One flat metrics row; its fields, in order, are the results CSV's columns."""

    scenario_id: str = _column("scenario_id", str, str)
    mode: str = _column("mode", str, str)
    kind: str = _column("kind", str, str)
    r: float = _column("r")
    c: float = _column("c")
    window_hr: float = _column("window_hr")
    e_in_j: float = _column("E_in_J")
    e_out_j: float = _column("E_out_J")
    rte: float | None = _column("RTE", parse=lambda text: float(text) if text else None)
    neutral: bool = _column("neutral", lambda b: "true" if b else "false",
                            {"true": True, "false": False}.__getitem__)
    residual_j: float = _column("residual_J")
    rmse_k: float = _column("rmse_K")

    @classmethod
    def from_metrics(cls, m: EventMetrics, *, scenario_id: str, mode: str,
                     kind: str, r: float, c: float, window_hr: float
                     ) -> "ResultRecord":
        return cls(scenario_id=scenario_id, mode=mode, kind=kind, r=r, c=c,
                   window_hr=window_hr, e_in_j=m.energy_in, e_out_j=m.energy_out,
                   rte=m.rte, neutral=m.neutral,
                   residual_j=m.neutrality_residual, rmse_k=m.rmse_temp)


_RESULT_FIELDS = fields(ResultRecord)
RESULTS_HEADER = [f.metadata["column"] for f in _RESULT_FIELDS]


def write_results(records: list[ResultRecord], path: str | Path) -> None:
    """Write metrics rows in the results format; deterministic order."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_HEADER)
            writer.writerows([f.metadata["render"](getattr(rec, f.name))
                              for f in _RESULT_FIELDS] for rec in records)
    except OSError as exc:
        raise DataFormatError(f"cannot write results to {path}: {exc}") from exc


def read_results(path: str | Path) -> list[ResultRecord]:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != RESULTS_HEADER:
                raise DataFormatError(f"{path}: unexpected results header {header}")
            out = []
            for row in reader:
                try:
                    if len(row) != len(RESULTS_HEADER):
                        raise ValueError(f"{len(row)} of {len(RESULTS_HEADER)} fields")
                    out.append(ResultRecord(*(f.metadata["parse"](text)
                                              for f, text in zip(_RESULT_FIELDS, row))))
                except (KeyError, ValueError) as exc:
                    raise DataFormatError(
                        f"{path}: line {reader.line_num}: bad row: {exc}") from exc
            return out
    except OSError as exc:
        raise DataFormatError(f"cannot read results from {path}: {exc}") from exc


def write_trace(trace: Trace, path: str | Path) -> None:
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            np.savetxt(fh, np.column_stack([getattr(trace, name)
                                            for name in SERIES_FIELDS]),
                       fmt=FLOAT_FMT, delimiter=",", newline="\r\n",
                       header=",".join(TRACE_HEADER), comments="")
    except OSError as exc:
        raise DataFormatError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path: str | Path, **meta) -> Trace:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if header != TRACE_HEADER:
                raise DataFormatError(f"{path}: unexpected trace header {header}")
            body = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read trace from {path}: {exc}") from exc
    if not body.strip():
        raise DataFormatError(f"{path}: empty trace")
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if arr.shape[1] != len(SERIES_FIELDS):
            raise ValueError(f"{arr.shape[1]} columns, expected {len(SERIES_FIELDS)}")
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return Trace(**dict(zip(SERIES_FIELDS, arr.T)), **meta)


# ---------------------------------------------------------------------------
# measured building time series
# ---------------------------------------------------------------------------

@dataclass
class MeasuredSeries:
    """Validated measured time series on the original (irregular) clock."""

    t: np.ndarray                    # seconds, strictly increasing
    power: np.ndarray                # W
    temp: np.ndarray | None = None   # degC
    setpoint: np.ndarray | None = None
    label: str = ""
    rejects: list[tuple[int, str]] = field(default_factory=list)


_TEMP_UNITS = {"C": lambda v: v, "F": fahrenheit_to_celsius}
_POWER_UNITS = {"W": lambda v: v, "KW": lambda v: v * 1000.0}


def parse_column_map(spec: str) -> dict[str, tuple[str, str | None]]:
    """Parse ``"time=ts,power=fan:kW,temp=zone:F"`` into a column map.

    Keys: time (required), power (required), temp, setpoint. Units follow a
    colon: power W|kW, temperatures C|F; time is auto-detected (numeric
    seconds or ISO-8601).
    """
    out: dict[str, tuple[str, str | None]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"bad column-map entry {part!r} (need key=column)")
        key, rest = part.split("=", 1)
        key = key.strip()
        if key not in ("time", "power", "temp", "setpoint"):
            raise ConfigurationError(f"unknown column-map key {key!r}")
        column, _, unit = rest.partition(":")
        out[key] = (column.strip(), unit.strip() or None)
    for required in ("time", "power"):
        if required not in out:
            raise ConfigurationError(f"column map must declare {required!r}")
    return out


def _parse_time(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def load_measured_csv(path: str | Path,
                      column_map: dict[str, tuple[str, str | None]] | str,
                      reject_threshold: float = 0.01) -> MeasuredSeries:
    """Load and validate a measured fan-power CSV.

    Rows with unparsable or non-finite values or non-increasing timestamps
    are rejected individually (logged); the file is rejected outright when
    the reject fraction exceeds ``reject_threshold`` or declared columns are
    missing.
    """
    if isinstance(column_map, str):
        column_map = parse_column_map(column_map)
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")

    def conv(kind: str, unit: str | None):
        if kind == "power":
            table, default = _POWER_UNITS, "W"
        else:
            table, default = _TEMP_UNITS, "C"
        key = (unit or default).upper()
        if key not in table:
            raise ConfigurationError(f"unknown unit {unit!r} for {kind}")
        return table[key]

    power_conv = conv("power", column_map["power"][1])
    temp_conv = conv("temp", column_map.get("temp", ("", None))[1])
    set_conv = conv("setpoint", column_map.get("setpoint", ("", None))[1])

    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        for key in column_map:
            col = column_map[key][0]
            if col not in reader.fieldnames:
                raise DataFormatError(f"{path}: missing column {col!r}")

        t, power, temp, setp = [], [], [], []
        rejects: list[tuple[int, str]] = []
        n_rows = 0
        last_t = -math.inf
        for i, row in enumerate(reader):
            n_rows += 1
            try:
                stamp = _parse_time(row[column_map["time"][0]])
                p = power_conv(float(row[column_map["power"][0]]))
                tz = (temp_conv(float(row[column_map["temp"][0]]))
                      if "temp" in column_map else None)
                sz = (set_conv(float(row[column_map["setpoint"][0]]))
                      if "setpoint" in column_map else None)
            except (ValueError, KeyError) as exc:
                rejects.append((i, f"unparseable: {exc}"))
                continue
            if not all(math.isfinite(v) for v in (stamp, p, tz, sz) if v is not None):
                rejects.append((i, "non-finite value"))
                continue
            if stamp <= last_t:
                rejects.append((i, f"non-increasing timestamp {stamp}"))
                continue
            if p < 0:
                rejects.append((i, f"negative power {p}"))
                continue
            last_t = stamp
            t.append(stamp)
            power.append(p)
            if "temp" in column_map:
                temp.append(tz)
            if "setpoint" in column_map:
                setp.append(sz)

    if n_rows == 0:
        raise DataFormatError(f"{path}: no data rows")
    if len(rejects) > reject_threshold * n_rows:
        raise DataFormatError(
            f"{path}: {len(rejects)}/{n_rows} rows rejected "
            f"(threshold {reject_threshold:.0%}); first: {rejects[0]}")
    for idx, reason in rejects:
        log.warning("%s: rejected row %d (%s)", path, idx, reason)

    return MeasuredSeries(
        t=np.asarray(t), power=np.asarray(power),
        temp=np.asarray(temp) if temp else None,
        setpoint=np.asarray(setp) if setp else None,
        label=path.stem, rejects=rejects)


def resample(series: MeasuredSeries, dt: float,
             t_start: float | None = None, t_end: float | None = None) -> Trace:
    """Linearly interpolate a measured series onto a uniform grid.

    The grid defaults to the series' own span; an explicit request outside
    the span is an error. Series the measurement lacks are NaN-filled.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    t0 = float(series.t[0]) if t_start is None else float(t_start)
    t1 = float(series.t[-1]) if t_end is None else float(t_end)
    if t0 < series.t[0] - 1e-9 or t1 > series.t[-1] + 1e-9:
        raise ConfigurationError(
            f"requested grid [{t0}, {t1}] outside measured span "
            f"[{series.t[0]}, {series.t[-1]}]")
    if t1 < t0:
        raise ConfigurationError("grid end precedes grid start")
    n = int(math.floor((t1 - t0) / dt + 1e-9))
    grid = t0 + np.arange(n + 1, dtype=float) * dt
    kw = {name: np.full(n + 1, math.nan) for name in SERIES_FIELDS}
    kw.update(t=grid, p_fan=np.interp(grid, series.t, series.power),
              p_event_ref=np.zeros(n + 1))
    for name, measured in (("t_room", series.temp), ("t_set_eff", series.setpoint)):
        if measured is not None:
            kw[name] = np.interp(grid, series.t, measured)
    return Trace(**kw, mode="measured", scenario_id=series.label, source="measured")


# ---------------------------------------------------------------------------
# scenario config files
# ---------------------------------------------------------------------------

def _from_fahrenheit(value) -> float:
    return fahrenheit_to_celsius(float(value))


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _deltas_f_to_k(values) -> tuple[float, ...]:
    return tuple(delta_f_to_k(float(x)) for x in values)


# config key -> (dataclass field, converter), one table per section; a field
# reachable from two keys (degC / degF, K / F) takes exactly one of them
_BUILDING_KEYS = {
    "c_room_j_per_k": ("c_room", float), "c_wall_j_per_k": ("c_wall", float),
    "r_wall_k_per_w": ("r_wall", float), "q_internal_w": ("q_internal", float),
    "t_outdoor_nominal_c": ("t_outdoor_nominal", float),
    "t_outdoor_nominal_f": ("t_outdoor_nominal", _from_fahrenheit),
    "t_supply_c": ("t_supply", float), "t_supply_f": ("t_supply", _from_fahrenheit),
    "c_p_air_j_per_kg_k": ("c_p_air", float),
    "mix_r": ("mix_r", float), "mix_c": ("mix_c", float),
}
_CONTROL_KEYS = {
    "kp_temp": ("kp_temp", float), "ki_temp": ("ki_temp", float),
    "kp_power": ("kp_power", float), "ki_power": ("ki_power", float),
    "tau_airflow_s": ("tau_airflow", float), "tau_fan_s": ("tau_fan", float),
    "fan_coeff_w_per_kg_s": ("fan_coeff", float),
    "t_set_nominal_c": ("t_set_nominal", float),
    "t_set_nominal_f": ("t_set_nominal", _from_fahrenheit),
}
_EVENT_KEYS = {
    "kind": ("kind", str), "half_duration_s": ("half_duration", float),
    "setpoint_deltas_k": ("setpoint_deltas", _floats),
    "setpoint_deltas_f": ("setpoint_deltas", _deltas_f_to_k),
    "power_deltas_w": ("power_deltas", _floats),
    "power_delta_frac": ("power_delta_frac", float),
    "forced_settle_s": ("forced_settle_duration", float),
}
_STEP_KEYS = {
    "step_at_s": ("t_step", float), "step_c": ("delta", float),
    "step_f": ("delta", lambda value: delta_f_to_k(float(value))),
}
_ROOT_KEYS = {
    "scenario_id": ("scenario_id", str), "mode": ("mode", str),
    "dt_s": ("dt", float), "warmup_s": ("warmup", float),
    "settle_duration_s": ("settle_duration", float),
}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _fields(section: dict, table: dict, where: str) -> dict:
    """Dataclass keyword arguments for the keys a config section gives.

    Keys the section omits are left out, so the dataclass supplies their
    defaults.
    """
    _check_keys(section, set(table), where)
    kw, given_as = {}, {}
    for key, value in section.items():
        name, convert = table[key]
        if name in given_as:
            raise ConfigurationError(f"give either {given_as[name]} or {key}, not both")
        given_as[name] = key
        try:
            kw[name] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: bad value for {key}: {exc}") from exc
    return kw


def _profile_from_config(spec, nominal: float) -> OutdoorProfile:
    try:
        if isinstance(spec, dict):
            kw = _fields(spec, _STEP_KEYS, "outdoor profile")
            if "t_step" not in kw:
                raise ConfigurationError(f"bad outdoor profile spec: {spec}")
            return OutdoorProfile.step_at(nominal, kw["t_step"], kw.get("delta", 0.0))
        pairs = [(float(t), float(v)) for t, v in spec]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"outdoor profile: bad value: {exc}") from exc
    return OutdoorProfile(times=tuple(t for t, _ in pairs),
                          values=tuple(v for _, v in pairs))


def load_scenario_config(path: str | Path) -> Scenario:
    """Build a Scenario from a YAML config file.

    Every field is optional; the scenario id defaults to the file's stem and
    every other omission to the dataclass defaults (an open-loop scenario
    with the calibrated building and gains).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such config file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a mapping")
    sections = {name: raw.pop(name, None) or {}
                for name in ("building", "control", "event", "outdoor")}
    kw = {"scenario_id": path.stem, **_fields(raw, _ROOT_KEYS, "config root")}

    params = BuildingParams(**_fields(sections["building"], _BUILDING_KEYS, "building"))
    gains = ControllerGains(**_fields(sections["control"], _CONTROL_KEYS, "control"))
    event = EventSchedule(**_fields(sections["event"], _EVENT_KEYS, "event"))
    outdoor = sections["outdoor"]
    _check_keys(outdoor, {"actual", "predicted"}, "outdoor")
    profiles = {f"oa_{name}": _profile_from_config(spec, params.t_outdoor_nominal)
                for name, spec in outdoor.items() if spec is not None}
    return Scenario(params=params, gains=gains, event=event, **profiles, **kw)
