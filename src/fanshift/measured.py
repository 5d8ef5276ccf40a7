"""Measured building time series: load a fan-power CSV and resample it.

Only ``compare-models --measured`` reads measured data, so the CLI imports
this module then and no other command pays for it. A column map names the
file's columns and their units; ``F`` temperatures and ``kW`` power are
converted to degC and W on load. Rows are checked one by one, and a file
with more than ``REJECT_THRESHOLD`` of them rejected is refused outright.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .thermal import fahrenheit_to_celsius
from .trace import SERIES_FIELDS, Trace, grid_slack

__all__ = ["MeasuredSeries", "parse_column_map", "load_measured_csv", "resample"]

log = logging.getLogger(__name__)

# a measured file with a larger fraction of rejected rows is refused outright
REJECT_THRESHOLD = 0.01


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


def load_measured_csv(path: str | Path, spec: str) -> MeasuredSeries:
    """Load and validate a measured fan-power CSV, columns mapped by ``spec``.

    ``spec`` is a :func:`parse_column_map` string. Rows with unparsable or
    non-finite values or non-increasing timestamps are rejected individually
    (logged); the file is rejected outright when the reject fraction exceeds
    ``REJECT_THRESHOLD`` or declared columns are missing.
    """
    column_map = parse_column_map(spec)
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

    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read measured data from {path}: {exc}") from exc
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    for key in column_map:
        col = column_map[key][0]
        if col not in header:
            raise DataFormatError(f"{path}: missing column {col!r}")

    t, power, temp, setp = [], [], [], []
    rejects: list[tuple[int, str]] = []
    n_rows = len(rows)
    last_t = -math.inf
    for i, row in enumerate(rows):
        try:
            stamp = _parse_time(row[column_map["time"][0]])
            p = power_conv(float(row[column_map["power"][0]]))
            tz = (temp_conv(float(row[column_map["temp"][0]]))
                  if "temp" in column_map else None)
            sz = (set_conv(float(row[column_map["setpoint"][0]]))
                  if "setpoint" in column_map else None)
        except (ValueError, KeyError, TypeError) as exc:  # TypeError: a short row
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
    if len(rejects) > REJECT_THRESHOLD * n_rows:
        raise DataFormatError(
            f"{path}: {len(rejects)}/{n_rows} rows rejected "
            f"(threshold {REJECT_THRESHOLD:.0%}); first: {rejects[0]}")
    for idx, reason in rejects:
        log.warning("%s: rejected row %d (%s)", path, idx, reason)

    return MeasuredSeries(
        t=np.asarray(t), power=np.asarray(power),
        temp=np.asarray(temp) if temp else None,
        setpoint=np.asarray(setp) if setp else None,
        label=path.stem, rejects=rejects)


def resample(series: MeasuredSeries, dt: float) -> Trace:
    """Linearly interpolate a measured series onto a uniform grid over its span.

    A grid sample within the clock's rounding of the last time (``grid_slack``)
    is kept. Series the measurement lacks are NaN-filled.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be finite and positive")
    t0, t1 = float(series.t[0]), float(series.t[-1])
    n = int(math.floor((t1 - t0) / dt + grid_slack(t0, t1, dt)))
    grid = t0 + np.arange(n + 1, dtype=float) * dt
    kw = {name: np.full(n + 1, math.nan) for name in SERIES_FIELDS}
    kw.update(t=grid, p_fan=np.interp(grid, series.t, series.power),
              p_event_ref=np.zeros(n + 1))
    for name, measured in (("t_room", series.temp), ("t_set_eff", series.setpoint)):
        if measured is not None:
            kw[name] = np.interp(grid, series.t, measured)
    return Trace(**kw, dt=dt)
