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


def _parse_time(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


_TEMP_UNITS = {"C": float, "F": lambda text: fahrenheit_to_celsius(float(text))}
# column-map key -> (converter of a field's text by upper-cased unit, default
# unit), in the order a row's fields are read; time takes no unit
_COLUMNS = {"time": ({"": _parse_time}, ""),
            "power": ({"W": float, "KW": lambda text: float(text) * 1000.0}, "W"),
            "temp": (_TEMP_UNITS, "C"), "setpoint": (_TEMP_UNITS, "C")}


def parse_column_map(spec: str) -> dict[str, tuple[str, str | None]]:
    """Parse ``"time=ts,power=fan:kW,temp=zone:F"`` into a column map.

    Keys: time (required), power (required), temp, setpoint, each given
    once. Units follow a colon: power W|kW, temperatures C|F. Time takes
    none: it is numeric seconds or ISO-8601, told apart field by field.
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
        if key not in _COLUMNS:
            raise ConfigurationError(f"unknown column-map key {key!r}")
        if key in out:
            raise ConfigurationError(f"column-map key {key!r} given twice")
        column, _, unit = (text.strip() for text in rest.partition(":"))
        units, default = _COLUMNS[key]
        if (unit or default).upper() not in units:
            raise ConfigurationError(f"unknown unit {unit!r} for {key}")
        out[key] = (column, unit or None)
    for required in ("time", "power"):
        if required not in out:
            raise ConfigurationError(f"column map must declare {required!r}")
    return out


def load_measured_csv(path: str | Path, spec: str) -> MeasuredSeries:
    """Load and validate a measured fan-power CSV, columns mapped by ``spec``.

    ``spec`` is a :func:`parse_column_map` string; a unit on time or a key
    given twice is a ``ConfigurationError``. Every declared column is
    converted the same way, by its unit. Rows with unparsable or non-finite
    values or non-increasing timestamps are rejected individually (logged);
    the file is rejected outright when the reject fraction exceeds
    ``REJECT_THRESHOLD`` or declared columns are missing.
    """
    column_map = parse_column_map(spec)
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    # each declared column's name and converter, in the order of _COLUMNS
    converters = {key: (column_map[key][0], units[(column_map[key][1] or default).upper()])
                  for key, (units, default) in _COLUMNS.items() if key in column_map}

    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read measured data from {path}: {exc}") from exc
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    for col, _ in converters.values():
        if col not in header:
            raise DataFormatError(f"{path}: missing column {col!r}")

    columns: dict[str, list[float]] = {key: [] for key in converters}
    rejects: list[tuple[int, str]] = []
    n_rows = len(rows)
    last_t = -math.inf
    for i, row in enumerate(rows):
        try:
            values = {key: conv(row[col]) for key, (col, conv) in converters.items()}
        except (ValueError, KeyError, TypeError) as exc:  # TypeError: a short row
            rejects.append((i, f"unparseable: {exc}"))
            continue
        stamp, p = values["time"], values["power"]
        if not all(map(math.isfinite, values.values())):
            rejects.append((i, "non-finite value"))
            continue
        if stamp <= last_t:
            rejects.append((i, f"non-increasing timestamp {stamp}"))
            continue
        if p < 0:
            rejects.append((i, f"negative power {p}"))
            continue
        last_t = stamp
        for key, value in values.items():
            columns[key].append(value)

    if n_rows == 0:
        raise DataFormatError(f"{path}: no data rows")
    if len(rejects) > REJECT_THRESHOLD * n_rows:
        raise DataFormatError(
            f"{path}: {len(rejects)}/{n_rows} rows rejected "
            f"(threshold {REJECT_THRESHOLD:.0%}); first: {rejects[0]}")
    for idx, reason in rejects:
        log.warning("%s: rejected row %d (%s)", path, idx, reason)

    arrays = {key: np.asarray(column) for key, column in columns.items()}
    return MeasuredSeries(t=arrays.pop("time"), **arrays, label=path.stem,
                          rejects=rejects)


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
