"""Results files, and the names of the trace and scenario-config codecs.

Output files are CSV: a header line, CRLF line ends, every float as ``%.17g``
(``FLOAT_FMT``, an exact round trip) and SI units named in the header. A
results file has one row per ``ResultRecord``, whose fields are its columns;
an undefined RTE is an empty field, never 0. Readers reject a malformed row
with ``DataFormatError``. A writer makes its file's missing directories.

``write_trace`` and ``read_trace`` (defined in ``tracefile``) and
``load_scenario_config`` (in ``scenario_config``) are imported when first
read from here, so a command compiles only the code it runs: ``simulate``
loads both modules, ``forced-settling`` and ``compare-models`` the codec,
``sweep-mixing`` neither. Measured data comes in through ``measured``.
"""

from __future__ import annotations

import csv
import importlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import DataFormatError
from .metrics import EventMetrics, EventWindow

__all__ = ["ResultRecord", "RESULTS_HEADER", "check_output_dir", "write_results",
           "read_results", "write_trace", "read_trace", "load_scenario_config"]

FLOAT_FMT = "%.17g"
# name -> the module that defines it, imported when the name is first read
_LOADED_ON_USE = {"write_trace": "tracefile", "read_trace": "tracefile",
                  "load_scenario_config": "scenario_config"}


def __getattr__(name: str):
    """A name of ``_LOADED_ON_USE``, from its module; called when it is first read."""
    if name not in _LOADED_ON_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LOADED_ON_USE[name]}", __package__)
    globals()[name] = value = getattr(module, name)  # later reads skip this call
    return value


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
    def from_metrics(cls, m: EventMetrics, window: EventWindow, *, scenario_id: str,
                     mode: str, kind: str, r: float, c: float) -> "ResultRecord":
        """``m``'s row; ``window_hr`` is ``window``'s t_start to t_settle, in hours."""
        return cls(scenario_id=scenario_id, mode=mode, kind=kind, r=r, c=c,
                   window_hr=(window.t_settle - window.t_start) / 3600.0,
                   e_in_j=m.energy_in, e_out_j=m.energy_out,
                   rte=m.rte, neutral=m.neutral,
                   residual_j=m.neutrality_residual, rmse_k=m.rmse_temp)


_RESULT_FIELDS = fields(ResultRecord)
RESULTS_HEADER = [f.metadata["column"] for f in _RESULT_FIELDS]


def check_output_dir(path: str | Path) -> Path:
    """``path`` as a ``Path``, if it is or can become a directory.

    Raises ``DataFormatError`` when ``path``, or the nearest of its parents
    that exists, is not a directory, so a command can refuse its ``--out``
    before it does any work.
    """
    path = Path(path)
    try:
        existing = next((p for p in (path, *path.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise DataFormatError(
                f"cannot write output to {path}: {existing} is not a directory")
    except OSError as exc:
        raise DataFormatError(f"cannot write output to {path}: {exc}") from exc
    return path


def write_results(records: list[ResultRecord], path: str | Path) -> None:
    """Write metrics rows in order, making the file's directory if it is missing."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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
