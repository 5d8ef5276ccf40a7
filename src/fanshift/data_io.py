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
A writer makes the missing directories of its file when it writes the file.

A trace file holds the bytes ``np.savetxt`` writes, but each run of
identical samples is formatted once: a sample whose ``uint64`` bits equal
those of the sample before it in its column reuses that sample's text. The
text of a float is a function of its bits, so the bytes do not change;
comparing bits, not values, keeps ``-0`` apart from ``0``. The kernel
repeats settled samples bit for bit, so more than half the cells of a
forced-settling trace reuse a text. Rows are built ``TRACE_CHUNK_ROWS`` at
a time, as one ``bytes`` per chunk, so the memory a write takes does not
grow with the trace.

The texts of a chunk's run starts are computed together, in numpy integer
arithmetic that gives ``%.17g``'s bytes exactly. A float x with
2**-6 <= |x| < 2**53 is m / 2**s for a 53-bit integer m and 0 <= s <= 58,
and its text is the 17-digit integer N = |x| * 10**p rounded half to even,
p = 16 - k, with a point placed by the decimal exponent k, trailing zeros
trimmed and a sign. The float product |x| * 10**p is rounded once and is
below 2**57 for each k tried, so it lies within 9 of the exact one. The
wrapped ``uint64`` product m * 10**p holds the exact product's low 64 bits:
its bits s..s+5 are the low six bits of the floor, which single the floor
out among the 64 integers around the estimate, and its bits below s are the
exact remainder, which decides the rounding, ties included. k starts at
``floor(log10 |x|)`` and moves by one until 10**16 <= N < 10**17, so a
``log10`` one ulp off, or a rounding up to the next power of ten, still
gives the text ``%`` gives.
Digits come four at a time from a table, and each text is gathered from its
digits by a layout that depends only on its sign, k and trailing zeros.
Every other value (both zeros, subnormals, |x| < 2**-6, |x| >= 2**53, the
infinities and NaN) is formatted by ``FLOAT_FMT % x``, which is also what
the tests check the integer path against.

A command that writes the same run to several files passes ``write_trace``
a registry, a dict it owns for the whole command, and each distinct trace is
encoded once: a trace whose key is already registered is copied from the
file written for it. The key is a SHA-256 digest of the sample count and of
the ``float64`` bytes of every column, the view the encoder formats, so two
traces share a key exactly when their files would share every byte (bar a
digest collision); ``-0`` and ``0``, or two NaN payloads, stay apart as they
do in the text. The registry holds only digests and paths, never text.

A trace file holds ``t_s`` but not the step, so ``read_trace``, the one place
a ``t`` column comes in from outside, derives it and checks the sampling. The
step is ``t[1] - t[0]`` when ``t[0] + k * step`` rebuilds the column bit for
bit, as on a grid from zero. On an epoch clock (t ~ 1.7e9 s) that difference
carries the clock's rounding, so the step is then the span over the sample
count, with each sample within 4 float spacings of the largest |t| of
``t[0] + k * step``. A one-row file has no step.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import logging
import math
import shutil
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .control import ControllerGains
from .engine import (FORCED_SETTLE_DEFAULT, MODE_FORCED_SETTLING, EventSchedule,
                     OutdoorProfile, Scenario)
from .errors import ConfigurationError, DataFormatError
from .metrics import EventMetrics, EventWindow
from .thermal import BuildingParams, delta_f_to_k, fahrenheit_to_celsius
from .trace import SERIES_COLUMNS, SERIES_FIELDS, Trace, grid_slack

__all__ = [
    "MeasuredSeries",
    "ResultRecord",
    "RESULTS_HEADER",
    "parse_column_map",
    "load_measured_csv",
    "resample",
    "check_output_dir",
    "write_results",
    "read_results",
    "write_trace",
    "read_trace",
    "load_scenario_config",
]

log = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"
# a measured file with a larger fraction of rejected rows is refused outright
REJECT_THRESHOLD = 0.01
TRACE_HEADER = [column for _, column in SERIES_COLUMNS]
# rows of a trace file built and written at a time
TRACE_CHUNK_ROWS = 512
# run starts whose texts one numpy pass computes, which bounds its memory
_TEXT_BLOCK = 1024


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


# Byte offsets in an encoder work row of 24 bytes: "-0.", a NUL, the leading
# digit, ",", CRLF, then the other 16 digits as four groups of four.
_MINUS, _ZERO, _POINT, _NUL, _COMMA, _CR, _LF = 0, 1, 2, 3, 5, 6, 7
_WORK_HEAD = int.from_bytes(b"-0.\0", "little")
_WORK_LEAD = int.from_bytes(b"0,\r\n", "little")
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW10_FLOAT = _POW10.astype(np.float64)  # exact: 5**19 < 2**53


@functools.cache
def _encoder_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits, trailing zeros and layout tables of the cell encoder.

    Built on the first encode, not on import, which commands that write no
    trace would pay for. ``digits4[g]`` packs the four ASCII digits of
    0 <= g < 10**4 into a little-endian uint32 and ``zeros4[g]`` counts their
    trailing zeros (4 for 0000). ``layout`` holds a row of 23 work-row
    offsets per (row end, sign, k + 2, trailing zeros of N), flattened in
    that order: each byte of the cell, the text and then "," or, at a row
    end, CRLF, or a NUL past its end.
    """
    groups = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    digits4 = (groups + ord("0")).view("<u4").ravel()
    zeros4 = np.argmax(groups[:, ::-1] != 0, axis=1).astype(np.uint8)
    zeros4[0] = 4

    end, neg, k, zeros, j = np.ix_(range(2), range(2), range(-2, 16),
                                   range(17), range(23))
    figures = 17 - zeros
    q = j - neg  # the offset after the sign

    def digit(i):
        return np.where(i == 0, 4, 7 + i)

    body = np.where(k >= 0,
                    np.where(q <= k, digit(q),
                             np.where(q == k + 1, _POINT, digit(q - 1))),
                    np.where(q == 1, _POINT,
                             np.where(q < 1 - k, _ZERO, digit(q - 1 + k))))
    length = neg + np.where(k >= 0, np.where(figures <= k + 1, k + 1, figures + 1),
                            1 - k + figures)
    layout = np.select(
        [j < neg, j < length, j == length, (j == length + 1) & (end == 1)],
        [_MINUS, body, np.where(end, _CR, _COMMA), _LF], _NUL)
    return digits4, zeros4, layout.astype(np.uint8).reshape(-1, 23)


def _significand(m, s, a, k):
    """N = |x| * 10**(16 - k) rounded half to even, for |x| = m / 2**s."""
    p = 16 - k
    # wraps mod 2**64, which keeps the low 64 bits of the exact product
    product = m * _POW10.take(p)
    # the float product lies within 9 of the exact one, so the floor's low
    # six bits, bits s..s+5 of the exact product, pin the floor down
    near = (a * _POW10_FLOAT.take(p)).astype(np.uint64) - 32
    floor = near + ((product >> s) - near & 63)
    one = np.uint64(1) << s
    twice_rest = (product & one - 1) << 1  # twice the remainder mod 2**s
    return floor + ((twice_rest > one) | (twice_rest == one) & (floor & 1 == 1))


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17-digit significand N and decimal exponent k of each
    2**-6 <= a < 2**53, so that a rounds to N * 10**(k - 16)."""
    bits = a.view(np.uint64)
    m = bits & 2**52 - 1 | 2**52
    s = 1075 - (bits >> 52)  # a = m / 2**s, 0 <= s <= 58
    # log10 can be one off, and N can round up to 10**17
    k = np.floor(np.log10(a)).astype(np.intp)
    n = _significand(m, s, a, k)
    while True:
        off = (n >= 10**17).astype(np.intp) - (n < 10**16)
        fix = np.flatnonzero(off)
        if not len(fix):
            return n, k
        k[fix] += off[fix]
        n[fix] = _significand(m[fix], s[fix], a[fix], k[fix])


def _exact_texts(a: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """The cells of the values 2**-6 <= a < 2**53, each with the sign and the
    separator ``kind`` selects (row end * 2 + sign), as NUL-padded rows."""
    digits4, zeros4, layout = _encoder_tables()
    n, k = _decimal(a)
    high, low = np.divmod(n, 10**8)
    lead, high = np.divmod(high, 10**8)
    work = np.empty((len(n), 6), dtype="<u4")
    work[:, 0] = _WORK_HEAD
    work[:, 1] = lead + _WORK_LEAD
    zeros = 0  # the trailing zeros of N, counted group by group
    for i, group in enumerate((high // 10**4, high % 10**4, low // 10**4, low % 10**4)):
        work[:, 2 + i] = digits4.take(group)
        group_zeros = zeros4.take(group)
        zeros = np.where(group_zeros == 4, 4 + zeros, group_zeros)
    code = (kind * 18 + k + 2) * 17 + zeros
    offsets = layout.take(code, axis=0) + np.arange(0, 24 * len(n), 24)[:, None]
    return work.view(np.uint8).ravel().take(offsets)


def _cell_texts(x: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """The bytes of ``FLOAT_FMT % v`` and then "," or, where ``row_end``, CRLF,
    for each float64 ``v`` of ``x``, as NUL-padded rows."""
    exponent = x.view(np.uint64) >> 52 & 0x7FF
    exact = (exponent >= 1017) & (exponent <= 1075)  # 2**-6 <= |x| < 2**53
    a = np.where(exact, np.abs(x), 1.0)
    kind = row_end * 2 + np.signbit(x)
    texts = np.empty((len(x), 23), dtype=np.uint8)
    for lo in range(0, len(x), _TEXT_BLOCK):
        block = slice(lo, lo + _TEXT_BLOCK)
        texts[block] = _exact_texts(a[block], kind[block])
    if not exact.all():
        rest = np.flatnonzero(~exact)
        cells = [(FLOAT_FMT % v).encode() + (b"\r\n" if end else b",")
                 for v, end in zip(x[rest].tolist(), row_end[rest].tolist())]
        width = max(texts.shape[1], *map(len, cells))
        if width > texts.shape[1]:
            texts = np.pad(texts, ((0, 0), (0, width - texts.shape[1])))
        cells = np.array(cells, dtype=f"S{width}").view(np.uint8)
        texts[rest] = cells.reshape(len(rest), width)
    return texts


def _trace_chunks(columns: list[np.ndarray]):
    """The CSV rows of equal-length columns, as bytes of ``TRACE_CHUNK_ROWS``
    rows each."""
    for lo in range(0, len(columns[0]), TRACE_CHUNK_ROWS):
        # one row per column, so each column's run starts are contiguous
        x = np.array([column[lo:lo + TRACE_CHUNK_ROWS] for column in columns],
                     dtype=np.float64)
        bits = x.view(np.uint64)
        # a chunk's first row always starts a run, so chunks share no state
        starts = np.ones(x.shape, dtype=bool)
        np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
        row_end = np.zeros(x.shape, dtype=bool)
        row_end[-1] = True
        # a cell's run start is the last start at or before it in its column
        run = np.cumsum(starts.ravel()).reshape(x.shape).T - 1
        cells = _cell_texts(x[starts], row_end[starts]).take(run, axis=0)
        # the NUL padding goes; the text holds no NUL
        yield cells.tobytes().translate(None, b"\0")


def _trace_key(columns: list[np.ndarray]) -> bytes:
    """SHA-256 of the sample count and each column's ``float64`` bytes."""
    digest = hashlib.sha256(len(columns[0]).to_bytes(8, "little"))
    for column in columns:
        digest.update(np.ascontiguousarray(column, dtype=np.float64))
    return digest.digest()


def write_trace(trace: Trace, path: str | Path,
                written: dict[bytes, Path] | None = None) -> None:
    """Write a trace file: the bytes of ``np.savetxt`` with ``FLOAT_FMT``.

    The file's directory is made if it is missing. ``written``, when given,
    is the caller's registry of the traces already written, from digest to
    file. A trace found in it is copied from that file instead of encoded
    again; one not found is encoded and registered. The registry holds no
    text, so it costs a digest and a path per trace.
    """
    path = Path(path)
    columns = [getattr(trace, name) for name in SERIES_FIELDS]
    if written is not None:
        key = _trace_key(columns)
        # a file written over no longer holds the trace it was registered for
        for stale in [k for k, p in written.items() if p == path and k != key]:
            del written[stale]
        if key in written:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(written[key], path)
            except shutil.SameFileError:
                pass
            except OSError as exc:
                raise DataFormatError(f"cannot write trace to {path}: {exc}") from exc
            return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(",".join(TRACE_HEADER).encode() + b"\r\n")
            fh.writelines(_trace_chunks(columns))
    except OSError as exc:
        raise DataFormatError(f"cannot write trace to {path}: {exc}") from exc
    if written is not None:
        written[key] = path


def read_trace(path: str | Path) -> Trace:
    """Read a trace file on the step derived from its ``t_s`` column (above).

    The file holds samples only, so the trace has no labels to restore.
    """
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
    t, n = arr[:, 0], arr.shape[0]
    if n < 2:
        raise DataFormatError(f"{path}: a one-row trace has no step")
    if not np.all(np.isfinite(t)):
        raise DataFormatError(f"{path}: t_s holds a non-finite time")
    k, step = np.arange(n, dtype=float), float(t[1] - t[0])
    if not np.array_equal(t[0] + k * step, t):
        step = float(t[-1] - t[0]) / (n - 1)
        if not np.all(np.abs(t[0] + k * step - t) <= 4.0 * np.spacing(np.max(np.abs(t)))):
            raise DataFormatError(f"{path}: t_s is not uniformly sampled")
    if not 0 < step < math.inf:
        raise DataFormatError(f"{path}: t_s does not increase")
    return Trace(**dict(zip(SERIES_FIELDS, arr.T)), dt=step)


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

    Every key is optional except the event's command for its loop
    (``setpoint_deltas_k`` or ``_f`` for the default open loop,
    ``power_delta_frac`` for a closed one). The scenario id defaults to the
    file's stem and every other omission to the dataclass defaults (the
    calibrated building and gains), except that ``mode:
    closed_loop_forced_settling`` without ``forced_settle_s`` holds
    ``FORCED_SETTLE_DEFAULT`` (3600 s).
    """
    import yaml  # only configs need it; importing it costs every other command

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such config file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config from {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a mapping")
    sections = {name: raw.pop(name, None) or {}
                for name in ("building", "control", "event", "outdoor")}
    kw = {"scenario_id": path.stem, **_fields(raw, _ROOT_KEYS, "config root")}

    params = BuildingParams(**_fields(sections["building"], _BUILDING_KEYS, "building"))
    gains = ControllerGains(**_fields(sections["control"], _CONTROL_KEYS, "control"))
    event_kw = _fields(sections["event"], _EVENT_KEYS, "event")
    if kw.get("mode") == MODE_FORCED_SETTLING:
        event_kw.setdefault("forced_settle_duration", FORCED_SETTLE_DEFAULT)
    event = EventSchedule(**event_kw)
    outdoor = sections["outdoor"]
    _check_keys(outdoor, {"actual", "predicted"}, "outdoor")
    profiles = {f"oa_{name}": _profile_from_config(spec, params.t_outdoor_nominal)
                for name, spec in outdoor.items() if spec is not None}
    return Scenario(params=params, gains=gains, event=event, **profiles, **kw)
