"""Trace files, one row per sample in the columns of ``trace.SERIES_COLUMNS``.

``data_io.write_trace`` and ``read_trace`` import this module when first
read, so only ``simulate``, ``forced-settling`` and ``compare-models`` load it.

A trace file holds the bytes ``np.savetxt`` writes, but each run of
identical samples is formatted once: a sample whose ``uint64`` bits equal
those of the sample before it in its column reuses that sample's text. The
text of a float is a function of its bits, so the bytes do not change;
comparing bits, not values, keeps ``-0`` apart from ``0``. The kernel
repeats settled samples bit for bit, so more than half the cells of a
forced-settling trace reuse a text. Rows are built ``TRACE_CHUNK_ROWS`` at
a time, as one ``bytes`` per chunk, so the memory a write takes does not
grow with the trace.

The texts of a chunk's run starts are computed together, in one pass of
numpy integer arithmetic that gives ``%.17g``'s bytes exactly. A float x with
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

A trace file holds ``t_s`` but not the step, so ``read_trace``, the one place
a ``t`` column comes in from outside, derives it and checks the sampling. The
step is ``t[1] - t[0]`` when ``t[0] + k * step`` rebuilds the column bit for
bit, as on a grid from zero. On an epoch clock (t ~ 1.7e9 s) that difference
carries the clock's rounding, so the step is then the span over the sample
count, with each sample within 4 float spacings of the largest |t| of
``t[0] + k * step``. A one-row file has no step.
"""

from __future__ import annotations

import functools
import io
import math
import shutil
from pathlib import Path

import numpy as np

from .data_io import FLOAT_FMT
from .errors import DataFormatError
from .trace import SERIES_COLUMNS, SERIES_FIELDS, Trace

__all__ = ["TRACE_HEADER", "TRACE_CHUNK_ROWS", "write_trace", "read_trace"]

TRACE_HEADER = [column for _, column in SERIES_COLUMNS]
# rows of a trace file built and written at a time
TRACE_CHUNK_ROWS = 512


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

    Built on the first encode, not on import, which reading a trace would
    pay for. ``digits4[g]`` packs the four ASCII digits of
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
    # at most TRACE_CHUNK_ROWS * 10 texts, so one pass keeps memory bounded
    texts = _exact_texts(a, row_end * 2 + np.signbit(x))
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


def write_trace(trace: Trace, path: str | Path,
                copy_of: str | Path | None = None) -> None:
    """Write a trace file: the bytes of ``np.savetxt`` with ``FLOAT_FMT``.

    The file's directory is made if it is missing. ``copy_of``, when given,
    is a file the caller already wrote with ``trace`` by this function; it is
    copied instead of encoding ``trace`` again.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if copy_of is not None:
            shutil.copyfile(copy_of, path)
        else:
            with path.open("wb") as fh:
                fh.write(",".join(TRACE_HEADER).encode() + b"\r\n")
                fh.writelines(_trace_chunks([getattr(trace, name)
                                             for name in SERIES_FIELDS]))
    except OSError as exc:
        raise DataFormatError(f"cannot write trace to {path}: {exc}") from exc


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
