"""Uniformly sampled simulation/measurement traces, each with its given step."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TraceAlignmentError

__all__ = ["Trace", "SERIES_COLUMNS", "SERIES_FIELDS", "aligned", "grid_slack"]

# (field, CSV column) of every per-sample series of a trace, in column order
SERIES_COLUMNS = (
    ("t", "t_s"), ("t_mix", "T_mix_C"), ("t_room", "T_room_C"), ("t_wall", "T_wall_C"),
    ("t_set_eff", "T_set_eff_C"), ("mdot_desired", "mdot_desired_kg_s"),
    ("mdot_actual", "mdot_actual_kg_s"), ("p_fan", "P_fan_W"),
    ("t_outdoor", "T_outdoor_C"), ("p_event_ref", "P_event_ref_W"),
)
SERIES_FIELDS = tuple(name for name, _ in SERIES_COLUMNS)


@dataclass(frozen=True)
class Trace:
    """Time series of every signal in a run, sampled every ``dt`` seconds.

    ``dt`` comes from whatever builds the grid, never from ``t``, whose
    ``t[0]`` need not be zero (measured data keeps its own clock). Sampling is
    checked only where a ``t`` column comes in from outside, by ``read_trace``.
    Series unavailable in measured data are NaN-filled. A trace is its
    samples and its step only, as its file is; the command that writes it
    holds the ``Scenario`` it came from.
    """

    t: np.ndarray
    t_mix: np.ndarray
    t_room: np.ndarray
    t_wall: np.ndarray
    t_set_eff: np.ndarray
    mdot_desired: np.ndarray
    mdot_actual: np.ndarray
    p_fan: np.ndarray
    t_outdoor: np.ndarray
    p_event_ref: np.ndarray
    dt: float

    def __post_init__(self):
        n = self.t.shape[0]
        if n < 1:
            raise TraceAlignmentError("trace needs at least one sample")
        for name in SERIES_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise TraceAlignmentError(
                    f"series {name!r} has shape {arr.shape}, expected ({n},)")

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])

    def index_at(self, time: float) -> int:
        """Index of the sample at ``time``; the time must sit on the grid."""
        t0 = float(self.t[0])
        pos = (time - t0) / self.dt
        idx = int(round(pos))
        if (idx < 0 or idx >= self.n_samples
                or abs(pos - idx) > grid_slack(t0, self.t[-1], self.dt)):
            raise TraceAlignmentError(
                f"time {time} not on trace grid (t0={t0}, dt={self.dt})")
        return idx

    def with_p_fan(self, p_fan: np.ndarray) -> "Trace":
        return replace(self, p_fan=np.asarray(p_fan, dtype=float))

    def sliced(self, start: int, stop: int) -> "Trace":
        """Sub-trace over sample indices [start, stop] inclusive, on the same step."""
        kw = {name: getattr(self, name)[start:stop + 1] for name in SERIES_FIELDS}
        return replace(self, **kw)


def grid_slack(t0: float, t1: float, dt: float) -> float:
    """How far, in steps of ``dt``, a time on a grid over [t0, t1] may sit off
    it: twice the 4 float spacings of the clock read_trace allows, >= 1e-6."""
    return max(1e-6, 8.0 * np.spacing(max(abs(t0), abs(t1))) / dt)


def aligned(a: Trace, b: Trace) -> None:
    """Raise unless two traces share the same time grid, bit for bit."""
    if a.dt != b.dt or not np.array_equal(a.t, b.t):
        raise TraceAlignmentError("traces are not on the same time grid")
