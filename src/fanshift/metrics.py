"""Virtual-battery metrics over paired (event, baseline) traces.

The deviation of fan power from its no-event baseline is the battery's power
trajectory: consumption above baseline charges it, below discharges it. Over
the settling window [t_start, t_settle]:

    energy_in  = integral of max(p_diff, 0)
    energy_out = integral of -min(p_diff, 0)
    rte        = energy_out / energy_in

An event is energy neutral when the *net* deviation over the event window
[t_start, t_end] (``event_net``) stays below ``NEUTRAL_FRAC`` of the total
shifted energy, a verdict ``evaluate_event`` alone makes; the open-loop
tuner solves the same net for zero, to a tighter stop rule. Room disruption
is measured as the RMS room-temperature deviation over the settling window.
All integrals are trapezoidal on the shared trace grid, exact for the
piecewise-linear synthetic traces used as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .trace import Trace, aligned

__all__ = [
    "NEUTRAL_FRAC",
    "EventWindow",
    "EventMetrics",
    "energy_in_out",
    "rte",
    "event_net",
    "temp_rmse",
    "normalize",
    "linear_baseline",
    "evaluate_event",
]

# an event is neutral when |net| < NEUTRAL_FRAC * (energy_in + energy_out)
NEUTRAL_FRAC = 0.05
# seconds of measured power averaged on each side of an event for its baseline
BASELINE_AVERAGING_S = 1800.0


@dataclass(frozen=True)
class EventWindow:
    """Event timing: start, end of commanded change, and assumed settling."""

    t_start: float
    t_end: float
    t_settle: float

    def __post_init__(self):
        if not self.t_start < self.t_end <= self.t_settle:
            raise ConfigurationError(
                f"need t_start < t_end <= t_settle, got "
                f"({self.t_start}, {self.t_end}, {self.t_settle})")

    def with_settle(self, t_settle: float) -> "EventWindow":
        return EventWindow(self.t_start, self.t_end, t_settle)


@dataclass(frozen=True)
class EventMetrics:
    """Flat metrics record for one (event, baseline) pair.

    ``rte`` is None when no charging energy was observed (undefined ratio,
    distinct from zero). Zero-energy events are neutral by convention.
    """

    energy_in: float            # J
    energy_out: float           # J
    rte: float | None
    neutrality_residual: float  # J, magnitude of event_net()'s signed net
    neutral: bool
    rmse_temp: float            # K over the settling window


def _window_indices(trace: Trace, t0: float, t1: float) -> tuple[int, int]:
    i0 = trace.index_at(t0)
    i1 = trace.index_at(t1)
    if i1 <= i0:
        raise ConfigurationError(f"window [{t0}, {t1}] spans no step of dt={trace.dt}")
    return i0, i1


def energy_in_out(event: Trace, baseline: Trace,
                  window: EventWindow) -> tuple[float, float]:
    """Charging and discharging energy (J) over [t_start, t_settle]."""
    aligned(event, baseline)
    i0, i1 = _window_indices(event, window.t_start, window.t_settle)
    diff = event.p_fan[i0:i1 + 1] - baseline.p_fan[i0:i1 + 1]
    e_in = float(np.trapezoid(np.maximum(diff, 0.0), dx=event.dt))
    e_out = float(np.trapezoid(np.maximum(-diff, 0.0), dx=event.dt))
    return e_in, e_out


def rte(energy_in: float, energy_out: float) -> float | None:
    """Round-trip efficiency; None when energy_in is zero (undefined)."""
    if energy_in < 0 or energy_out < 0:
        raise ConfigurationError("energies must be non-negative")
    if energy_in == 0.0:
        return None
    return energy_out / energy_in


def event_net(event: Trace, baseline: Trace, window: EventWindow) -> tuple[float, float]:
    """Signed net deviation (J) over the event window [t_start, t_end], and
    the integral of its magnitude there.

    The net is positive when the event drew more energy than its baseline.
    The traces need reach only t_end, so a march cut there gives the net of
    the full one.
    """
    aligned(event, baseline)
    i0, i1 = _window_indices(event, window.t_start, window.t_end)
    diff = event.p_fan[i0:i1 + 1] - baseline.p_fan[i0:i1 + 1]
    return (float(np.trapezoid(diff, dx=event.dt)),
            float(np.trapezoid(np.abs(diff), dx=event.dt)))


def temp_rmse(event: Trace, baseline: Trace, window: EventWindow) -> float:
    """RMS room-temperature deviation (K) over [t_start, t_settle]."""
    aligned(event, baseline)
    i0, i1 = _window_indices(event, window.t_start, window.t_settle)
    dev = event.t_room[i0:i1 + 1] - baseline.t_room[i0:i1 + 1]
    duration = float(event.t[i1] - event.t[i0])
    return math.sqrt(float(np.trapezoid(dev * dev, dx=event.dt)) / duration)


def normalize(trace: Trace, t0: float, t1: float) -> Trace:
    """Scale the whole trace's fan power so its mean over [t0, t1] is unity."""
    i0, i1 = _window_indices(trace, t0, t1)
    duration = float(trace.t[i1] - trace.t[i0])
    mean = float(np.trapezoid(trace.p_fan[i0:i1 + 1], dx=trace.dt)) / duration
    if mean <= 0.0:
        raise ConfigurationError("cannot normalize a trace with non-positive mean power")
    return trace.with_p_fan(trace.p_fan / mean)


def linear_baseline(measured: Trace, window: EventWindow) -> Trace:
    """Straight-line no-event baseline for measured fan power and room temperature.

    Each of the two series is anchored at its mean over the
    ``BASELINE_AVERAGING_S`` seconds before t_start (the sample at t_start,
    the event's first, excluded) and after t_settle, interpolated linearly
    between the anchors and held flat outside them, so ``temp_rmse`` against
    it measures the room's deviation from that line.
    """
    before = window.t_start - BASELINE_AVERAGING_S
    after = window.t_settle + BASELINE_AVERAGING_S
    t0 = float(measured.t[0])
    t1 = float(measured.t[-1])
    if before < t0 - 1e-9 or after > t1 + 1e-9:
        raise ConfigurationError(
            f"measured trace must extend {BASELINE_AVERAGING_S:.0f} s beyond the "
            f"window on both sides (have [{t0}, {t1}])")
    ia0, ia1 = _window_indices(measured, before, window.t_start)
    ib0, ib1 = _window_indices(measured, window.t_settle, after)
    frac = np.clip((measured.t - window.t_start)
                   / (window.t_settle - window.t_start), 0.0, 1.0)

    def line(series: np.ndarray) -> np.ndarray:
        pre = float(np.mean(series[ia0:ia1]))
        post = float(np.mean(series[ib0:ib1 + 1]))
        return pre + (post - pre) * frac

    return replace(measured, p_fan=line(measured.p_fan), t_room=line(measured.t_room))


def evaluate_event(event: Trace, baseline: Trace, window: EventWindow) -> EventMetrics:
    """All metrics for one pair, the neutrality verdict included: neutral when
    |event_net| < ``NEUTRAL_FRAC`` * (energy_in + energy_out), or that is 0."""
    e_in, e_out = energy_in_out(event, baseline, window)
    net, _ = event_net(event, baseline, window)
    return EventMetrics(
        energy_in=e_in,
        energy_out=e_out,
        rte=rte(e_in, e_out),
        neutrality_residual=abs(net),
        neutral=e_in + e_out == 0.0 or abs(net) < NEUTRAL_FRAC * (e_in + e_out),
        rmse_temp=temp_rmse(event, baseline, window),
    )
