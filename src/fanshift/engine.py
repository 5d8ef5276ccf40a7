"""Fixed-step simulation engine for load-shifting experiments.

A :class:`Scenario` fully describes one experiment: building, gains, event
schedule (whose command names its loop), outdoor profiles (actual and
predicted) and timestep. A run marches the plant and controllers over
[0, t_settle] with a classical 4th-order Runge-Kutta step for the plant and
exact exponential updates for the lags, all inputs zero-order-held over each
step. Runs start from the analytic equilibrium, the temperature integral
carrying the equilibrium flow: a bit-exact fixed point, where runs sit flat
and unmarched until an input changes.
Every run takes its scenario alone, and ``_run`` alone builds its inputs.

Identical scenarios produce bit-identical traces: the engine is seed-free.
A baseline is the open-loop run of a zero setpoint schedule under the
forecast. The last two are memoised, and every caller of one gets the
memoised trace itself, read-only and shared, so a baseline that several runs
share (the one a closed loop subtracts included) marches once. An event run
marches each time it is asked for. A trace carries no label of the scenario
it came from; the command that writes it holds that. The open-loop tuner
solves the signed net over the event window for zero, to within
``NET_STOP_FRAC`` of the probe's own integral of |p_fan - p_base| there. Its
probes march only to the t_end sample, the prefix of the full march to the
bit, since the net reads nothing later. It marches no root to t_settle: the
stop rule is tighter than the results' verdict (``metrics.evaluate_event``),
so the root's row is neutral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import kernels, metrics
from .control import MDOT_LIMIT_FACTOR, ControllerGains
from .errors import ConfigurationError, NumericalError, TuningError
from .thermal import BuildingParams, equilibrium
from .trace import SERIES_FIELDS, Trace

__all__ = [
    "OutdoorProfile",
    "EventSchedule",
    "Scenario",
    "run_baseline",
    "run_open_loop",
    "run_closed_loop",
    "tune_open_loop_event",
    "MODE_OPEN_LOOP",
    "MODE_CLOSED_LOOP",
    "MODE_FORCED_SETTLING",
    "KIND_UP_DOWN",
    "KIND_DOWN_UP",
]

MODE_OPEN_LOOP = "open_loop"
MODE_CLOSED_LOOP = "closed_loop"
MODE_FORCED_SETTLING = "closed_loop_forced_settling"
# the spellings of a Scenario's init-only ``mode``; both closed ones name one loop
MODES = (MODE_OPEN_LOOP, MODE_CLOSED_LOOP, MODE_FORCED_SETTLING)
# the hold a config spelled closed_loop_forced_settling gets when it gives none, s
FORCED_SETTLE_DEFAULT = 3600.0

KIND_UP_DOWN = "UP_DOWN"
KIND_DOWN_UP = "DOWN_UP"
KINDS = (KIND_UP_DOWN, KIND_DOWN_UP)
# the sign of each kind's first-half power shift; a pair's commands are negatives
KIND_SIGN = {KIND_UP_DOWN: 1.0, KIND_DOWN_UP: -1.0}

# temperatures this far outside [t_supply, max outdoor] mean the integrator
# has blown up; checked in one numpy pass once the march ends
_SANITY_MARGIN_K = 5.0
# explicit RK4 is stable on the real axis to about 2.785/tau; reject steps
# beyond 2.5x the fastest estimated plant time constant
_RK4_DT_SAFETY = 2.5
# the tuner stops at |net| <= NET_STOP_FRAC * integral of |p_fan - p_base|,
# both over the probe's event window
NET_STOP_FRAC = 1e-4
# probes the tuner makes after its first, bracketing and solving together
_MAX_PROBES = 40
# the first nonzero magnitude probed when the initial |delta2| is 0, K
_FIRST_MAGNITUDE_K = 1e-3
# the longest step outward before a sign bracket, in spacings of the two
# latest probes
_MAX_EXPANSION = 8.0


@dataclass(frozen=True)
class OutdoorProfile:
    """Piecewise-constant outdoor temperature, degC."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigurationError("profile needs matching, non-empty times/values")
        if not all(map(math.isfinite, (*self.times, *self.values))):
            raise ConfigurationError("profile times and values must be finite")
        if self.times[0] != 0.0:
            raise ConfigurationError("profile must start at t=0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigurationError("profile times must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "OutdoorProfile":
        return cls(times=(0.0,), values=(float(value),))

    @classmethod
    def step_at(cls, base: float, t_step: float, delta: float) -> "OutdoorProfile":
        """Constant ``base`` with a permanent step of ``delta`` at ``t_step``."""
        if t_step <= 0:
            raise ConfigurationError("step time must be positive")
        return cls(times=(0.0, float(t_step)), values=(float(base), float(base + delta)))

    def series(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), times, side="right") - 1
        return np.asarray(self.values, dtype=float)[idx]


@dataclass(frozen=True)
class EventSchedule:
    """What the event commands and when.

    Open-loop events move the setpoint by ``setpoint_deltas`` (K) over the
    two halves; closed-loop events shift fan power by ``power_delta_frac`` of
    the baseline fan power at event start, so the command names the loop
    (:attr:`mode`). DOWN_UP cuts power first (setpoint up), UP_DOWN raises it
    first.

    ``forced_settle_duration`` (s) is the hold: how long a closed-loop
    event's power PI stays engaged after the event, tracking a zero power
    deviation. It defaults to 0, the loop handed back at the event's end; an
    open-loop event must leave it 0. A config file that spells its mode
    ``closed_loop_forced_settling`` and gives no ``forced_settle_s`` holds
    ``FORCED_SETTLE_DEFAULT`` (3600 s).
    """

    kind: str = KIND_UP_DOWN
    half_duration: float = 1800.0
    setpoint_deltas: tuple[float, float] | None = None
    power_delta_frac: float | None = None
    forced_settle_duration: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown event kind {self.kind!r}")
        if not 0 <= self.half_duration < math.inf:
            raise ConfigurationError("half_duration must be finite and >= 0")
        if not 0 <= self.forced_settle_duration < math.inf:
            raise ConfigurationError("forced_settle_duration must be finite and >= 0")
        if self.power_delta_frac is not None and not 0 <= self.power_delta_frac < math.inf:
            raise ConfigurationError("power_delta_frac must be finite and >= 0")
        if self.setpoint_deltas is not None:
            if len(self.setpoint_deltas) != 2:
                raise ConfigurationError(
                    f"setpoint_deltas needs two deltas, got {len(self.setpoint_deltas)}")
            d1, d2 = self.setpoint_deltas
            if not all(map(math.isfinite, (d1, d2))):
                raise ConfigurationError(f"event deltas must be finite, got {(d1, d2)}")
            # setpoint up cuts power: a power shift's sign is its delta's opposite
            sign = KIND_SIGN[self.kind]
            if not sign * d1 <= 0.0 <= sign * d2:
                raise ConfigurationError(f"{self.kind} needs setpoint deltas "
                                         f"({'+-'[sign > 0]}, {'-+'[sign > 0]})")

    @property
    def duration(self) -> float:
        return 2.0 * self.half_duration

    @property
    def mode(self) -> str:
        """The loop the command names, as rows spell it: a closed loop by its hold."""
        if self.power_delta_frac is None:
            return MODE_OPEN_LOOP
        return MODE_FORCED_SETTLING if self.forced_settle_duration > 0 else MODE_CLOSED_LOOP


# the zero setpoint schedule of every baseline, and a Scenario's default event
_NO_EVENT = EventSchedule(half_duration=0.0, setpoint_deltas=(0.0, 0.0))


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description.

    The event names the loop (:attr:`EventSchedule.mode`) and must carry its
    command alone. ``mode`` is an init-only spelling of that loop, one of
    ``MODES`` (either closed-loop spelling names the one closed loop):
    checked against the command, then dropped, so a ``replace`` that swaps
    the event leaves no stale loop behind. Left None, the command alone
    decides. The default event, the zero setpoint schedule of a baseline,
    builds an open-loop scenario that is only run for its baseline.
    """

    params: BuildingParams = field(default_factory=BuildingParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    event: EventSchedule = _NO_EVENT
    mode: InitVar[str | None] = None
    dt: float = 1.0
    warmup: float = 7200.0
    settle_duration: float = 35_000.0
    oa_actual: OutdoorProfile | None = None
    oa_predicted: OutdoorProfile | None = None
    scenario_id: str = "scenario"

    def __post_init__(self, mode: str | None):
        if mode is not None and mode not in MODES:
            raise ConfigurationError(f"unknown mode {mode!r}")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError("dt must be finite and positive")
        if not (0 <= self.warmup < math.inf and 0 <= self.settle_duration < math.inf):
            raise ConfigurationError("warmup and settle_duration must be finite and >= 0")
        loop = self.event.mode if mode is None else mode
        if loop == MODE_OPEN_LOOP and self.event.forced_settle_duration > 0:
            raise ConfigurationError(
                "an open-loop event has no forced-settle hold, got "
                f"forced_settle_duration={self.event.forced_settle_duration:g}")
        # a loop reads only its own command; the other loop's would be dropped
        own, other = (("setpoint_deltas", "power_delta_frac") if loop == MODE_OPEN_LOOP
                      else ("power_delta_frac", "setpoint_deltas"))
        if getattr(self.event, own) is None or getattr(self.event, other) is not None:
            raise ConfigurationError(f"{loop} events take {own} and no {other}")
        if self.event.duration + self.event.forced_settle_duration > self.settle_duration:
            raise ConfigurationError(
                "event and forced-settle hold do not fit inside the settling window")
        # from 2**53 steps on every float is an integer: no multiple check can fail
        if self.t_settle / self.dt >= 2.0 ** 53:
            raise ConfigurationError(f"a run takes at most 2**53 - 1 steps of dt={self.dt}")
        for name, value in (("warmup", self.warmup),
                            ("half_duration", self.event.half_duration),
                            ("settle_duration", self.settle_duration),
                            ("forced_settle_duration", self.event.forced_settle_duration)):
            if self.whole_steps(value) is None:
                raise ConfigurationError(f"{name}={value} is not a multiple of dt={self.dt}")
        if self.oa_actual is None:
            object.__setattr__(self, "oa_actual",
                               OutdoorProfile.constant(self.params.t_outdoor_nominal))
        if self.oa_predicted is None:
            object.__setattr__(self, "oa_predicted",
                               OutdoorProfile.constant(self.params.t_outdoor_nominal))

    @property
    def t_start(self) -> float:
        return self.warmup

    @property
    def t_end(self) -> float:
        return self.warmup + self.event.duration

    @property
    def t_settle(self) -> float:
        return self.warmup + self.settle_duration

    def whole_steps(self, seconds: float) -> int | None:
        """``seconds`` in whole steps (within 1e-9 steps), or None off the dt grid."""
        steps = seconds / self.dt
        return round(steps) if abs(steps - round(steps)) <= 1e-9 else None

    @property
    def n_steps(self) -> int:
        return int(round(self.t_settle / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1, dtype=float) * self.dt

    def window(self) -> metrics.EventWindow:
        return metrics.EventWindow(self.t_start, self.t_end, self.t_settle)


def _model_id(params: BuildingParams) -> int:
    return kernels.MODEL_MIXING if params.uses_mixing_model else kernels.MODEL_ORIGINAL


def _check_step_size(scenario: Scenario, mdot_max: float) -> None:
    p = scenario.params
    # the air node the supply enters: the pocket, or the whole room
    c_air, r_air = (p.c_mix, p.r_mix) if p.uses_mixing_model else (p.c_room, p.r_wall)
    tau_fast = c_air / (1.0 / r_air + mdot_max * p.c_p_air)
    if scenario.dt > _RK4_DT_SAFETY * tau_fast:
        raise ConfigurationError(
            f"dt={scenario.dt} s is unstable for this plant (fastest time "
            f"constant ~{tau_fast:.3g} s); use dt <= {_RK4_DT_SAFETY * tau_fast:.3g} s")


def _halves(scenario: Scenario, d1: float, d2: float) -> np.ndarray:
    """Square wave: d1 over the event's first half, d2 over its second, else 0."""
    wave = np.zeros(scenario.n_steps + 1)
    # Scenario keeps the warmup and the half duration whole steps
    start = scenario.whole_steps(scenario.t_start)
    half = scenario.whole_steps(scenario.event.half_duration)
    wave[start:start + half] = d1
    wave[start + half:start + 2 * half] = d2
    return wave


def _run(scenario: Scenario, until: float | None = None) -> Trace:
    """March ``scenario`` from the equilibrium start, its inputs built here.

    Outdoor air follows the actual profile. An open loop gets its setpoint
    square wave; a closed loop subtracts :func:`run_baseline`'s fan power,
    tracks a power reference sized from it at t_start and engages the power
    PI over [t_start, t_end + hold). ``until`` (a time on the grid) stops the
    march at that sample, the full horizon's inputs and sanity bounds cut
    there: every state and ``p_fan`` sample is the full march's to the bit
    (the last commands get a zero step, as at any march's end).
    """
    p, g = scenario.params, scenario.gains
    n = scenario.n_steps
    times = scenario.times()
    t_out = scenario.oa_actual.series(times)
    t_set = np.full(n + 1, g.t_set_nominal)
    p_ref = p_base = np.zeros(n + 1)
    engaged = np.zeros(n + 1, dtype=np.uint8)
    if scenario.event.mode == MODE_OPEN_LOOP:
        t_set += _halves(scenario, *scenario.event.setpoint_deltas)
    else:
        p_base = run_baseline(scenario).p_fan
        start = scenario.whole_steps(scenario.t_start)
        event = scenario.event
        shift = KIND_SIGN[event.kind] * event.power_delta_frac * p_base[start]
        p_ref = _halves(scenario, shift, -shift)
        engaged[start:start + 2 * scenario.whole_steps(event.half_duration)
                + scenario.whole_steps(event.forced_settle_duration)] = 1

    t_mix0, t_wall0, mdot_eq = equilibrium(p, g.t_set_nominal, float(t_out[0]))
    i_temp0 = mdot_eq / g.ki_temp if g.ki_temp > 0 else 0.0
    mdot_max = MDOT_LIMIT_FACTOR * mdot_eq
    _check_step_size(scenario, mdot_max)

    t_low = p.t_supply - _SANITY_MARGIN_K
    t_high = max(float(np.max(t_out)), p.t_outdoor_nominal) + _SANITY_MARGIN_K
    if until is not None:
        n = int(round(until / scenario.dt))
        times, t_out, t_set, p_ref, engaged, p_base = (
            a[:n + 1] for a in (times, t_out, t_set, p_ref, engaged, p_base))
    # the kernel's output arrays, in the order of its ``outs``
    outs = {name: np.empty(n + 1) for name in (
        "t_mix", "t_room", "t_wall", "t_set_eff", "mdot_desired", "mdot_actual",
        "p_fan")}

    status, _marched = kernels.simulate_loop(
        _model_id(p), n, scenario.dt, p, g, mdot_max, t_low, t_high,
        t_out, t_set, p_ref, engaged, p_base,
        (t_mix0, g.t_set_nominal, t_wall0, i_temp0, mdot_eq, g.fan_coeff * mdot_eq),
        tuple(outs.values()))

    if status >= 0:
        i = int(status)
        raise NumericalError(
            f"state left its sanity bounds at t={i * scenario.dt:.1f} s "
            f"(sample {i} of {n})",
            sample={"t": i * scenario.dt,
                    **{name: float(out[i]) for name, out in outs.items()},
                    "bounds": (t_low, t_high)})

    return Trace(
        t=times, **outs, t_outdoor=t_out, p_event_ref=p_ref, dt=scenario.dt)


def run_baseline(scenario: Scenario) -> Trace:
    """No-event run under the *predicted* outdoor profile.

    This is the counterfactual the power controller subtracts from measured
    fan power; it starts at the analytic equilibrium for the nominal setpoint.
    It is the open-loop run of a zero setpoint schedule under the forecast,
    memoised: the trace itself, read-only and shared by every scenario that
    differs only in its event, id or actual profile.
    """
    return _memo_open_loop(replace(scenario, event=_NO_EVENT, scenario_id="",
                                   oa_actual=scenario.oa_predicted))


def run_open_loop(scenario: Scenario) -> Trace:
    """Predetermined setpoint-schedule event under the *actual* outdoor profile.

    Marched on each call: no command asks for one event twice.
    """
    if scenario.event.mode != MODE_OPEN_LOOP:
        raise ConfigurationError("run_open_loop needs an open-loop scenario")
    return _run(scenario)


# the no-event runs of ``run_baseline``: no command holds more than two, a
# flat and a stepped forecast
@functools.lru_cache(maxsize=2)
def _memo_open_loop(scenario: Scenario) -> Trace:
    """The full open-loop march of ``scenario``, with read-only arrays."""
    trace = _run(scenario)
    for name in SERIES_FIELDS:
        getattr(trace, name).setflags(write=False)
    return trace


def run_closed_loop(scenario: Scenario) -> Trace:
    """Power-tracking event under the *actual* outdoor profile.

    The power PI is engaged over [t_start, t_end + hold), where the hold is
    the event's ``forced_settle_duration``: a square-wave power reference
    over the event, then a zero one. It then hands back to the temperature
    controller, whose integral carries over unchanged. Every closed-loop
    event runs this one path, held or not. Its baseline, :func:`run_baseline`,
    supplies both the feedback subtraction and the fan power at t_start that
    ``power_delta_frac`` scales.
    """
    if scenario.event.mode == MODE_OPEN_LOOP:
        raise ConfigurationError("run_closed_loop needs a closed-loop scenario")
    return _run(scenario)


def tune_open_loop_event(scenario: Scenario) -> EventSchedule:
    """Solve the second setpoint delta for an energy-neutral event.

    Holds the first delta fixed and finds the magnitude of the second at
    which the signed event-window net (:func:`metrics.event_net`, taken
    against the counterfactual that result rows use: the no-event run under
    the *actual* outdoor profile) is zero, to within ``NET_STOP_FRAC`` of the
    probe's own integral of |p_fan - p_base| over [t_start, t_end]. The net
    moves monotonically with the magnitude, so a safeguarded secant search
    finds its sign change (:func:`_neutral_magnitude`). Each probe is cut at
    the t_end sample (:func:`_run`'s ``until``), all the net reads, so its net
    is the full march's to the bit; no magnitude is probed twice.

    A schedule that already meets the stop rule is returned unchanged. The
    root is neither marched to t_settle nor judged here: its row's net is the
    probe's and its E_in + E_out is at least the probe's scale, so the stop
    rule (``NET_STOP_FRAC`` < ``metrics.NEUTRAL_FRAC``) makes the row neutral.
    """
    if scenario.event.mode != MODE_OPEN_LOOP:
        raise ConfigurationError("tuning applies to open-loop scenarios")
    d1, d2_init = scenario.event.setpoint_deltas
    sign2 = KIND_SIGN[scenario.event.kind]
    window = scenario.window()
    counterfactual = run_baseline(replace(scenario, oa_predicted=scenario.oa_actual))
    base_cut = counterfactual.sliced(0, counterfactual.index_at(scenario.t_end))

    def schedule(mag: float) -> Scenario:
        return replace(scenario, event=replace(scenario.event,
                                               setpoint_deltas=(d1, sign2 * mag)))

    def net(mag: float) -> float | None:
        """The probe's signed net (J), or None when it meets the stop rule."""
        cut = _run(schedule(mag), until=scenario.t_end)
        signed, scale = metrics.event_net(cut, base_cut, window)
        return None if abs(signed) <= NET_STOP_FRAC * scale else signed

    mag = _neutral_magnitude(net, abs(d2_init))
    return scenario.event if mag == abs(d2_init) else schedule(mag).event


def _neutral_magnitude(net, m0: float) -> float:
    """The magnitude at which ``net`` returns None, searched from ``m0``.

    ``net(mag)`` is the signed net at a magnitude, or None once it meets the
    stop rule; it is monotone in the magnitude. Probes m0, then 0 (or
    ``_FIRST_MAGNITUDE_K`` when m0 is 0), then the secant root of the two
    latest probes, safeguarded: inside a sign bracket a secant root outside
    it is replaced by the bracket's midpoint; before one, all probes share
    the sign of the net at 0, so the root lies beyond the largest magnitude,
    and the step outward is at least one and at most ``_MAX_EXPANSION``
    spacings of the two latest probes. On a near-linear net the secant
    converges superlinearly, so the stop rule is met a few probes after m0.
    Giving up, it names the latest probe of each sign and the smallest
    magnitude that gave the final net to the bit: where the net went flat.
    """
    f_m0 = net(m0)
    if f_m0 is None:
        return m0
    probes = [(m0, f_m0)]
    mag = 0.0 if m0 > 0.0 else _FIRST_MAGNITUDE_K
    ends = {f_m0 > 0.0: probes[0]}  # the latest probe with each sign of the net
    for _ in range(_MAX_PROBES):
        f = net(mag)
        if f is None:
            return mag
        (x0, f0), (x1, f1) = probes[-1], (mag, f)
        probes.append((x1, f1))
        ends[f > 0.0] = (x1, f1)
        step = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if len(ends) == 2:
            lo, hi = sorted(x for x, _ in ends.values())
            mag = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            top, spacing = max(x0, x1), abs(x1 - x0)
            if not step > top:
                step = top + spacing
            mag = min(step, top + _MAX_EXPANSION * spacing)
    failure = ("no neutral schedule" if len(ends) == 2
               else "could not bracket a neutral schedule")
    x_last, f_last = probes[-1]
    x_flat = min(x for x, f in probes if f == f_last)
    flat = (f"; the net is flat at {f_last:.6g} J from |delta2|={x_flat:.6g} on"
            if x_flat < x_last else "")
    raise TuningError(
        f"{failure} within {_MAX_PROBES + 1} probes: net "
        + ", ".join(f"{fx:.3g} J at |delta2|={x:.6g}" for x, fx in ends.values())
        + flat)
