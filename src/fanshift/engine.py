"""Fixed-step simulation engine for load-shifting experiments.

A :class:`Scenario` fully describes one experiment: building, gains, event
schedule, outdoor profiles (actual and predicted), timestep, and mode. Every
run marches the plant and controllers over [0, t_settle] with a classical
4th-order Runge-Kutta step for the plant and exact exponential updates for
the lags, all inputs zero-order-held over each step. Runs start from the
analytic equilibrium with the temperature integral pre-seeded to carry the
equilibrium flow, so baselines are flat until something changes.

Identical scenarios produce bit-identical traces: the engine is seed-free;
no-event runs are memoised (the last two) and shared read-only.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, metrics
from .control import MDOT_LIMIT_FACTOR, SETPOINT_ADJ_LIMIT_K, ControllerGains
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
MODES = (MODE_OPEN_LOOP, MODE_CLOSED_LOOP, MODE_FORCED_SETTLING)

KIND_UP_DOWN = "UP_DOWN"
KIND_DOWN_UP = "DOWN_UP"
KINDS = (KIND_UP_DOWN, KIND_DOWN_UP)

# temperatures this far outside [t_supply, max outdoor] mean the integrator
# has blown up; checked every step
_SANITY_MARGIN_K = 5.0
# explicit RK4 is stable on the real axis to about 2.785/tau; reject steps
# beyond 2.5x the fastest estimated plant time constant
_RK4_DT_SAFETY = 2.5
# no-event runs memoised; the settling study alternates flat and stepped forecasts
_BASELINE_MEMO_SIZE = 2


@dataclass(frozen=True)
class OutdoorProfile:
    """Piecewise-constant outdoor temperature, degC."""

    times: tuple[float, ...] = (0.0,)
    values: tuple[float, ...] = (29.4,)

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigurationError("profile needs matching, non-empty times/values")
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
    two halves; closed-loop events command fan-power deviations, either as
    explicit ``power_deltas`` (W) or as ``power_delta_frac`` of the baseline
    fan power at event start. DOWN_UP cuts power first (setpoint up), UP_DOWN
    raises it first.
    """

    kind: str = KIND_UP_DOWN
    half_duration: float = 1800.0
    setpoint_deltas: tuple[float, float] | None = None
    power_deltas: tuple[float, float] | None = None
    power_delta_frac: float | None = None
    forced_settle_duration: float = 3600.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown event kind {self.kind!r}")
        if self.half_duration < 0:
            raise ConfigurationError("half_duration must be >= 0")
        if self.forced_settle_duration < 0:
            raise ConfigurationError("forced_settle_duration must be >= 0")
        if self.power_delta_frac is not None and self.power_delta_frac < 0:
            raise ConfigurationError("power_delta_frac must be >= 0")
        if self.setpoint_deltas is not None:
            d1, d2 = self.setpoint_deltas
            # setpoint up cuts power: DOWN_UP raises the setpoint first
            if self.kind == KIND_DOWN_UP and not (d1 >= 0.0 >= d2):
                raise ConfigurationError("DOWN_UP needs setpoint deltas (+, -)")
            if self.kind == KIND_UP_DOWN and not (d1 <= 0.0 <= d2):
                raise ConfigurationError("UP_DOWN needs setpoint deltas (-, +)")
        if self.power_deltas is not None:
            p1, p2 = self.power_deltas
            if self.kind == KIND_UP_DOWN and not (p1 >= 0.0 >= p2):
                raise ConfigurationError("UP_DOWN needs power deltas (+, -)")
            if self.kind == KIND_DOWN_UP and not (p1 <= 0.0 <= p2):
                raise ConfigurationError("DOWN_UP needs power deltas (-, +)")

    @property
    def duration(self) -> float:
        return 2.0 * self.half_duration

    def resolved_power_deltas(self, p_nominal: float) -> tuple[float, float]:
        """Power deltas in W, deriving fractional schedules from p_nominal."""
        if self.power_deltas is not None:
            return self.power_deltas
        if self.power_delta_frac is None:
            raise ConfigurationError(
                "closed-loop event needs power_deltas or power_delta_frac")
        mag = self.power_delta_frac * p_nominal
        if self.kind == KIND_UP_DOWN:
            return (mag, -mag)
        return (-mag, mag)


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description."""

    params: BuildingParams = field(default_factory=BuildingParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    event: EventSchedule = field(default_factory=EventSchedule)
    mode: str = MODE_OPEN_LOOP
    dt: float = 1.0
    warmup: float = 7200.0
    settle_duration: float = 35_000.0
    oa_actual: OutdoorProfile | None = None
    oa_predicted: OutdoorProfile | None = None
    scenario_id: str = "scenario"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.warmup < 0 or self.settle_duration < 0:
            raise ConfigurationError("warmup and settle_duration must be >= 0")
        if self.event.duration > self.settle_duration:
            raise ConfigurationError("event does not fit inside the settling window")
        if (self.mode == MODE_FORCED_SETTLING
                and self.event.duration + self.event.forced_settle_duration
                > self.settle_duration):
            raise ConfigurationError("forced-settling period exceeds the settling window")
        for name, value in (("warmup", self.warmup),
                            ("half_duration", self.event.half_duration),
                            ("settle_duration", self.settle_duration),
                            ("forced_settle_duration", self.event.forced_settle_duration)):
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-9:
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

    @property
    def n_steps(self) -> int:
        return int(round(self.t_settle / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1, dtype=float) * self.dt

    def window(self) -> metrics.EventWindow:
        return metrics.EventWindow(self.t_start, self.t_end, self.t_settle)

    def digest(self) -> str:
        """Stable hash of everything that determines the trace."""
        text = repr((self.params, self.gains, self.event, self.mode, self.dt,
                     self.warmup, self.settle_duration, self.oa_actual,
                     self.oa_predicted))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _model_id(params: BuildingParams) -> int:
    return kernels.MODEL_MIXING if params.uses_mixing_model else kernels.MODEL_ORIGINAL

def _kernel_params(params: BuildingParams) -> tuple[float, float, float, float, float]:
    if params.uses_mixing_model:
        return (params.c_mix, params.c_room_rest, params.c_wall,
                params.r_wall, params.r_mix)
    # two-state model: full room capacitance, pocket values unused
    return (1.0, params.c_room, params.c_wall, params.r_wall, 1.0)


def _check_step_size(scenario: Scenario, mdot_max: float) -> None:
    p = scenario.params
    if p.uses_mixing_model:
        conductance = 1.0 / p.r_mix + mdot_max * p.c_p_air
        tau_fast = p.c_mix / conductance
    else:
        tau_fast = p.c_room / (1.0 / p.r_wall + mdot_max * p.c_p_air)
    if scenario.dt > _RK4_DT_SAFETY * tau_fast:
        raise ConfigurationError(
            f"dt={scenario.dt} s is unstable for this plant (fastest time "
            f"constant ~{tau_fast:.3g} s); use dt <= {_RK4_DT_SAFETY * tau_fast:.3g} s")


def _interval_mask(times: np.ndarray, t0: float, t1: float) -> np.ndarray:
    return (times >= t0 - 1e-9) & (times < t1 - 1e-9)


def _halves(scenario: Scenario, d1: float, d2: float) -> np.ndarray:
    """Square wave: d1 over the event's first half, d2 over its second, else 0."""
    times = scenario.times()
    wave = np.zeros(times.shape[0])
    half = scenario.t_start + scenario.event.half_duration
    wave[_interval_mask(times, scenario.t_start, half)] = d1
    wave[_interval_mask(times, half, scenario.t_end)] = d2
    return wave


def _run(scenario: Scenario, oa: OutdoorProfile, label: str,
         t_set_delta: np.ndarray | None = None, p_ref: np.ndarray | None = None,
         engaged: np.ndarray | None = None, p_base: np.ndarray | None = None
         ) -> Trace:
    """March one run under outdoor profile ``oa`` from the equilibrium start.

    Omitted inputs keep their no-event values: the nominal setpoint, a zero
    power reference and the power PI disengaged.
    """
    p, g = scenario.params, scenario.gains
    n = scenario.n_steps
    times = scenario.times()
    t_out = oa.series(times)
    zeros = np.zeros(n + 1)
    t_set = g.t_set_nominal + (zeros if t_set_delta is None else t_set_delta)
    p_ref = zeros if p_ref is None else p_ref
    engaged = np.zeros(n + 1, dtype=np.uint8) if engaged is None else engaged
    p_base = zeros if p_base is None else p_base

    t_mix0, t_wall0, mdot_eq = equilibrium(p, g.t_set_nominal, float(t_out[0]))
    i_temp0 = mdot_eq / g.ki_temp if g.ki_temp > 0 else 0.0
    mdot_max = MDOT_LIMIT_FACTOR * mdot_eq
    _check_step_size(scenario, mdot_max)

    c_mix, c_room_rest, c_wall, r_wall, r_mix = _kernel_params(p)
    t_low = p.t_supply - _SANITY_MARGIN_K
    t_high = max(float(np.max(t_out)), p.t_outdoor_nominal) + _SANITY_MARGIN_K
    # the kernel's output arrays, in its argument order
    outs = {name: np.empty(n + 1) for name in (
        "t_mix", "t_room", "t_wall", "t_set_eff", "mdot_desired", "mdot_actual",
        "p_fan")}

    status = kernels.simulate_loop(
        _model_id(p), n, scenario.dt,
        c_mix, c_room_rest, c_wall, r_wall, r_mix,
        p.q_internal, p.t_supply, p.c_p_air,
        g.kp_temp, g.ki_temp, g.kp_power, g.ki_power,
        g.fan_coeff, mdot_max, SETPOINT_ADJ_LIMIT_K,
        math.exp(-scenario.dt / g.tau_airflow), math.exp(-scenario.dt / g.tau_fan),
        t_low, t_high,
        t_out, t_set, p_ref, engaged, p_base,
        t_mix0, g.t_set_nominal, t_wall0, i_temp0, mdot_eq, g.fan_coeff * mdot_eq,
        *outs.values())

    if status >= 0:
        i = int(status)
        raise NumericalError(
            f"state left its sanity bounds at t={i * scenario.dt:.1f} s "
            f"(sample {i} of {n})",
            sample={"t": i * scenario.dt,
                    **{name: float(out[i]) for name, out in outs.items()},
                    "bounds": (t_low, t_high)})

    return Trace(
        t=times, **outs, t_outdoor=t_out, p_event_ref=p_ref,
        mode=label, scenario_id=scenario.scenario_id,
        scenario_hash=scenario.digest())


@functools.lru_cache(maxsize=_BASELINE_MEMO_SIZE)
def _memo_baseline(params: BuildingParams, gains: ControllerGains, dt: float,
                   warmup: float, settle_duration: float,
                   oa_predicted: OutdoorProfile) -> Trace:
    """The no-event march fixed by its six inputs, with read-only arrays."""
    scenario = Scenario(params=params, gains=gains, dt=dt, warmup=warmup,
                        settle_duration=settle_duration, oa_predicted=oa_predicted,
                        event=EventSchedule(half_duration=0.0,
                                            forced_settle_duration=0.0))
    trace = _run(scenario, oa_predicted, "baseline")
    for name in SERIES_FIELDS:
        getattr(trace, name).setflags(write=False)
    return trace


def run_baseline(scenario: Scenario) -> Trace:
    """No-event run under the *predicted* outdoor profile.

    This is the counterfactual the power controller subtracts from measured
    fan power; it starts at the analytic equilibrium for the nominal setpoint.
    The last two distinct runs are memoised on the six inputs they depend on,
    and every caller of one shares its read-only arrays.
    """
    cached = _memo_baseline(scenario.params, scenario.gains, scenario.dt,
                            scenario.warmup, scenario.settle_duration,
                            scenario.oa_predicted)
    return replace(cached, scenario_id=scenario.scenario_id,
                   scenario_hash=scenario.digest())


def run_open_loop(scenario: Scenario) -> Trace:
    """Predetermined setpoint-schedule event under the *actual* outdoor profile."""
    if scenario.mode != MODE_OPEN_LOOP:
        raise ConfigurationError("run_open_loop needs an open-loop scenario")
    if scenario.event.setpoint_deltas is None:
        raise ConfigurationError("open-loop event needs setpoint_deltas")
    return _run(scenario, scenario.oa_actual, MODE_OPEN_LOOP,
                t_set_delta=_halves(scenario, *scenario.event.setpoint_deltas))


def run_closed_loop(scenario: Scenario, baseline: Trace) -> Trace:
    """Power-tracking event under the *actual* outdoor profile.

    The power PI is engaged over [t_start, t_end) with a square-wave power
    reference; in forced-settling mode it stays engaged for
    ``forced_settle_duration`` more with a zero reference, then hands back to
    the temperature controller, whose integral carries over unchanged. The
    baseline trace supplies both the feedback subtraction and the nominal
    power that fractional schedules scale from.
    """
    if scenario.mode not in (MODE_CLOSED_LOOP, MODE_FORCED_SETTLING):
        raise ConfigurationError("run_closed_loop needs a closed-loop scenario")
    n1 = scenario.n_steps + 1
    if baseline.n_samples != n1 or baseline.dt != scenario.dt:
        raise ConfigurationError(
            f"baseline grid ({baseline.n_samples} samples at dt={baseline.dt}) "
            f"does not cover this scenario ({n1} samples at dt={scenario.dt})")

    p_nominal = float(baseline.p_fan[baseline.index_at(scenario.t_start)])
    d1, d2 = scenario.event.resolved_power_deltas(p_nominal)
    engaged_until = scenario.t_end
    if scenario.mode == MODE_FORCED_SETTLING:
        engaged_until += scenario.event.forced_settle_duration
    engaged = _interval_mask(scenario.times(), scenario.t_start, engaged_until)

    return _run(scenario, scenario.oa_actual, scenario.mode,
                p_ref=_halves(scenario, d1, d2), engaged=engaged.astype(np.uint8),
                p_base=baseline.p_fan.copy())


def tune_open_loop_event(scenario: Scenario, tolerance_frac: float = 0.05,
                         max_bisections: int = 40) -> EventSchedule:
    """Adjust the second setpoint delta until the event is energy neutral.

    Holds the first delta fixed and searches the magnitude of the second:
    the net power deviation over the event window grows monotonically with
    it, so a sign-bracketing bisection converges. A schedule that already
    meets the criterion is returned unchanged. No magnitude is marched twice,
    and the baseline is the shared read-only one from :func:`run_baseline`.
    """
    if scenario.mode != MODE_OPEN_LOOP:
        raise ConfigurationError("tuning applies to open-loop scenarios")
    if scenario.event.setpoint_deltas is None:
        raise ConfigurationError("tuning needs initial setpoint_deltas")
    d1, d2_init = scenario.event.setpoint_deltas
    sign2 = -1.0 if scenario.event.kind == KIND_DOWN_UP else 1.0
    window = scenario.window()
    baseline = run_baseline(scenario)

    probes = {}  # magnitude -> (signed residual, neutral, schedule)
    def probe(mag: float):
        if mag not in probes:
            sched = replace(scenario.event, setpoint_deltas=(d1, sign2 * mag))
            trace = run_open_loop(replace(scenario, event=sched))
            probes[mag] = (*metrics.neutrality(trace, baseline, window,
                                               tolerance_frac), sched)
        return probes[mag]

    signed0, ok0, _ = probe(abs(d2_init))
    if ok0:
        return scenario.event

    # expand away from the initial magnitude until the signed residual flips
    lo = 0.0
    signed_lo, ok_lo, sched_lo = probe(lo)
    if ok_lo:
        return sched_lo
    hi = max(abs(d2_init), 1e-3)
    signed_hi, ok_hi, sched_hi = probe(hi)
    expansions = 0
    while signed_hi * signed_lo > 0 and expansions < 12:
        if ok_hi:
            return sched_hi
        hi *= 2.0
        signed_hi, ok_hi, sched_hi = probe(hi)
        expansions += 1
    if signed_hi * signed_lo > 0:
        raise TuningError(
            f"could not bracket a neutral schedule: residual {signed_lo:.3g} J at "
            f"|delta2|={lo}, {signed_hi:.3g} J at |delta2|={hi:.3g}")

    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        signed_mid, ok_mid, sched_mid = probe(mid)
        if ok_mid:
            return sched_mid
        if signed_mid * signed_lo > 0:
            lo, signed_lo = mid, signed_mid
        else:
            hi, signed_hi = mid, signed_mid
    raise TuningError(
        f"no neutral schedule within {max_bisections} bisections "
        f"(bracket [{lo:.6g}, {hi:.6g}], residuals [{signed_lo:.3g}, {signed_hi:.3g}] J)")
