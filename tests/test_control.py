"""The control stack: each part of the step ``kernels.simulate_loop`` writes
out, pinned through reference implementations, and the march composed of
them pinned bit for bit.

``temp_pi``, ``power_pi`` and ``lag_step`` below are the references: each
controller update as its own function. ``reference_march`` composes them in
the loop's order, with ``conftest.plant_step`` (pinned to a textbook RK4 in
``test_thermal.py``) for the plant.
"""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanshift import BuildingParams, ControllerGains, equilibrium
from fanshift.control import MDOT_LIMIT_FACTOR, SETPOINT_ADJ_LIMIT_K
from fanshift.engine import _model_id
from fanshift.errors import ConfigurationError

from conftest import equilibrium_start, march, plant_step

# documented loop gains, stated per degree of error
TABLE_GAINS = ControllerGains(kp_temp=2.0, ki_temp=0.001)

MDOT_MAX = 20.0


def temp_pi(t_room, t_set, integ, kp, ki, dt, mdot_max):
    """Temperature PI step. Returns (desired airflow kg/s, new integral).

    Error is room minus setpoint (warmer room -> more airflow). The integral
    is held whenever the unsaturated command sits on a limit that the current
    error would push it past (conditional anti-windup).
    """
    err = t_room - t_set
    cand = integ + err * dt
    u = kp * err + ki * cand
    # the integral freezes while the command is saturated in the error's direction
    if not ((u >= mdot_max and err > 0.0) or (u <= 0.0 and err < 0.0)):
        integ = cand
    u = kp * err + ki * integ
    if u < 0.0:
        u = 0.0
    elif u > mdot_max:
        u = mdot_max
    return u, integ


def power_pi(p_ref, p_diff, integ, kp, ki, dt, adj_max):
    """Power PI step. Returns (setpoint adjustment K, new integral).

    Error is reference minus measured power deviation; the adjustment is the
    negated PI sum (raising fan power requires lowering the cooling setpoint)
    and is clamped to +-adj_max with conditional anti-windup.
    """
    err = p_ref - p_diff
    cand = integ + err * dt
    adj = -(kp * err + ki * cand)
    if not ((adj >= adj_max and err < 0.0) or (adj <= -adj_max and err > 0.0)):
        integ = cand
    adj = -(kp * err + ki * integ)
    if adj > adj_max:
        adj = adj_max
    elif adj < -adj_max:
        adj = -adj_max
    return adj, integ


def lag_step(state, target, decay):
    """Exact first-order lag update; decay = exp(-dt/tau)."""
    return target + (state - target) * decay


def reference_march(params, gains, dt, start, engaged, p_ref, p_base):
    """The samples of ``march`` under the same inputs, one tuple of the seven
    outputs per sample, from the references in the loop's order: power PI on
    engaged samples (integral reset at each engagement), temperature PI on
    the adjusted setpoint, airflow lag, fan lag, plant. The final sample's
    commands use a zero step."""
    step_plant = plant_step(_model_id(params), params, dt)
    mdot_max = MDOT_LIMIT_FACTOR * equilibrium(params, gains.t_set_nominal)[2]
    decay_airflow = math.exp(-dt / gains.tau_airflow)
    decay_fan = math.exp(-dt / gains.tau_fan)
    t_mix, t_room, t_wall, i_temp, mdot_act, p_fan = start.values()
    i_power, was_engaged, rows = 0.0, False, []
    n = len(engaged) - 1
    for i, eng in enumerate(map(bool, engaged)):
        h = 0.0 if i == n else dt
        adj = 0.0
        if eng:
            if not was_engaged:
                i_power = 0.0
            adj, i_power = power_pi(float(p_ref[i]), p_fan - float(p_base[i]),
                                    i_power, gains.kp_power, gains.ki_power, h,
                                    SETPOINT_ADJ_LIMIT_K)
        t_set = gains.t_set_nominal + adj
        mdot_des, i_temp = temp_pi(t_room, t_set, i_temp, gains.kp_temp,
                                   gains.ki_temp, h, mdot_max)
        rows.append((t_mix, t_room, t_wall, t_set, mdot_des, mdot_act, p_fan))
        mdot_act = lag_step(mdot_act, mdot_des, decay_airflow)
        p_fan = lag_step(p_fan, gains.fan_coeff * mdot_act, decay_fan)
        t_mix, t_room, t_wall = step_plant(t_mix, t_room, t_wall, mdot_act,
                                           params.t_outdoor_nominal)
        was_engaged = eng
    return rows


def temp_step(t_room, t_set, integ, gains, dt=1.0):
    return temp_pi(t_room, t_set, integ, gains.kp_temp, gains.ki_temp, dt,
                   MDOT_MAX)


def power_step(p_ref, p_diff, integ, gains, dt=1.0):
    return power_pi(p_ref, p_diff, integ, gains.kp_power, gains.ki_power, dt,
                    SETPOINT_ADJ_LIMIT_K)


def lag(state, target, tau, dt):
    return lag_step(state, target, math.exp(-dt / tau))


class TestTemperaturePI:
    def test_null_error_null_output(self):
        out, i_temp = temp_step(21.7, 21.7, 0.0, TABLE_GAINS)
        assert out == 0.0
        assert i_temp == 0.0

    def test_proportional_contribution(self):
        out, _ = temp_step(22.7, 21.7, 0.0,
                           ControllerGains(kp_temp=2.0, ki_temp=0.0))
        assert out == pytest.approx(2.0)

    def test_integral_accumulation_rate(self):
        # constant 0.5 K error for 1000 s with ki = 0.001: integral term 0.5 kg/s
        i_temp = 0.0
        gains = ControllerGains(kp_temp=0.0, ki_temp=0.001)
        for _ in range(1000):
            out, i_temp = temp_step(22.2, 21.7, i_temp, gains)
        assert out == pytest.approx(0.5, rel=1e-12)
        assert i_temp == pytest.approx(500.0, rel=1e-12)

    def test_output_floor_at_zero(self):
        out, _ = temp_step(18.0, 21.7, 0.0, TABLE_GAINS)
        assert out == 0.0

    def test_antiwindup_freezes_integral_when_pinned_low(self):
        i_temp = 0.0
        for _ in range(100):
            _, i_temp = temp_step(18.0, 21.7, i_temp, TABLE_GAINS)
        # error is negative and output is pinned at 0: no windup
        assert i_temp == 0.0

    def test_antiwindup_releases_when_error_reverses(self):
        i_temp = 0.0
        for _ in range(50):
            _, i_temp = temp_step(18.0, 21.7, i_temp, TABLE_GAINS)
        out, i_temp = temp_step(22.7, 21.7, i_temp, TABLE_GAINS)
        assert out > 0.0


class TestLags:
    def test_fixed_point(self, gains):
        out = lag(3.2, 3.2, gains.tau_airflow, dt=7.0)
        assert out == pytest.approx(3.2)

    def test_step_response_after_one_time_constant(self, gains):
        out = lag(0.0, 1.0, gains.tau_airflow, dt=gains.tau_airflow)
        assert out == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_small_dt_continuity(self, gains):
        out = lag(2.0, 5.0, gains.tau_airflow, dt=1e-9)
        assert out == pytest.approx(2.0, abs=1e-9)

    def test_fan_power_converges_to_linear_map(self, gains):
        p = 0.0
        for _ in range(5000):
            p = lag(p, gains.fan_coeff * 4.585, gains.tau_fan, dt=1.0)
        assert p == pytest.approx(220.8 * 4.585, abs=1e-6)
        assert p == pytest.approx(1012.368, abs=1e-3)

    def test_fan_power_decays_to_zero(self, gains):
        p = 900.0
        for _ in range(5000):
            p = lag(p, gains.fan_coeff * 0.0, gains.tau_fan, dt=1.0)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_fan_step_response(self, gains):
        p = lag(0.0, gains.fan_coeff * 1.0, 150.0, dt=150.0)
        assert p == pytest.approx((1.0 - math.exp(-1.0)) * gains.fan_coeff, rel=1e-12)

    @given(state0=st.floats(0, 50), target=st.floats(0, 50),
           dt=st.floats(1e-3, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_lag_is_a_contraction(self, state0, target, dt):
        # commanded airflow is already clamped non-negative upstream
        out = lag(state0, target, tau=30.0, dt=dt)
        assert abs(out - target) <= abs(state0 - target)


class TestPowerPI:
    def test_null_error_null_adjustment(self, gains):
        adj, i_power = power_step(0.0, 0.0, 0.0, gains)
        assert adj == 0.0
        assert i_power == 0.0

    def test_proportional_sign_and_magnitude(self, gains):
        # +300 W of missing power pulls the setpoint down ~1 K
        adj, _ = power_step(300.0, 0.0, 0.0,
                            ControllerGains(kp_power=3.33e-3, ki_power=0.0))
        assert adj == pytest.approx(-0.999)

    def test_integral_contribution(self):
        gains = ControllerGains(kp_power=0.0, ki_power=2.083e-5)
        i_power = 0.0
        for _ in range(480):
            adj, i_power = power_step(100.0, 0.0, i_power, gains)
        assert adj == pytest.approx(-0.9998, abs=1e-4)

    def test_clamp_and_antiwindup(self, gains):
        i_power = 0.0
        for _ in range(10_000):
            adj, i_power = power_step(50_000.0, 0.0, i_power, gains)
        assert adj == -3.0
        # integral froze once the clamp engaged: release is immediate
        adj2, _ = power_step(-50_000.0, 0.0, i_power, gains)
        assert adj2 == 3.0

    @pytest.mark.parametrize("p_ref", [50_000.0, -50_000.0])
    def test_march_clamps_at_setpoint_limit(self, mixing_params, gains, p_ref):
        # the kernel applies control.SETPOINT_ADJ_LIMIT_K to every engaged sample
        n = 20
        start = equilibrium_start(mixing_params, gains)
        _, out = march(mixing_params, gains, n, 1.0, start,
                       engaged=np.ones(n + 1, dtype=np.uint8),
                       p_ref=np.full(n + 1, p_ref),
                       p_base=np.full(n + 1, start["p_fan0"]))
        expected = -math.copysign(SETPOINT_ADJ_LIMIT_K, p_ref)
        assert out["t_set"] - gains.t_set_nominal == pytest.approx(
            np.full(n + 1, expected), abs=1e-12)


class TestZeroStep:
    # the kernel evaluates the final sample's commands with dt = 0

    @pytest.mark.parametrize("t_room, expected", [
        (22.7, 3.6 * 1.0 + 1.8e-3 * 40.0), (40.0, MDOT_MAX), (10.0, 0.0)])
    def test_temp_pi(self, t_room, expected):
        out, integ = temp_pi(t_room, 21.7, 40.0, 3.6, 1.8e-3, 0.0, MDOT_MAX)
        assert integ == 40.0
        assert out == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p_ref, expected", [
        (100.0, -(3.33e-3 * 80.0 + 2.083e-5 * 500.0)),
        (5000.0, -SETPOINT_ADJ_LIMIT_K), (-5000.0, SETPOINT_ADJ_LIMIT_K)])
    def test_power_pi(self, gains, p_ref, expected):
        adj, integ = power_step(p_ref, 20.0, 500.0, gains, dt=0.0)
        assert integ == 500.0
        assert adj == pytest.approx(expected, rel=1e-12)


def march_and_reference(mix, dt, offset_k, engaged, p_ref):
    """Outputs of a ``len(engaged) - 1``-step ``march`` from an equilibrium
    start with air temperatures raised by ``offset_k``, under a constant
    power reference; asserts that they are ``reference_march``'s bit for
    bit."""
    params = BuildingParams() if mix is None else BuildingParams().with_mixing(*mix)
    gains = ControllerGains()
    start = equilibrium_start(params, gains, offset_k)
    engaged = np.array(engaged, dtype=np.uint8)
    p_ref = np.full(engaged.shape, p_ref)
    p_base = np.full(engaged.shape, start["p_fan0"])
    status, out = march(params, gains, engaged.size - 1, dt, start,
                        engaged=engaged, p_ref=p_ref, p_base=p_base,
                        t_low=-1e3, t_high=1e3)
    assert status == -1
    got = np.column_stack(list(out.values())).ravel().tolist()
    want = [v for row in reference_march(params, gains, dt, start, engaged,
                                         p_ref, p_base) for v in row]
    assert struct.pack(f"{len(want)}d", *got) == struct.pack(f"{len(want)}d", *want)
    mdot_max = MDOT_LIMIT_FACTOR * equilibrium(params, gains.t_set_nominal)[2]
    return out, mdot_max


class TestMarchIsTheReferences:
    # the step ``simulate_loop`` writes out is the references composed

    @given(mix=st.one_of(st.none(), st.tuples(st.floats(0.05, 1.2),
                                              st.floats(0.05, 0.9))),
           dt=st.floats(0.5, 20.0), offset_k=st.floats(-3.0, 6.0),
           engaged=st.lists(st.booleans(), min_size=2, max_size=4),
           p_ref=st.floats(-2000.0, 2000.0))
    @example(mix=None, dt=10.0, offset_k=0.0, engaged=[True, False, True],
             p_ref=500.0)
    # the candidate integral crosses the clamp, the held one does not
    @example(mix=None, dt=10.0, offset_k=0.0, engaged=[True, True], p_ref=880.0)
    @example(mix=None, dt=10.0, offset_k=3.81, engaged=[False, False], p_ref=0.0)
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, mix, dt, offset_k, engaged, p_ref):
        march_and_reference(mix, dt, offset_k, engaged, p_ref)

    @pytest.mark.parametrize("mix", [None, (0.5, 0.3)])
    @pytest.mark.parametrize("offset_k", [6.0, -3.0])
    def test_airflow_saturated(self, mix, offset_k):
        out, mdot_max = march_and_reference(mix, 10.0, offset_k,
                                            [False, False], 0.0)
        assert out["mdot_des"][0] == (mdot_max if offset_k > 0 else 0.0)

    @pytest.mark.parametrize("mix", [None, (0.5, 0.3)])
    @pytest.mark.parametrize("p_ref", [2000.0, -2000.0])
    def test_setpoint_clamped(self, mix, p_ref):
        out, _ = march_and_reference(mix, 10.0, 0.0, [True, True], p_ref)
        assert np.all(out["t_set"] - ControllerGains().t_set_nominal
                      == -math.copysign(SETPOINT_ADJ_LIMIT_K, p_ref))

    @pytest.mark.parametrize("mix", [None, (0.5, 0.3)])
    def test_integral_reset_at_engagement(self, mix):
        # the first engagement winds the integral up; the second, on the zero
        # step, starts it from zero: only the proportional term is left
        gains = ControllerGains()
        out, _ = march_and_reference(mix, 10.0, 0.0, [True, False, True], 500.0)
        err = 500.0 - (out["p_fan"][2] - out["p_fan"][0])
        assert out["t_set"][2] == gains.t_set_nominal - gains.kp_power * err


class TestResetAndHandback:
    def test_power_reset_preserves_lag_states(self, mixing_params, gains):
        # engage twice: the integral the first engagement winds up must not
        # reach the second, while the lag states carry straight on
        n, k = 120, 80
        start = equilibrium_start(mixing_params, gains)
        engaged = np.zeros(n + 1, dtype=np.uint8)
        engaged[10:50] = 1
        engaged[k:110] = 1
        p_ref = 50.0 * engaged
        p_base = np.full(n + 1, start["p_fan0"])
        _, out = march(mixing_params, gains, n, 1.0, start,
                       engaged=engaged, p_ref=p_ref, p_base=p_base)
        fresh, _ = power_step(p_ref[k], out["p_fan"][k] - p_base[k], 0.0, gains)
        assert out["t_set"][k] - gains.t_set_nominal == pytest.approx(fresh, abs=1e-12)
        assert out["mdot_act"][k] == lag(out["mdot_act"][k - 1],
                                         out["mdot_des"][k - 1], gains.tau_airflow, 1.0)
        assert out["p_fan"][k] == lag(out["p_fan"][k - 1],
                                      gains.fan_coeff * out["mdot_act"][k],
                                      gains.tau_fan, 1.0)

    def test_handback_keeps_temperature_integral(self, mixing_params):
        # with a zero-gain power PI, engaging and handing back must leave the
        # temperature loop untouched: its integral is not re-seeded
        gains = ControllerGains(kp_power=0.0, ki_power=0.0)
        n = 200
        start = equilibrium_start(mixing_params, gains, offset_k=0.3)
        engaged = np.zeros(n + 1, dtype=np.uint8)
        engaged[20:60] = 1
        _, cycled = march(mixing_params, gains, n, 1.0, start, engaged=engaged)
        _, plain = march(mixing_params, gains, n, 1.0, start)
        for name in plain:
            assert np.array_equal(cycled[name], plain[name])


class TestGainsValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ControllerGains)])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            ControllerGains(**{name: value})
