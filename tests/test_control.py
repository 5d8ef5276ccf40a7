import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanshift import ControllerGains
from fanshift.control import SETPOINT_ADJ_LIMIT_K
from fanshift.kernels import lag_step, power_pi, temp_pi

from conftest import equilibrium_start, march

# documented loop gains, stated per degree of error
TABLE_GAINS = ControllerGains(kp_temp=2.0, ki_temp=0.001)

MDOT_MAX = 20.0


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


class TestResetAndHandback:
    def test_power_reset_preserves_lag_states(self, mixing_params, gains):
        # the power integral starts fresh at engagement; the lags carry on
        n = 50
        start = equilibrium_start(mixing_params, gains)
        engaged = np.ones(n + 1, dtype=np.uint8)
        p_base = np.full(n + 1, start["p_fan0"])
        start.update(i_power0=7.0, mdot0=3.0, p_fan0=600.0)
        _, wound = march(mixing_params, gains, n, 1.0, start,
                         engaged=engaged, p_base=p_base)
        start.update(i_power0=0.0)
        _, fresh = march(mixing_params, gains, n, 1.0, start,
                         engaged=engaged, p_base=p_base)
        for name in wound:
            assert np.array_equal(wound[name], fresh[name])
        assert wound["mdot_act"][0] == 3.0 and wound["p_fan"][0] == 600.0

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
