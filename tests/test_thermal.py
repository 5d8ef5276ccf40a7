import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanshift import BuildingParams, equilibrium
from fanshift.control import MDOT_LIMIT_FACTOR
from fanshift.engine import _model_id
from fanshift.errors import ConfigurationError, EquilibriumInfeasibleError
from fanshift.kernels import MODEL_MIXING, MODEL_ORIGINAL, plant_step
from fanshift.thermal import delta_f_to_k, fahrenheit_to_celsius

# steady-state heat load at the calibrated parameters and nominal setpoint:
# (T_wall - T_room)/R + Q with T_wall = (21.7 + 29.4)/2
LOAD_NOMINAL_W = (25.55 - 21.7) / 0.0013 + 25_000.0


def reference_rates(model, params):
    """The paper's rate equations as written: ``rates(t_mix, t_room, t_wall,
    mdot, t_out) -> (d_mix, d_room, d_wall)`` in K/s. The two-state model has
    no pocket and returns ``d_room`` as ``d_mix``."""
    p = params
    if model == MODEL_ORIGINAL:
        def rates(t_mix, t_room, t_wall, mdot, t_out):
            d_room = ((t_wall - t_room) / p.r_wall + p.q_internal
                      + mdot * p.c_p_air * (p.t_supply - t_room)) / p.c_room
            d_wall = ((t_room - t_wall) / p.r_wall
                      + (t_out - t_wall) / p.r_wall) / p.c_wall
            return d_room, d_room, d_wall
        return rates

    def rates(t_mix, t_room, t_wall, mdot, t_out):
        d_mix = ((t_room - t_mix) / p.r_mix + p.q_internal
                 + mdot * p.c_p_air * (p.t_supply - t_mix)) / p.c_mix
        d_room = ((t_mix - t_room) / p.r_mix
                  + (t_wall - t_room) / p.r_wall) / p.c_room_rest
        d_wall = ((t_room - t_wall) / p.r_wall
                  + (t_out - t_wall) / p.r_wall) / p.c_wall
        return d_mix, d_room, d_wall
    return rates


def reference_rk4(rates, state, mdot, t_out, dt):
    """Classical four-stage RK4 with the inputs held over the step."""
    h2, sixth = 0.5 * dt, dt / 6.0
    k1 = rates(*state, mdot, t_out)
    k2 = rates(*(s + h2 * k for s, k in zip(state, k1)), mdot, t_out)
    k3 = rates(*(s + h2 * k for s, k in zip(state, k2)), mdot, t_out)
    k4 = rates(*(s + dt * k for s, k in zip(state, k3)), mdot, t_out)
    return tuple(s + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4))


def original_rates(params, t_room, t_wall, mdot, t_out, q):
    """(d_room, d_wall) of the two-state model with internal gain ``q``."""
    rates = reference_rates(MODEL_ORIGINAL, replace(params, q_internal=q))
    _, d_room, d_wall = rates(t_room, t_room, t_wall, mdot, t_out)
    return d_room, d_wall


def mixing_rates(params, t_mix, t_room, t_wall, mdot, t_out, q):
    rates = reference_rates(MODEL_MIXING, replace(params, q_internal=q))
    return rates(t_mix, t_room, t_wall, mdot, t_out)


def supply_heat(mdot, t_zone, t_supply, c_p_air):
    """Heat delivered to a zone by the supply air, W: the two-state room rate
    with unit capacitance, no wall exchange and no internal gain."""
    unit = BuildingParams(c_room=1.0, c_wall=1.0, r_wall=1.0, q_internal=0.0,
                          t_supply=t_supply, c_p_air=c_p_air)
    _, d_room, _ = reference_rates(MODEL_ORIGINAL, unit)(t_zone, t_zone, t_zone,
                                                         mdot, t_zone)
    return d_room


class TestSupplyHeatGain:
    def test_no_flow_no_heat(self):
        assert supply_heat(0.0, 33.0, 15.6, 1000.0) == 0.0

    def test_zero_temperature_difference(self):
        assert supply_heat(4.0, 18.0, 18.0, 1000.0) == 0.0

    def test_cooling_magnitude(self):
        # 4.585 kg/s of 15.6 C air into a 21.7 C zone
        assert supply_heat(4.585, 21.7, 15.6, 1000.0) == pytest.approx(-27_968.5)

    def test_balances_steady_load_at_equilibrium_flow(self, params):
        _, _, mdot = equilibrium(params, 21.7)
        q = supply_heat(mdot, 21.7, params.t_supply, params.c_p_air)
        assert q == pytest.approx(-LOAD_NOMINAL_W, rel=1e-12)


class TestDerivativesOriginal:
    def test_isothermal_unforced_is_still(self, params):
        d_room, d_wall = original_rates(params, 29.4, 29.4, 0.0, 29.4, 0.0)
        assert d_room == 0.0 and d_wall == 0.0

    def test_equilibrium_is_fixed_point(self, params):
        _, t_wall, mdot = equilibrium(params, 21.7)
        d_room, d_wall = original_rates(params, 21.7, t_wall, mdot,
                                        params.t_outdoor_nominal,
                                        params.q_internal)
        assert abs(d_room) < 1e-9 and abs(d_wall) < 1e-9

    def test_no_flow_heating_rate(self, params):
        # without supply air the room warms at (wall conduction + Q)/C_room
        d_room, _ = original_rates(params, 21.7, 25.55, 0.0,
                                   params.t_outdoor_nominal, 25_000.0)
        assert d_room == pytest.approx(LOAD_NOMINAL_W / 3.4e7, rel=1e-12)
        assert d_room == pytest.approx(8.224e-4, rel=1e-3)

    def test_mix_rate_aliases_room_rate(self, params):
        # the two-state step moves t_mix by the room's RK4 sum
        step = plant_step(MODEL_ORIGINAL, replace(params, q_internal=20_000.0), 10.0)
        t_mix, t_room, _ = step(20.0, 20.0, 24.0, 3.0, 30.0)
        assert t_mix == t_room != 20.0


class TestDerivativesMixing:
    def test_isothermal_unforced_is_still(self, mixing_params):
        d = mixing_rates(mixing_params, 29.4, 29.4, 29.4, 0.0, 29.4, 0.0)
        assert d == (0.0, 0.0, 0.0)

    def test_equilibrium_is_fixed_point(self, mixing_params):
        t_mix, t_wall, mdot = equilibrium(mixing_params, 21.7)
        d = mixing_rates(mixing_params, t_mix, 21.7, t_wall, mdot, 29.4,
                         mixing_params.q_internal)
        assert max(abs(x) for x in d) < 1e-9

    def test_no_flow_pocket_dynamics(self, mixing_params):
        # with mdot = 0 the pocket rate reduces to conduction from the room
        # plus the internal gain, over the pocket capacitance
        d_mix, _, _ = mixing_rates(mixing_params, 20.0, 21.7, 25.55, 0.0, 29.4,
                                   25_000.0)
        expected = ((21.7 - 20.0) / mixing_params.r_mix + 25_000.0) / mixing_params.c_mix
        assert d_mix == pytest.approx(expected, rel=1e-12)


# one step from any state with no -0.0 in it; a -0.0 start is the one case in
# which ``plant_step``'s shared terms may give a zero of the other sign
temperatures = st.floats(min_value=-20.0, max_value=60.0).map(lambda v: v + 0.0)


class TestRK4:
    @staticmethod
    def _march(params, state, mdot, dt, t_end):
        step = plant_step(_model_id(params), params, dt)
        for _ in range(round(t_end / dt)):
            state = step(*state, mdot, params.t_outdoor_nominal)
        return state

    @given(mix=st.none() | st.tuples(st.floats(0.05, 1.0), st.floats(0.01, 0.9)),
           state=st.tuples(temperatures, temperatures, temperatures),
           flow=st.floats(0.0, 1.0), t_out=temperatures,
           dt=st.sampled_from([1.0, 10.0, 20.0, 50.0]))
    @settings(max_examples=300, deadline=None)
    def test_step_is_textbook_rk4_bit_for_bit(self, mix, state, flow, t_out, dt):
        params = BuildingParams() if mix is None else BuildingParams().with_mixing(*mix)
        mdot = flow * MDOT_LIMIT_FACTOR * equilibrium(params, 21.7)[2]
        model = _model_id(params)
        got = plant_step(model, params, dt)(*state, mdot, t_out)
        want = reference_rk4(reference_rates(model, params), state, mdot, t_out, dt)
        assert struct.pack("3d", *got) == struct.pack("3d", *want)

    @pytest.mark.parametrize("mix", [None, (0.5, 0.3)])
    def test_energy_balance(self, mix):
        # over three hours of over-cooling, the heat stored in the
        # capacitances is the heat that flowed in; the supply air enters the
        # pocket, or the room, whose temperature the two-state t_mix carries
        p = BuildingParams() if mix is None else BuildingParams().with_mixing(*mix)
        t_mix, t_wall, mdot = equilibrium(p, 21.7)
        mdot *= 1.2
        dt = 10.0
        step = plant_step(_model_id(p), p, dt)
        states = [(t_mix, 21.7, t_wall)]
        for _ in range(1080):
            states.append(step(*states[-1], mdot, p.t_outdoor_nominal))
        t_air, _, t_wall = np.array(states).T
        change = np.array(states[-1]) - np.array(states[0])
        capacitances = ((0.0, p.c_room, p.c_wall) if mix is None
                        else (p.c_mix, p.c_room_rest, p.c_wall))
        stored = float(np.dot(capacitances, change))
        q_supply = mdot * p.c_p_air * (p.t_supply - t_air)
        q_outdoor = (p.t_outdoor_nominal - t_wall) / p.r_wall
        inflow = np.trapezoid(p.q_internal + q_supply + q_outdoor, dx=dt)
        gross = np.trapezoid(np.abs(q_supply), dx=dt)
        assert abs(stored - inflow) < 1e-5 * gross
        assert abs(stored) > 1e-2 * gross  # the march stored heat

    @pytest.mark.parametrize("mix_r,mix_c,dt", [(0.0, 0.0, 1200.0),
                                                (0.3, 0.1, 60.0)])
    def test_fourth_order_convergence(self, mix_r, mix_c, dt):
        # dt is a fifth to a seventh of the fastest plant time constant; in
        # the two-state model t_mix = 21.7, so the pocket aliases the room
        params = BuildingParams().with_mixing(mix_r, mix_c)
        t_mix, t_wall, mdot = equilibrium(params, 21.7)
        start = (t_mix + 1.0, 22.7, t_wall - 1.0)
        t_end = 8 * dt
        ref = self._march(params, start, mdot, dt / 64, t_end)

        def error(h):
            end = self._march(params, start, mdot, h, t_end)
            return max(abs(a - b) for a, b in zip(end, ref))

        order = math.log2(error(dt) / error(dt / 2))
        assert order > 3.5


class TestParamsValidation:
    def test_capacitance_split_preserves_total(self):
        p = BuildingParams().with_mixing(0.4, 0.25)
        assert p.c_mix + p.c_room_rest == p.c_room

    @given(c=st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_capacitance_split_property(self, c):
        p = BuildingParams().with_mixing(0.5, c)
        assert p.c_mix + p.c_room_rest == pytest.approx(p.c_room, rel=1e-15)

    def test_resistance_scaling(self):
        p = BuildingParams().with_mixing(0.3, 0.1)
        assert p.r_mix == pytest.approx(0.3 * 0.0013)

    @pytest.mark.parametrize("r,c", [(0.0, 0.1), (0.3, 0.0), (-0.1, 0.1),
                                     (0.3, 1.0), (0.3, -0.2)])
    def test_rejects_degenerate_mixing(self, r, c):
        with pytest.raises(ConfigurationError):
            BuildingParams(mix_r=r, mix_c=c)

    @pytest.mark.parametrize("base, r, c", [
        (BuildingParams(), 5e-324, 0.1),                # r_mix underflows
        (BuildingParams(c_room=5e-324), 0.3, 0.1),      # c_mix underflows
        (BuildingParams(c_room=5e-324), 0.3, 0.9),      # c_room_rest underflows
    ], ids=["r_mix", "c_mix", "c_room_rest"])
    def test_rejects_pocket_that_underflows(self, base, r, c):
        with pytest.raises(ConfigurationError, match="mixing pocket needs positive"):
            base.with_mixing(r, c)

    def test_rejects_heating_mode(self):
        with pytest.raises(ConfigurationError):
            BuildingParams(t_supply=35.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(BuildingParams)])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            BuildingParams(**{name: value})


class TestEquilibrium:
    def test_well_mixed_values(self, params):
        t_mix, t_wall, mdot = equilibrium(params, 21.7)
        assert t_mix == pytest.approx(21.7)
        assert t_wall == pytest.approx(25.55)
        assert mdot == pytest.approx(4.583858764186633, rel=1e-12)

    def test_mixing_values(self, mixing_params):
        t_mix, t_wall, mdot = equilibrium(mixing_params, 21.7)
        assert t_mix == pytest.approx(21.7 - 0.3 * 3.85, rel=1e-12)
        assert t_wall == pytest.approx(25.55)
        assert mdot == pytest.approx(5.654507272303023, rel=1e-12)

    def test_no_load_no_flow(self):
        p = BuildingParams(q_internal=0.0, t_outdoor_nominal=21.7, t_supply=15.6,
                           mix_r=0.3, mix_c=0.1)
        t_mix, t_wall, mdot = equilibrium(p, 21.7)
        assert t_mix == pytest.approx(21.7)
        assert t_wall == pytest.approx(21.7)
        assert mdot == pytest.approx(0.0, abs=1e-15)

    def test_independent_of_capacitance_split(self):
        flows = [equilibrium(BuildingParams().with_mixing(0.4, c), 21.7)[2]
                 for c in (0.05, 0.2, 0.45)]
        assert flows[0] == flows[1] == flows[2]

    def test_flow_nondecreasing_in_r(self):
        flows = [equilibrium(BuildingParams().with_mixing(r, 0.1), 21.7)[2]
                 for r in [0.1 * k for k in range(1, 11)]]
        assert all(b >= a for a, b in zip(flows, flows[1:]))

    def test_infeasible_when_pocket_reaches_supply_temperature(self):
        # large r pushes the pocket below the supply temperature
        p = BuildingParams().with_mixing(2.0, 0.1)
        with pytest.raises(EquilibriumInfeasibleError):
            equilibrium(p, 21.7)

    def test_infeasible_under_net_heating_demand(self):
        p = BuildingParams(q_internal=0.0, t_outdoor_nominal=20.0, t_supply=10.0)
        with pytest.raises(EquilibriumInfeasibleError):
            equilibrium(p, 25.0)

    @given(r=st.floats(min_value=0.05, max_value=1.2),
           c=st.floats(min_value=0.01, max_value=0.9))
    @settings(max_examples=80, deadline=None)
    def test_residual_property(self, r, c):
        p = BuildingParams().with_mixing(r, c)
        try:
            t_mix, t_wall, mdot = equilibrium(p, 21.7)
        except EquilibriumInfeasibleError:
            return
        d = mixing_rates(p, t_mix, 21.7, t_wall, mdot, 29.4, p.q_internal)
        assert max(abs(x) for x in d) < 1e-9


class TestUnitConversions:
    def test_reference_points(self):
        assert fahrenheit_to_celsius(71.0) == pytest.approx(21.6667, abs=1e-4)
        assert fahrenheit_to_celsius(32.0) == 0.0
        assert fahrenheit_to_celsius(212.0) == 100.0
        assert fahrenheit_to_celsius(-40.0) == -40.0

    def test_delta_known_values(self):
        assert delta_f_to_k(1.0) == pytest.approx(5.0 / 9.0)
        assert delta_f_to_k(9.0) == 5.0
        assert delta_f_to_k(-1.8) == pytest.approx(-1.0)
        assert not math.isclose(delta_f_to_k(1.0), fahrenheit_to_celsius(1.0))
