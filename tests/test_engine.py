import numpy as np
import pytest
from dataclasses import replace

from fanshift import (BuildingParams, ControllerGains, EventSchedule,
                      OutdoorProfile, Scenario, engine, equilibrium, run_baseline,
                      run_closed_loop, run_open_loop, tune_open_loop_event)
from fanshift.errors import ConfigurationError, NumericalError
from fanshift.metrics import neutrality
from fanshift.trace import SERIES_FIELDS

from conftest import count_marches, equilibrium_start, march, quick_scenario


class TestOutdoorProfile:
    def test_constant_series(self):
        prof = OutdoorProfile.constant(29.4)
        assert np.all(prof.series(np.arange(5.0)) == 29.4)

    def test_step_series(self):
        prof = OutdoorProfile.step_at(29.4, 10.0, 1.7)
        t = np.array([0.0, 9.0, 10.0, 11.0])
        assert np.allclose(prof.series(t), [29.4, 29.4, 31.1, 31.1])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OutdoorProfile(times=(5.0,), values=(29.4,))
        with pytest.raises(ConfigurationError):
            OutdoorProfile(times=(0.0, 10.0, 10.0), values=(1.0, 2.0, 3.0))


class TestEventSchedule:
    def test_sign_conventions(self):
        EventSchedule(kind="DOWN_UP", setpoint_deltas=(0.5, -0.5))
        EventSchedule(kind="UP_DOWN", power_deltas=(100.0, -100.0))
        with pytest.raises(ConfigurationError):
            EventSchedule(kind="DOWN_UP", setpoint_deltas=(-0.5, 0.5))
        with pytest.raises(ConfigurationError):
            EventSchedule(kind="UP_DOWN", power_deltas=(-100.0, 100.0))

    def test_null_deltas_are_legal(self):
        EventSchedule(kind="DOWN_UP", setpoint_deltas=(0.0, 0.0))
        EventSchedule(kind="UP_DOWN", power_deltas=(0.0, 0.0))

    def test_fractional_resolution(self):
        ev = EventSchedule(kind="DOWN_UP", power_delta_frac=0.10)
        assert ev.resolved_power_deltas(1000.0) == (-100.0, 100.0)
        ev = EventSchedule(kind="UP_DOWN", power_delta_frac=0.10)
        assert ev.resolved_power_deltas(1000.0) == (100.0, -100.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            EventSchedule(kind="UPUP")


class TestScenarioValidation:
    def test_times_must_align_with_dt(self):
        with pytest.raises(ConfigurationError):
            quick_scenario(dt=7.0)  # 600 s warmup not a multiple
        with pytest.raises(ConfigurationError):
            quick_scenario(dt=0.0)

    def test_event_must_fit(self):
        with pytest.raises(ConfigurationError):
            quick_scenario(settle_duration=1800.0)

    def test_stiff_config_needs_small_dt(self):
        sc = quick_scenario(params=BuildingParams().with_mixing(1e-3, 1e-3))
        with pytest.raises(ConfigurationError, match="unstable"):
            run_baseline(sc)

    def test_digest_is_stable_and_sensitive(self):
        a, b = quick_scenario(), quick_scenario()
        assert a.digest() == b.digest()
        c = quick_scenario(settle_duration=3600.0)
        assert a.digest() != c.digest()


class TestBaseline:
    def test_flat_at_equilibrium_power(self):
        sc = quick_scenario()
        trace = run_baseline(sc)
        _, _, mdot_eq = equilibrium(sc.params, sc.gains.t_set_nominal)
        expected = sc.gains.fan_coeff * mdot_eq
        assert np.max(np.abs(trace.p_fan - expected)) < 0.1

    def test_outdoor_step_raises_power(self):
        prof = OutdoorProfile.step_at(29.4, 600.0, 1.7)
        sc = quick_scenario(oa_predicted=prof, settle_duration=28800.0)
        trace = run_baseline(sc)
        assert trace.p_fan[-1] > trace.p_fan[0] + 1.0

    def test_zero_length_horizon(self):
        sc = quick_scenario(warmup=0.0, settle_duration=0.0,
                            event=EventSchedule(kind="DOWN_UP", half_duration=0.0,
                                                setpoint_deltas=(0.0, 0.0)))
        trace = run_baseline(sc)
        assert trace.n_samples == 1
        assert trace.t[0] == 0.0

    def test_determinism_bit_identical(self):
        sc = quick_scenario()
        cached = run_baseline(sc)
        engine._memo_baseline.cache_clear()
        fresh = run_baseline(sc)
        assert fresh.p_fan is not cached.p_fan
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(cached, name), getattr(fresh, name))


class TestBaselineMemo:
    @pytest.mark.parametrize("change", [
        dict(params=BuildingParams().with_mixing(0.5, 0.1)),
        dict(gains=replace(ControllerGains(), kp_temp=0.5)),
        dict(dt=2.0),
        dict(warmup=1200.0),
        dict(settle_duration=10800.0),
        dict(oa_predicted=OutdoorProfile.step_at(29.4, 1200.0, 1.0)),
    ])
    def test_each_key_field_marches_anew(self, monkeypatch, change):
        calls = count_marches(monkeypatch)
        sc = quick_scenario()
        run_baseline(sc)
        run_baseline(replace(sc, **change))
        assert len(calls) == 2

    @pytest.mark.parametrize("change", [
        dict(event=EventSchedule(kind="UP_DOWN", setpoint_deltas=(-0.5, 0.5))),
        dict(mode="closed_loop",
             event=EventSchedule(kind="DOWN_UP", power_delta_frac=0.1)),
        dict(scenario_id="other"),
        dict(oa_actual=OutdoorProfile.step_at(29.4, 1200.0, 1.0)),
    ])
    def test_other_fields_share_one_march(self, monkeypatch, change):
        calls = count_marches(monkeypatch)
        sc = quick_scenario()
        other = replace(sc, **change)
        a, b = run_baseline(sc), run_baseline(other)
        assert len(calls) == 1
        for name in SERIES_FIELDS:
            assert getattr(a, name) is getattr(b, name)
        assert (b.scenario_id, b.scenario_hash) == (other.scenario_id,
                                                     other.digest())
        assert b.mode == "baseline"

    def test_cached_arrays_reject_writes(self):
        trace = run_baseline(quick_scenario())
        for name in SERIES_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0.0

    @pytest.mark.parametrize("constant, value, error", [
        ("_SANITY_MARGIN_K", -20.0, NumericalError),
        ("_RK4_DT_SAFETY", 1e-9, ConfigurationError),
    ])
    def test_failed_run_not_cached(self, monkeypatch, constant, value, error):
        sc = quick_scenario()
        with monkeypatch.context() as patched:
            patched.setattr(engine, constant, value)
            with pytest.raises(error):
                run_baseline(sc)
        calls = count_marches(monkeypatch)
        trace = run_baseline(sc)
        assert len(calls) == 1
        assert np.all(np.isfinite(trace.p_fan))


class TestOpenLoop:
    def test_null_event_equals_baseline(self):
        sc = quick_scenario(event=EventSchedule(kind="DOWN_UP",
                                                setpoint_deltas=(0.0, 0.0)))
        base = run_baseline(sc)
        ev = run_open_loop(sc)
        assert np.array_equal(ev.p_fan, base.p_fan)
        assert np.array_equal(ev.t_room, base.t_room)

    def test_down_up_drops_power_first(self):
        sc = quick_scenario()
        base = run_baseline(sc)
        ev = run_open_loop(sc)
        i = ev.index_at(sc.t_start + 300.0)
        assert ev.p_fan[i] < base.p_fan[i] - 10.0

    def test_mirrored_event_mirrors_response(self):
        down = quick_scenario()
        up = quick_scenario(event=EventSchedule(kind="UP_DOWN",
                                                setpoint_deltas=(-0.5, 0.5)))
        base = run_baseline(down)
        i = base.index_at(down.t_start + 300.0)
        assert run_open_loop(down).p_fan[i] < base.p_fan[i]
        assert run_open_loop(up).p_fan[i] > base.p_fan[i]

    def test_setpoint_schedule_in_trace(self):
        sc = quick_scenario()
        ev = run_open_loop(sc)
        assert ev.t_set_eff[ev.index_at(sc.t_start)] == pytest.approx(21.7 + 0.5)
        assert ev.t_set_eff[ev.index_at(sc.t_start + 1800.0)] == pytest.approx(21.7 - 0.5)
        assert ev.t_set_eff[ev.index_at(sc.t_end)] == pytest.approx(21.7)

    def test_requires_matching_mode(self):
        sc = quick_scenario(mode="closed_loop",
                            event=EventSchedule(kind="DOWN_UP", power_delta_frac=0.1))
        with pytest.raises(ConfigurationError):
            run_open_loop(sc)


class TestClosedLoop:
    def _scenario(self, **kw):
        base = dict(
            params=BuildingParams().with_mixing(0.5, 0.3),
            event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10),
            mode="closed_loop", warmup=600.0, settle_duration=14400.0)
        base.update(kw)
        return Scenario(**base)

    def test_null_reference_tracks_baseline(self):
        sc = self._scenario(event=EventSchedule(kind="UP_DOWN",
                                                power_deltas=(0.0, 0.0)))
        base = run_baseline(sc)
        ev = run_closed_loop(sc, base)
        assert np.max(np.abs(ev.p_fan - base.p_fan)) < 0.5

    def test_tracks_square_reference(self):
        sc = self._scenario()
        base = run_baseline(sc)
        ev = run_closed_loop(sc, base)
        diff = ev.p_fan - base.p_fan
        i0 = ev.index_at(sc.t_start)
        i1 = ev.index_at(sc.t_end)
        delta = 0.10 * base.p_fan[i0]
        # mean tracking error per half, skipping the first 5 minutes
        half1 = np.mean(np.abs(diff[i0 + 300:i0 + 1800] - delta))
        half2 = np.mean(np.abs(diff[i0 + 2100:i1] + delta))
        assert half1 < 0.05 * delta
        assert half2 < 0.05 * delta

    def test_reference_recorded_in_trace(self):
        sc = self._scenario()
        base = run_baseline(sc)
        ev = run_closed_loop(sc, base)
        i0 = ev.index_at(sc.t_start)
        assert ev.p_event_ref[i0] == pytest.approx(0.10 * base.p_fan[i0])
        assert ev.p_event_ref[ev.index_at(sc.t_end)] == 0.0

    def test_grid_mismatch_rejected(self):
        sc = self._scenario()
        other = run_baseline(self._scenario(settle_duration=7200.0))
        with pytest.raises(ConfigurationError):
            run_closed_loop(sc, other)

    def test_forced_settling_pins_power_after_event(self):
        sc = self._scenario(mode="closed_loop_forced_settling")
        base = run_baseline(sc)
        ev = run_closed_loop(sc, base)
        diff = np.abs(ev.p_fan - base.p_fan)
        i_end = ev.index_at(sc.t_end)
        # after a short transient the forced hour holds the baseline closely
        window = diff[i_end + 600:i_end + 3600]
        assert np.mean(window) < 3.0

    def test_settles_by_horizon(self):
        for mode in ("closed_loop", "closed_loop_forced_settling"):
            sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                          event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10),
                          mode=mode)
            base = run_baseline(sc)
            ev = run_closed_loop(sc, base)
            residual = abs(ev.p_fan[-1] - base.p_fan[-1])
            if mode == "closed_loop_forced_settling":
                assert residual < 1.0
            else:
                # the slow wall mode is still unwinding at the horizon
                assert residual < 6.0


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        params = BuildingParams().with_mixing(0.3, 0.1)
        gains = ControllerGains()
        start = equilibrium_start(params, gains)
        status, out = march(params, gains, 1, 1.0, start)
        assert status == -1
        assert abs(out["t_room"][1] - start["t_room0"]) < 1e-9
        assert abs(out["t_mix"][1] - start["t_mix0"]) < 1e-9
        assert abs(out["mdot_des"][0] - start["mdot0"]) < 1e-9
        assert abs(out["p_fan"][1] - start["p_fan0"]) < 1e-7

    def test_convergence_from_perturbed_start(self):
        # a small room-temperature offset decays back to the setpoint
        params = BuildingParams().with_mixing(0.3, 0.1)
        gains = ControllerGains()
        start = equilibrium_start(params, gains, offset_k=0.02)
        status, out = march(params, gains, 3600, 10.0, start)  # 10 simulated hours
        assert status == -1
        assert abs(out["t_room"][-1] - gains.t_set_nominal) < 0.01

    def test_failing_sample_written_like_any_other(self):
        # the sample at which a state leaves its bounds holds the state and
        # the commands at that time, as it would in a run with wider bounds
        params = BuildingParams().with_mixing(0.3, 0.1)
        gains = ControllerGains()
        start = equilibrium_start(params, gains, offset_k=0.5)
        status, wide = march(params, gains, 40, 10.0, start)
        assert status == -1
        # t_mix falls steadily after the warm start; cross between samples 9, 10
        t_low = 0.5 * (wide["t_mix"][9] + wide["t_mix"][10])
        status, out = march(params, gains, 40, 10.0, start, t_low=t_low)
        assert status == 10
        for name, series in out.items():
            assert np.array_equal(series[:11], wide[name][:11]), name


class TestEnergyBookkeeping:
    def test_stored_energy_matches_integrated_flows(self):
        sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                      event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10),
                      mode="closed_loop", warmup=600.0, settle_duration=10800.0)
        base = run_baseline(sc)
        ev = run_closed_loop(sc, base)
        p = sc.params
        stored = (p.c_mix * (ev.t_mix[-1] - ev.t_mix[0])
                  + p.c_room_rest * (ev.t_room[-1] - ev.t_room[0])
                  + p.c_wall * (ev.t_wall[-1] - ev.t_wall[0]))
        q_supply = ev.mdot_actual * p.c_p_air * (p.t_supply - ev.t_mix)
        q_outdoor = (ev.t_outdoor - ev.t_wall) / p.r_wall
        integ = np.trapezoid(p.q_internal + q_supply + q_outdoor, dx=sc.dt)
        gross = np.trapezoid(np.abs(q_supply), dx=sc.dt)
        assert abs(stored - integ) < 1e-5 * gross


class TestTuner:
    def _scenario(self):
        from fanshift.thermal import delta_f_to_k
        d = delta_f_to_k(1.0)
        return Scenario(params=BuildingParams().with_mixing(0.3, 0.1),
                        event=EventSchedule(kind="DOWN_UP",
                                            setpoint_deltas=(d, -d)),
                        mode="open_loop")

    def test_tuned_event_is_neutral(self):
        sc = self._scenario()
        tuned = tune_open_loop_event(sc, tolerance_frac=0.05)
        sc2 = replace(sc, event=tuned)
        base = run_baseline(sc2)
        ev = run_open_loop(sc2)
        residual, neutral = neutrality(ev, base, sc2.window(), alpha_frac=0.05)
        assert neutral
        # first delta untouched, second retains its sign convention
        assert tuned.setpoint_deltas[0] == sc.event.setpoint_deltas[0]
        assert tuned.setpoint_deltas[1] <= 0.0

    def test_each_schedule_marched_once(self, monkeypatch):
        marched = []

        def spy(scenario):
            marched.append(scenario.event.setpoint_deltas)
            return run_open_loop(scenario)

        monkeypatch.setattr(engine, "run_open_loop", spy)
        tuned = tune_open_loop_event(self._scenario(), tolerance_frac=0.05)
        assert len(marched) == len(set(marched)) == 5
        # exact: skipping a repeated probe must not move the result
        assert tuned.setpoint_deltas == (0.5555555555555556, -0.6944444444444444)

    def test_vacuous_tolerance_returns_unchanged(self):
        sc = self._scenario()
        assert tune_open_loop_event(sc, tolerance_frac=1.0) is sc.event

    def test_neutral_schedule_returned_unchanged(self):
        sc = self._scenario()
        tuned = tune_open_loop_event(sc, tolerance_frac=0.05)
        again = tune_open_loop_event(replace(sc, event=tuned),
                                     tolerance_frac=0.05)
        assert again is tuned

    def test_requires_open_loop(self):
        sc = Scenario(params=BuildingParams().with_mixing(0.3, 0.1),
                      event=EventSchedule(kind="DOWN_UP", power_delta_frac=0.1),
                      mode="closed_loop")
        with pytest.raises(ConfigurationError):
            tune_open_loop_event(sc)
