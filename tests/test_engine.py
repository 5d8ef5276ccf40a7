import inspect
import math
import pickle

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings
from hypothesis import strategies as st

from fanshift import (BuildingParams, ControllerGains, EventSchedule,
                      OutdoorProfile, Scenario, engine, equilibrium, kernels,
                      metrics, run_baseline,
                      run_closed_loop, run_open_loop, tune_open_loop_event)
from fanshift.errors import ConfigurationError, NumericalError, TuningError
from fanshift.trace import SERIES_FIELDS

from conftest import (TRACE_OUTPUTS, count_marches, count_plant_steps,
                      equilibrium_start, march, quick_scenario)


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

    @pytest.mark.parametrize("times, values", [
        ((0.0, math.nan), (29.4, 30.0)),
        ((0.0, math.inf), (29.4, 30.0)),
        ((0.0, 10.0), (29.4, math.nan)),
        ((0.0,), (-math.inf,)),
    ])
    def test_non_finite_rejected(self, times, values):
        with pytest.raises(ConfigurationError, match="finite"):
            OutdoorProfile(times=times, values=values)


class TestEventSchedule:
    def test_sign_conventions(self):
        EventSchedule(kind="DOWN_UP", setpoint_deltas=(0.5, -0.5))
        with pytest.raises(ConfigurationError):
            EventSchedule(kind="DOWN_UP", setpoint_deltas=(-0.5, 0.5))

    def test_null_deltas_are_legal(self):
        EventSchedule(kind="DOWN_UP", setpoint_deltas=(0.0, 0.0))

    def test_fractional_resolution(self):
        # the reference is the fraction of the baseline's fan power at t_start
        for kind, (s1, s2) in (("UP_DOWN", (1.0, -1.0)), ("DOWN_UP", (-1.0, 1.0))):
            sc = quick_scenario(mode="closed_loop", dt=10.0, event=EventSchedule(
                kind=kind, half_duration=600.0, power_delta_frac=0.10))
            ref = run_closed_loop(sc).p_event_ref
            i0, half = sc.whole_steps(sc.t_start), sc.whole_steps(600.0)
            shift = 0.10 * run_baseline(sc).p_fan[i0]
            expected = np.zeros_like(ref)
            expected[i0:i0 + half] = s1 * shift
            expected[i0 + half:i0 + 2 * half] = s2 * shift
            assert np.array_equal(ref, expected)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            EventSchedule(kind="UPUP")

    @pytest.mark.parametrize("deltas", [(1.0,), (1.0, -1.0, 0.0), ()])
    def test_setpoint_deltas_must_be_a_pair(self, deltas):
        with pytest.raises(ConfigurationError, match="setpoint_deltas needs two deltas"):
            EventSchedule(kind="UP_DOWN", setpoint_deltas=deltas)

    @pytest.mark.parametrize("field, value", [
        ("half_duration", math.nan), ("half_duration", math.inf),
        ("forced_settle_duration", math.nan), ("forced_settle_duration", math.inf),
        ("power_delta_frac", math.nan), ("power_delta_frac", math.inf),
        ("setpoint_deltas", (-math.inf, 0.5)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            EventSchedule(kind="UP_DOWN", **{field: value})


class TestScenarioValidation:
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("command", [
        dict(setpoint_deltas=(0.5, -0.5)), dict(power_delta_frac=0.10),
        dict(setpoint_deltas=(0.5, -0.5), power_delta_frac=0.10), {},
    ], ids=["setpoint", "fraction", "both", "neither"])
    def test_each_loop_takes_its_own_command(self, mode, command):
        own = "setpoint_deltas" if mode == engine.MODE_OPEN_LOOP else "power_delta_frac"
        event = EventSchedule(kind="DOWN_UP", half_duration=600.0, **command)
        kw = dict(event=event, mode=mode, dt=10.0, warmup=600.0, settle_duration=3000.0)
        if set(command) != {own}:
            with pytest.raises(ConfigurationError, match=f"take {own} and no"):
                Scenario(**kw)
            return
        sc = Scenario(**kw)
        run = run_open_loop if mode == engine.MODE_OPEN_LOOP else run_closed_loop
        assert run(sc).t[-1] == 3600.0

    def test_swapping_the_event_swaps_the_loop(self):
        # the event names its loop; a spelled mode is checked, then dropped
        assert "mode" not in {f.name for f in fields(Scenario)}
        open_sc = quick_scenario(dt=10.0)
        closed = replace(open_sc, event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10,
                                                      forced_settle_duration=600.0))
        assert (open_sc.event.mode, closed.event.mode) == (
            "open_loop", "closed_loop_forced_settling")
        assert run_closed_loop(closed).t[-1] == closed.t_settle
        assert replace(closed, event=open_sc.event) == open_sc

    def test_default_event_is_the_zero_schedule(self):
        assert Scenario().event.setpoint_deltas == (0.0, 0.0)
        with pytest.raises(ConfigurationError, match="take power_delta_frac"):
            Scenario(mode=engine.MODE_CLOSED_LOOP)

    def test_times_must_align_with_dt(self):
        with pytest.raises(ConfigurationError):
            quick_scenario(dt=7.0)  # 600 s warmup not a multiple
        with pytest.raises(ConfigurationError):
            quick_scenario(dt=0.0)

    @pytest.mark.parametrize("field, value", [
        ("dt", math.nan), ("dt", math.inf), ("warmup", math.nan),
        ("warmup", math.inf), ("settle_duration", math.nan),
        ("settle_duration", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            quick_scenario(**{field: value})

    def test_event_must_fit(self):
        with pytest.raises(ConfigurationError):
            quick_scenario(settle_duration=1800.0)

    def test_stiff_config_needs_small_dt(self):
        sc = quick_scenario(params=BuildingParams().with_mixing(1e-3, 1e-3))
        with pytest.raises(ConfigurationError, match="unstable"):
            run_baseline(sc)


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
        engine._memo_open_loop.cache_clear()
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
        assert b is a

    @settings(max_examples=30, deadline=None)
    @given(mixing=st.sampled_from([None, (0.3, 0.1), (0.9, 0.3)]),
           dt=st.sampled_from([1.0, 8.0, 20.0]),
           forecast=st.sampled_from([
               OutdoorProfile.constant(29.4), OutdoorProfile.step_at(29.4, 1200.0, 1.7),
               OutdoorProfile(times=(0.0, 800.0, 2000.0), values=(29.4, 31.0, 27.5))]),
           gains=st.sampled_from([ControllerGains(),
                                  replace(ControllerGains(), kp_temp=0.5, ki_temp=4e-3)]))
    def test_zero_schedule_is_the_no_event_run(self, mixing, dt, forecast, gains):
        # a baseline is the open-loop run of a zero setpoint schedule under the
        # forecast: the same bits as the closed-loop run of an empty event under
        # the forecast, which moves no setpoint and never engages the power PI
        params = BuildingParams() if mixing is None else BuildingParams().with_mixing(*mixing)
        sc = quick_scenario(params=params, gains=gains, dt=dt, warmup=800.0,
                            settle_duration=3600.0, oa_predicted=forecast)
        engine._memo_open_loop.cache_clear()
        memo = run_baseline(sc)
        no_event = replace(sc, mode="closed_loop", oa_actual=forecast,
                           event=EventSchedule(half_duration=0.0, power_delta_frac=0.0))
        marched = run_closed_loop(no_event)
        for name in SERIES_FIELDS:
            assert getattr(memo, name).tobytes() == getattr(marched, name).tobytes(), name
        assert memo.dt == marched.dt

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
                                                power_delta_frac=0.0))
        base = run_baseline(sc)
        ev = run_closed_loop(sc)
        assert np.max(np.abs(ev.p_fan - base.p_fan)) < 0.5

    def test_tracks_square_reference(self):
        sc = self._scenario()
        base = run_baseline(sc)
        ev = run_closed_loop(sc)
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
        ev = run_closed_loop(sc)
        i0 = ev.index_at(sc.t_start)
        assert ev.p_event_ref[i0] == pytest.approx(0.10 * base.p_fan[i0])
        assert ev.p_event_ref[ev.index_at(sc.t_end)] == 0.0

    def test_shared_baseline_left_read_only_and_unchanged(self):
        # the kernel reads the memoised baseline's fan power in place
        sc = self._scenario()
        base = run_baseline(sc)
        before = {name: getattr(base, name).copy() for name in SERIES_FIELDS}
        ev = run_closed_loop(sc)
        assert not np.array_equal(ev.p_fan, base.p_fan)
        for name in SERIES_FIELDS:
            series = getattr(base, name)
            assert not series.flags.writeable, name
            assert np.array_equal(series, before[name]), name
        assert run_baseline(sc).p_fan is base.p_fan

    def test_takes_its_scenario_alone(self, monkeypatch):
        # the reference is sized from the forecast's no-event run, found in the
        # memo; a forecast stepped before t_start moves it off the counterfactual
        sc = self._scenario(oa_predicted=OutdoorProfile.step_at(29.4, 300.0, 1.0))
        assert list(inspect.signature(run_closed_loop).parameters) == ["scenario"]
        forecast = run_baseline(sc)
        calls = count_marches(monkeypatch)
        ev = run_closed_loop(sc)
        assert len(calls) == 1
        i0 = ev.index_at(sc.t_start)
        assert ev.p_event_ref[i0] == 0.10 * forecast.p_fan[i0]
        counterfactual = run_baseline(replace(sc, oa_predicted=sc.oa_actual))
        assert counterfactual.p_fan[i0] != forecast.p_fan[i0]

    def test_forced_settling_pins_power_after_event(self):
        sc = self._scenario(event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10,
                                                forced_settle_duration=3600.0))
        base = run_baseline(sc)
        ev = run_closed_loop(sc)
        diff = np.abs(ev.p_fan - base.p_fan)
        i_end = ev.index_at(sc.t_end)
        # after a short transient the forced hour holds the baseline closely
        window = diff[i_end + 600:i_end + 3600]
        assert np.mean(window) < 3.0

    @pytest.mark.parametrize("hold", [0.0, 600.0])
    def test_spellings_are_one_mode(self, hold):
        runs, labels = [], []
        for mode in ("closed_loop", "closed_loop_forced_settling"):
            sc = self._scenario(mode=mode, settle_duration=7200.0,
                                event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10,
                                                    forced_settle_duration=hold))
            runs.append(run_closed_loop(sc))
            labels.append(sc.event.mode)
        for name in SERIES_FIELDS:
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
        assert labels == 2 * ["closed_loop_forced_settling" if hold else "closed_loop"]

    def test_settles_by_horizon(self):
        for hold in (0.0, 3600.0):
            sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                          event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10,
                                              forced_settle_duration=hold),
                          mode="closed_loop")
            base = run_baseline(sc)
            ev = run_closed_loop(sc)
            residual = abs(ev.p_fan[-1] - base.p_fan[-1])
            if hold > 0:
                assert residual < 1.0
            else:
                # the slow wall mode is still unwinding at the horizon
                assert residual < 6.0


class TestStep:
    @pytest.mark.parametrize("dt", [1.0, 10.0, 20.0])
    @pytest.mark.parametrize(
        "mix", [None, (0.1, 0.1), (0.3, 0.1), (0.5, 0.3), (0.9, 0.5)],
        ids=["two_state", "r0.1_c0.1", "r0.3_c0.1", "r0.5_c0.3", "r0.9_c0.5"])
    def test_equilibrium_is_fixed_point(self, monkeypatch, mix, dt):
        # one step from the equilibrium start leaves every state bit-identical,
        # so the kernel marches a no-event run once and repeats sample 0
        params = BuildingParams() if mix is None else BuildingParams().with_mixing(*mix)
        steps = count_plant_steps(monkeypatch)
        trace = run_baseline(Scenario(params=params, dt=dt, warmup=1200.0,
                                      settle_duration=4800.0))
        for name in TRACE_OUTPUTS:
            series = getattr(trace, name)
            assert np.array_equal(series.view(np.uint64),
                                  np.full_like(series, series[0]).view(np.uint64)), name
        assert sum(steps) <= 2

    def test_event_warmup_not_marched(self, monkeypatch):
        # the event run leaves the fixed point only when its inputs change
        sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                      event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.1),
                      mode="closed_loop", dt=10.0, warmup=7200.0,
                      settle_duration=7200.0)
        baseline = run_baseline(sc)
        steps = count_plant_steps(monkeypatch)
        run_closed_loop(sc)
        assert sum(steps) <= sc.n_steps - sc.warmup / sc.dt + 2

    @pytest.mark.parametrize("mix", [None, (0.5, 0.3)], ids=["two_state", "mixing"])
    def test_moving_event_counts_marched_steps(self, monkeypatch, mix):
        # the kernel counts the steps it marches, so a moving run cannot
        # pass a step-count bound with zero
        params = BuildingParams() if mix is None else BuildingParams().with_mixing(*mix)
        sc = Scenario(params=params,
                      event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.1),
                      mode="closed_loop", dt=10.0, warmup=7200.0,
                      settle_duration=7200.0)
        baseline = run_baseline(sc)
        steps = count_plant_steps(monkeypatch)
        run_closed_loop(sc)
        assert 2 * sc.event.half_duration / sc.dt < sum(steps) < sc.n_steps

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


class TestNumericalFailure:
    @pytest.mark.parametrize("sample", [{"t": 30.0, "t_mix": float("inf"),
                                         "bounds": (7.5, 34.4)}, None])
    def test_pickle_keeps_the_sample(self, sample):
        # a sweep point that fails in a forked worker comes back pickled
        exc = pickle.loads(pickle.dumps(NumericalError("diverged", sample)))
        assert type(exc) is NumericalError and str(exc) == "diverged"
        assert exc.sample == (sample or {})

    def test_sample_reports_the_failing_index(self, monkeypatch):
        # a 5 K setpoint rise warms the mixing pocket past an upper bound
        # pulled 3.5 K below the outdoor temperature, partway through the run
        sc = quick_scenario(event=EventSchedule(kind="DOWN_UP",
                                                setpoint_deltas=(5.0, -5.0)))
        reference = run_open_loop(sc)  # default bounds: never left
        engine._memo_open_loop.cache_clear()  # so the patched run marches
        outputs, simulate_loop = [], kernels.simulate_loop

        def spy(*args):
            outputs.append(args[-1])  # the kernel's ``outs``
            return simulate_loop(*args)

        monkeypatch.setattr(kernels, "simulate_loop", spy)
        monkeypatch.setattr(engine, "_SANITY_MARGIN_K", -3.5)
        with pytest.raises(NumericalError) as info:
            run_open_loop(sc)
        sample = info.value.sample
        i = reference.index_at(sample["t"])
        assert 0 < i < reference.n_samples - 1
        assert sample["t_mix"] > sample["bounds"][1]
        for name, series in zip(TRACE_OUTPUTS, outputs[-1]):
            assert sample[name] == series[i] == getattr(reference, name)[i], name
            # the march wrote samples 0..i into the engine's arrays in place
            assert np.all(np.isfinite(series[:i])), name
            assert np.array_equal(series[:i + 1],
                                  getattr(reference, name)[:i + 1]), name
        # i is the first failure: every checked state before it is in bounds
        t_low, t_high = sample["bounds"]
        for series in outputs[-1][:3]:
            assert np.all((t_low <= series[:i]) & (series[:i] <= t_high))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_mix0", "t_room0", "t_wall0", "p_fan0"])
    def test_non_finite_start_fails_at_sample_0(self, monkeypatch, name, value):
        params, gains = BuildingParams().with_mixing(0.3, 0.1), ControllerGains()
        start = {**equilibrium_start(params, gains), name: value}
        status, _ = march(params, gains, 10, 10.0, start)
        assert status == 0
        # the engine reports that index as a numerical failure
        index, simulate_loop = list(start).index(name), kernels.simulate_loop

        def spoiled(*args):
            *head, state, outs = args
            state = state[:index] + (value,) + state[index + 1:]
            return simulate_loop(*head, state, outs)

        monkeypatch.setattr(kernels, "simulate_loop", spoiled)
        with pytest.raises(NumericalError) as info:
            run_baseline(quick_scenario())
        assert info.value.sample["t"] == 0.0


class TestEnergyBookkeeping:
    def test_stored_energy_matches_integrated_flows(self):
        sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                      event=EventSchedule(kind="UP_DOWN", power_delta_frac=0.10),
                      mode="closed_loop", warmup=600.0, settle_duration=10800.0)
        base = run_baseline(sc)
        ev = run_closed_loop(sc)
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
        tuned = tune_open_loop_event(sc)
        sc2 = replace(sc, event=tuned)
        base = run_baseline(sc2)
        ev = run_open_loop(sc2)
        m = metrics.evaluate_event(ev, base, sc2.window())
        assert m.neutral
        net, scale = metrics.event_net(ev, base, sc2.window())
        assert m.neutrality_residual == abs(net) <= engine.NET_STOP_FRAC * scale
        # first delta untouched, second retains its sign convention
        assert tuned.setpoint_deltas[0] == sc.event.setpoint_deltas[0]
        assert tuned.setpoint_deltas[1] <= 0.0

    def test_root_pinned_each_magnitude_probed_once(self, monkeypatch):
        sc = self._scenario()
        calls = count_marches(monkeypatch)
        tuned = tune_open_loop_event(sc)
        # exact: a changed search or stop rule moves the root
        assert tuned.setpoint_deltas == (0.5555555555555556, -0.6622184483101543)
        # the baseline and four probes cut at t_end; the root is not re-marched
        n_end = round(sc.t_end / sc.dt)
        assert calls == [sc.n_steps] + [n_end] * 4

    def test_only_the_root_returned_unchanged(self):
        sc = self._scenario()
        root = tune_open_loop_event(sc)
        assert tune_open_loop_event(replace(sc, event=root)) is root
        # inside the 5% band but off the root: the band does not stop the search
        d1, d2 = root.setpoint_deltas
        off = replace(sc, event=replace(root, setpoint_deltas=(d1, d2 * 1.01)))
        assert metrics.evaluate_event(run_open_loop(off), run_baseline(off),
                                      off.window()).neutral
        moved = tune_open_loop_event(off)
        assert moved.setpoint_deltas[1] != off.event.setpoint_deltas[1]
        assert moved.setpoint_deltas == pytest.approx(root.setpoint_deltas, abs=1e-4)

    @pytest.mark.parametrize("kind, m0", [("DOWN_UP", 0.5), ("UP_DOWN", 0.5),
                                          ("DOWN_UP", 0.0), ("DOWN_UP", 3.0)])
    def test_one_full_event_march(self, monkeypatch, kind, m0):
        d1 = 0.5 if kind == "DOWN_UP" else -0.5
        sc = quick_scenario(dt=10.0, event=EventSchedule(
            kind=kind, setpoint_deltas=(d1, math.copysign(m0, -d1))))
        n_end = round(sc.t_end / sc.dt)
        marches, simulate_loop = [], kernels.simulate_loop

        def spy(*args):
            # the scheduled setpoint over the event's last step
            marches.append((args[1], args[9][n_end - 1]))
            return simulate_loop(*args)

        monkeypatch.setattr(kernels, "simulate_loop", spy)
        tuned = tune_open_loop_event(sc)
        full = [t_set for n, t_set in marches if n == sc.n_steps]
        probes = [t_set for n, t_set in marches if n != sc.n_steps]
        # the baseline at the nominal setpoint; every probe stops at t_end
        assert full == [sc.gains.t_set_nominal]
        assert len(probes) == len(set(probes)) >= 2
        assert all(n == n_end for n, _ in marches[1:])
        # the root is a probe
        assert sc.gains.t_set_nominal + tuned.setpoint_deltas[1] in probes

    def test_root_does_not_move_with_the_stop_rule(self, monkeypatch):
        roots = []
        for frac in (1e-3, 1e-4):
            monkeypatch.setattr(engine, "NET_STOP_FRAC", frac)
            roots.append(tune_open_loop_event(self._scenario()).setpoint_deltas[1])
        assert abs(roots[0] - roots[1]) <= 1e-4

    def test_neutral_schedule_returned_unchanged(self):
        sc = self._scenario()
        tuned = tune_open_loop_event(sc)
        again = tune_open_loop_event(replace(sc, event=tuned))
        assert again is tuned

    def test_accepted_probe_reused_bit_for_bit(self, monkeypatch):
        sc = self._scenario()
        tuned = replace(sc, event=tune_open_loop_event(sc), scenario_id="renamed")
        # the memo holds exactly the counterfactual: no probe, no root
        counterfactual = replace(sc, event=engine._NO_EVENT, oa_actual=sc.oa_predicted,
                                 scenario_id="")
        info = engine._memo_open_loop.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        base = engine._memo_open_loop(counterfactual)
        assert engine._memo_open_loop.cache_info().misses == 1
        # the root marches once, in its event run
        calls = count_marches(monkeypatch)
        event = run_open_loop(tuned)
        assert calls == [sc.n_steps]
        # the event row's net is the accepted probe's to the bit
        k = round(sc.t_end / sc.dt)
        probe = engine._run(tuned, until=sc.t_end)
        assert probe.p_fan.tobytes() == event.p_fan[:k + 1].tobytes()
        net, scale = metrics.event_net(event, base, sc.window())
        assert (net, scale) == metrics.event_net(probe, base.sliced(0, k), sc.window())
        assert abs(net) <= engine.NET_STOP_FRAC * scale

    def test_requires_open_loop(self):
        sc = Scenario(params=BuildingParams().with_mixing(0.3, 0.1),
                      event=EventSchedule(kind="DOWN_UP", power_delta_frac=0.1),
                      mode="closed_loop")
        with pytest.raises(ConfigurationError):
            tune_open_loop_event(sc)


class TestCutProbe:
    """A march cut at t_end is the prefix of the full march."""

    @pytest.mark.parametrize("dt", [1.0, 8.0])
    @pytest.mark.parametrize("kind, deltas", [("DOWN_UP", (0.6, -0.7)),
                                              ("UP_DOWN", (-0.6, 0.7))])
    @pytest.mark.parametrize("mixing", [False, True])
    def test_p_fan_and_net_bits(self, mixing, kind, deltas, dt):
        params = BuildingParams().with_mixing(0.3, 0.1) if mixing else BuildingParams()
        sc = quick_scenario(params=params, dt=dt,
                            event=EventSchedule(kind=kind, setpoint_deltas=deltas))
        full = engine._run(sc)
        cut = engine._run(sc, until=sc.t_end)
        k = round(sc.t_end / dt)
        assert cut.n_samples == k + 1
        assert cut.p_fan.tobytes() == full.p_fan[:k + 1].tobytes()
        for name in ("t_mix", "t_room", "t_wall", "mdot_actual"):
            assert getattr(cut, name).tobytes() == getattr(full, name)[:k + 1].tobytes()
        base = run_baseline(sc)
        net_cut = metrics.event_net(cut, base.sliced(0, k), sc.window())
        net_full = metrics.event_net(full, base, sc.window())
        assert [x.hex() for x in net_cut] == [x.hex() for x in net_full]
        m = metrics.evaluate_event(full, base, sc.window())
        assert m.neutrality_residual == abs(net_full[0])

    def test_inputs_and_bounds_are_the_full_horizons(self, monkeypatch):
        # the outdoor air steps up 30 K after t_end, which raises the upper bound
        sc = quick_scenario(oa_actual=OutdoorProfile.step_at(29.4, 6000.0, 30.0))
        calls, simulate_loop = [], kernels.simulate_loop

        def spy(*args):
            calls.append(args)
            return simulate_loop(*args)

        monkeypatch.setattr(kernels, "simulate_loop", spy)
        engine._run(sc)
        engine._run(sc, until=sc.t_end)
        (full, cut), k = calls, round(sc.t_end / sc.dt)
        assert cut[:2] == (full[0], k) and cut[2:8] == full[2:8]
        assert full[7] == 29.4 + 30.0 + 5.0
        for series in range(8, 13):
            assert cut[series].tobytes() == full[series][:k + 1].tobytes()


class TestNeutralMagnitude:
    """The root finder on synthetic nets, probe by probe."""

    def _solve(self, f, m0, tol):
        probed = []

        def net(mag):
            probed.append(mag)
            value = f(mag)
            return None if abs(value) <= tol else value

        return engine._neutral_magnitude(net, m0), probed

    @pytest.mark.parametrize("m0", [0.0, 0.3, 0.66, 1.0, 50.0])
    @pytest.mark.parametrize("slope", [2e6, -2e6])
    def test_near_linear_net(self, m0, slope):
        root = 0.66
        mag, probed = self._solve(lambda m: slope * (m - root) + 1e4 * (m - root) ** 2,
                                  m0, 1.0)
        assert abs(mag - root) <= 1e-6
        assert len(probed) == len(set(probed)) <= 9
        assert probed[0] == m0

    def test_bent_net_bisects_inside_the_bracket(self):
        # a secant step off a kinked net leaves the bracket; the midpoint is taken
        mag, probed = self._solve(lambda m: math.atan(50.0 * (m - 0.7)), 0.5, 1e-9)
        assert abs(mag - 0.7) <= 1e-9
        assert len(probed) == len(set(probed))

    def test_flat_net_steps_outward(self):
        # equal nets give no secant; the search still steps past the flat stretch
        mag, probed = self._solve(lambda m: max(m, 1.0) - 2.0, 0.5, 1e-9)
        assert mag == 2.0
        assert probed == [0.5, 0.0, 1.0, 2.0]

    def test_no_sign_change_raises(self):
        with pytest.raises(TuningError, match="could not bracket"):
            self._solve(lambda m: 1.0 + m, 0.5, 1e-9)
