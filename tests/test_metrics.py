from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanshift import (EventWindow, energy_in_out, engine, evaluate_event,
                      linear_baseline, metrics, normalize, rte, temp_rmse)
from fanshift.errors import ConfigurationError, TraceAlignmentError

from conftest import make_trace


def square_pair(dt=1.0, horizon=3600.0, pulses=()):
    """Baseline at 500 W plus an event with rectangular power pulses.

    ``pulses`` is a list of (t0, t1, delta_w); edges must land on the grid so
    trapezoidal integrals are exact against hand values.
    """
    t = np.arange(0.0, horizon + dt / 2, dt)
    base = np.full_like(t, 500.0)
    ev = base.copy()
    for t0, t1, delta in pulses:
        ev[(t >= t0) & (t < t1)] += delta
    return make_trace(t, ev), make_trace(t, base)


WINDOW = EventWindow(0.0, 1200.0, 3600.0)


class TestEnergies:
    def test_identical_traces(self):
        ev, base = square_pair()
        assert energy_in_out(ev, base, WINDOW) == (0.0, 0.0)

    def test_balanced_pulses(self):
        # rectangles: +100 W then -100 W for 600 s each; the rectangle-area
        # closed form is 60 kJ per side, trapezoid differs only at the edges
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -100.0)])
        e_in, e_out = energy_in_out(ev, base, WINDOW)
        assert e_in == pytest.approx(6.0e4, rel=2e-3)
        assert e_out == pytest.approx(6.0e4, rel=2e-3)

    def test_one_sided_pulse(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0)])
        e_in, e_out = energy_in_out(ev, base, WINDOW)
        assert e_out == 0.0
        assert e_in == pytest.approx(6.0e4, rel=2e-3)

    def test_triangular_pulse_closed_form(self):
        # ramp 0 -> 120 W over 600 s and back: area = 120 * 600 J exactly,
        # trapezoid is exact on piecewise-linear signals
        dt = 1.0
        t = np.arange(0.0, 3600.0 + dt / 2, dt)
        tri = np.interp(t, [0, 600, 1200], [0.0, 120.0, 0.0])
        ev = make_trace(t, 500.0 + tri)
        base = make_trace(t, np.full_like(t, 500.0))
        e_in, e_out = energy_in_out(ev, base, WINDOW)
        assert e_in == pytest.approx(120.0 * 600.0, rel=1e-12)
        assert e_out == 0.0

    def test_window_monotonicity(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (900, 2400, -40.0)])
        energies = [energy_in_out(ev, base, EventWindow(0.0, 600.0, s))
                    for s in (900.0, 1800.0, 2700.0, 3600.0)]
        for (a_in, a_out), (b_in, b_out) in zip(energies, energies[1:]):
            assert b_in >= a_in and b_out >= a_out

    def test_misaligned_traces_rejected(self):
        ev, _ = square_pair(dt=1.0)
        _, base = square_pair(dt=2.0)
        with pytest.raises(TraceAlignmentError):
            energy_in_out(ev, base, WINDOW)


class TestRte:
    def test_unity_for_balanced_energies(self):
        assert rte(6.0e4, 6.0e4) == 1.0

    def test_undefined_without_charging(self):
        assert rte(0.0, 500.0) is None
        assert rte(0.0, 0.0) is None

    def test_above_unity_is_legal(self):
        assert rte(1.0e4, 1.3e4) == pytest.approx(1.3)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            rte(-1.0, 0.0)

    @given(k=st.floats(min_value=1e-6, max_value=1e6),
           e_in=st.floats(min_value=1e-3, max_value=1e9),
           e_out=st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, k, e_in, e_out):
        assert rte(k * e_in, k * e_out) == pytest.approx(rte(e_in, e_out), rel=1e-12)


class TestNeutrality:
    """The verdict of ``evaluate_event``; the signed net is ``event_net``'s."""

    def test_identical_traces_neutral_by_convention(self):
        ev, base = square_pair()
        m = evaluate_event(ev, base, WINDOW)
        assert metrics.event_net(ev, base, WINDOW)[0] == 0.0
        assert m.neutrality_residual == 0.0 and m.neutral

    def test_cancelling_pulses_are_neutral(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -100.0)])
        m = evaluate_event(ev, base, WINDOW)
        # cancellation exact up to the two grid-edge half-samples
        assert m.neutrality_residual <= 100.0
        assert m.neutral

    def test_cancelling_ramps_are_exactly_neutral(self):
        dt = 1.0
        t = np.arange(0.0, 3600.0 + dt / 2, dt)
        wave = np.interp(t, [0, 300, 900, 1200], [0.0, 90.0, -90.0, 0.0])
        ev = make_trace(t, 500.0 + wave)
        base = make_trace(t, np.full_like(t, 500.0))
        m = evaluate_event(ev, base, WINDOW)
        assert m.neutrality_residual == pytest.approx(0.0, abs=1e-9)
        assert m.neutral

    def test_unbalanced_pulses_fail(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -50.0)])
        m = evaluate_event(ev, base, WINDOW)
        # 60 kJ - 30 kJ = +30 kJ against alpha = 0.05 * 90 kJ = 4.5 kJ
        assert metrics.event_net(ev, base, WINDOW)[0] == pytest.approx(3.0e4, rel=2e-3)
        assert m.neutrality_residual == pytest.approx(3.0e4, rel=2e-3)
        assert not m.neutral

    def test_net_is_signed(self):
        # the mirrored event gives back more than it drew: the same net, negated
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -50.0)])
        mirror, _ = square_pair(pulses=[(0, 600, -100.0), (600, 1200, 50.0)])
        net, _ = metrics.event_net(ev, base, WINDOW)
        net_mirror, _ = metrics.event_net(mirror, base, WINDOW)
        assert net_mirror == -net
        assert not evaluate_event(mirror, base, WINDOW).neutral
        assert evaluate_event(mirror, base, WINDOW).neutrality_residual == net

    def test_vacuous_tolerance_accepts_anything(self, monkeypatch):
        monkeypatch.setattr(metrics, "NEUTRAL_FRAC", 1.0)
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -50.0)])
        assert evaluate_event(ev, base, WINDOW).neutral

    def test_scale_equivariance(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -50.0)])
        m1 = evaluate_event(ev, base, WINDOW)
        ev2 = ev.with_p_fan(ev.p_fan * 7.0)
        base2 = base.with_p_fan(base.p_fan * 7.0)
        m2 = evaluate_event(ev2, base2, WINDOW)
        assert m2.neutrality_residual == pytest.approx(7.0 * m1.neutrality_residual,
                                                       rel=1e-12)
        assert m1.neutral == m2.neutral

    def test_stop_rule_tighter_than_the_verdict(self):
        assert engine.NET_STOP_FRAC < metrics.NEUTRAL_FRAC

    @given(a=st.floats(min_value=-200.0, max_value=200.0),
           eps=st.floats(min_value=-4e-4, max_value=4e-4),
           start=st.integers(min_value=1, max_value=598),
           width=st.integers(min_value=1, max_value=300),
           tail=st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_stop_rule_implies_neutral(self, a, eps, start, width, tail):
        # a pulse pair inside the event window, off balance by eps, so the
        # stop rule holds for about half the draws; a third pulse after t_end
        ev, base = square_pair(pulses=[(start, start + width, a * (1.0 + eps)),
                                       (start + width, start + 2 * width, -a),
                                       (1201, 2400, tail)])
        net, scale = metrics.event_net(ev, base, WINDOW)
        if abs(net) <= engine.NET_STOP_FRAC * scale:
            assert evaluate_event(ev, base, WINDOW).neutral

    def test_energies_scale_linearly(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (900, 1800, -40.0)])
        e1 = energy_in_out(ev, base, WINDOW)
        e2 = energy_in_out(ev.with_p_fan(ev.p_fan * 3.0),
                           base.with_p_fan(base.p_fan * 3.0), WINDOW)
        assert e2[0] == pytest.approx(3.0 * e1[0], rel=1e-12)
        assert e2[1] == pytest.approx(3.0 * e1[1], rel=1e-12)


class TestTempRmse:
    def test_identical_is_zero(self):
        t = np.arange(0.0, 3601.0)
        ev = make_trace(t, np.full_like(t, 500.0), t_room=np.full_like(t, 21.7))
        base = make_trace(t, np.full_like(t, 500.0), t_room=np.full_like(t, 21.7))
        assert temp_rmse(ev, base, WINDOW) == 0.0

    def test_constant_offset(self):
        t = np.arange(0.0, 3601.0)
        ev = make_trace(t, np.zeros_like(t), t_room=np.full_like(t, 21.8))
        base = make_trace(t, np.zeros_like(t), t_room=np.full_like(t, 21.7))
        assert temp_rmse(ev, base, WINDOW) == pytest.approx(0.1, rel=1e-9)

    def test_zero_only_for_identical(self):
        t = np.arange(0.0, 3601.0)
        room = np.full_like(t, 21.7)
        bumped = room.copy()
        bumped[1800] += 1e-6
        ev = make_trace(t, np.zeros_like(t), t_room=bumped)
        base = make_trace(t, np.zeros_like(t), t_room=room)
        assert temp_rmse(ev, base, WINDOW) > 0.0


class TestNormalize:
    def test_constant_becomes_unity(self):
        t = np.arange(0.0, 3601.0)
        tr = make_trace(t, np.full_like(t, 500.0))
        out = normalize(tr, 0.0, 3600.0)
        assert np.allclose(out.p_fan, 1.0, atol=1e-12)

    def test_idempotent(self):
        ev, _ = square_pair(pulses=[(0, 600, 100.0)])
        once = normalize(ev, 0.0, 3600.0)
        twice = normalize(once, 0.0, 3600.0)
        assert np.allclose(once.p_fan, twice.p_fan, atol=1e-12)

    def test_alternating_levels(self):
        dt = 1.0
        t = np.arange(0.0, 3600.0 + dt / 2, dt)
        p = np.where((t // 600) % 2 == 0, 400.0, 600.0)
        # symmetric alternation averages 500 over [0, 3600]
        out = normalize(make_trace(t, p), 0.0, 3600.0)
        assert out.p_fan.min() == pytest.approx(0.8, rel=1e-3)
        assert out.p_fan.max() == pytest.approx(1.2, rel=1e-3)

    def test_zero_mean_rejected(self):
        t = np.arange(0.0, 3601.0)
        with pytest.raises(ConfigurationError):
            normalize(make_trace(t, np.zeros_like(t)), 0.0, 3600.0)

    def test_sub_span_mean_scales_the_whole_trace(self):
        # as a measured trace is scaled by its mean around the event
        t = np.arange(0.0, 7201.0)
        p = np.where(t < 3600.0, 400.0, 800.0)
        out = normalize(make_trace(t, p), 0.0, 1800.0)
        assert np.array_equal(out.p_fan, p / 400.0)


class TestLinearBaseline:
    def _measured(self, pre, post, t0=0.0, t1=9000.0):
        t = np.arange(t0, t1 + 0.5)
        p = np.full_like(t, pre)
        p[t >= 3600.0] = post
        return make_trace(t, p)

    def test_flat_input_flat_baseline(self):
        tr = self._measured(500.0, 500.0)
        base = linear_baseline(tr, EventWindow(1800.0, 3600.0, 7200.0))
        assert np.allclose(base.p_fan, 500.0, atol=1e-12)

    def test_midpoint_interpolation(self):
        window = EventWindow(1800.0, 3600.0, 5400.0)
        tr = self._measured(400.0, 600.0)
        base = linear_baseline(tr, window)
        assert base.p_fan[base.index_at(1800.0)] == pytest.approx(400.0)
        assert base.p_fan[base.index_at(3600.0)] == pytest.approx(500.0)
        assert base.p_fan[base.index_at(5400.0)] == pytest.approx(600.0)
        # flat outside the window
        assert base.p_fan[0] == pytest.approx(400.0)
        assert base.p_fan[-1] == pytest.approx(600.0)

    def test_room_temperature_gets_the_same_line(self):
        window = EventWindow(1800.0, 3600.0, 5400.0)
        tr = self._measured(400.0, 600.0)
        tr = replace(tr, t_room=tr.p_fan / 20.0)
        base = linear_baseline(tr, window)
        assert np.allclose(base.t_room, base.p_fan / 20.0, rtol=1e-12, atol=0.0)

    def test_room_moving_with_event_has_rmse(self):
        # flat power and room either side of the event; the room warms by
        # 0.5 K while power is cut from t_start on, and only that bump counts
        # as disruption: the pre-event anchors leave the t_start sample out
        window = EventWindow(1800.0, 3600.0, 5400.0)
        tr = self._measured(500.0, 500.0)
        in_event = (tr.t >= 1800.0) & (tr.t < 3600.0)
        tr = replace(tr, p_fan=np.where(in_event, 400.0, 500.0),
                     t_room=np.where(in_event, 22.2, 21.7))
        base = linear_baseline(tr, window)
        assert np.allclose(base.t_room, 21.7, rtol=1e-12, atol=0.0)
        assert np.allclose(base.p_fan, 500.0, rtol=1e-12, atol=0.0)
        rmse = evaluate_event(tr, base, window).rmse_temp
        # 0.5 K over 1800 of the 3600 s settling window
        assert rmse == pytest.approx(0.5 * np.sqrt(0.5), rel=1e-3)

    def test_requires_padding(self):
        tr = self._measured(500.0, 500.0, t0=1000.0)
        with pytest.raises(ConfigurationError):
            linear_baseline(tr, EventWindow(1800.0, 3600.0, 7200.0))


class TestEvaluateEvent:
    def test_energies_integrated_once(self, monkeypatch):
        calls, energy_in_out = [], metrics.energy_in_out

        def spy(*args):
            calls.append(args)
            return energy_in_out(*args)

        monkeypatch.setattr(metrics, "energy_in_out", spy)
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -100.0)])
        evaluate_event(ev, base, WINDOW)
        assert len(calls) == 1

    def test_bundles_everything(self):
        ev, base = square_pair(pulses=[(0, 600, 100.0), (600, 1200, -100.0)])
        m = evaluate_event(ev, base, WINDOW)
        assert m.rte == pytest.approx(1.0, rel=2e-3)
        assert m.neutral
        assert m.energy_in > 0 and m.energy_out > 0
        assert m.rmse_temp == 0.0

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            EventWindow(100.0, 100.0, 200.0)
        with pytest.raises(ConfigurationError):
            EventWindow(0.0, 300.0, 200.0)

    def test_window_within_one_sample_rejected(self):
        # 1e-7 s is on the grid of sample 0, so the event window spans no step
        ev, base = square_pair()
        with pytest.raises(ConfigurationError, match="spans no step"):
            metrics.event_net(ev, base, EventWindow(0.0, 1e-7, 3600.0))
