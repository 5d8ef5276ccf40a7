"""Bit-identity of the march: SHA-256 of the seven kernel output series.

A change to ``kernels.simulate_loop`` that is meant to be a pure speed-up
must leave every output bit as it was. The three marches below cover the
kernel's branches: a mixing plant under the power PI, which engages and
hands back; a two-state plant; and an open-loop setpoint event under an
outdoor step. Each is about 2,000 steps at dt = 1 s.

The expected digests were taken from the march as written before its arrays
were read through memoryviews (numpy-scalar arithmetic), on x86-64 Linux.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from fanshift import (BuildingParams, ControllerGains, EventSchedule,
                      OutdoorProfile, Scenario, run_baseline, run_closed_loop,
                      run_open_loop)

from conftest import TRACE_OUTPUTS, count_plant_steps, equilibrium_start, march


def _closed_loop(params, event, mode):
    sc = Scenario(params=params, event=event, mode=mode, warmup=400.0,
                  settle_duration=1600.0)
    return run_closed_loop(sc)


def mixing_power_pi():
    # engaged over [400, 1600) s, handed back for the last 400 s
    return _closed_loop(
        BuildingParams().with_mixing(0.5, 0.3),
        EventSchedule(kind="UP_DOWN", half_duration=300.0, power_delta_frac=0.1,
                      forced_settle_duration=600.0),
        "closed_loop_forced_settling")


def two_state_power_pi():
    return _closed_loop(
        BuildingParams(),
        EventSchedule(kind="DOWN_UP", half_duration=300.0, power_delta_frac=0.1),
        "closed_loop")


def open_loop_setpoint():
    sc = Scenario(params=BuildingParams().with_mixing(0.3, 0.1),
                  event=EventSchedule(kind="DOWN_UP", half_duration=300.0,
                                      setpoint_deltas=(0.5, -0.5)),
                  mode="open_loop", warmup=400.0, settle_duration=1600.0,
                  oa_actual=OutdoorProfile.step_at(29.4, 1000.0, 2.0))
    return run_open_loop(sc)


def output_digest(trace) -> str:
    h = hashlib.sha256()
    for name in TRACE_OUTPUTS:
        h.update(getattr(trace, name).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("run, expected", [
    (mixing_power_pi,
     "1796a0dc35a04bb15707deaed5a8ad92adcc4b1446c55f0cf2457298193380d7"),
    (two_state_power_pi,
     "cb87b3fc8e5cc082683f3f9687337d083e67c6def83e3975ac0a8ff8b63dc615"),
    (open_loop_setpoint,
     "bfd8db4839f152615b3d521427b530db08687a1d7b8bd28c413b4a82270a5def"),
])
def test_march_is_bit_identical(run, expected):
    trace = run()
    assert trace.n_samples == 2001
    assert output_digest(trace) == expected


# The marches below sit at the edges of a fixed-point stretch, where the
# kernel stops marching (see ``kernels.simulate_loop``): a no-event run whose
# stretch reaches the final zero-step sample, an outdoor step that ends one
# during warm-up, and a power PI that engages with a zero reference in the
# middle of one, once or twice. Their expected digests were taken from the
# march as written before it skipped any step.

def _no_event(params):
    sc = Scenario(params=params, warmup=400.0, settle_duration=1600.0)
    return run_baseline(sc)


def mixing_no_event():
    return _no_event(BuildingParams().with_mixing(0.5, 0.3))


def two_state_no_event():
    return _no_event(BuildingParams())


def unpredicted_step_in_warmup():
    # forced-settling's oa_step_unpredicted case with the step 300 s before
    # event start: the baseline stays flat, the event run moves from t = 300 s
    sc = Scenario(params=BuildingParams().with_mixing(0.5, 0.3),
                  event=EventSchedule(kind="UP_DOWN", half_duration=300.0,
                                      power_delta_frac=0.1,
                                      forced_settle_duration=600.0),
                  mode="closed_loop_forced_settling", warmup=600.0,
                  settle_duration=1400.0,
                  oa_actual=OutdoorProfile.step_at(29.4, 300.0, 3.0 / 1.8))
    return run_closed_loop(sc)


def _engaged_march(*spans):
    # the power PI engages over ``spans`` with a zero reference against a
    # baseline one ulp off the fan power: only its integral moves, until the
    # setpoint it adds rounds away from 21.7 degC some 215 samples later
    params, gains = BuildingParams().with_mixing(0.5, 0.3), ControllerGains()
    start = equilibrium_start(params, gains)
    engaged = np.zeros(2001, dtype=np.uint8)
    for span in spans:
        engaged[span] = 1
    p_base = np.full(2001, np.nextafter(start["p_fan0"], np.inf))
    status, out = march(params, gains, 2000, 1.0, start, engaged=engaged,
                        p_base=p_base)
    assert status == -1
    return SimpleNamespace(n_samples=2001,
                           **dict(zip(TRACE_OUTPUTS, out.values())))


def engaged_mid_stretch():
    return _engaged_march(slice(500, None))


def reengaged_mid_stretch():
    # one engaged sample leaves the integral at one step's worth; engaging
    # again at sample 800 resets it and steps it back to that same value, so
    # only the engagement flag tells the state after sample 800 from the one
    # before it
    return _engaged_march(slice(500, 501), slice(800, None))


@pytest.mark.parametrize("run, expected", [
    (mixing_no_event,
     "3c9ab5f3b0df55940b5f2b6de670af42b650db4a46c8839a71a3ffd87da0fb23"),
    (two_state_no_event,
     "944ca8747ea7b68c72e11a4f8decd8e35923b741e7675f8a97c1aab4182434da"),
    (unpredicted_step_in_warmup,
     "a3bfb732294dcd45a45104e56cc55829969b92cac8ebeb37ecf3de977ad6bcf4"),
    (engaged_mid_stretch,
     "54aad0b34ab2ba3f18d5748792be98ebc8ba3754ea0bea03cd5ce049fed8d31f"),
    (reengaged_mid_stretch,
     "31e541a8b44ec4152d51f4bed6104386f9cf654e29304b4b25b56f14608ccd2d"),
])
def test_skip_edges_bit_identical(run, expected):
    trace = run()
    assert trace.n_samples == 2001
    assert output_digest(trace) == expected


# A settle test that stops firing changes no digest above, only the number of
# steps marched. These are the counts of plant steps each march takes (both
# marches of ``unpredicted_step_in_warmup``), as taken from the march that
# tested every step for a settled stretch.
@pytest.mark.parametrize("run, marched", [
    (mixing_no_event, 1),
    (two_state_no_event, 1),
    (unpredicted_step_in_warmup, 1702),
    (engaged_mid_stretch, 1501),
    (reengaged_mid_stretch, 1204),
])
def test_skip_edges_marched_steps(monkeypatch, run, marched):
    steps = count_plant_steps(monkeypatch)
    run()
    assert sum(steps) == marched
