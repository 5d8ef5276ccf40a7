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

import pytest

from fanshift import (BuildingParams, EventSchedule, OutdoorProfile, Scenario,
                      run_baseline, run_closed_loop, run_open_loop)

from conftest import TRACE_OUTPUTS


def _closed_loop(params, event, mode):
    sc = Scenario(params=params, event=event, mode=mode, warmup=400.0,
                  settle_duration=1600.0)
    return run_closed_loop(sc, run_baseline(sc))


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
