import os

import numpy as np
import pytest

from fanshift import (BuildingParams, ControllerGains, EventSchedule, Scenario,
                      engine, equilibrium, kernels)
from fanshift.control import MDOT_LIMIT_FACTOR
from fanshift.engine import _model_id
from fanshift.trace import SERIES_FIELDS, Trace

LOOP_OUTPUTS = ("t_mix", "t_room", "t_wall", "t_set", "mdot_des", "mdot_act",
                "p_fan")
# the trace fields those outputs become, in the same order
TRACE_OUTPUTS = ("t_mix", "t_room", "t_wall", "t_set_eff", "mdot_desired",
                 "mdot_actual", "p_fan")


@pytest.fixture(autouse=True)
def empty_open_loop_memo():
    """Start every test with no memoised open-loop run (baselines and tuned
    events alike), so a run a previous test left in the memo cannot hide a
    march from a spied or patched kernel."""
    engine._memo_open_loop.cache_clear()


@pytest.fixture
def params():
    return BuildingParams()


@pytest.fixture
def mixing_params():
    return BuildingParams().with_mixing(0.3, 0.1)


@pytest.fixture
def gains():
    return ControllerGains()


def make_trace(t, p_fan, t_room=None) -> Trace:
    """Synthetic trace with every other series zero-filled, on the step of its
    first two samples (every caller's grid starts at zero)."""
    t = np.asarray(t, dtype=float)
    kw = {name: np.zeros_like(t) for name in SERIES_FIELDS}
    kw["t"] = t
    kw["p_fan"] = np.asarray(p_fan, dtype=float)
    if t_room is not None:
        kw["t_room"] = np.asarray(t_room, dtype=float)
    return Trace(**kw, dt=float(t[1] - t[0]))


def use_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable as far as ``cli._forked_map`` can tell. A test
    that counts work with spies runs on one, since they do not see work done
    in a forked worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def count_marches(monkeypatch) -> list:
    """Spy on the kernel; the returned list gains each march's step count."""
    calls, simulate_loop = [], kernels.simulate_loop

    def spy(*args):
        calls.append(args[1])
        return simulate_loop(*args)

    monkeypatch.setattr(kernels, "simulate_loop", spy)
    return calls


def count_plant_steps(monkeypatch) -> list:
    """Spy on the kernel's plant step; the returned list gains one entry
    (the ``t_out`` it was given) per step the kernel marches."""
    calls, plant_step = [], kernels.plant_step

    def bind(*args):
        step = plant_step(*args)

        def spy(*state):
            calls.append(state[-1])
            return step(*state)
        return spy

    monkeypatch.setattr(kernels, "plant_step", bind)
    return calls


def quick_scenario(**overrides) -> Scenario:
    """Short-horizon scenario for fast engine tests."""
    kw = dict(
        params=BuildingParams().with_mixing(0.3, 0.1),
        event=EventSchedule(kind="DOWN_UP", setpoint_deltas=(0.5, -0.5)),
        mode="open_loop",
        warmup=600.0,
        settle_duration=7200.0,
    )
    kw.update(overrides)
    return Scenario(**kw)


def equilibrium_start(params, gains, offset_k=0.0) -> dict:
    """Initial loop state at the analytic equilibrium, air temperatures
    raised by ``offset_k``; the temperature integral carries the steady flow.
    The entries are in the order of the kernel's ``start`` tuple."""
    t_mix, t_wall, mdot = equilibrium(params, gains.t_set_nominal)
    return dict(t_mix0=t_mix + offset_k, t_room0=gains.t_set_nominal + offset_k,
                t_wall0=t_wall, i_temp0=mdot / gains.ki_temp,
                mdot0=mdot, p_fan0=gains.fan_coeff * mdot)


def march(params, gains, n_steps, dt, start, engaged=None, p_ref=None,
          p_base=None, t_low=None, t_high=None):
    """Run ``kernels.simulate_loop`` from ``start`` under the nominal outdoor
    temperature and setpoint, with sanity bounds 5 K beyond supply and
    outdoor unless given. Returns (status, {output name: array})."""
    n1 = n_steps + 1
    zeros = np.zeros(n1)
    mdot_max = MDOT_LIMIT_FACTOR * equilibrium(params, gains.t_set_nominal)[2]
    outs = {name: np.empty(n1) for name in LOOP_OUTPUTS}
    status = kernels.simulate_loop(
        _model_id(params), n_steps, dt, params, gains, mdot_max,
        params.t_supply - 5.0 if t_low is None else t_low,
        params.t_outdoor_nominal + 5.0 if t_high is None else t_high,
        zeros + params.t_outdoor_nominal, zeros + gains.t_set_nominal,
        zeros if p_ref is None else p_ref,
        np.zeros(n1, dtype=np.uint8) if engaged is None else engaged,
        zeros if p_base is None else p_base,
        tuple(start.values()), tuple(outs.values()))
    return status, outs
