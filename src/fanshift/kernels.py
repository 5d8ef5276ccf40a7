"""Scalar numeric kernels for the thermal plant and its controllers.

Everything in this module runs as plain Python; ``JIT_ENABLED`` records
that no compiled backend is in use.

``simulate_loop`` is the package's only implementation of a control step.
It takes the run's ``BuildingParams`` and ``ControllerGains`` and binds them
once per march: ``plant_step`` closes one whole RK4 step over the plant's
constants and ``dt``, with the model's rate equations written out in its four
stages, so a marched plant step is one five-argument call; the gains and lag
decays become local floats before the first step. Within a stage the flow
between two nodes is computed once and its negation used for the reverse
flow, and ``mdot * c_p_air`` once per step; both are bit-exact (see
``plant_step``). The temperature PI, the power PI and the two lags are
written out in the loop body, so the plant is the only call a marched step
makes. Tests pin ``plant_step`` to a textbook RK4 and the loop to reference
implementations of each controller update, bit for bit.

The arrays (1-D float64, uint8 for ``engaged``) are read and written only
through memoryviews. Indexing a numpy array yields a numpy scalar, and one
such scalar turns every expression it touches into numpy-scalar arithmetic,
several times slower than Python float arithmetic. Indexing a memoryview
yields a Python ``float`` (``int`` for uint8), and assigning to it stores
straight into the array's buffer, so the march runs in Python floats
without copying an array.

Before the first step the march finds its stops: the samples at which an
input changes in any bit, and the final sample. A cursor walks them in
order; the inputs are read only at a stop, and between stops they are the
ones last read. Settled stretches are not marched: sample i and the state
after it depend only on the inputs at i and the carried state, so once a
step leaves that state bit-identical, the samples up to the next stop are
copies of sample i. Runs start at such a fixed point, so a flat run costs one
step. A step is tested for that only when ``t_wall`` kept its bits, and the
sanity bounds are checked once per march, in one numpy pass over the written
samples after the last step.

Plant models
------------
Original two-state model (supply air mixed straight into the room):

    C_room  dT_room/dt = (T_wall - T_room)/R_wall + Q
                         + mdot * c_p_air * (T_supply - T_room)
    C_wall  dT_wall/dt = (T_room - T_wall)/R_wall + (T_out - T_wall)/R_wall

Mixing-air three-state model (supply air lands in a mixing pocket that
exchanges heat with the room through its own resistance):

    C_mix   dT_mix/dt  = (T_room - T_mix)/R_mix + Q
                         + mdot * c_p_air * (T_supply - T_mix)
    C_room' dT_room/dt = (T_mix - T_room)/R_mix + (T_wall - T_room)/R_wall
    C_wall  dT_wall/dt = (T_room - T_wall)/R_wall + (T_out - T_wall)/R_wall

with C_mix = mix_c * C_room, C_room' = (1 - mix_c) * C_room (total room-air
capacitance is preserved) and R_mix = mix_r * R_wall.

Controllers
-----------
Temperature PI (room temperature -> desired airflow, cooling sign), power PI
(fan-power deviation -> setpoint adjustment, negative feedback), first-order
lags for the VAV actuator and the fan power response. PI integrals use
forward-rectangle accumulation with conditional anti-windup; lags use the
exact exponential update, unconditionally stable for any dt.
"""

import math
import struct

import numpy as np

from .control import SETPOINT_ADJ_LIMIT_K

MODEL_ORIGINAL = 0
MODEL_MIXING = 1

JIT_ENABLED = False


def plant_step(model, params, dt):
    """Bind one plant's classical RK4 step to ``params`` and the step ``dt``.

    Returns ``step(t_mix, t_room, t_wall, mdot, t_out) -> (t_mix, t_room,
    t_wall)``, the state one step on with the inputs held over the step, and
    the model's rate equations written out in each of the four stages. The
    two-state model has no pocket: ``t_mix`` is a passenger that the room's
    RK4 sum moves.

    Shared terms are computed once: per stage the flows ``x = (t_room -
    t_mix) / r_mix`` and ``y = (t_wall - t_room) / r_wall``, whose negations
    are the reverse flows, and per step ``mc = mdot * c_p_air`` (Python
    evaluates ``mdot * c_p_air * dT`` as ``(mdot * c_p_air) * dT``). IEEE
    subtraction, negation and division are sign-symmetric, so every rate
    keeps the bits of the equations as written, except that a zero rate may
    change sign; a zero's sign cannot reach a nonzero temperature.
    """
    c_wall, r_wall = params.c_wall, params.r_wall
    q_internal, t_supply, c_p_air = params.q_internal, params.t_supply, params.c_p_air
    h2 = 0.5 * dt
    sixth = dt / 6.0

    if model == MODEL_ORIGINAL:
        c_room = params.c_room

        def step(t_mix, t_room, t_wall, mdot, t_out):
            mc = mdot * c_p_air
            y = (t_wall - t_room) / r_wall
            r1 = (y + q_internal + mc * (t_supply - t_room)) / c_room
            w1 = ((t_out - t_wall) / r_wall - y) / c_wall
            r, w = t_room + h2 * r1, t_wall + h2 * w1
            y = (w - r) / r_wall
            r2 = (y + q_internal + mc * (t_supply - r)) / c_room
            w2 = ((t_out - w) / r_wall - y) / c_wall
            r, w = t_room + h2 * r2, t_wall + h2 * w2
            y = (w - r) / r_wall
            r3 = (y + q_internal + mc * (t_supply - r)) / c_room
            w3 = ((t_out - w) / r_wall - y) / c_wall
            r, w = t_room + dt * r3, t_wall + dt * w3
            y = (w - r) / r_wall
            r4 = (y + q_internal + mc * (t_supply - r)) / c_room
            w4 = ((t_out - w) / r_wall - y) / c_wall
            s = r1 + 2.0 * r2 + 2.0 * r3 + r4
            return (t_mix + sixth * s, t_room + sixth * s,
                    t_wall + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4))
        return step

    c_mix, c_room_rest, r_mix = params.c_mix, params.c_room_rest, params.r_mix

    def step(t_mix, t_room, t_wall, mdot, t_out):
        mc = mdot * c_p_air
        x, y = (t_room - t_mix) / r_mix, (t_wall - t_room) / r_wall
        a1 = (x + q_internal + mc * (t_supply - t_mix)) / c_mix
        r1 = (y - x) / c_room_rest
        w1 = ((t_out - t_wall) / r_wall - y) / c_wall
        m, r, w = t_mix + h2 * a1, t_room + h2 * r1, t_wall + h2 * w1
        x, y = (r - m) / r_mix, (w - r) / r_wall
        a2 = (x + q_internal + mc * (t_supply - m)) / c_mix
        r2 = (y - x) / c_room_rest
        w2 = ((t_out - w) / r_wall - y) / c_wall
        m, r, w = t_mix + h2 * a2, t_room + h2 * r2, t_wall + h2 * w2
        x, y = (r - m) / r_mix, (w - r) / r_wall
        a3 = (x + q_internal + mc * (t_supply - m)) / c_mix
        r3 = (y - x) / c_room_rest
        w3 = ((t_out - w) / r_wall - y) / c_wall
        m, r, w = t_mix + dt * a3, t_room + dt * r3, t_wall + dt * w3
        x, y = (r - m) / r_mix, (w - r) / r_wall
        a4 = (x + q_internal + mc * (t_supply - m)) / c_mix
        r4 = (y - x) / c_room_rest
        w4 = ((t_out - w) / r_wall - y) / c_wall
        return (t_mix + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                t_room + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
                t_wall + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4))
    return step


def simulate_loop(model, n_steps, dt, params, gains, mdot_max, t_low, t_high,
                  t_out, t_set_sched, p_ref, engaged, p_base, start, outs):
    """March the closed loop over n_steps of size dt.

    ``params`` and ``gains`` are the run's ``BuildingParams`` and
    ``ControllerGains``; ``model`` picks the plant's rate equations. ``start``
    is the state at t_0 (t_mix, t_room, t_wall, temperature integral, actual
    airflow, fan power) and ``outs`` the seven output arrays (t_mix, t_room,
    t_wall, setpoint, desired and actual airflow, fan power). Input arrays
    have n_steps + 1 samples; the value at index i applies over
    [t_i, t_i + dt). Sample i of each output array holds the state at t_i and
    the commands computed at t_i.

    Each step runs, in this order: the power PI (engaged samples only; its
    integral starts at zero at every engagement), the temperature PI on the
    adjusted setpoint, the airflow and fan-power lags, and the plant. The PI
    and lag updates are written out in the loop body. A PI's sum is computed
    with the candidate integral first; it is computed again with the held
    integral only when anti-windup holds it, since with the candidate kept
    the two are the same expression. The final sample's commands come from
    the same PI updates with a zero step, which evaluates them without
    advancing either integrator.

    The march does not stop at a bad sample. Every sample is stored in place
    as it is computed, and once the march ends one numpy pass over ``t_mix``,
    ``t_room``, ``t_wall`` and ``p_fan`` finds the first sample at which a
    state is non-finite or outside [t_low, t_high]; so on failure samples
    0..i hold what they would have held had the march stopped at i. Float
    arithmetic past a failure raises nothing: no state is ever a divisor.

    A settled stretch is tested for only when ``t_wall`` kept its bits over
    the step: a state that is bit-identical to the one before it has an
    identical ``t_wall``, so this one compare skips only the packing of the
    two states, never a settle.

    Returns -1 on success, else the index of the first bad sample. The
    bounds must be finite: ``(t_low <= v) & (v <= t_high)`` is then false for
    NaN and +-inf, so only ``p_fan``, which has no bounds, needs its own
    finiteness check.
    """
    step_plant = plant_step(model, params, dt)
    kp_temp, ki_temp, kp_power, ki_power, fan_coeff = (
        gains.kp_temp, gains.ki_temp, gains.kp_power, gains.ki_power, gains.fan_coeff)
    decay_airflow = math.exp(-dt / gains.tau_airflow)
    decay_fan = math.exp(-dt / gains.tau_fan)
    adj_max, adj_min = SETPOINT_ADJ_LIMIT_K, -SETPOINT_ADJ_LIMIT_K
    # samples whose inputs change in any bit, and the final zero-step sample
    moved = engaged[1:] != engaged[:-1]
    for series in (t_out, t_set_sched, p_ref, p_base):
        moved |= series.view(np.uint64)[1:] != series.view(np.uint64)[:-1]
    stops = iter((np.flatnonzero(moved[:-1]) + 1).tolist() + [n_steps])
    t_out, t_set_sched, p_ref, engaged, p_base = map(
        memoryview, (t_out, t_set_sched, p_ref, engaged, p_base))
    (out_t_mix, out_t_room, out_t_wall, out_t_set,
     out_mdot_des, out_mdot_act, out_p_fan) = map(memoryview, outs)
    t_mix, t_room, t_wall, i_temp, mdot_act, p_fan = start
    i_power = 0.0  # reset at every engagement before it is read
    was_engaged = False

    i = stop = 0
    while True:
        if i == stop:
            # the inputs hold their bits from one stop to the next
            final = i == n_steps
            step = 0.0 if final else dt  # a zero step moves no integrator
            eng = engaged[i] != 0
            t_out_i, t_set_i = t_out[i], t_set_sched[i]
            p_ref_i, p_base_i = p_ref[i], p_base[i]
            stop = next(stops, None)  # None only after the final sample

        # the state entering this step, kept for the settled-stretch test
        i_temp_0, i_power_0, t_wall_0 = i_temp, i_power, t_wall
        if eng:
            # power PI: the fan-power error becomes a setpoint adjustment,
            # negated (more fan power needs a lower cooling setpoint) and
            # clamped to +-adj_max with conditional anti-windup
            if not was_engaged:
                i_power = 0.0  # fresh integral at engagement
            err = p_ref_i - (p_fan - p_base_i)
            cand = i_power + err * step
            adj = -(kp_power * err + ki_power * cand)
            if (adj >= adj_max and err < 0.0) or (adj <= adj_min and err > 0.0):
                adj = -(kp_power * err + ki_power * i_power)
            else:
                i_power = cand
            if adj > adj_max:
                adj = adj_max
            elif adj < adj_min:
                adj = adj_min
            t_set = t_set_i + adj
        else:
            # the temperature PI never stops running: the power PI only adds
            # to its setpoint, so at handback the temperature integral keeps
            # its accumulated state and the proportional term absorbs the
            # setpoint snap; ``+ 0.0`` is the zero adjustment (-0.0 -> 0.0)
            t_set = t_set_i + 0.0
        # temperature PI (warmer room -> more airflow), clamped to
        # [0, mdot_max]; the integral freezes while the command is saturated
        # in the error's direction
        err = t_room - t_set
        cand = i_temp + err * step
        mdot_des = kp_temp * err + ki_temp * cand
        if (mdot_des >= mdot_max and err > 0.0) or (mdot_des <= 0.0 and err < 0.0):
            mdot_des = kp_temp * err + ki_temp * i_temp
        else:
            i_temp = cand
        if mdot_des < 0.0:
            mdot_des = 0.0
        elif mdot_des > mdot_max:
            mdot_des = mdot_max

        out_t_mix[i] = t_mix
        out_t_room[i] = t_room
        out_t_wall[i] = t_wall
        out_t_set[i] = t_set
        out_mdot_des[i] = mdot_des
        out_mdot_act[i] = mdot_act
        out_p_fan[i] = p_fan
        if final:
            break

        # exact first-order lags: x <- target + (x - target) * exp(-dt/tau)
        mdot_act = mdot_des + (mdot_act - mdot_des) * decay_airflow
        p_target = fan_coeff * mdot_act
        p_fan = p_target + (p_fan - p_target) * decay_fan
        t_mix, t_room, t_wall = step_plant(t_mix, t_room, t_wall, mdot_act, t_out_i)

        i += 1
        # a settled step repeats sample i - 1 up to the next stop; the state
        # entering it is sample i - 1's, with the two integrals kept above
        if t_wall == t_wall_0 and i < stop and struct.pack(
                "8d", t_mix, t_room, t_wall, i_temp, i_power, mdot_act, p_fan,
                eng) == struct.pack(
                "8d", out_t_mix[i - 1], out_t_room[i - 1], t_wall_0, i_temp_0,
                i_power_0, out_mdot_act[i - 1], out_p_fan[i - 1], was_engaged):
            for out in outs:
                out[i:stop] = out[i - 1]
            i = stop
        was_engaged = eng

    # the first sample that is non-finite or outside the bounds, if any
    ok = np.isfinite(outs[6])
    for out in outs[:3]:
        ok &= (out >= t_low) & (out <= t_high)
    first_bad = int(ok.argmin())
    return -1 if ok[first_bad] else first_bad
