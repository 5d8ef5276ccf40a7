"""Scalar numeric kernels for the thermal plant and its controllers.

Everything in this module runs as plain Python; ``JIT_ENABLED`` records
that no compiled backend is in use. ``simulate_loop`` takes 1-D float64
arrays (uint8 for ``engaged``) but reads and writes them only through
memoryviews. Indexing a numpy array yields a numpy scalar, and one such
scalar turns every expression it touches into numpy-scalar arithmetic,
several times slower than Python float arithmetic. Indexing a memoryview
yields a Python ``float`` (``int`` for uint8), and assigning to it stores
straight into the array's buffer, so the march runs in Python floats
without copying an array.

``simulate_loop`` is the package's only implementation of a control step;
the scalar helpers it calls are public so tests can pin each part of it.

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

MODEL_ORIGINAL = 0
MODEL_MIXING = 1

_STATUS_OK = -1

JIT_ENABLED = False


def derivs_original(t_room, t_wall, mdot, t_out,
                    c_room, c_wall, r_wall, q_internal, t_supply, c_p_air):
    """Temperature rates (K/s) of the two-state model."""
    d_room = ((t_wall - t_room) / r_wall + q_internal
              + mdot * c_p_air * (t_supply - t_room)) / c_room
    d_wall = ((t_room - t_wall) / r_wall + (t_out - t_wall) / r_wall) / c_wall
    return d_room, d_wall


def derivs_mixing(t_mix, t_room, t_wall, mdot, t_out,
                  c_mix, c_room_rest, c_wall, r_wall, r_mix,
                  q_internal, t_supply, c_p_air):
    """Temperature rates (K/s) of the three-state mixing-air model."""
    d_mix = ((t_room - t_mix) / r_mix + q_internal
             + mdot * c_p_air * (t_supply - t_mix)) / c_mix
    d_room = ((t_mix - t_room) / r_mix + (t_wall - t_room) / r_wall) / c_room_rest
    d_wall = ((t_room - t_wall) / r_wall + (t_out - t_wall) / r_wall) / c_wall
    return d_mix, d_room, d_wall


def plant_derivs(model, t_mix, t_room, t_wall, mdot, t_out,
                 c_mix, c_room_rest, c_wall, r_wall, r_mix,
                 q_internal, t_supply, c_p_air):
    """Rates for either model; the two-state model aliases T_mix to T_room."""
    if model == MODEL_ORIGINAL:
        d_room, d_wall = derivs_original(
            t_room, t_wall, mdot, t_out,
            c_room_rest, c_wall, r_wall, q_internal, t_supply, c_p_air)
        return d_room, d_room, d_wall
    return derivs_mixing(
        t_mix, t_room, t_wall, mdot, t_out,
        c_mix, c_room_rest, c_wall, r_wall, r_mix,
        q_internal, t_supply, c_p_air)


def rk4_plant_step(model, t_mix, t_room, t_wall, mdot, t_out, dt,
                   c_mix, c_room_rest, c_wall, r_wall, r_mix,
                   q_internal, t_supply, c_p_air):
    """One classical 4th-order Runge-Kutta step, inputs held over the step."""
    a1, r1, w1 = plant_derivs(model, t_mix, t_room, t_wall, mdot, t_out,
                              c_mix, c_room_rest, c_wall, r_wall, r_mix,
                              q_internal, t_supply, c_p_air)
    h2 = 0.5 * dt
    a2, r2, w2 = plant_derivs(model, t_mix + h2 * a1, t_room + h2 * r1,
                              t_wall + h2 * w1, mdot, t_out,
                              c_mix, c_room_rest, c_wall, r_wall, r_mix,
                              q_internal, t_supply, c_p_air)
    a3, r3, w3 = plant_derivs(model, t_mix + h2 * a2, t_room + h2 * r2,
                              t_wall + h2 * w2, mdot, t_out,
                              c_mix, c_room_rest, c_wall, r_wall, r_mix,
                              q_internal, t_supply, c_p_air)
    a4, r4, w4 = plant_derivs(model, t_mix + dt * a3, t_room + dt * r3,
                              t_wall + dt * w3, mdot, t_out,
                              c_mix, c_room_rest, c_wall, r_wall, r_mix,
                              q_internal, t_supply, c_p_air)
    sixth = dt / 6.0
    return (t_mix + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            t_room + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
            t_wall + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4))


def temp_pi(t_room, t_set, integ, kp, ki, dt, mdot_max):
    """Temperature PI step. Returns (desired airflow kg/s, new integral).

    Error is room minus setpoint (warmer room -> more airflow). The integral
    is held whenever the unsaturated command sits on a limit that the current
    error would push it past (conditional anti-windup).
    """
    err = t_room - t_set
    cand = integ + err * dt
    u = kp * err + ki * cand
    if (u >= mdot_max and err > 0.0) or (u <= 0.0 and err < 0.0):
        pass  # saturated in the error's direction: freeze the integral
    else:
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
    if (adj >= adj_max and err < 0.0) or (adj <= -adj_max and err > 0.0):
        pass
    else:
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


def simulate_loop(model, n_steps, dt,
                  c_mix, c_room_rest, c_wall, r_wall, r_mix,
                  q_internal, t_supply, c_p_air,
                  kp_temp, ki_temp, kp_power, ki_power,
                  fan_coeff, mdot_max, adj_max, decay_airflow, decay_fan,
                  t_low, t_high,
                  t_out, t_set_sched, p_ref, engaged, p_base,
                  t_mix0, t_room0, t_wall0, i_temp0, mdot0, p_fan0,
                  out_t_mix, out_t_room, out_t_wall, out_t_set,
                  out_mdot_des, out_mdot_act, out_p_fan):
    """March the closed loop over n_steps of size dt.

    Input arrays have n_steps + 1 samples; the value at index i applies over
    [t_i, t_i + dt). Sample i of each output array holds the state at t_i and
    the commands computed at t_i. The final sample's commands come from the
    same ``power_pi`` / ``temp_pi`` calls with a zero step, which evaluates
    them without advancing either integrator. The power integral starts at
    zero at every engagement.

    Output samples are stored in place as they are computed, so on failure
    samples 0..i are already written.

    Returns -1 on success, else the index of the first sample at which a
    state became non-finite or left [t_low, t_high].
    """
    t_out, t_set_sched, p_ref, engaged, p_base = map(
        memoryview, (t_out, t_set_sched, p_ref, engaged, p_base))
    (out_t_mix, out_t_room, out_t_wall, out_t_set,
     out_mdot_des, out_mdot_act, out_p_fan) = map(memoryview, (
         out_t_mix, out_t_room, out_t_wall, out_t_set,
         out_mdot_des, out_mdot_act, out_p_fan))
    t_mix = t_mix0
    t_room = t_room0
    t_wall = t_wall0
    i_temp = i_temp0
    i_power = 0.0  # reset at every engagement before it is read
    mdot_act = mdot0
    p_fan = p_fan0
    was_engaged = False

    for i in range(n_steps + 1):
        final = i == n_steps
        step = 0.0 if final else dt  # a zero step moves no integrator
        eng = engaged[i] != 0

        if eng:
            if not was_engaged:
                i_power = 0.0  # fresh integral at engagement
            adj, i_power = power_pi(p_ref[i], p_fan - p_base[i], i_power,
                                    kp_power, ki_power, step, adj_max)
        else:
            # the temperature PI never stops running: the power PI only adds
            # to its setpoint, so at handback the temperature integral keeps
            # its accumulated state and the proportional term absorbs the
            # setpoint snap
            adj = 0.0
        t_set = t_set_sched[i] + adj
        mdot_des, i_temp = temp_pi(t_room, t_set, i_temp,
                                   kp_temp, ki_temp, step, mdot_max)

        out_t_mix[i] = t_mix
        out_t_room[i] = t_room
        out_t_wall[i] = t_wall
        out_t_set[i] = t_set
        out_mdot_des[i] = mdot_des
        out_mdot_act[i] = mdot_act
        out_p_fan[i] = p_fan

        if not (math.isfinite(t_mix) and math.isfinite(t_room)
                and math.isfinite(t_wall) and math.isfinite(p_fan)
                and t_low <= t_mix <= t_high
                and t_low <= t_room <= t_high
                and t_low <= t_wall <= t_high):
            return i
        if final:
            break

        mdot_act = lag_step(mdot_act, mdot_des, decay_airflow)
        p_fan = lag_step(p_fan, fan_coeff * mdot_act, decay_fan)

        t_mix, t_room, t_wall = rk4_plant_step(
            model, t_mix, t_room, t_wall, mdot_act, t_out[i], dt,
            c_mix, c_room_rest, c_wall, r_wall, r_mix,
            q_internal, t_supply, c_p_air)

        was_engaged = eng

    return _STATUS_OK

