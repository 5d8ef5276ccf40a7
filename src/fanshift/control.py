"""Load-shifting control stack: temperature PI, power PI, actuator and fan lags.

The temperature PI is the existing building controller (room temperature to
desired airflow). The power PI wraps around it during closed-loop events,
turning the fan-power tracking error into a setpoint adjustment that is added
on top of the scheduled setpoint. Both integrals accumulate by the forward
rectangle rule and freeze while their output is pinned at a limit in the
direction of the error. Lag states are physical signals and never jump.

This module holds the stack's gains and limits. The step itself is written
out in the loop body of :func:`fanshift.kernels.simulate_loop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "ControllerGains",
    "SETPOINT_ADJ_LIMIT_K",
    "MDOT_LIMIT_FACTOR",
]

# setpoint adjustments beyond a few kelvin would defeat the point of an
# unobtrusive event; airflow above 4x the steady flow never occurs in a sane
# configuration, so both limits only guard degenerate setups
SETPOINT_ADJ_LIMIT_K = 3.0
MDOT_LIMIT_FACTOR = 4.0


@dataclass(frozen=True)
class ControllerGains:
    """Gains and response constants of the control stack.

    All fields are per-kelvin / SI. The default temperature-loop gains are
    2 (kg/s) and 0.001 (kg/s)/s *per degree Fahrenheit* -- VAV tuning in the
    building these parameters were calibrated against is Fahrenheit-native --
    stored here converted to per-kelvin. The power-loop gains were tuned
    directly in W and K.
    """

    kp_temp: float = 2.0 * 1.8    # (kg/s) per K
    ki_temp: float = 0.001 * 1.8  # (kg/s) per (K s)
    kp_power: float = 3.33e-3     # K per W
    ki_power: float = 2.083e-5    # K per (W s)
    tau_airflow: float = 30.0     # VAV actuator lag, s
    tau_fan: float = 150.0        # fan power lag, s
    fan_coeff: float = 220.8      # fan power per unit airflow, W/(kg/s)
    t_set_nominal: float = 21.7   # degC

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if min(self.tau_airflow, self.tau_fan, self.fan_coeff) <= 0:
            raise ConfigurationError(
                "lag time constants and fan power coefficient must be positive")

