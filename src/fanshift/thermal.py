"""Building thermal models: parameters and the analytic steady state used as
the simulation oracle. The dynamics live in :mod:`fanshift.kernels`.

Two plant models share one parameter set. The two-state model lumps all room
air into a single node; the mixing-air model splits off a pocket of air near
the supply duct outlet with its own temperature node. The split is controlled
by two dimensionless knobs:

* ``mix_r`` -- thermal resistance of the mixing pocket relative to the wall
  resistance (R_mix = mix_r * R_wall). Larger means worse mixing.
* ``mix_c`` -- fraction of the room-air capacitance sitting in the pocket
  (C_mix = mix_c * C_room, C_room' = (1 - mix_c) * C_room).

All temperatures are degrees Celsius internally; temperature differences are
then identical in kelvin. Fahrenheit appears only at ingestion: measured
columns, config fields and command options given in it are converted as they
are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigurationError, EquilibriumInfeasibleError

__all__ = [
    "BuildingParams",
    "equilibrium",
    "fahrenheit_to_celsius",
    "delta_f_to_k",
]


def fahrenheit_to_celsius(t_f: float) -> float:
    return (t_f - 32.0) * 5.0 / 9.0


def delta_f_to_k(dt_f: float) -> float:
    """Convert a temperature *difference* from Fahrenheit to kelvin."""
    return dt_f * 5.0 / 9.0


@dataclass(frozen=True)
class BuildingParams:
    """Physical constants of the lumped building plant.

    Defaults describe the calibrated auditorium the models were fitted to.
    """

    c_room: float = 3.4e7        # room air thermal capacitance, J/K
    c_wall: float = 5.1e7        # wall thermal capacitance, J/K
    r_wall: float = 0.0013       # wall thermal resistance (same both sides), K/W
    q_internal: float = 25_000.0  # internal heat gain, W
    t_outdoor_nominal: float = 29.4  # degC
    t_supply: float = 15.6       # supply air temperature, degC
    c_p_air: float = 1000.0      # specific heat of air, J/(kg K)
    mix_r: float = 0.0           # mixing-pocket resistance / wall resistance
    mix_c: float = 0.0           # mixing-pocket share of room capacitance

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if min(self.c_room, self.c_wall, self.c_p_air, self.r_wall) <= 0:
            raise ConfigurationError(
                "thermal capacitances, c_p_air and wall resistance must be positive")
        if self.mix_r < 0:
            raise ConfigurationError("mix_r must be >= 0")
        if not 0.0 <= self.mix_c < 1.0:
            raise ConfigurationError("mix_c must lie in [0, 1)")
        if (self.mix_r > 0) != (self.mix_c > 0):
            # a pocket with zero capacitance (or zero resistance) is a
            # differential-algebraic limit we do not integrate
            raise ConfigurationError(
                "mix_r and mix_c must both be zero (two-state model) or both "
                f"positive (mixing model); got mix_r={self.mix_r}, mix_c={self.mix_c}")
        if self.mix_r > 0 and not min(self.r_mix, self.c_mix, self.c_room_rest) > 0:
            # a product that underflows to zero would be a divisor in the march
            raise ConfigurationError(
                "mixing pocket needs positive r_mix, c_mix and c_room_rest; got "
                f"{self.r_mix}, {self.c_mix} and {self.c_room_rest} from "
                f"mix_r={self.mix_r}, mix_c={self.mix_c}")
        if self.t_supply >= self.t_outdoor_nominal:
            raise ConfigurationError(
                "cooling mode requires supply air colder than outdoor air")

    @property
    def uses_mixing_model(self) -> bool:
        return self.mix_r > 0.0

    @property
    def c_mix(self) -> float:
        """Mixing-pocket capacitance, J/K."""
        return self.mix_c * self.c_room

    @property
    def c_room_rest(self) -> float:
        """Room capacitance outside the pocket, J/K (c_mix + c_room_rest == c_room)."""
        return (1.0 - self.mix_c) * self.c_room

    @property
    def r_mix(self) -> float:
        """Pocket-to-room thermal resistance, K/W."""
        return self.mix_r * self.r_wall

    def with_mixing(self, mix_r: float, mix_c: float) -> "BuildingParams":
        return replace(self, mix_r=mix_r, mix_c=mix_c)


def equilibrium(params: BuildingParams, t_room_target: float,
                t_outdoor: float | None = None) -> tuple[float, float, float]:
    """Closed-form steady state holding the room at ``t_room_target``.

    Returns (t_mix, t_wall, mdot_supply). Independent of mix_c: capacitances
    do not move the fixed point. With mix_r = 0 the pocket temperature equals
    the room temperature and the two-state balance applies.

    Raises EquilibriumInfeasibleError when the supply air cannot absorb the
    load (pocket temperature at or below the supply temperature) or when the
    required flow would be negative (net heating demand).
    """
    t_out = params.t_outdoor_nominal if t_outdoor is None else t_outdoor
    t_wall = 0.5 * (t_room_target + t_out)
    t_mix = t_room_target - params.mix_r * (t_wall - t_room_target)
    load = (t_wall - t_room_target) / params.r_wall + params.q_internal
    if t_mix <= params.t_supply:
        raise EquilibriumInfeasibleError(
            f"mixing pocket at {t_mix:.3f} degC cannot be held by supply air "
            f"at {params.t_supply:.3f} degC")
    mdot = load / (params.c_p_air * (t_mix - params.t_supply))
    if mdot < 0:
        raise EquilibriumInfeasibleError(
            "net heating demand: no cooling-mode steady state "
            f"(load {load:.1f} W at setpoint {t_room_target:.2f} degC)")
    return t_mix, t_wall, mdot
