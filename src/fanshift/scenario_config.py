"""Scenario config files, loaded by ``data_io.load_scenario_config``.

``data_io`` imports this module when that name is first read, so only
``simulate --config`` loads it. Values are SI, except that any temperature
field may take an ``_f`` suffix instead of ``_c`` (setpoint deltas
``setpoint_deltas_f``): Fahrenheit exists only at this boundary.
"""

from __future__ import annotations

from pathlib import Path

from .control import ControllerGains
from .engine import (FORCED_SETTLE_DEFAULT, MODE_FORCED_SETTLING, EventSchedule,
                     OutdoorProfile, Scenario)
from .errors import ConfigurationError
from .thermal import BuildingParams, delta_f_to_k, fahrenheit_to_celsius

__all__ = ["load_scenario_config"]


def _from_fahrenheit(value) -> float:
    return fahrenheit_to_celsius(float(value))


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _deltas_f_to_k(values) -> tuple[float, ...]:
    return tuple(delta_f_to_k(float(x)) for x in values)


def _boolean_free(value):
    """``value``, unless it is or holds a YAML boolean (yes/no/on/off): no key takes one."""
    if isinstance(value, bool):
        raise ValueError(f"no config key takes a boolean (yes/no/on/off), got {value}")
    for item in value if isinstance(value, list) else ():
        _boolean_free(item)
    return value


# config key -> (dataclass field, converter), one table per section; a field
# reachable from two keys (degC / degF, K / F) takes exactly one of them
_BUILDING_KEYS = {
    "c_room_j_per_k": ("c_room", float), "c_wall_j_per_k": ("c_wall", float),
    "r_wall_k_per_w": ("r_wall", float), "q_internal_w": ("q_internal", float),
    "t_outdoor_nominal_c": ("t_outdoor_nominal", float),
    "t_outdoor_nominal_f": ("t_outdoor_nominal", _from_fahrenheit),
    "t_supply_c": ("t_supply", float), "t_supply_f": ("t_supply", _from_fahrenheit),
    "c_p_air_j_per_kg_k": ("c_p_air", float),
    "mix_r": ("mix_r", float), "mix_c": ("mix_c", float),
}
_CONTROL_KEYS = {
    "kp_temp": ("kp_temp", float), "ki_temp": ("ki_temp", float),
    "kp_power": ("kp_power", float), "ki_power": ("ki_power", float),
    "tau_airflow_s": ("tau_airflow", float), "tau_fan_s": ("tau_fan", float),
    "fan_coeff_w_per_kg_s": ("fan_coeff", float),
    "t_set_nominal_c": ("t_set_nominal", float),
    "t_set_nominal_f": ("t_set_nominal", _from_fahrenheit),
}
_EVENT_KEYS = {
    "kind": ("kind", str), "half_duration_s": ("half_duration", float),
    "setpoint_deltas_k": ("setpoint_deltas", _floats),
    "setpoint_deltas_f": ("setpoint_deltas", _deltas_f_to_k),
    "power_delta_frac": ("power_delta_frac", float),
    "forced_settle_s": ("forced_settle_duration", float),
}
_STEP_KEYS = {
    "step_at_s": ("t_step", float), "step_c": ("delta", float),
    "step_f": ("delta", lambda value: delta_f_to_k(float(value))),
}
_ROOT_KEYS = {
    "scenario_id": ("scenario_id", str), "mode": ("mode", str),
    "dt_s": ("dt", float), "warmup_s": ("warmup", float),
    "settle_duration_s": ("settle_duration", float),
}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _fields(section: dict, table: dict, where: str) -> dict:
    """Dataclass keyword arguments for the keys a config section gives.

    Keys the section omits are left out, so the dataclass supplies their
    defaults.
    """
    _check_keys(section, set(table), where)
    kw, given_as = {}, {}
    for key, value in section.items():
        name, convert = table[key]
        if name in given_as:
            raise ConfigurationError(
                f"{where}: give either {given_as[name]} or {key}, not both")
        given_as[name] = key
        try:
            kw[name] = convert(_boolean_free(value))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: bad value for {key}: {exc}") from exc
    return kw


def _profile_from_config(spec, nominal: float, where: str) -> OutdoorProfile:
    """The outdoor profile that config key ``where`` (``outdoor.actual`` or
    ``outdoor.predicted``) gives: a step mapping or a list of [time, value]
    pairs. Every error it raises names ``where``."""
    if isinstance(spec, dict):
        kw = _fields(spec, _STEP_KEYS, where)
        if "t_step" not in kw:
            raise ConfigurationError(f"{where}: a step profile needs step_at_s, got {spec}")
    try:
        if isinstance(spec, dict):
            return OutdoorProfile.step_at(nominal, kw["t_step"], kw.get("delta", 0.0))
        pairs = [(float(t), float(v)) for t, v in _boolean_free(spec)]
        return OutdoorProfile(times=tuple(t for t, _ in pairs),
                              values=tuple(v for _, v in pairs))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad value: {exc}") from exc
    except ConfigurationError as exc:  # the profile's own checks
        raise ConfigurationError(f"{where}: {exc}") from exc


def load_scenario_config(path: str | Path) -> Scenario:
    """Build a Scenario from a YAML config file.

    Every key is optional except the event's command for its loop
    (``setpoint_deltas_k`` or ``_f`` for the default open loop,
    ``power_delta_frac`` for a closed one). The scenario id defaults to the
    file's stem and every other omission to the dataclass defaults (the
    calibrated building and gains), except that ``mode:
    closed_loop_forced_settling`` without ``forced_settle_s`` holds
    ``FORCED_SETTLE_DEFAULT`` (3600 s). A section left out or null is empty;
    any other section that is not a mapping is refused.
    """
    import yaml  # only configs need it; importing it costs every other command

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such config file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config from {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a mapping")
    sections = {name: {} if (section := raw.pop(name, None)) is None else section
                for name in ("building", "control", "event", "outdoor")}
    kw = {"scenario_id": path.stem, **_fields(raw, _ROOT_KEYS, "config root")}

    params = BuildingParams(**_fields(sections["building"], _BUILDING_KEYS, "building"))
    gains = ControllerGains(**_fields(sections["control"], _CONTROL_KEYS, "control"))
    event_kw = _fields(sections["event"], _EVENT_KEYS, "event")
    if kw.get("mode") == MODE_FORCED_SETTLING:
        event_kw.setdefault("forced_settle_duration", FORCED_SETTLE_DEFAULT)
    event = EventSchedule(**event_kw)
    outdoor = sections["outdoor"]
    _check_keys(outdoor, {"actual", "predicted"}, "outdoor")
    profiles = {f"oa_{name}": _profile_from_config(spec, params.t_outdoor_nominal,
                                                   f"outdoor.{name}")
                for name, spec in outdoor.items() if spec is not None}
    return Scenario(params=params, gains=gains, event=event, **profiles, **kw)
