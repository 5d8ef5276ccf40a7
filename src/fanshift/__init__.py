"""HVAC fan load-shifting simulator and virtual-battery analysis toolkit."""

from .control import ControllerGains
from .engine import (EventSchedule, OutdoorProfile, Scenario, run_baseline,
                     run_closed_loop, run_open_loop, tune_open_loop_event)
from .metrics import (EventMetrics, EventWindow, energy_in_out, evaluate_event,
                      linear_baseline, normalize, rte, temp_rmse)
from .thermal import BuildingParams, equilibrium
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "BuildingParams", "equilibrium",
    "ControllerGains",
    "OutdoorProfile", "EventSchedule", "Scenario",
    "run_baseline", "run_open_loop", "run_closed_loop",
    "tune_open_loop_event",
    "EventWindow", "EventMetrics", "energy_in_out", "rte", "temp_rmse",
    "normalize", "linear_baseline", "evaluate_event",
    "Trace",
    "__version__",
]
