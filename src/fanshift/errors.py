"""Exception types shared across the package.

Each class carries the exit code and the stderr label the CLI reports it
with: ``FanshiftError`` and every class that does not override them exit 1
as an ``error`` (configuration problems, unusable data, traces off a shared
time grid); numerical failures and a tuner that finds no neutral schedule
exit 2; failed self-checks exit 3.
"""


class FanshiftError(Exception):
    """Base class for all package errors."""

    exit_code, label = 1, "error"


class ConfigurationError(FanshiftError):
    """Invalid scenario, schedule, or parameter configuration."""


class EquilibriumInfeasibleError(ConfigurationError):
    """No cooling-mode steady state exists for the requested setpoint."""


class NumericalError(FanshiftError):
    """Simulation produced a non-finite or out-of-bounds state.

    Carries the offending sample for diagnosis. ``sample`` is kept in the
    instance dict, which pickling restores, so the error comes back whole
    from a forked worker.
    """

    exit_code, label = 2, "numerical failure"

    def __init__(self, message: str, sample: dict | None = None):
        super().__init__(message)
        self.sample = sample or {}


class TraceAlignmentError(FanshiftError):
    """Two traces do not share the same uniform time grid."""


class TuningError(FanshiftError):
    """Event tuning failed to bracket or converge."""

    exit_code, label = 2, "tuning failed"


class DataFormatError(FanshiftError):
    """Measured-data file is missing columns or too corrupt to use."""


class SelfCheckError(FanshiftError):
    """A command's built-in result verification failed."""

    exit_code, label = 3, "self-check failed"
