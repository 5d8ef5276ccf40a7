"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems, unusable data
and traces off a shared time grid exit 1; numerical failures and a tuner that
finds no neutral schedule exit 2; failed self-checks exit 3.
"""


class FanshiftError(Exception):
    """Base class for all package errors."""


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

    def __init__(self, message: str, sample: dict | None = None):
        super().__init__(message)
        self.sample = sample or {}


class TraceAlignmentError(FanshiftError):
    """Two traces do not share the same uniform time grid."""


class TuningError(FanshiftError):
    """Event tuning failed to bracket or converge."""


class DataFormatError(FanshiftError):
    """Measured-data file is missing columns or too corrupt to use."""


class SelfCheckError(FanshiftError):
    """A command's built-in result verification failed."""
