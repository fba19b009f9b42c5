"""Exception types shared across the toolkit."""


class QcsError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(QcsError, ValueError):
    """An argument violates a documented precondition."""


class InvalidSupport(InvalidArgument):
    """Support indices are empty, duplicated, or out of range."""


class FrequencyOutOfRange(InvalidArgument):
    """A tone lies above the Nyquist frequency of the target grid."""


class InvalidIntensity(InvalidArgument):
    """An intensity waveform contains negative values."""


class OutOfWindow(InvalidArgument):
    """A mapped time falls outside the lens window."""


class EmptyMeasurement(InvalidArgument):
    """An estimator was given zero detection events."""


class InsufficientData(InvalidArgument):
    """Too few or degenerate samples for a fit."""


class SingularSystem(QcsError):
    """A least-squares subproblem became numerically rank-deficient."""


class Unbounded(QcsError):
    """The requested quantity has no finite value (degenerate model)."""


class Unreachable(QcsError):
    """A search target cannot be met within the allowed budget."""


class ConfigError(QcsError):
    """Base class for experiment-configuration errors."""


class MissingField(ConfigError):
    def __init__(self, field):
        self.field = field
        super().__init__(f"missing required config field: {field!r}")


class TypeMismatch(ConfigError):
    def __init__(self, field, detail=""):
        self.field = field
        msg = f"config field {field!r} has the wrong type"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class OutOfRange(ConfigError):
    def __init__(self, field, detail):
        self.field = field
        super().__init__(f"config field {field!r} is out of range: {detail}")


class UnknownExperiment(ConfigError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown experiment: {name!r}")
