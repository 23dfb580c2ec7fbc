"""Exception hierarchy shared across the package.

Two CLI-facing categories exist: configuration problems (bad parameters,
unreadable rule files) and data problems (malformed or inconsistent input).
The command line maps them to distinct exit codes.
"""


class IcfHiError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IcfHiError):
    """Invalid configuration: parameters, rule files, run options."""


class FitError(ConfigError):
    """Curve fitting could not satisfy its interpolation constraints."""


class DataError(IcfHiError):
    """Malformed or inconsistent input data."""


class CodeParseError(DataError):
    """A string could not be parsed as an ICF code."""


class EvaluationError(DataError):
    """An index evaluation was requested on unusable inputs."""


class InsufficientDataError(DataError):
    """A statistic was requested with too little data to compute it.

    ``reason`` names why in one word, such as ``zero_variance``; a sweep
    cell reports it as its status."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason
