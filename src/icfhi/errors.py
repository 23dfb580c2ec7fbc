"""Exception hierarchy shared across the package, its one reader and one writer.

Two CLI-facing categories exist: configuration problems (bad parameters,
bad or unreadable settings files, unwritable outputs) and data problems
(malformed, unreadable or inconsistent input data), which the CLI maps to
distinct exit codes.  ``reading`` opens every file read from outside,
``writing`` every file the package writes.
"""

import contextlib
import csv
import json
import os


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


@contextlib.contextmanager
def reading(path, what: str, error: type[IcfHiError]):
    """Open ``path`` as UTF-8 text for csv or json; a failure to read it, in
    the block too, is one ``error``: ``<what> not found: <path>``, or
    ``cannot read <what> <path>: <reason>`` for a directory, no permission,
    bytes that are not UTF-8, a CSV field over csv's limit or invalid JSON."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


@contextlib.contextmanager
def writing(path):
    """Open ``<path>.partial`` as UTF-8 text for csv or json and move it onto
    ``path`` when the block ends; when it raises, delete it and leave ``path``
    as it was.  A failure to write, in the block too, is one ConfigError:
    ``cannot write <path>: <reason>``."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise
