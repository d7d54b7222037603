"""Exception types shared across the package, and the number checks of
every config dataclass.  Every error raised on purpose is a
``SoilProbeError``, and the CLI turns only those into exit codes; a
refused configuration raises ``ConfigError``, which names its key."""

import math


def is_finite(value) -> bool:
    """False for NaN, an infinity, an int beyond float range or a non-number."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def require_finite(obj, *names):
    """Raise ConfigError naming the first attribute that is not a finite number."""
    for name in names:
        if not is_finite(getattr(obj, name)):
            raise ConfigError(f"{name} must be finite")


def require_positive(obj, *names):
    """Raise ConfigError naming the first attribute not both finite and > 0."""
    for name in names:
        value = getattr(obj, name)
        if not (is_finite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0")


class SoilProbeError(Exception):
    """Base class for every error this package raises on purpose."""


class FrameError(SoilProbeError, ValueError):
    """A wire frame could not be parsed.

    ``position`` is the 0-based byte offset where parsing gave up,
    when that offset is known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ShapeError(SoilProbeError, ValueError):
    """A decoded payload carries the wrong number of values."""


class RangeError(SoilProbeError, ValueError):
    """A value violates its documented physical range."""


class ConfigError(SoilProbeError, ValueError):
    """A configuration refused by name: a field, argument or flag out of
    its domain, or a loaded one whose run cannot go on."""


class InfeasibleError(SoilProbeError):
    """The requested point layout cannot be satisfied."""


class DegenerateError(SoilProbeError):
    """Geometry input has no well-defined result."""


class EmptyInputError(SoilProbeError):
    """An operation that needs at least one sample received none."""


class ScenarioError(SoilProbeError):
    """A scenario document is missing, malformed, or inconsistent."""


class LogFormatError(SoilProbeError):
    """A sample-log line could not be decoded.  ``line_no`` is 1-based."""

    def __init__(self, message, line_no):
        super().__init__(message)
        self.line_no = line_no
