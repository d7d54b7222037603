"""Exception types shared across the package, and the finite-number
checks every config dataclass runs on its float fields."""

import math


def require_finite(obj, *names):
    """Raise ValueError naming the first attribute that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


def require_positive(obj, *names):
    """Raise ValueError naming the first attribute not both finite and > 0."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0")


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
    """A loaded configuration whose run cannot go on, such as a field
    whose noise is so wide that a simulated reading overflowed."""


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
