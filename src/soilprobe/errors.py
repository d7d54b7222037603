"""Exception types shared across the package, and the number checks of
every config dataclass.

Every error raised on purpose is a ``SoilProbeError``, and the CLI
turns only those into exit codes.  A refused scenario document,
configuration, SDI-12 field, argument or flag, a mission that cannot
finish and a point layout that cannot be placed all raise
``ConfigError``, which names its key; ``prefixed`` names where it came
from.  What a sensor does wrong on the wire is a ``SensorFault``: a
frame that does not decode (``FrameError``), a reply with the wrong
number of values (``ShapeError``), a reading outside its physical range
(``RangeError``) or silence past the deadline (``SilenceError``).  The
sampler catches that one type and records the fault on the attempt.
"""

import contextlib
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


def require_seed(seed):
    """Raise ConfigError unless ``seed`` is a non-negative int (not a bool)."""
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a non-negative integer")


@contextlib.contextmanager
def prefixed(context: str):
    """Re-raise a ConfigError raised inside as one that starts with ``context``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{context}: {exc}") from None


class SoilProbeError(Exception):
    """Base class for every error this package raises on purpose."""


class SensorFault(SoilProbeError):
    """What a sensor sent, or failed to send: the one type a sampled
    attempt catches, recording it as a SENSOR_ERROR."""


class FrameError(SensorFault, ValueError):
    """A wire frame could not be parsed.

    ``position`` is the 0-based byte offset where parsing gave up,
    when that offset is known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ShapeError(SensorFault, ValueError):
    """A decoded payload carries the wrong number of values."""


class RangeError(SensorFault, ValueError):
    """A reading violates its documented physical range."""


class SilenceError(SensorFault, TimeoutError):
    """A sensor stayed silent past its reply deadline."""


class ConfigError(SoilProbeError, ValueError):
    """A configuration refused by name: a scenario document that does not
    decode, a field, argument or flag out of its domain, a mission whose
    run cannot finish with finite numbers, or a layout that cannot be
    placed."""


class EmptyInputError(SoilProbeError):
    """An operation that needs at least one sample received none."""


class LogFormatError(SoilProbeError):
    """A sample-log line could not be decoded.  ``line_no`` is 1-based."""

    def __init__(self, message, line_no):
        super().__init__(message)
        self.line_no = line_no
