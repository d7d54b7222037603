"""Exception types shared across the package, the one table of physical
ranges that every number is checked against where it enters, and
``record``, the decorator of every value type.

Every error raised on purpose is a ``SoilProbeError``, and the CLI
turns only those into exit codes.  A refused scenario document,
configuration, SDI-12 field, argument or flag, a mission that cannot
be run and a point layout that cannot be placed all raise
``ConfigError``, which names its key; ``prefixed`` names where it came
from.  What a sensor does wrong on the wire is a ``SensorFault``: a
frame that does not decode (``FrameError``), a reply with the wrong
number of values (``ShapeError``), a reading outside its physical range
(``RangeError``) or silence past the deadline (``SilenceError``).  The
sampler catches that one type and records the fault on the attempt.

``RANGES`` holds the closed interval of each scenario key, sample-log
field and ``map`` flag; a value outside it is refused where it enters
("width_m must be a number within [0.001, 100000] m"), so no layer
behind that point meets a number no field, probe or reading can have.
The one record type whose fields a block ranges declares it,
``@record(ranges="sampler")``; any other value is checked by ``within``.
"""

import contextlib
import dataclasses


# The physical range of every number a scenario, a sample log or a flag
# holds: by block, then by key, (lowest, highest, unit), both ends
# included.  A block is a scenario block ("field.blobs" for each item of
# field.blobs), "log" for a sample-log record, or "map" for the map flags
# (cell_size_m is --cell-size).  Bounds that are ints take ints only.
RANGES = {
    "field": {
        "origin_lat": (-90.0, 90.0, "deg"),
        "origin_lon": (-180.0, 180.0, "deg"),
        "width_m": (1e-3, 1e5, "m"),
        "height_m": (1e-3, 1e5, "m"),
        "base_theta": (-1.0, 1.0, "m3/m3"),
        "noise_sigma_raw": (0.0, 1e3, "counts"),
    },
    "field.blobs": {
        "cx": (-1e6, 1e6, "m"),
        "cy": (-1e6, 1e6, "m"),
        "sigma_m": (1e-3, 1e5, "m"),
        "amplitude": (-1.0, 1.0, "m3/m3"),
    },
    "field.obstructions": {
        "cx": (-1e6, 1e6, "m"),
        "cy": (-1e6, 1e6, "m"),
        "radius_m": (1e-3, 1e3, "m"),
    },
    "mission": {
        "speed_mps": (1e-3, 1e2, "m/s"),
    },
    "mission.waypoints": {
        "x": (0.0, 1e5, "m"),
        "y": (0.0, 1e5, "m"),
        "lat": (-90.0, 90.0, "deg"),
        "lon": (-180.0, 180.0, "deg"),
    },
    "mission.generate": {
        "min_spacing_m": (0.0, 1e5, "m"),
    },
    "sampler": {
        "target_depth_m": (0.0, 5.0, "m"),
        "settle_s": (0.0, 3600.0, "s"),
        # from attempt 6 on, attempt k probes where attempt k - 4 did, so
        # more attempts only retry bus faults
        "max_attempts": (1, 100, ""),
        "reposition_offset_m": (0.0, 1e3, "m"),
    },
    "actuator": {
        "steps_per_metre": (1.0, 1e6, "steps/m"),
        "max_depth_m": (1e-3, 5.0, "m"),
        "step_rate_hz": (1.0, 1e6, "Hz"),
    },
    "calib": {
        "theta_min": (-1.0, 1.0, "m3/m3"),
        "theta_max": (-1.0, 1.0, "m3/m3"),
        "depth_tol_m": (0.0, 5.0, "m"),
    },
    # room for what simulate writes: a run of 1e8 points at the slowest
    # settings ends near 1.2e17 s, a depth reached is at most a 5 m target
    # plus half a 1 m step, and RAW counts calibrate to [-0.70, 0.97] m3/m3
    "log": {
        "timestamp_s": (0.0, 1e18, "s"),
        "lat": (-90.0, 90.0, "deg"),
        "lon": (-180.0, 180.0, "deg"),
        "target_depth_m": (0.0, 10.0, "m"),
        "achieved_depth_m": (0.0, 10.0, "m"),
        "attempts": (1, 100, ""),
        "raw_counts": (0.0, 4300.0, "counts"),
        "temp_c": (-40.0, 60.0, "C"),
        "ec_us_cm": (0.0, 2e4, "uS/cm"),
        "theta": (-1.0, 1.0, "m3/m3"),
    },
    "map": {
        "cell_size_m": (1e-3, 1e3, "m"),
    },
}


def range_text(lo, hi, unit: str) -> str:
    """``[lo, hi] unit``, as every range refusal writes it."""
    return f"[{lo:g}, {hi:g}]" + (f" {unit}" if unit else "")


def within(block: str, name: str, value):
    """``value`` itself when it lies in its range, ``RANGES[block][name]``,
    else ConfigError naming ``name`` and the range.

    The value's type must be exactly int or float (int alone where the
    bounds are ints), so a bool is refused.  The comparison is exact for
    an int of any size, and false for NaN.
    """
    lo, hi, unit = RANGES[block][name]
    kinds = (int,) if type(lo) is int else (int, float)
    if type(value) not in kinds or not lo <= value <= hi:
        kind = "an integer" if type(lo) is int else "a number"
        raise ConfigError(f"{name} must be {kind} within {range_text(lo, hi, unit)}")
    return value


def require_seed(seed):
    """Raise ConfigError unless ``seed`` is a non-negative int (not a bool)."""
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a non-negative integer")


def record(cls=None, *, ranges=None):
    """``dataclasses.dataclass(frozen=True)`` with a faster ``__init__``.

    The stock frozen ``__init__`` sets each field through
    ``object.__setattr__``, which costs about three times what the rest
    of it does.  The one generated here, once per class and as
    ``dataclasses`` generates its own, takes the same parameters and
    defaults, puts each argument into the instance ``__dict__`` in field
    order and then calls ``__post_init__`` when the class has one.  So
    equality, hash, repr, frozenness, pickling, ``dataclasses.replace``
    and every TypeError a call can raise stay the stock dataclass's.

    ``@record(ranges=block)`` declares the one class ``RANGES[block]``
    ranges: between storing the fields and ``__post_init__``, its
    ``__init__`` tests each ranged one in the block's order, bounds as
    constants, with ``within``'s type rule, calling ``within`` to raise.
    """
    if cls is None:
        return lambda cls: record(cls, ranges=ranges)
    cls = dataclasses.dataclass(frozen=True)(cls)
    stock = cls.__init__
    names = [f.name for f in dataclasses.fields(cls)]
    lines = [f"def __init__(self, {', '.join(names)}):", "    fill = self.__dict__"]
    lines += [f"    fill[{name!r}] = {name}" for name in names]
    for name, (lo, hi, _) in RANGES[ranges].items() if ranges else ():
        kinds = "(int,)" if type(lo) is int else "(int, float)"
        lines += [f"    if type({name}) not in {kinds} or not {lo!r} <= {name} <= {hi!r}:",
                  f"        within({ranges!r}, {name!r}, {name})  # raises"]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), {"within": within}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = stock.__defaults__
    init.__annotations__ = stock.__annotations__
    init.__qualname__ = stock.__qualname__
    cls.__init__ = init
    return cls


@contextlib.contextmanager
def prefixed(context):
    """Re-raise a ConfigError raised inside as one that starts with
    ``context``: a string, or a function that returns one when called at
    the refusal, so a loop can name the item it stopped at."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{context() if callable(context) else context}: "
                          f"{exc}") from None


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
    decode, a field, argument or flag out of its range or domain, a
    mission that cannot be run, or a layout that cannot be placed."""


class EmptyInputError(SoilProbeError):
    """An operation that needs at least one sample received none."""


class LogFormatError(SoilProbeError):
    """A sample-log line could not be decoded.  ``line_no`` is 1-based."""

    def __init__(self, message, line_no):
        super().__init__(message)
        self.line_no = line_no
