"""Waypoint missions over a simulated field.

A mission visits its waypoints in order, travelling in straight lines
at constant speed, runs the sampling state machine at each point, and
accumulates one :class:`~soilprobe.sampler.SoilSample` per waypoint plus
a summary.  The vehicle starts at the local origin (0, 0).  The mission
clock advances by travel time, per-attempt actuator motion, settle
time, and any acknowledged sensor delay; each sample's timestamp is
taken when its deciding attempt finishes validating, so the mission
duration equals the final timestamp plus the final retract.

Sample logs are JSON Lines, one self-describing record per sample, with
exactly the field names of SoilSample; the summary is a single JSON
object.  Both serializations are byte-deterministic for a given run.
The log round-trips by copy: the reader returns each record's line
beside its sample, and ``validate`` writes the valid lines as they were
read instead of encoding their samples again.

The reader decodes a line with one call of json's C scanner, and checks
the record with ``sample_from_dict``, whose body is compiled at import
from ``_SAMPLE_SCHEMA``, the one table of the fields, their kinds and
their ranges: a straight-line check per field, in field order.  The
writer encodes every record with one prebuilt C encoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING

from .actuator import ActuatorConfig
from .calib import Validity, ValidityThresholds
from .errors import (RANGES, ConfigError, LogFormatError, record, require_seed,
                     require_within, within)
from .sampler import SamplerConfig, SoilSample, attempt_point
from .sdi12 import check_address

if TYPE_CHECKING:  # numpy loads with fieldsim, imported by the functions that use it
    from . import fieldsim

REJECTION_TRIAL_LIMIT = 100_000


@record
class Waypoint:
    id: int
    x: float
    y: float


@record
class MissionConfig:
    """A mission, refused with a ConfigError naming the attribute at fault.

    Each waypoint lies in the field, and every attempt, within the
    reposition offset of the field, lies within latitude [-90, 90] and
    longitude [-180, 180], which the log reader requires of each record.
    Every other bound of the run follows from the ranges of its blocks.
    """

    field: fieldsim.FieldSpec
    waypoints: tuple[Waypoint, ...]
    sampler: SamplerConfig = SamplerConfig()
    actuator: ActuatorConfig = ActuatorConfig()
    thresholds: ValidityThresholds = ValidityThresholds()
    speed_mps: float = 0.5
    sensor_address: str = "0"

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if not self.waypoints:
            raise ConfigError("waypoint list must be non-empty")
        require_within(self, "mission")
        for w in self.waypoints:
            if type(w.id) is not int:
                raise ConfigError(f"waypoint id {w.id!r} is not an integer")
            if not (0.0 <= w.x <= self.field.width_m
                    and 0.0 <= w.y <= self.field.height_m):
                raise ConfigError(f"waypoint {w.id} at ({w.x}, {w.y}) is "
                                  "outside the field")
        if len({w.id for w in self.waypoints}) != len(self.waypoints):
            raise ConfigError("waypoint ids must be unique")
        if self.sampler.target_depth_m > self.actuator.max_depth_m:
            raise ConfigError("sampler target depth exceeds actuator max depth")
        check_address(self.sensor_address)

        from .fieldsim import local_to_wgs84_at
        field = self.field
        reach = self.sampler.reposition_offset_m
        # latitude and longitude grow with y and x, so two corners bound them
        lat_lo, lon_lo = local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                           -reach, -reach)
        lat_hi, lon_hi = local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                           field.width_m + reach, field.height_m + reach)
        if not (-90.0 <= lat_lo and lat_hi <= 90.0
                and -180.0 <= lon_lo and lon_hi <= 180.0):
            raise ConfigError(
                f"field: a {field.width_m} x {field.height_m} m field at latitude "
                f"{field.origin_lat}, longitude {field.origin_lon}, with attempts up "
                f"to sampler.reposition_offset_m {reach} m beyond it, reaches past "
                "latitude [-90, 90] or longitude [-180, 180]")


@record
class MissionSummary:
    points_total: int
    points_valid: int
    points_invalid: int
    duration_s: float
    area_convex_hull_m2: float


def generate_waypoints(field: fieldsim.FieldSpec, count: int,
                       min_spacing_m: float, seed: int,
                       max_trials: int = REJECTION_TRIAL_LIMIT) -> list[Waypoint]:
    """Draw ``count`` points with pairwise spacing >= ``min_spacing_m``.

    Rejection sampling: uniform draws over the field, rejected when
    closer than the spacing to any accepted point.  A background grid
    (Bridson 2007), a :class:`fieldsim.CellIndex` in which each accepted
    point reaches ``min_spacing_m``, keeps the accepted points by cell,
    so each draw is compared only with the points listed in its own
    cell; the results are those of comparing it with every accepted
    point.
    Deterministic under ``seed``, a non-negative int.  Raises
    ConfigError once ``max_trials`` draws fail to place all points, and
    before the first draw for a count above ``max_trials``, since each
    draw places at most one point.

    Points are returned in nearest-neighbour order starting from the
    field origin (a rough tour, so visit order is sensible), with ids
    1..count in that order; of equally near points the one accepted
    first comes first.
    """
    import numpy as np

    from . import fieldsim

    if type(count) is not int or count < 1:
        raise ConfigError("count must be an integer >= 1")
    require_seed(seed)
    within("mission.generate", "min_spacing_m", min_spacing_m)
    if count > max_trials:
        raise ConfigError(f"count {count} exceeds the {max_trials} draws allowed; "
                          "each draw places at most one point")
    width, height = field.width_m, field.height_m
    spacing_sq = min_spacing_m * min_spacing_m
    rng = np.random.default_rng(seed)
    # cells no smaller than the spacing, and at most 1024 per axis
    index = fieldsim.CellIndex(max(min_spacing_m, width / 1024, height / 1024))
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise ConfigError(
                f"placed {len(accepted)} of {count} points after {trials} "
                f"draws; spacing {min_spacing_m} m does not fit "
                f"{width} x {height} m")
        trials += 1
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        if all((x - ax) ** 2 + (y - ay) ** 2 >= spacing_sq
               for ax, ay in index.near(x, y)):
            accepted.append((x, y))
            index.add((x, y), x, y, min_spacing_m)
    return [Waypoint(i + 1, *accepted[k])
            for i, k in enumerate(_nearest_neighbour_tour(accepted))]


def _nearest_neighbour_tour(points: list[tuple[float, float]]) -> list[int]:
    """Indices of ``points`` in greedy nearest-neighbour order from (0, 0).

    Each step takes the remaining point with the least ``(x - cx) ** 2 +
    (y - cy) ** 2``, the lowest index on ties.  numpy squares by
    multiplying, which can differ from Python's ``** 2`` in the last
    bit, so the numpy keys only shortlist the points within a relative
    1e-12 of the least one, and the Python keys decide among those.
    """
    import numpy as np
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    order: list[int] = []
    cx, cy = 0.0, 0.0
    for _ in points:
        key = (xs - cx) ** 2 + (ys - cy) ** 2
        # taken points have NaN keys, which fmin and <= both pass over
        bound = np.fmin.reduce(key) * (1.0 + 1e-12) + 1e-300
        best = min(np.flatnonzero(key <= bound).tolist(),
                   key=lambda k: (points[k][0] - cx) ** 2 + (points[k][1] - cy) ** 2)
        xs[best] = np.nan
        order.append(best)
        cx, cy = points[best]
    return order


def run_mission(cfg: MissionConfig) -> tuple[list[SoilSample], MissionSummary]:
    """Execute the mission; returns the sample log and its summary.

    Never aborts on per-point trouble: sensor faults and failed
    penetrations surface as flagged samples.
    """
    from . import fieldsim
    rng = cfg.field.rng()
    sensor = fieldsim.VirtualTeros(cfg.field, rng, address=cfg.sensor_address)
    clock = fieldsim.SimClock()
    samples: list[SoilSample] = []
    positions: list[tuple[float, float]] = []
    here = (0.0, 0.0)

    for wp in cfg.waypoints:
        clock.advance(math.dist(here, (wp.x, wp.y)) / cfg.speed_mps)
        here = (wp.x, wp.y)
        result = attempt_point(wp, sensor, cfg.field, cfg.sampler,
                               actuator_cfg=cfg.actuator,
                               thresholds=cfg.thresholds, clock=clock,
                               address=cfg.sensor_address)
        samples.append(result.sample)
        positions.append((result.attempts[-1].x, result.attempts[-1].y))

    valid = sum(1 for s in samples if s.status is Validity.VALID)
    summary = MissionSummary(
        points_total=len(samples),
        points_valid=valid,
        points_invalid=len(samples) - valid,
        duration_s=clock.now,
        area_convex_hull_m2=convex_hull_area(positions),
    )
    return samples, summary


def select_valid(samples: list[SoilSample]) -> list[SoilSample]:
    """The mapping set: samples whose status is VALID, nothing else."""
    return [s for s in samples if s.status is Validity.VALID]


# -- Convex hull (monotone chain + shoelace) ---------------------------------


def convex_hull(points) -> list[tuple[float, float]]:
    """Convex hull vertices in counter-clockwise order.

    Fewer than 3 distinct points, or a collinear set, leave at most the
    two extreme points, and no vertex for a single point.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull_area(points) -> float:
    """Area of the convex hull of 2-D points, in square metres: 0.0 when
    the hull has fewer than 3 vertices, whose two shoelace terms cancel."""
    hull = convex_hull(points)
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


# -- Log serialization -------------------------------------------------------

SAMPLE_FIELDS = tuple(f.name for f in fields(SoilSample))
# each field with the check its value gets, one row per field, from which
# sample_from_dict's code is written: its kind, and its range in
# errors.RANGES["log"], if it has one
_KINDS = {"int": "int", "float": "number", "float | None": "number or null",
          "Validity": "status"}
_SAMPLE_SCHEMA = tuple((f.name, _KINDS[f.type], RANGES["log"].get(f.name))
                       for f in fields(SoilSample))
_STATUSES = {status.value: status for status in Validity}
# what a decoded line that is not an object holds, in JSON's words
_JSON_TYPES = {int: "a number", float: "a number", str: "a string",
               list: "an array", bool: "a boolean", type(None): "null"}

# json.dumps's own settings, except that NaN and infinity raise ValueError
# instead of becoming bare tokens that are not JSON
_ENCODER = json.JSONEncoder(allow_nan=False)
# the C encoder that _ENCODER.encode builds anew on every call, built once
# with its settings; None where the C accelerator is missing.  It keeps no
# markers: a record holds no container, and the C encoder leaves a
# record's marker behind when it raises, so a later record at the same
# address would read as a cycle
_RECORD_ENCODER = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)


def _unique_fields(pairs: list) -> dict:
    """One decoded JSON object; a name that repeats raises ValueError.

    ``json`` alone would keep the last value, and the line copied by
    ``validate`` would then mean something else to a reader that keeps
    the first.
    """
    d = dict(pairs)
    if len(d) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise ValueError(f"field {name!r} appears more than once")
            seen.add(name)
    return d


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_fields)
# the same scanner without the hook: it builds each object as a dict in C
_SCAN_ONCE = json.JSONDecoder().scan_once


def _field_set_error(d: dict) -> ValueError:
    missing = [name for name in SAMPLE_FIELDS if name not in d]
    unknown = [repr(name) for name in d if name not in SAMPLE_FIELDS]
    return ValueError("; ".join(
        f"{what} fields: {', '.join(names)}"
        for what, names in (("missing", missing), ("unknown", unknown)) if names))


def _compiled_from_schema(stub):
    """``stub``'s name, signature and docstring over a body written from
    ``_SAMPLE_SCHEMA`` and compiled once, as ``errors.record`` compiles
    ``__init__``.

    Each row becomes one straight-line read and check of its field, in
    row order, so a record's first fault in that order is the one
    refused.  A row's range is written into its check as constants.
    """
    body = []
    for name, kind, bounds in _SAMPLE_SCHEMA:
        body.append(f"{name} = d[{name!r}]")
        refuse = f"    within('log', {name!r}, {name})  # raises, naming the range"
        if kind == "int":
            body += [f"if type({name}) is not int:",
                     f"    raise TypeError({name + ' must be an integer'!r})"]
            if bounds:
                body += [f"if not {bounds[0]!r} <= {name} <= {bounds[1]!r}:", refuse]
        elif kind == "status":
            body += [f"if type({name}) is not str or {name} not in _STATUSES:",
                     f"    raise ValueError(f'status {{{name}!r}} is not one of '",
                     "                     + ', '.join(_STATUSES))",
                     f"{name} = _STATUSES[{name}]"]
        else:
            test = (f"type({name}) is not float and type({name}) is not int"
                    f" or not {bounds[0]!r} <= {name} <= {bounds[1]!r}")
            if kind == "number or null":
                test = f"{name} is not None and ({test})"
            body += [f"if {test}:", refuse]
    source = "\n".join([
        f"def {stub.__name__}(d):",
        "    if type(d) is not dict:",
        "        raise TypeError('expected a JSON object, got ' + _JSON_TYPES[type(d)])",
        f"    if len(d) != {len(_SAMPLE_SCHEMA)}:",
        "        raise _field_set_error(d)",
        "    try:",
        *(f"        {line}" for line in body),
        "    except KeyError:",
        "        raise _field_set_error(d) from None",
        "    if status is Validity.VALID and theta is None:",
        "        raise ValueError('a valid sample needs a theta')",
        f"    return SoilSample({', '.join(name for name, _, _ in _SAMPLE_SCHEMA)})",
    ])
    namespace = {}
    exec(source, globals(), namespace)  # globals: the names the checks call
    check = namespace[stub.__name__]
    check.__doc__ = stub.__doc__
    check.__annotations__ = stub.__annotations__
    return check


@_compiled_from_schema
def sample_from_dict(d: dict) -> SoilSample:
    """Check one decoded record against SoilSample's fields and types.

    The record is a JSON object holding exactly SoilSample's fields.
    Integers must be ints, other numbers ints or floats, and only the
    ``float | None`` fields may be null; a valid record needs a theta.
    Each number lies in its range in ``errors.RANGES["log"]``, and the
    refusal names the field and the range.  Values are checked, never
    converted, so the record dumps back to the same bytes.

    The body is compiled at import from ``_SAMPLE_SCHEMA``: one
    straight-line check per field, in field order, so the first fault
    in that order decides the refusal.  A record with a field missing
    or unknown is refused by ``_field_set_error``, naming all of them.
    """


def dump_sample_log(samples: list[SoilSample]) -> str:
    """One JSON object per line: ``vars`` holds SoilSample's fields in
    order, and the ``str`` enum ``Validity`` encodes as its value."""
    if _RECORD_ENCODER is None:
        return "".join(_ENCODER.encode(vars(s)) + "\n" for s in samples)
    chunks = []
    for s in samples:
        chunks += _RECORD_ENCODER(vars(s), 0)  # 0: the indent level
        chunks.append("\n")
    return "".join(chunks)


def parse_sample_log(lines) -> tuple[list[SoilSample], list[str]]:
    """Decode an iterable of JSONL lines; blank lines are skipped.

    Returns the samples and, beside each, the line it was decoded from,
    as given.  A checked record's line is ASCII, and ``validate`` copies
    it instead of encoding the sample again.  Raises LogFormatError
    naming the 1-based offending line.

    A line costs one call of json's C scanner, without the hook that
    refuses a repeated name.  Every name in a line is followed by a
    ``:`` outside any string, so when the scan ends at the end of the
    line with one object of as many names as the line has ``:``, no
    object in the line repeats a name, and the scan is the decode.
    Every other line, and every line the scan refuses, is decoded by the
    hooked ``_DECODER.decode``, which raises each error.
    """
    samples, records = [], []
    scan, decode = _SCAN_ONCE, _DECODER.decode
    for line_no, line in enumerate(lines, start=1):
        try:
            try:
                d, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1  # decode raises it again, or skips the space before
            if end != len(line) or type(d) is not dict or len(d) != line.count(":"):
                if not line.strip():
                    continue
                d = decode(line)
            samples.append(sample_from_dict(d))
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"line {line_no}: {exc}", line_no) from None
        except RecursionError:
            raise LogFormatError(f"line {line_no}: JSON nested too deeply",
                                 line_no) from None
        records.append(line)
    return samples, records


def read_sample_log(path) -> tuple[list[SoilSample], list[str]]:
    """Decode a log file into samples and their lines, without line endings.

    Lines end at LF, CRLF or CR, as in a text-mode file.  Bytes that are
    not UTF-8 raise LogFormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines break where the splitter below breaks them: LF, CRLF or CR
        head = raw[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise LogFormatError(f"line {line_no}: not valid UTF-8", line_no) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_sample_log(text.split("\n"))


def dump_summary(summary: MissionSummary) -> str:
    return _ENCODER.encode(vars(summary)) + "\n"
