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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .actuator import ActuatorConfig, motion_duration
from .calib import Validity, ValidityThresholds
from .errors import (ConfigError, DegenerateError, InfeasibleError, LogFormatError,
                     is_finite, require_positive, require_seed)
from .sampler import SamplerConfig, SoilSample, attempt_point
from .sdi12 import check_address

if TYPE_CHECKING:  # numpy loads with fieldsim, imported by the functions that use it
    from . import fieldsim

REJECTION_TRIAL_LIMIT = 100_000


@dataclass(frozen=True)
class Waypoint:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class MissionConfig:
    """A mission, refused with a ConfigError naming the attribute at fault
    unless its run can finish with finite numbers.

    After each attribute's own checks, the run's bounds: each leg of
    travel is at most the field's diagonal, and each attempt at most one
    lowering, one settle and one retract (the virtual sensor answers at
    once); the factor 2 covers the rounding of the clock's running sum.
    Every attempt lies within the reposition offset of the field, and its
    latitude, longitude and the hull's cross products must stay finite;
    twice that extent covers their rounding.  Last, every attempt in that
    extent, undoubled, must lie within latitude [-90, 90] and longitude
    [-180, 180], which the log reader requires of each record.
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
        require_positive(self, "speed_mps")
        for w in self.waypoints:
            if type(w.id) is not int:
                raise ConfigError(f"waypoint id {w.id!r} is not an integer")
            if not (is_finite(w.x) and is_finite(w.y)):
                raise ConfigError(f"waypoint {w.id}: x and y must be finite")
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
        field, sampler, actuator = self.field, self.sampler, self.actuator
        n = len(self.waypoints)
        reach = abs(float(sampler.reposition_offset_m))  # so no int sum overflows
        x_max = 2.0 * (field.width_m + reach)
        y_max = 2.0 * (field.height_m + reach)
        corners = [local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                     s * x_max, s * y_max) for s in (-1.0, 1.0)]
        if not (math.isfinite(2.0 * n * x_max * y_max)
                and all(math.isfinite(v) for corner in corners for v in corner)):
            raise ConfigError(
                f"field: a {field.width_m} x {field.height_m} m field at latitude "
                f"{field.origin_lat}, with attempts up to sampler.reposition_offset_m "
                f"{reach} m beyond it, reaches a latitude, longitude or hull area "
                "that overflows")
        travel_s = n * (math.hypot(field.width_m, field.height_m) / self.speed_mps)
        if not math.isfinite(2.0 * travel_s):
            raise ConfigError(
                f"speed_mps: {self.speed_mps} m/s is so slow that {n} legs across "
                f"a {field.width_m} x {field.height_m} m field overflow the "
                "mission clock")
        steps = sampler.target_depth_m * actuator.steps_per_metre
        if not is_finite(steps):
            raise ConfigError(
                f"sampler.target_depth_m: {sampler.target_depth_m} m at "
                f"actuator.steps_per_metre {actuator.steps_per_metre} overflows")
        attempt_s = sampler.settle_s + 2.0 * motion_duration(0, round(steps), actuator)
        if not math.isfinite(2.0 * (travel_s + n * sampler.max_attempts * attempt_s)):
            raise ConfigError(
                f"sampler.settle_s: {sampler.settle_s} s, with {round(steps)} steps "
                f"each way at actuator.step_rate_hz {actuator.step_rate_hz}, makes "
                f"{n} points of up to {sampler.max_attempts} attempts overflow the "
                "mission clock")
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


@dataclass(frozen=True)
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
    InfeasibleError once ``max_trials`` draws fail to place all points,
    and ConfigError, before the first draw, for a count above both
    ``max_trials`` and the most points that fit at that spacing.

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
    # an int beyond float range would overflow the float arithmetic below
    if not (type(min_spacing_m) in (int, float) and is_finite(min_spacing_m)
            and min_spacing_m >= 0):
        raise ConfigError("min_spacing_m must be finite and >= 0")
    width, height = field.width_m, field.height_m
    # no squared distance between two points of the field exceeds this;
    # float() first, as an int side squared can leave float range
    if not math.isfinite(float(width) * width + float(height) * height):
        raise ConfigError(f"a field of {width} x {height} m is so large that "
                          f"squared distances across it overflow")
    # Oler's bound (Acta Math. 105, 1961) on points at pairwise distance
    # >= s > 0 in a W x H rectangle: (2/sqrt 3) W H / s^2 + (W + H) / s + 1;
    # a spacing whose square is 0 has none
    spacing = float(min_spacing_m)  # an int spacing squared can leave float range
    if count > max_trials and spacing * spacing > 0:
        fit = (2.0 / math.sqrt(3.0) * (float(width) * height / (spacing * spacing))
               + (width + height) / spacing + 1.0)
        if count > fit:
            raise ConfigError(
                f"count {count} exceeds both the {max_trials} draws allowed and "
                f"the {int(fit)} points {min_spacing_m} m apart that fit "
                f"{width} x {height} m")
    rng = np.random.default_rng(seed)
    spacing_sq = min_spacing_m * min_spacing_m
    # cells no smaller than the spacing, and at most 1024 per axis
    index = fieldsim.CellIndex(
        max(min_spacing_m, width / 1024, height / 1024) or 1.0)
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise InfeasibleError(
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
        with np.errstate(over="ignore"):
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
    try:
        area = convex_hull_area(positions)
    except DegenerateError:
        area = 0.0
    summary = MissionSummary(
        points_total=len(samples),
        points_valid=valid,
        points_invalid=len(samples) - valid,
        duration_s=clock.now,
        area_convex_hull_m2=area,
    )
    return samples, summary


def select_valid(samples: list[SoilSample]) -> list[SoilSample]:
    """The mapping set: samples whose status is VALID, nothing else."""
    return [s for s in samples if s.status is Validity.VALID]


# -- Convex hull (monotone chain + shoelace) ---------------------------------


def convex_hull(points) -> list[tuple[float, float]]:
    """Convex hull vertices in counter-clockwise order.

    Raises DegenerateError for fewer than 3 distinct points or a fully
    collinear set.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) < 3:
        raise DegenerateError(f"need >= 3 distinct points, got {len(pts)}")

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
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateError("points are collinear")
    return hull


def convex_hull_area(points) -> float:
    """Area of the convex hull of 2-D points, in square metres."""
    hull = convex_hull(points)
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


# -- Log serialization -------------------------------------------------------

SAMPLE_FIELDS = tuple(f.name for f in fields(SoilSample))
# each field with the check its value gets, in one table walked per record
_KINDS = {"int": "int", "float": "number", "float | None": "number or null",
          "Validity": "status"}
_SAMPLE_SCHEMA = tuple((f.name, _KINDS[f.type]) for f in fields(SoilSample))
_STATUSES = {status.value: status for status in Validity}

# json.dumps's own settings, except that NaN and infinity raise ValueError
# instead of becoming bare tokens that are not JSON
_ENCODER = json.JSONEncoder(allow_nan=False)


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


def _field_set_error(d: dict) -> ValueError:
    missing = [name for name in SAMPLE_FIELDS if name not in d]
    unknown = [repr(name) for name in d if name not in SAMPLE_FIELDS]
    return ValueError("; ".join(
        f"{what} fields: {', '.join(names)}"
        for what, names in (("missing", missing), ("unknown", unknown)) if names))


def sample_from_dict(d: dict) -> SoilSample:
    """Check one decoded record against SoilSample's fields and types.

    The record holds exactly SoilSample's fields.  Integers must be
    ints, other numbers finite ints or floats, and only the ``float |
    None`` fields may be null; a valid record needs a theta, and ``lat``
    and ``lon`` lie within [-90, 90] and [-180, 180].  Values are
    checked, never converted, so the record dumps back to the same
    bytes.
    """
    if len(d) != len(_SAMPLE_SCHEMA):
        raise _field_set_error(d)
    # SoilSample has no __post_init__, so each checked value goes straight
    # into the new sample's __dict__, in field order, as copy and pickle
    # restore an instance: this skips the frozen __init__'s object.__setattr__
    # calls, most of its cost, and keeps its key-sharing attribute table
    sample = object.__new__(SoilSample)
    attributes = vars(sample)
    try:
        for name, kind in _SAMPLE_SCHEMA:
            try:
                value = d[name]
            except KeyError:
                raise _field_set_error(d) from None
            if kind == "int":
                if type(value) is not int:
                    raise TypeError(f"{name} must be an integer")
            elif kind == "status":
                if type(value) is not str or value not in _STATUSES:
                    raise ValueError(f"status {value!r} is not one of "
                                     + ", ".join(_STATUSES))
                value = _STATUSES[value]
            elif value is None:
                if kind == "number":
                    raise ValueError(f"{name} must be a finite number")
            elif type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite {kind}")
            attributes[name] = value
    except OverflowError:  # math.isfinite of an int beyond the floats
        raise ValueError(f"{name} must be a finite {kind}") from None
    if sample.status is Validity.VALID and sample.theta is None:
        raise ValueError("a valid sample needs a theta")
    if not -90.0 <= sample.lat <= 90.0:
        raise ValueError(f"lat {sample.lat!r} is outside [-90, 90]")
    if not -180.0 <= sample.lon <= 180.0:
        raise ValueError(f"lon {sample.lon!r} is outside [-180, 180]")
    return sample


def dump_sample_log(samples: list[SoilSample]) -> str:
    """One JSON object per line: ``vars`` holds SoilSample's fields in
    order, and the ``str`` enum ``Validity`` encodes as its value."""
    return "".join(_ENCODER.encode(vars(s)) + "\n" for s in samples)


def parse_sample_log(lines) -> tuple[list[SoilSample], list[str]]:
    """Decode an iterable of JSONL lines; blank lines are skipped.

    Returns the samples and, beside each, the line it was decoded from,
    as given.  A checked record's line is ASCII, and ``validate`` copies
    it instead of encoding the sample again.  Raises LogFormatError
    naming the 1-based offending line.
    """
    samples, records = [], []
    decode = _DECODER.decode
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            samples.append(sample_from_dict(decode(line)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
