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
the field names of SoilSample; the summary is a single JSON object.
Both serializations are byte-deterministic for a given run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import fieldsim
from .actuator import ActuatorConfig
from .calib import Validity, ValidityThresholds
from .errors import DegenerateError, InfeasibleError, LogFormatError, require_positive
from .sampler import SamplerConfig, SoilSample, attempt_point, finalize_sample

REJECTION_TRIAL_LIMIT = 100_000


@dataclass(frozen=True)
class Waypoint:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class MissionConfig:
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
            raise ValueError("waypoint list must be non-empty")
        require_positive(self, "speed_mps")
        ids = [w.id for w in self.waypoints]
        if len(set(ids)) != len(ids):
            raise ValueError("waypoint ids must be unique")
        for w in self.waypoints:
            if type(w.id) is not int:
                raise ValueError(f"waypoint id {w.id!r} is not an integer")
            if not (0.0 <= w.x <= self.field.width_m
                    and 0.0 <= w.y <= self.field.height_m):
                raise ValueError(f"waypoint {w.id} at ({w.x}, {w.y}) is "
                                 "outside the field")
        if self.sampler.target_depth_m > self.actuator.max_depth_m:
            raise ValueError("sampler target depth exceeds actuator max depth")


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
    InfeasibleError once ``max_trials`` draws fail to place all points.

    Points are returned in nearest-neighbour order starting from the
    field origin (a rough tour, so visit order is sensible), with ids
    1..count in that order; of equally near points the one accepted
    first comes first.
    """
    if type(count) is not int or count < 1:
        raise ValueError("count must be an integer >= 1")
    if type(seed) is not int or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    try:
        # an int beyond float range would overflow the float arithmetic below
        finite = (type(min_spacing_m) in (int, float)
                  and 0 <= float(min_spacing_m) < math.inf)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("min_spacing_m must be finite and >= 0")
    width, height = field.width_m, field.height_m
    # no squared distance between two points of the field exceeds this
    if not math.isfinite(width * width + height * height):
        raise ValueError(f"a field of {width} x {height} m is so large that "
                         f"squared distances across it overflow")
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
        samples.append(finalize_sample(
            wp, result, target_depth_m=cfg.sampler.target_depth_m))
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
_INT_FIELDS = tuple(f.name for f in fields(SoilSample) if f.type == "int")
_NUMBER_FIELDS = tuple((f.name, f.type == "float | None")
                       for f in fields(SoilSample) if f.type.startswith("float"))

SUMMARY_FIELDS = tuple(f.name for f in fields(MissionSummary))

# json.dumps's own settings, except that NaN and infinity raise ValueError
# instead of becoming bare tokens that are not JSON
_ENCODER = json.JSONEncoder(allow_nan=False)


def sample_to_dict(sample: SoilSample) -> dict:
    d = {name: getattr(sample, name) for name in SAMPLE_FIELDS}
    d["status"] = sample.status.value
    return d


def sample_from_dict(d: dict) -> SoilSample:
    """Check one decoded record against SoilSample's field types.

    Integers must be ints, other numbers finite ints or floats, and only
    the ``float | None`` fields may be null; a valid record needs a
    theta.  Values are checked, never converted, so the record dumps
    back to the same bytes.
    """
    try:
        kwargs = {name: d[name] for name in SAMPLE_FIELDS}
    except KeyError:
        missing = [name for name in SAMPLE_FIELDS if name not in d]
        raise KeyError(f"missing fields: {', '.join(missing)}") from None
    for name in _INT_FIELDS:
        if type(kwargs[name]) is not int:
            raise TypeError(f"{name} must be an integer")
    for name, nullable in _NUMBER_FIELDS:
        value = kwargs[name]
        if value is None and nullable:
            continue
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number"
                             + (" or null" if nullable else ""))
    kwargs["status"] = status = Validity(kwargs["status"])
    if status is Validity.VALID and kwargs["theta"] is None:
        raise ValueError("a valid sample needs a theta")
    return SoilSample(**kwargs)


def dump_sample_log(samples: list[SoilSample]) -> str:
    return "".join(_ENCODER.encode(sample_to_dict(s)) + "\n" for s in samples)


def parse_sample_log(lines) -> list[SoilSample]:
    """Decode an iterable of JSONL lines; blank lines are skipped.

    Raises LogFormatError naming the 1-based offending line.
    """
    samples = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            samples.append(sample_from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise LogFormatError(f"line {line_no}: {exc}", line_no) from None
        except RecursionError:
            raise LogFormatError(f"line {line_no}: JSON nested too deeply",
                                 line_no) from None
    return samples


def read_sample_log(path) -> list[SoilSample]:
    """Decode a log file; bytes that are not UTF-8 raise LogFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"line {line_no}: not valid UTF-8", line_no) from None
    return parse_sample_log(io.StringIO(text, newline=None))


def summary_to_dict(summary: MissionSummary) -> dict:
    return {name: getattr(summary, name) for name in SUMMARY_FIELDS}


def dump_summary(summary: MissionSummary) -> str:
    return _ENCODER.encode(summary_to_dict(summary)) + "\n"


def read_summary(path) -> MissionSummary:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    return MissionSummary(**{name: d[name] for name in SUMMARY_FIELDS})
