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
from .actuator import ActuatorConfig, ActuatorState
from .calib import Validity, ValidityThresholds
from .errors import DegenerateError, InfeasibleError, LogFormatError
from .sampler import SamplerConfig, SoilSample, attempt_point, chosen_attempt, finalize_sample

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
        if self.speed_mps <= 0:
            raise ValueError("speed_mps must be > 0")
        ids = [w.id for w in self.waypoints]
        if len(set(ids)) != len(ids):
            raise ValueError("waypoint ids must be unique")
        for w in self.waypoints:
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

    Plain rejection sampling: uniform draws over the field, rejected
    when closer than the spacing to any accepted point.  Deterministic
    under ``seed``.  Raises InfeasibleError once ``max_trials`` draws
    fail to place all points.

    Points are returned in nearest-neighbour order starting from the
    field origin (a rough tour, so visit order is sensible), with ids
    1..count in that order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    spacing_sq = min_spacing_m * min_spacing_m
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise InfeasibleError(
                f"placed {len(accepted)} of {count} points after {trials} "
                f"draws; spacing {min_spacing_m} m does not fit "
                f"{field.width_m} x {field.height_m} m")
        trials += 1
        x = rng.uniform(0.0, field.width_m)
        y = rng.uniform(0.0, field.height_m)
        if all((x - ax) ** 2 + (y - ay) ** 2 >= spacing_sq for ax, ay in accepted):
            accepted.append((x, y))

    ordered: list[tuple[float, float]] = []
    cx, cy = 0.0, 0.0
    remaining = list(accepted)
    while remaining:
        nearest = min(remaining, key=lambda p: (p[0] - cx) ** 2 + (p[1] - cy) ** 2)
        remaining.remove(nearest)
        ordered.append(nearest)
        cx, cy = nearest
    return [Waypoint(i + 1, x, y) for i, (x, y) in enumerate(ordered)]


def run_mission(cfg: MissionConfig) -> tuple[list[SoilSample], MissionSummary]:
    """Execute the mission; returns the sample log and its summary.

    Never aborts on per-point trouble: sensor faults and failed
    penetrations surface as flagged samples.
    """
    rng = cfg.field.rng()
    sensor = fieldsim.VirtualTeros(cfg.field, rng, address=cfg.sensor_address)
    clock = fieldsim.SimClock()
    state = ActuatorState()
    samples: list[SoilSample] = []
    positions: list[tuple[float, float]] = []
    here = (0.0, 0.0)

    for wp in cfg.waypoints:
        clock.advance(math.dist(here, (wp.x, wp.y)) / cfg.speed_mps)
        here = (wp.x, wp.y)
        result = attempt_point(wp, sensor, state, cfg.field, cfg.sampler,
                               actuator_cfg=cfg.actuator,
                               thresholds=cfg.thresholds, clock=clock,
                               address=cfg.sensor_address)
        state = result.actuator
        samples.append(finalize_sample(
            wp, result.attempts, result.final,
            timestamp_s=result.validated_at_s,
            target_depth_m=cfg.sampler.target_depth_m))
        src = chosen_attempt(result.attempts)
        positions.append((src.x, src.y))

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

SUMMARY_FIELDS = tuple(f.name for f in fields(MissionSummary))


def sample_to_dict(sample: SoilSample) -> dict:
    d = {name: getattr(sample, name) for name in SAMPLE_FIELDS}
    d["status"] = sample.status.value
    return d


def sample_from_dict(d: dict) -> SoilSample:
    missing = [name for name in SAMPLE_FIELDS if name not in d]
    if missing:
        raise KeyError(f"missing fields: {', '.join(missing)}")
    kwargs = {name: d[name] for name in SAMPLE_FIELDS}
    kwargs["status"] = Validity(d["status"])
    return SoilSample(**kwargs)


def dump_sample_log(samples: list[SoilSample]) -> str:
    return "".join(json.dumps(sample_to_dict(s)) + "\n" for s in samples)


def write_sample_log(samples: list[SoilSample], path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dump_sample_log(samples))


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
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"line {line_no}: {exc}", line_no) from None
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
    return json.dumps(summary_to_dict(summary)) + "\n"


def write_summary(summary: MissionSummary, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dump_summary(summary))


def read_summary(path) -> MissionSummary:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    return MissionSummary(**{name: d[name] for name in SUMMARY_FIELDS})
