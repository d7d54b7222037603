"""Scenario documents: one JSON file wiring a whole simulated run.

A scenario names the field (ground truth, obstructions, noise, seed),
the mission (speed plus either an explicit waypoint list or a seeded
generator block), the sampler, actuator and validity thresholds.
Unknown keys are rejected so typos fail loudly; mapping parameters are
not part of a scenario, since ``map`` reads only the log and its flags.

``load_scenario`` accepts a filesystem path or the name of a scenario
bundled with the package (see :func:`bundled_scenarios`); the bundled
``paper_field`` scenario reproduces the reference field campaign:
95 waypoints over a 19 x 20 m field, 25 of them obstructed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .actuator import ActuatorConfig, motion_duration
from .calib import ValidityThresholds
from .errors import ScenarioError
from .fieldsim import Blob, Disk, FieldSpec, local_to_wgs84_at, wgs84_to_local_at
from .mission import MissionConfig, Waypoint, generate_waypoints
from .sampler import SamplerConfig


@dataclass(frozen=True)
class Scenario:
    name: str
    mission: MissionConfig


def bundled_scenarios() -> list[str]:
    """Names accepted by load_scenario in place of a path."""
    root = resources.files("soilprobe") / "scenarios"
    return sorted(p.name.removesuffix(".json")
                  for p in root.iterdir() if p.name.endswith(".json"))


def _expect(value, kind: type, context: str):
    """``value`` itself when it is a ``kind`` (dict or list), else ScenarioError."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ScenarioError(f"{context}: expected {expected}, got {type(value).__name__}")
    return value


def _build(cls, doc: dict, context: str, **extra):
    _expect(doc, dict, context)
    names = {f for f in cls.__dataclass_fields__}
    unknown = set(doc) - names
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**doc, **extra)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{context}: {exc}") from None


def _field_spec(doc: dict, seed_override: int | None) -> FieldSpec:
    doc = dict(_expect(doc, dict, "field"))
    blobs = tuple(_build(Blob, b, "field.blobs")
                  for b in _expect(doc.pop("blobs", []), list, "field.blobs"))
    disks = tuple(_build(Disk, d, "field.obstructions")
                  for d in _expect(doc.pop("obstructions", []), list,
                                   "field.obstructions"))
    if seed_override is not None:
        doc["seed"] = seed_override
    return _build(FieldSpec, doc, "field", blobs=blobs, obstructions=disks)


def _waypoints(doc: dict, field: FieldSpec) -> tuple[Waypoint, ...]:
    explicit = doc.get("waypoints")
    generate = doc.get("generate")
    if (explicit is None) == (generate is None):
        raise ScenarioError("mission: give exactly one of 'waypoints' or 'generate'")
    if generate is not None:
        _expect(generate, dict, "mission.generate")
        for key in ("count", "min_spacing_m", "seed"):
            if key not in generate:
                raise ScenarioError(f"mission.generate: missing '{key}'")
        unknown = set(generate) - {"count", "min_spacing_m", "seed"}
        if unknown:
            raise ScenarioError(f"mission.generate: unknown keys {sorted(unknown)}")
        try:
            return tuple(generate_waypoints(field, generate["count"],
                                            generate["min_spacing_m"],
                                            generate["seed"]))
        except ValueError as exc:
            raise ScenarioError(f"mission.generate: {exc}") from None
    points = []
    for i, entry in enumerate(_expect(explicit, list, "mission.waypoints")):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ScenarioError(f"mission.waypoints[{i}]: need an object with 'id'")
        if "x" in entry and "y" in entry:
            points.append(Waypoint(entry["id"], entry["x"], entry["y"]))
        elif "lat" in entry and "lon" in entry:
            try:
                x, y = wgs84_to_local_at(field.origin_lat, field.origin_lon,
                                         entry["lat"], entry["lon"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"mission.waypoints[{i}]: {exc}") from None
            points.append(Waypoint(entry["id"], x, y))
        else:
            raise ScenarioError(f"mission.waypoints[{i}]: need x/y or lat/lon")
    return tuple(points)


def load_scenario(ref, seed_override: int | None = None) -> Scenario:
    """Load a scenario from a path or a bundled name.

    ``seed_override`` replaces the field seed (the noise/sensing
    stream); the waypoint layout is untouched so sensitivity studies
    rerun the same geometry.
    """
    path = Path(ref)
    if path.exists():
        name = path.stem
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read {path}: {exc}") from None
    else:
        name = str(ref)
        resource = resources.files("soilprobe") / "scenarios" / f"{name}.json"
        if not resource.is_file():
            raise ScenarioError(
                f"{ref!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_scenarios())})")
        text = resource.read_text(encoding="utf-8")

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{name}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{name}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{name}: top level must be an object")
    known = {"name", "field", "mission", "sampler", "actuator", "calib"}
    unknown = set(doc) - known
    if unknown:
        raise ScenarioError(f"{name}: unknown top-level keys {sorted(unknown)}")
    if "field" not in doc or "mission" not in doc:
        raise ScenarioError(f"{name}: 'field' and 'mission' are required")

    field = _field_spec(doc["field"], seed_override)
    mission_doc = dict(_expect(doc["mission"], dict, "mission"))
    waypoints = _waypoints(mission_doc, field)
    mission_doc.pop("waypoints", None)
    mission_doc.pop("generate", None)
    unknown = set(mission_doc) - {"speed_mps", "sensor_address"}
    if unknown:
        raise ScenarioError(f"mission: unknown keys {sorted(unknown)}")

    sampler = _build(SamplerConfig, doc.get("sampler", {}), "sampler")
    actuator = _build(ActuatorConfig, doc.get("actuator", {}), "actuator")
    thresholds = _build(ValidityThresholds, doc.get("calib", {}), "calib")
    mission = _build(MissionConfig, mission_doc, "mission", field=field,
                     waypoints=waypoints, sampler=sampler, actuator=actuator,
                     thresholds=thresholds)
    _check_run_stays_finite(mission)
    return Scenario(name=doc.get("name", name), mission=mission)


def _check_run_stays_finite(mission: MissionConfig):
    """Refuse a mission whose run could write a non-finite number.

    The clock: each leg of travel is at most the field's diagonal, and
    each attempt at most one lowering, one settle and one retract (the
    virtual sensor answers at once).  The factor 2 covers the rounding of
    the clock's running sum.  The positions: every attempt lies within
    the reposition offset of the field, and its latitude, longitude and
    the hull's cross products must stay finite; twice that extent covers
    their rounding.
    """
    field, sampler, actuator = mission.field, mission.sampler, mission.actuator
    n = len(mission.waypoints)
    reach = abs(sampler.reposition_offset_m)
    x_max = 2.0 * (field.width_m + reach)
    y_max = 2.0 * (field.height_m + reach)
    corners = [local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                 s * x_max, s * y_max) for s in (-1.0, 1.0)]
    if not (math.isfinite(2.0 * n * x_max * y_max)
            and all(math.isfinite(v) for corner in corners for v in corner)):
        raise ScenarioError(
            f"field: a {field.width_m} x {field.height_m} m field at latitude "
            f"{field.origin_lat}, with attempts up to sampler.reposition_offset_m "
            f"{reach} m beyond it, reaches a latitude, longitude or hull area "
            "that overflows")
    travel_s = n * (math.hypot(field.width_m, field.height_m) / mission.speed_mps)
    if not math.isfinite(2.0 * travel_s):
        raise ScenarioError(
            f"mission.speed_mps: {mission.speed_mps} m/s is so slow that {n} "
            f"legs across a {field.width_m} x {field.height_m} m field "
            "overflow the mission clock")
    steps = sampler.target_depth_m * actuator.steps_per_metre
    if not math.isfinite(steps):
        raise ScenarioError(
            f"sampler.target_depth_m: {sampler.target_depth_m} m at "
            f"actuator.steps_per_metre {actuator.steps_per_metre} overflows")
    attempt_s = sampler.settle_s + 2.0 * motion_duration(0, round(steps), actuator)
    if not math.isfinite(2.0 * (travel_s + n * sampler.max_attempts * attempt_s)):
        raise ScenarioError(
            f"sampler.settle_s: {sampler.settle_s} s, with {round(steps)} steps "
            f"each way at actuator.step_rate_hz {actuator.step_rate_hz}, makes "
            f"{n} points of up to {sampler.max_attempts} attempts overflow the "
            "mission clock")
