"""Scenario documents: one JSON file wiring a whole simulated run.

A scenario names the field (ground truth, obstructions, noise, seed),
the mission (speed plus either an explicit waypoint list or a seeded
generator block), the sampler, actuator and validity thresholds.
Unknown keys are rejected so typos fail loudly; mapping parameters are
not part of a scenario, since ``map`` reads only the log and its flags.
This module only decodes: each dataclass checks its own values, and
MissionConfig decides which runs can finish.  Every refusal is a
ConfigError; one raised while building a block is prefixed with that
block's name.

``load_scenario`` accepts a filesystem path or the name of a scenario
bundled with the package (see :func:`bundled_scenarios`); the bundled
``paper_field`` scenario reproduces the reference field campaign:
95 waypoints over a 19 x 20 m field, 25 of them obstructed.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path

from .actuator import ActuatorConfig
from .calib import ValidityThresholds
from .errors import ConfigError, is_finite, prefixed
from .fieldsim import Blob, Disk, FieldSpec, wgs84_to_local_at
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


# The checks below raise ConfigErrors that name no context: each caller
# runs them under errors.prefixed, which names the block they came from.


def _expect(value, kind: type):
    """``value`` itself when it is a ``kind`` (dict or list), else ConfigError."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ConfigError(f"expected {expected}, got {type(value).__name__}")
    return value


def _keys(doc, required, optional=()):
    """Raise ConfigError unless ``doc`` is an object with every key of
    ``required`` and no key outside ``required`` and ``optional``."""
    _expect(doc, dict)
    missing = [key for key in required if key not in doc]
    if len(doc) > len(required) - len(missing):  # a key beyond ``required``
        unknown = set(doc).difference(required, optional)
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}")
    if missing:
        raise ConfigError(f"missing required keys {missing}")


@cache
def _doc_keys(cls, *given) -> tuple[tuple, tuple]:
    """A ``cls`` document's required (no default) and optional keys, less ``given``."""
    own = [f for f in fields(cls) if f.name not in given]
    return (tuple(f.name for f in own if f.default is MISSING),
            tuple(f.name for f in own if f.default is not MISSING))


def _make(cls, doc: dict, **extra):
    """``cls(**doc, **extra)``; ``doc`` gives the fields ``extra`` does not."""
    _keys(doc, *_doc_keys(cls, *extra))
    return cls(**doc, **extra)


def _build(cls, doc: dict, context: str, **extra):
    """``_make(cls, doc, **extra)``, its refusal prefixed with ``context``."""
    with prefixed(context):
        return _make(cls, doc, **extra)


def _build_each(cls, docs: list, context: str) -> tuple:
    """``_make(cls, doc)`` of each document in the list ``docs``, in order,
    a refusal prefixed with ``context``."""
    with prefixed(context):
        return tuple(_make(cls, doc) for doc in _expect(docs, list))


def _field_spec(doc: dict, seed_override: int | None) -> FieldSpec:
    with prefixed("field"):
        doc = dict(_expect(doc, dict))
    blobs = _build_each(Blob, doc.pop("blobs", []), "field.blobs")
    disks = _build_each(Disk, doc.pop("obstructions", []), "field.obstructions")
    if seed_override is not None:
        doc["seed"] = seed_override
    return _build(FieldSpec, doc, "field", blobs=blobs, obstructions=disks)


def _waypoints(explicit, generate, field: FieldSpec) -> tuple[Waypoint, ...]:
    if (explicit is None) == (generate is None):
        raise ConfigError("mission: give exactly one of 'waypoints' or 'generate'")
    if generate is not None:
        with prefixed("mission.generate"):
            _keys(generate, ("count", "min_spacing_m", "seed"))
            return tuple(generate_waypoints(field, generate["count"],
                                            generate["min_spacing_m"],
                                            generate["seed"]))
    with prefixed("mission.waypoints"):
        _expect(explicit, list)
    points = []
    for i, entry in enumerate(explicit):
        shape = entry.keys() if isinstance(entry, dict) else None
        if shape == {"id", "x", "y"}:
            points.append(Waypoint(entry["id"], entry["x"], entry["y"]))
            continue
        context = f"mission.waypoints[{i}]"
        if shape != {"id", "lat", "lon"}:  # any other entry: _keys names its fault
            with prefixed(context):
                _keys(entry, ("id",), ("x", "y", "lat", "lon"))
                raise ConfigError("need exactly one of x/y or lat/lon")
        if not (is_finite(entry["lat"]) and is_finite(entry["lon"])):
            raise ConfigError(f"{context}: lat and lon must be finite")
        lat, lon = float(entry["lat"]), float(entry["lon"])  # no int difference overflows
        points.append(Waypoint(entry["id"], *wgs84_to_local_at(
            field.origin_lat, field.origin_lon, lat, lon)))
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
            raise ConfigError(f"cannot read {path}: {exc}") from None
    else:
        name = str(ref)
        resource = resources.files("soilprobe") / "scenarios" / f"{name}.json"
        if not resource.is_file():
            raise ConfigError(
                f"{ref!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_scenarios())})")
        text = resource.read_text(encoding="utf-8")

    try:
        # a JSONDecodeError, or an int of more digits than int() converts
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{name}: invalid JSON: nested too deeply") from None
    with prefixed(name):
        _keys(doc, ("field", "mission"), ("name", "sampler", "actuator", "calib"))

    field = _field_spec(doc["field"], seed_override)
    with prefixed("mission"):
        mission_doc = dict(_expect(doc["mission"], dict))
    waypoints = _waypoints(mission_doc.pop("waypoints", None),
                           mission_doc.pop("generate", None), field)

    sampler = _build(SamplerConfig, doc.get("sampler", {}), "sampler")
    actuator = _build(ActuatorConfig, doc.get("actuator", {}), "actuator")
    thresholds = _build(ValidityThresholds, doc.get("calib", {}), "calib")
    mission = _build(MissionConfig, mission_doc, "mission", field=field,
                     waypoints=waypoints, sampler=sampler, actuator=actuator,
                     thresholds=thresholds)
    return Scenario(name=doc.get("name", name), mission=mission)

