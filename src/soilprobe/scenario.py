"""Scenario documents: one JSON file wiring a whole simulated run.

A scenario names the field (ground truth, obstructions, noise, seed),
the mission (speed plus either an explicit waypoint list or a seeded
generator block), the sampler, actuator and validity thresholds.
Unknown keys are rejected so typos fail loudly; mapping parameters are
not part of a scenario, since ``map`` reads only the log and its flags.
The document is read with the sample log's reader, so a fault reads as
in a log: a byte that is not UTF-8 names its line, a repeated key its
name, and a mistyped block or value its JSON type.
This module only decodes: each record type checks its values against
the block of ``errors.RANGES`` it declares, as this module checks each
explicit waypoint's coordinates, and MissionConfig checks the run as a whole.
Every refusal is a ConfigError, prefixed with the name of the block it
comes from, or of the scenario while its document is read.

``load_scenario`` accepts a filesystem path or the name of a scenario
bundled with the package (see :func:`bundled_scenarios`); the bundled
``paper_field`` scenario reproduces the reference field campaign:
95 waypoints over a 19 x 20 m field, 25 of them obstructed.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from functools import cache
from importlib import resources
from pathlib import Path

from .actuator import ActuatorConfig
from .calib import ValidityThresholds
from .errors import ConfigError, LogFormatError, prefixed, record, within
from .fieldsim import Blob, Disk, FieldSpec, wgs84_to_local_at
from .mission import (MissionConfig, Waypoint, decode_json, decode_utf8,
                      generate_waypoints, json_fields, json_type)
from .sampler import SamplerConfig


@record
class Scenario:
    name: str
    mission: MissionConfig


def bundled_scenarios() -> list[str]:
    """Names accepted by load_scenario in place of a path."""
    root = resources.files("soilprobe") / "scenarios"
    return sorted(p.name.removesuffix(".json")
                  for p in root.iterdir() if p.name.endswith(".json"))


@cache
def _doc_keys(cls, *given) -> tuple[tuple, tuple]:
    """A ``cls`` document's required (no default) and optional keys, less ``given``."""
    own = [f for f in fields(cls) if f.name not in given]
    return (tuple(f.name for f in own if f.default is MISSING),
            tuple(f.name for f in own if f.default is not MISSING))


def _build(cls, doc: dict, context: str, **extra):
    """``cls(**doc, **extra)``, ``doc`` giving the fields ``extra`` does not,
    a refusal prefixed with ``context``."""
    with prefixed(context):
        return cls(**json_fields(doc, *_doc_keys(cls, *extra)), **extra)


def _build_each(cls, docs: list, context: str) -> tuple:
    """``cls(**doc)`` of each document in the list ``docs``, in order, a
    refusal prefixed with ``context``."""
    keys = _doc_keys(cls)
    with prefixed(context):
        return tuple(cls(**json_fields(doc, *keys)) for doc in json_type(docs, list))


def _field_spec(doc: dict, seed_override: int | None) -> FieldSpec:
    with prefixed("field"):
        doc = dict(json_type(doc, dict))
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
            block = json_fields(generate, ("count", "min_spacing_m", "seed"))
            return tuple(generate_waypoints(field, **block))
    with prefixed("mission.waypoints"):
        json_type(explicit, list)
    points = []
    i = 0
    with prefixed(lambda: f"mission.waypoints[{i}]"):  # names the entry at fault
        for i, entry in enumerate(explicit):
            shape = entry.keys() if isinstance(entry, dict) else None
            if shape == {"id", "x", "y"}:
                points.append(Waypoint(entry["id"], _coordinate("x", entry),
                                       _coordinate("y", entry)))
                continue
            if shape != {"id", "lat", "lon"}:  # json_fields names any other's fault
                json_fields(entry, ("id",), ("x", "y", "lat", "lon"))
                raise ConfigError("need exactly one of x/y or lat/lon")
            points.append(Waypoint(entry["id"], *wgs84_to_local_at(
                field.origin_lat, field.origin_lon, _coordinate("lat", entry),
                _coordinate("lon", entry))))
    return tuple(points)


def _coordinate(key: str, entry: dict):
    """A waypoint entry's ``key``, checked against its range."""
    return within("mission.waypoints", key, entry[key])


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
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
    else:
        name = str(ref)
        resource = resources.files("soilprobe") / "scenarios" / f"{name}.json"
        if not resource.is_file():
            raise ConfigError(
                f"{ref!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_scenarios())})")
        raw = resource.read_bytes()

    try:  # also an int of more digits than int() converts
        doc = decode_json(decode_utf8(raw))
    except (LogFormatError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    with prefixed(name):
        json_fields(doc, ("field", "mission"), ("name", "sampler", "actuator", "calib"))
    with prefixed("name"):
        name = json_type(doc.get("name", name), str)

    field = _field_spec(doc["field"], seed_override)
    with prefixed("mission"):
        mission_doc = dict(json_type(doc["mission"], dict))
    waypoints = _waypoints(mission_doc.pop("waypoints", None),
                           mission_doc.pop("generate", None), field)

    sampler = _build(SamplerConfig, doc.get("sampler", {}), "sampler")
    actuator = _build(ActuatorConfig, doc.get("actuator", {}), "actuator")
    thresholds = _build(ValidityThresholds, doc.get("calib", {}), "calib")
    mission = _build(MissionConfig, mission_doc, "mission", field=field,
                     waypoints=waypoints, sampler=sampler, actuator=actuator,
                     thresholds=thresholds)
    return Scenario(name=name, mission=mission)

