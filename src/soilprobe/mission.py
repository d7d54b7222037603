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
writer encodes every record with one prebuilt C encoder.  The reader is
the package's one reader of JSON: a scenario is read with it too, so one
fault reads the same in a log and in a scenario.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import product, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING

from .actuator import ActuatorConfig
from .calib import Validity, ValidityThresholds
from .errors import RANGES, ConfigError, LogFormatError, record, require_seed, within
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
        within("mission", "speed_mps", self.speed_mps)
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
                       min_spacing_m: float, seed: int) -> list[Waypoint]:
    """Draw ``count`` points with pairwise spacing >= ``min_spacing_m``.

    Rejection sampling: uniform draws over the field, rejected when
    closer than the spacing to any accepted point.  A background grid
    (Bridson 2007), a :class:`fieldsim.CellIndex` in which each accepted
    point reaches ``min_spacing_m``, keeps the accepted points by cell,
    so each draw is compared only with the points listed in its own
    cell; the results are those of comparing it with every accepted
    point.
    Deterministic under ``seed``, a non-negative int.  A draw is the
    pair ``(width * u, height * v)`` of two consecutive numbers ``u, v``
    of ``numpy.random.default_rng(seed).random``, which are the numbers
    the scalar ``uniform(0, width)`` and ``uniform(0, height)`` would
    return.  They come in blocks of one pair per point still to place,
    and no more than the draws left, so no block runs past the last
    draw needed or past the ``REJECTION_TRIAL_LIMIT`` draws allowed,
    read at the call.  Raises ConfigError once those draws fail to
    place all points, and before the first draw for a count above
    them, since each draw places at most one point.

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
    max_trials = REJECTION_TRIAL_LIMIT
    if count > max_trials:
        raise ConfigError(f"count {count} exceeds the {max_trials} draws allowed; "
                          "each draw places at most one point")
    width, height = field.width_m, field.height_m
    spacing_sq = min_spacing_m * min_spacing_m
    rng = np.random.default_rng(seed)
    # cells no smaller than the spacing, and at most 1024 per axis
    index = fieldsim.CellIndex(max(min_spacing_m, width / 1024, height / 1024))
    near = index.near
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise ConfigError(
                f"placed {len(accepted)} of {count} points after {trials} "
                f"draws; spacing {min_spacing_m} m does not fit "
                f"{width} x {height} m")
        pairs = min(count - len(accepted), max_trials - trials)
        trials += pairs
        # a flat list of floats: no list per pair for the collector to count
        block = iter(rng.random(2 * pairs).tolist())
        for u, v in zip(block, block):
            x, y = width * u, height * v
            for ax, ay in near(x, y):
                if (x - ax) ** 2 + (y - ay) ** 2 < spacing_sq:
                    break
            else:
                accepted.append((x, y))
                index.add((x, y), x, y, min_spacing_m)
    # the collector runs once enough containers are alive: the index's
    # lists go before the tour lists the points in its own
    del index, near
    return [Waypoint(i + 1, *accepted[k])
            for i, k in enumerate(_nearest_neighbour_tour(accepted))]


def _nearest_neighbour_tour(points: list[tuple[float, float]]) -> list[int]:
    """Indices of ``points`` in greedy nearest-neighbour order from (0, 0).

    Each step takes the untaken point with the least ``(x - cx) ** 2 +
    (y - cy) ** 2`` from the current point, the lowest index on ties.
    The untaken points are listed in a :class:`fieldsim.CellIndex` with
    reach 0, and a step reads its cells in rings outward from the
    current cell, from the first ring that meets an occupied cell, the
    first two rings as one 3 x 3 square (a greedy tour over a cell grid,
    Bentley 1992).  Every point whose key is at most the least found so
    far is listed in a cell of the box that ``CellIndex.add`` would cover
    with that key's root as reach, so the walk reads only the cells of
    that box and stops once its rings cover it.  The index is rebuilt on
    a coarser cell each time the untaken count halves, so the rings stay
    short as the points thin out.
    """
    from . import fieldsim
    floor, sqrt = math.floor, math.sqrt
    taken = [False] * len(points)
    order: list[int] = []
    cx, cy = 0.0, 0.0
    untaken = range(len(points))
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    # about one point per cell, or per cell along a strip; 1 m when every
    # point coincides
    first = max(sqrt(w * h / len(points)), max(w, h) / len(points)) or 1.0
    while untaken:
        # the cell's area grows as the square root of the thinning.  The
        # tour leaves its untaken points in patches at the first density,
        # so a step's keys in a patch and its empty rings between patches
        # both grow as that root, while the steps per index halve: the
        # work of the whole tour stays linear
        size = first * (len(points) / len(untaken)) ** 0.25
        index = fieldsim.CellIndex(size)
        cells = index.cells  # the last index's cells go before the adds
        for k in untaken:
            index.add(k, xs[k], ys[k], 0.0)
        # the occupied cells' extent, which no ring needs to pass
        imin, imax = min(i for i, _ in cells), max(i for i, _ in cells)
        jmin, jmax = min(j for _, j in cells), max(j for _, j in cells)
        for _ in range(len(untaken) - len(untaken) // 2):
            ci, cj = floor(cx / size), floor(cy / size)
            ilo, ihi, jlo, jhi = imin, imax, jmin, jmax
            # no cell nearer than ring r is occupied
            r = max(1, ilo - ci, ci - ihi, jlo - cj, cj - jhi)
            ring = (product(range(ci - 1, ci + 2), range(cj - 1, cj + 2)) if r == 1
                    else _ring(ci, cj, r, ilo, ihi, jlo, jhi))
            best, least, home = -1, math.inf, None
            while True:
                found = least
                for cell in ring:
                    for k in cells.get(cell, ()):
                        if taken[k]:
                            continue
                        x, y = points[k]
                        key = (x - cx) ** 2 + (y - cy) ** 2
                        if key < least or key == least and k < best:
                            best, least, home = k, key, cell
                if least < found:
                    # the box CellIndex.add covers for reach sqrt(least)
                    reach = sqrt(least) * (1.0 + 1e-9) + 1e-160
                    ilo = max(imin, floor((cx - reach) / size))
                    ihi = min(imax, floor((cx + reach) / size))
                    jlo = max(jmin, floor((cy - reach) / size))
                    jhi = min(jmax, floor((cy + reach) / size))
                if ci - r <= ilo and ihi <= ci + r and cj - r <= jlo and jhi <= cj + r:
                    break
                r += 1
                ring = _ring(ci, cj, r, ilo, ihi, jlo, jhi)
            taken[best] = True
            # a point on a cell edge stays listed in the other cells, as taken
            cells[home].remove(best)
            order.append(best)
            cx, cy = points[best]
        untaken = [k for k in untaken if not taken[k]]
    return order


def _ring(ci: int, cj: int, r: int, ilo: int, ihi: int, jlo: int,
          jhi: int) -> list[tuple[int, int]]:
    """The cells (i, j) at Chebyshev distance ``r`` >= 1 from cell
    (ci, cj) with ``ilo <= i <= ihi`` and ``jlo <= j <= jhi``."""
    rows = range(max(ci - r, ilo), min(ci + r, ihi) + 1)
    cols = range(max(cj - r + 1, jlo), min(cj + r - 1, jhi) + 1)
    ring: list[tuple[int, int]] = []
    if jlo <= cj - r:
        ring += zip(rows, repeat(cj - r))
    if cj + r <= jhi:
        ring += zip(rows, repeat(cj + r))
    if ilo <= ci - r:
        ring += zip(repeat(ci - r), cols)
    if ci + r <= ihi:
        ring += zip(repeat(ci + r), cols)
    return ring


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


# -- JSON documents: the log's reader, which the scenario's shares ----------

# a decoded JSON value's type, in JSON's words
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _unique_fields(pairs: list) -> dict:
    """One decoded JSON object; a repeated name raises ValueError, since
    readers differ on the value it holds (``json`` alone keeps the last)."""
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


def decode_utf8(raw: bytes) -> str:
    """``raw`` as text; a byte that is not UTF-8 raises LogFormatError
    naming its 1-based line, lines ending at LF, CRLF or CR."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise LogFormatError(f"line {line_no}: not valid UTF-8", line_no) from None


def decode_json(text: str):
    """The JSON value of ``text``; a repeated name, nesting too deep and
    text that is not JSON raise ValueError."""
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_type(value, kind: type):
    """``value`` itself when its JSON type is ``kind`` (dict, list or
    str), else ConfigError: "expected a JSON array, got null"."""
    if type(value) is not kind:
        raise ConfigError(f"expected a JSON {_JSON_TYPES[kind].split()[1]}, "
                          f"got {_JSON_TYPES[type(value)]}")
    return value


def json_fields(value, names, optional=()) -> dict:
    """``value`` itself when it is a JSON object with every name of
    ``names`` and none outside ``names`` and ``optional``, else ConfigError
    naming its type, or its missing names, then its unknown ones."""
    json_type(value, dict)
    missing = [name for name in names if name not in value]
    unknown = [] if len(value) + len(missing) == len(names) else [
        repr(name) for name in value if name not in names and name not in optional]
    if missing or unknown:
        raise ConfigError("; ".join(
            f"{what} fields: {', '.join(found)}"
            for what, found in (("missing", missing), ("unknown", unknown)) if found))
    return value


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
        f"    if type(d) is not dict or len(d) != {len(_SAMPLE_SCHEMA)}:",
        "        json_fields(d, SAMPLE_FIELDS)  # raises: not an object of these",
        "    try:",
        *(f"        {line}" for line in body),
        "    except KeyError:",
        "        json_fields(d, SAMPLE_FIELDS)  # raises: a field is missing",
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
    in that order decides the refusal.  A record that is not an object,
    or has a field missing or unknown, is refused by ``json_fields``.
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
    Every other line, and every line the scan refuses, is decoded by
    ``decode_json``, which raises each error.
    """
    samples, records = [], []
    scan, decode = _SCAN_ONCE, decode_json
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
        records.append(line)
    return samples, records


def read_sample_log(path) -> tuple[list[SoilSample], list[str]]:
    """Decode a log file into samples and their lines, without line endings.

    Lines end at LF, CRLF or CR, as in a text-mode file and as
    ``decode_utf8`` counts them.
    """
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read())
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_sample_log(text.split("\n"))


def dump_summary(summary: MissionSummary) -> str:
    return _ENCODER.encode(vars(summary)) + "\n"
