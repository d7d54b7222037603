"""Shared test helpers: deterministic fields, a scenario document that
sets every key, fault-injecting sensors, the naive interpolation oracle,
the dense IDW kernel, the per-cell ASCII raster writer, the linear
waypoint and obstruction references, the re-encoding ``validate``
reference, the looping log-record check and the whole-line log reader,
the hand-written SDI-12 parsers, the parse-based virtual
sensor, the numpy ground truth, a record type's stock dataclass twin,
the check that a record is what its public constructor builds, and the
fixture that swaps every optimised layer for its reference."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import pickle
import re
import string

import numpy as np
import pytest

from soilprobe import cli, fieldsim, geomap, mission, scenario, sdi12
from soilprobe.actuator import ActuatorConfig, motion_duration
from soilprobe.calib import Validity
from soilprobe.errors import ConfigError, FrameError, LogFormatError, within
from soilprobe.fieldsim import (AIR_RAW_MEAN, MEASURE_DELAY_S, SOIL_EC_US_CM,
                                SOIL_TEMP_C, STALL_DEPTH_M, THETA_TRUE_MAX,
                                FieldSpec, VirtualTeros, sense_raw)
from soilprobe.geomap import NODATA
from soilprobe.mission import (REJECTION_TRIAL_LIMIT, Waypoint, dump_sample_log,
                               read_sample_log, select_valid)
from soilprobe.sampler import SoilSample
from soilprobe.sdi12 import (ADDRESS_CHARS, COMMAND_TERMINATOR,
                             MAX_VALUES_PER_FRAME, RESPONSE_TERMINATOR,
                             Command, DataResponse, MeasureAck, Verb,
                             encode_data_response, encode_measure_ack)


def idw_oracle(xy, theta, qx, qy, power=2.0, cutoff=10.0, exact=1e-6):
    """Direct-evaluation IDW, independent of the library implementation.

    A sample is within a radius R when ``dx*dx + dy*dy <= R*R``.
    """
    best = None
    for i, (x, y) in enumerate(xy):
        dx, dy = x - qx, y - qy
        d2 = dx * dx + dy * dy
        if d2 <= exact * exact and (best is None or (d2, i) < best):
            best = (d2, i)
    if best is not None:
        return theta[best[1]]
    num = den = 0.0
    for i, (x, y) in enumerate(xy):
        dx, dy = x - qx, y - qy
        d2 = dx * dx + dy * dy
        if d2 <= cutoff * cutoff:
            w = d2 ** (-power / 2)
            num += w * theta[i]
            den += w
    return num / den if den > 0 else float("nan")


def idw_dense_reference(xy, theta, rank, gx, gy, power=2.0, cutoff=10.0,
                        exact=1e-6):
    """The dense IDW kernel: every node of the lattice weighs every sample.

    Same arguments as ``geomap._idw`` (samples in canonical order, ranks
    by id, the lattice's x and y axes), with the parameters spelt out;
    it returns a (gy.size, gx.size) array.  The nodes are meshgridded
    and flattened, each pair's squared distance is ``dx*dx + dy*dy``,
    which decides both radii, each weight is its ``** (-power / 2)`` and
    each sum is numpy's, so the library's kernel must agree with it to
    rounding, and exactly on exact hits.
    """
    qx, qy = (q.ravel() for q in np.meshgrid(gx, gy))
    out = np.full(qx.size, np.nan)
    step = max(1, 65536 // theta.size)
    for q0 in range(0, qx.size, step):
        q1 = min(qx.size, q0 + step)
        dx = qx[q0:q1, None] - xy[:, 0]
        dy = qy[q0:q1, None] - xy[:, 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = dx * dx + dy * dy
            w = np.where(d2 <= cutoff * cutoff, d2 ** (-power / 2), 0.0)
            wsum = w.sum(axis=1)
            np.divide((w * theta).sum(axis=1), wsum, out=out[q0:q1],
                      where=wsum > 0)
        hits = np.flatnonzero((d2 <= exact * exact).any(axis=1))
        if hits.size:
            tied = d2[hits] == d2[hits].min(axis=1, keepdims=True)
            out[q0 + hits] = theta[np.where(tied, rank, rank.size).argmin(axis=1)]
    return out.reshape(gy.size, gx.size)


def export_grid_ascii_reference(grid) -> str:
    """The per-cell ESRI ASCII writer: every numpy scalar is tested and
    formatted on its own.

    ``geomap.export_grid_ascii`` must write the same text.
    """
    lines = [
        f"ncols {grid.nx}",
        f"nrows {grid.ny}",
        f"xllcorner {grid.origin_x:.6f}",
        f"yllcorner {grid.origin_y:.6f}",
        f"cellsize {grid.cell_size_m:.6f}",
        f"NODATA_value {NODATA}",
    ]
    for iy in range(grid.ny - 1, -1, -1):
        row = grid.values[iy]
        lines.append(" ".join(
            f"{v:.6f}" if math.isfinite(v) else str(NODATA) for v in row))
    return "\n".join(lines) + "\n"


def generate_waypoints_reference(field, count, min_spacing_m, seed,
                                 max_trials=REJECTION_TRIAL_LIMIT):
    """The quadratic waypoint generator: every draw is compared with every
    accepted point, and each tour step scans every remaining point.

    ``mission.generate_waypoints`` must return the same waypoints and
    raise the same infeasible-layout ConfigError message (argument checks
    aside), a count above ``max_trials`` refused before the first draw.
    """
    if count > max_trials:
        raise ConfigError(f"count {count} exceeds the {max_trials} draws allowed; "
                          "each draw places at most one point")
    rng = np.random.default_rng(seed)
    spacing_sq = min_spacing_m * min_spacing_m
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise ConfigError(
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


def validate_reference(samples) -> str:
    """What ``validate`` wrote before it copied the lines it read: the
    valid samples, encoded again."""
    return dump_sample_log(select_valid(samples))


def sample_from_dict_reference(d) -> SoilSample:
    """``mission.sample_from_dict`` as one loop over ``_SAMPLE_SCHEMA``,
    a row at a time: the compiled check must build the same samples, and
    refuse the same records with the same errors."""
    if type(d) is not dict:
        raise TypeError("expected a JSON object, got " + mission._JSON_TYPES[type(d)])
    if len(d) != len(mission._SAMPLE_SCHEMA):
        raise mission._field_set_error(d)
    statuses = {status.value: status for status in Validity}
    values = []
    for name, kind, bounds in mission._SAMPLE_SCHEMA:
        try:
            value = d[name]
        except KeyError:
            raise mission._field_set_error(d) from None
        if kind == "int":
            if type(value) is not int:
                raise TypeError(f"{name} must be an integer")
            if bounds and not bounds[0] <= value <= bounds[1]:
                within("log", name, value)  # raises, naming the range
        elif kind == "status":
            if type(value) is not str or value not in statuses:
                raise ValueError(f"status {value!r} is not one of "
                                 + ", ".join(statuses))
            value = statuses[value]
        elif (value is not None or kind == "number") and not (
                type(value) in (int, float) and bounds[0] <= value <= bounds[1]):
            within("log", name, value)  # raises, naming the range
        values.append(value)
    sample = SoilSample(*values)
    if sample.status is Validity.VALID and sample.theta is None:
        raise ValueError("a valid sample needs a theta")
    return sample


def parse_sample_log_reference(lines):
    """``mission.parse_sample_log`` decoding every line that is not blank
    whole, with the decoder that refuses a repeated name, and checking it
    with ``sample_from_dict_reference``."""
    samples, records = [], []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            samples.append(sample_from_dict_reference(mission._DECODER.decode(line)))
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"line {line_no}: {exc}", line_no) from None
        except RecursionError:
            raise LogFormatError(f"line {line_no}: JSON nested too deeply",
                                 line_no) from None
        records.append(line)
    return samples, records


def obstruction_at_reference(spec, x, y):
    """The linear scan: test the point against every disk of the spec."""
    for d in spec.obstructions:
        if (x - d.cx) ** 2 + (y - d.cy) ** 2 <= d.radius_m ** 2:
            return STALL_DEPTH_M
    return None


def theta_true_reference(spec, x, y):
    """The numpy ground truth: 0-d or full arrays under ``np.errstate``,
    clamped by ``np.clip``.

    On scalars ``fieldsim.theta_true`` must give the same bits.  An array
    here squares by multiplying, which can differ from a scalar's ``** 2``
    in the last bit, so an array result of ``theta_true`` is compared with
    this function called point by point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.full(np.broadcast(x, y).shape, spec.base_theta, dtype=float)
    with np.errstate(over="ignore"):
        for b in spec.blobs:
            theta += b.amplitude * np.exp(
                -((x - b.cx) ** 2 + (y - b.cy) ** 2) / (2.0 * b.sigma_m ** 2))
    theta = np.clip(theta, 0.0, THETA_TRUE_MAX)
    return float(theta) if theta.ndim == 0 else theta


# -- SDI-12 parsers, one hand-written scanner per frame kind ------------------
#
# The codec's grammar patterns must accept exactly the frames these accept
# and decode them to equal values.  A value too large for a float is the
# one difference: these let DataResponse raise ValueError on it, where the
# codec raises FrameError.

# unsigned decimal: "150", "24.3", ".5" -- no exponent, no trailing dot
_DECIMAL_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)\Z")


def parse_command_reference(frame: bytes) -> Command:
    """Decode a '!'-terminated command frame.

    Raises FrameError for anything outside the implemented subset.
    """
    frame = bytes(frame)
    if len(frame) < 2:
        raise FrameError(f"command frame too short ({len(frame)} bytes)", position=0)
    if frame[-1:] != COMMAND_TERMINATOR:
        raise FrameError("command frame must end with '!'", position=len(frame) - 1)
    try:
        body = frame[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError("command frame is not ASCII", position=exc.start) from None

    if body == "?":
        return Command(Verb.ADDRESS_QUERY)
    if body[0] not in ADDRESS_CHARS:
        raise FrameError(f"invalid address character {body[0]!r}", position=0)
    if len(body) == 1:
        return Command(Verb.ACKNOWLEDGE, body[0])
    if len(body) == 2 and body[1] == "I":
        return Command(Verb.IDENTIFY, body[0])
    if len(body) == 2 and body[1] == "M":
        return Command(Verb.START_MEASUREMENT, body[0])
    if len(body) == 3 and body[1] == "D" and body[2] in string.digits:
        return Command(Verb.SEND_DATA, body[0], index=int(body[2]))
    raise FrameError(f"unrecognized command body {body!r}", position=1)


def parse_measure_ack_reference(frame: bytes) -> MeasureAck:
    """Decode an "atttn\\r\\n" measurement acknowledge (exactly 7 bytes)."""
    frame = bytes(frame)
    if len(frame) != 7:
        raise FrameError(f"measure ack must be 7 bytes, got {len(frame)}")
    if frame[-2:] != RESPONSE_TERMINATOR:
        raise FrameError("measure ack must end with CR LF", position=5)
    try:
        body = frame[:-2].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError("measure ack is not ASCII", position=exc.start) from None
    if body[0] not in ADDRESS_CHARS:
        raise FrameError(f"invalid address character {body[0]!r}", position=0)
    for i, ch in enumerate(body[1:], start=1):
        if ch not in string.digits:
            raise FrameError(f"non-digit {ch!r} in delay/count field", position=i)
    return MeasureAck(body[0], delay_s=int(body[1:4]), value_count=int(body[4]))


def parse_data_response_reference(frame: bytes) -> DataResponse:
    """Decode a CR-LF-terminated data frame into address plus signed values.

    The payload is split at sign characters; every value must carry an
    explicit '+' or '-' and parse as a plain decimal.
    """
    frame = bytes(frame)
    if len(frame) < 3:
        raise FrameError(f"data frame too short ({len(frame)} bytes)", position=0)
    if frame[-2:] != RESPONSE_TERMINATOR:
        raise FrameError("data frame must end with CR LF", position=len(frame) - 2)
    try:
        body = frame[:-2].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError("data frame is not ASCII", position=exc.start) from None
    if body[0] not in ADDRESS_CHARS:
        raise FrameError(f"invalid address character {body[0]!r}", position=0)

    payload = body[1:]
    if payload and payload[0] not in "+-":
        raise FrameError("first value is missing its sign", position=1)

    values = []
    token_start = None  # index into body of the current token's sign
    for i in range(1, len(body) + 1):
        at_end = i == len(body)
        if at_end or body[i] in "+-":
            if token_start is not None:
                token = body[token_start + 1:i]
                if not _DECIMAL_RE.match(token):
                    raise FrameError(f"malformed value {body[token_start:i]!r}",
                                     position=token_start)
                values.append(float(body[token_start:i]))
            if not at_end:
                token_start = i
    if len(values) > MAX_VALUES_PER_FRAME:
        raise FrameError(f"more than {MAX_VALUES_PER_FRAME} values in one frame",
                         position=1)
    return DataResponse(body[0], tuple(values))


class ParsingTeros:
    """The virtual sensor that parses every frame it receives.

    ``VirtualTeros`` must answer every frame as this one does, draw the
    same random numbers and keep the same trace: it answers from a table
    of replies, where this sensor decodes each frame with
    ``parse_command`` and compares the address.  Its air reading is
    written out here rather than taken from ``sense_raw``.
    """

    def __init__(self, spec, rng, address="0"):
        self.spec = spec
        self.rng = rng
        self.address = address
        self.trace = []
        self._staged = None
        self._x = self._y = 0.0
        self._in_soil = False

    def place(self, x, y, in_soil):
        self._x, self._y, self._in_soil = float(x), float(y), bool(in_soil)

    def exchange(self, frame):
        self.trace.append(bytes(frame))
        try:
            cmd = sdi12.parse_command(frame)
        except FrameError:
            return None
        if cmd.verb is Verb.ADDRESS_QUERY:
            return f"{self.address}\r\n".encode("ascii")
        if cmd.address != self.address:
            return None
        if cmd.verb is Verb.ACKNOWLEDGE:
            return f"{self.address}\r\n".encode("ascii")
        if cmd.verb is Verb.IDENTIFY:
            return f"{self.address}13SIMSOIL TER12 001\r\n".encode("ascii")
        if cmd.verb is Verb.START_MEASUREMENT:
            if self._in_soil:
                raw = sense_raw(self.spec, self._x, self._y, self.rng)
            else:
                raw = AIR_RAW_MEAN
                if self.spec.noise_sigma_raw > 0:
                    raw += self.rng.normal(0.0, self.spec.noise_sigma_raw)
                raw = max(raw, 0.0)
            self._staged = (raw, SOIL_TEMP_C, SOIL_EC_US_CM)
            return encode_measure_ack(MeasureAck(self.address, MEASURE_DELAY_S, 3))
        if cmd.index != 0 or self._staged is None:
            return encode_data_response(DataResponse(self.address, ()))
        values, self._staged = self._staged, None
        return encode_data_response(DataResponse(self.address, values))


def make_field(theta=0.25, blobs=(), obstructions=(), noise=0.0, seed=1234,
               width=20.0, height=20.0):
    return FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=width,
                     height_m=height, base_theta=theta, blobs=tuple(blobs),
                     obstructions=tuple(obstructions),
                     noise_sigma_raw=noise, seed=seed)


def scenario_doc(generate=False) -> dict:
    """A small scenario document that sets every key a scenario can hold:
    one blob, one obstruction, an x/y and a lat/lon waypoint (or, with
    ``generate``, a generator block), and every sampler, actuator and
    calib key."""
    mission = ({"generate": {"count": 3, "min_spacing_m": 1.0, "seed": 2}}
               if generate else
               {"waypoints": [{"id": 1, "x": 2.0, "y": 2.0},
                              {"id": 2, "lat": 45.00003, "lon": 7.50004}]})
    return {
        "name": "small",
        "field": {"origin_lat": 45.0, "origin_lon": 7.5, "width_m": 12.0,
                  "height_m": 12.0, "base_theta": 0.25, "seed": 9,
                  "noise_sigma_raw": 1.0,
                  "blobs": [{"cx": 3.0, "cy": 3.0, "sigma_m": 2.0,
                             "amplitude": 0.1}],
                  "obstructions": [{"cx": 2.0, "cy": 2.0, "radius_m": 0.12}]},
        "mission": {"speed_mps": 0.5, "sensor_address": "0", **mission},
        "sampler": {"target_depth_m": 0.05, "settle_s": 1.0, "max_attempts": 3,
                    "reposition_offset_m": 0.1},
        "actuator": {"steps_per_metre": 20000.0, "max_depth_m": 0.15,
                     "step_rate_hz": 500.0},
        "calib": {"theta_min": 0.0, "theta_max": 0.7, "depth_tol_m": 0.005},
    }


def make_sensor(spec, **kwargs):
    return VirtualTeros(spec, spec.rng(), **kwargs)


def retracted(result, clock, actuator_cfg=ActuatorConfig()) -> bool:
    """Whether ``clock`` ran on past the point's sample by exactly the
    retract of its last attempt, from the depth that attempt reached."""
    steps = round(result.attempts[-1].achieved_depth_m * actuator_cfg.steps_per_metre)
    return clock.now == result.sample.timestamp_s + motion_duration(0, steps, actuator_cfg)


def stock_twin(cls):
    """A frozen dataclass built by ``dataclasses`` alone, with the name,
    fields, defaults and ``__post_init__`` of the record type ``cls``:
    what ``errors.record`` must behave as."""
    namespace = ({"__post_init__": cls.__post_init__}
                 if hasattr(cls, "__post_init__") else {})
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                       for f in dataclasses.fields(cls)],
        namespace=namespace, frozen=True)


def assert_as_constructed(record):
    """``record``, an instance of a record type, is what its public
    constructor builds from the same fields: equal, with the same hash,
    repr and ``vars()`` in field order, through ``dataclasses.replace``
    and a pickle round trip, and frozen.  Its stock twin (``stock_twin``)
    built from the same fields holds the same ``vars()`` in the same
    order, with the same hash and repr."""
    names = [f.name for f in dataclasses.fields(record)]
    public = type(record)(**vars(record))
    assert record == public and hash(record) == hash(public)
    assert repr(record) == repr(public)
    assert list(vars(record)) == list(vars(public)) == names
    assert vars(record) == vars(public)
    twin = stock_twin(type(record))(**vars(record))
    assert list(vars(twin)) == names and vars(twin) == vars(record)
    assert hash(twin) == hash(record) and repr(twin) == repr(record)
    for copy in (dataclasses.replace(record), pickle.loads(pickle.dumps(record))):
        assert copy == public and list(vars(copy)) == names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))


def measure_frames(frames) -> int:
    """How many start-measurement (``aM!``) frames are in ``frames``."""
    return sum(1 for f in frames if f.endswith(b"M!"))


class ScriptedSensor:
    """Replays canned replies in order; None entries model silence."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.trace = []

    def place(self, x, y, in_soil):
        pass

    def exchange(self, frame):
        self.trace.append(bytes(frame))
        return self.replies.pop(0) if self.replies else None


class FlakySensor:
    """Wraps a real sensor and injects bus faults from a seeded rng.

    ``dropped`` counts frames the inner sensor never saw (bus silence);
    garbled exchanges still reach the inner sensor but the reply is
    trashed on the way back.
    """

    def __init__(self, inner, rng: np.random.Generator,
                 p_silent=0.0, p_garbage=0.0):
        self.inner = inner
        self.rng = rng
        self.p_silent = p_silent
        self.p_garbage = p_garbage
        self.dropped_frames: list[bytes] = []

    def place(self, x, y, in_soil):
        self.inner.place(x, y, in_soil)

    def exchange(self, frame):
        roll = self.rng.random()
        if roll < self.p_silent:
            self.dropped_frames.append(bytes(frame))
            return None
        reply = self.inner.exchange(frame)
        if roll < self.p_silent + self.p_garbage:
            return b"\xff\x00!!garbage\r\n"
        return reply

    def dropped_measures(self) -> int:
        return measure_frames(self.dropped_frames)


@pytest.fixture
def flat_field():
    return make_field()


def cmd_validate_reference(args):
    """``validate`` writing ``validate_reference``'s text, for a file path."""
    samples, _ = read_sample_log(args.log)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(validate_reference(samples))


@pytest.fixture
def reference_layers():
    """A context manager that swaps each optimised layer for its kept
    reference, at the attribute its caller looks up.

    Inside it the pipeline runs on the linear obstruction scan, the
    quadratic waypoint generator, the hand-written frame parsers (the
    sensor is ``ParsingTeros``, which parses every command), the numpy
    ground truth, the whole-line log reader, the dense IDW kernel, the
    per-cell ASCII writer and the re-encoding ``validate``.  Every output
    byte must stay the same.
    """
    @contextlib.contextmanager
    def swapped():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fieldsim, "obstruction_at", obstruction_at_reference)
            mp.setattr(fieldsim, "theta_true", theta_true_reference)
            mp.setattr(fieldsim, "VirtualTeros", ParsingTeros)
            mp.setattr(scenario, "generate_waypoints", generate_waypoints_reference)
            mp.setattr(sdi12, "parse_command", parse_command_reference)
            mp.setattr(sdi12, "parse_measure_ack", parse_measure_ack_reference)
            mp.setattr(sdi12, "parse_data_response", parse_data_response_reference)
            mp.setattr(mission, "parse_sample_log", parse_sample_log_reference)
            mp.setattr(geomap, "_idw", idw_dense_reference)
            mp.setattr(geomap, "export_grid_ascii", export_grid_ascii_reference)
            mp.setattr(cli, "cmd_validate", cmd_validate_reference)
            yield
    return swapped
