"""Deterministic synthetic test field.

Ground-truth volumetric water content is a flat base plus a sum of
Gaussian blobs, clamped to [0, 0.60] m3/m3 -- smooth, cheap, and
analytically known, so interpolation error can be measured against it.
Obstruction disks mark spots where the probe cannot penetrate and
stalls at a fixed shallow depth.  The inverse sensor model maps
ground-truth moisture back to RAW counts (plus seeded Gaussian noise),
and :class:`VirtualTeros` speaks the SDI-12 wire subset so the whole
stack runs against it with no hardware.

All randomness flows through one seeded ``numpy.random.Generator``
owned by the caller; identical seeds reproduce identical behaviour.
"""

from __future__ import annotations

import math

import numpy as np

from . import calib, sdi12
from .errors import ConfigError, record, require_seed

THETA_TRUE_MAX = 0.60    # m3/m3 cap on the synthetic ground truth
STALL_DEPTH_M = 0.01     # where the probe stops on any obstruction
AIR_RAW_MEAN = 200.0     # RAW counts of a probe left in air
SOIL_TEMP_C = 24.0       # passthrough constants: thermal and EC fields
SOIL_EC_US_CM = 150.0    # are not modelled
MEASURE_DELAY_S = 0      # seconds the sensor acknowledges on aM!
EARTH_RADIUS_M = 6_371_000.0


@record(ranges="field.blobs")
class Blob:
    """One Gaussian moisture anomaly; amplitude may be negative (dry spot)."""

    cx: float
    cy: float
    sigma_m: float
    amplitude: float


@record(ranges="field.obstructions")
class Disk:
    """One obstruction disk; boundary points count as inside."""

    cx: float
    cy: float
    radius_m: float


@record(ranges="field")
class FieldSpec:
    """Everything the simulated field needs; ``seed`` is mandatory."""

    origin_lat: float
    origin_lon: float
    width_m: float
    height_m: float
    base_theta: float
    seed: int
    blobs: tuple[Blob, ...] = ()
    obstructions: tuple[Disk, ...] = ()
    noise_sigma_raw: float = 0.0

    def __post_init__(self):
        require_seed(self.seed)
        object.__setattr__(self, "blobs", tuple(self.blobs))
        object.__setattr__(self, "obstructions", tuple(self.obstructions))
        object.__setattr__(self, "_obstruction_index", _index_disks(
            self.obstructions, self.width_m * self.height_m))

    def rng(self) -> np.random.Generator:
        """Fresh generator for one mission execution."""
        return np.random.default_rng(self.seed)


def theta_true(spec: FieldSpec, x, y):
    """Ground-truth VWC at local metres (x, y); scalar or array input.

    base + sum_i a_i * exp(-((x-cx_i)^2 + (y-cy_i)^2) / (2 sigma_i^2)),
    clamped to [0, THETA_TRUE_MAX].

    There is one formula, on Python floats, which the virtual sensor
    calls once per reading.  Arrays are broadcast and mapped through it
    point by point, so a point has the same bits whichever way it is
    asked for; a 0-d array gives a float.  The squares are ``** 2``,
    which calls C ``pow``: ``x * x`` (and numpy's array ``** 2``, which
    multiplies) differs from it in the last bit on some inputs.  The
    exponential stays ``np.exp``, whose bits ``math.exp`` does not
    always match.  Blob centres lie within 1e6 m of the origin, so no
    square overflows for a query on or near the field.
    """
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return _theta_at(spec, float(x), float(y))
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    theta = np.fromiter(
        (_theta_at(spec, a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())),
        dtype=float, count=x.size).reshape(x.shape)
    return float(theta) if theta.ndim == 0 else theta


def _theta_at(spec: FieldSpec, x: float, y: float) -> float:
    theta = float(spec.base_theta)
    for b in spec.blobs:
        d2 = (x - b.cx) ** 2 + (y - b.cy) ** 2
        theta += b.amplitude * float(np.exp(-d2 / (2.0 * b.sigma_m ** 2)))
    # max and min keep -0.0 and NaN as np.clip does
    return float(min(max(theta, 0.0), THETA_TRUE_MAX))


# -- Cell index ----------------------------------------------------------------
#
# CellIndex is a uniform grid over the plane that answers "which items
# can be within reach of this point?" for the obstruction disks and for
# the waypoint generator's accepted points.  Each item is listed in
# every cell that its square of side 2 * reach, grown by a rounding pad,
# overlaps, so a query reads only its own cell.  An item that would
# cover more than MAX_CELLS cells goes on a list every query reads
# instead, which bounds the index at MAX_CELLS entries per item.  A cell
# is floor(coordinate / size), which is monotone, so a point inside an
# item's square always falls in one of the cells the square was listed
# in; every coordinate and size the program indexes is finite and in
# range, so every quotient is finite.


class CellIndex:
    """Items by grid cell of side ``size`` (> 0), for neighbour queries.

    After ``add(item, cx, cy, reach)``, ``near(x, y)`` holds ``item``
    whenever the rounded test ``(x - cx) ** 2 + (y - cy) ** 2 <= reach
    ** 2`` passes; it may hold farther items too.
    """

    MAX_CELLS = 16

    def __init__(self, size: float):
        self.size = size
        self.cells: dict[tuple[int, int], list] = {}
        self.scanned: list = []  # items every query reads

    def add(self, item, cx: float, cy: float, reach: float):
        # the rounded test passes no point further than this from (cx, cy)
        # along either axis; the absolute term covers subnormal squares,
        # which pass points up to 5e-162 beyond reach
        reach = reach * (1.0 + 1e-9) + 1e-160
        size = self.size
        i0, i1 = math.floor((cx - reach) / size), math.floor((cx + reach) / size)
        j0, j1 = math.floor((cy - reach) / size), math.floor((cy + reach) / size)
        if (i1 - i0 + 1) * (j1 - j0 + 1) > self.MAX_CELLS:
            self.scanned.append(item)
            return
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self.cells.setdefault((i, j), []).append(item)

    def near(self, x: float, y: float) -> list:
        """The items listed in the cell of (x, y), then the scanned ones."""
        items = self.cells.get((math.floor(x / self.size),
                                math.floor(y / self.size)), [])
        return items + self.scanned if self.scanned else items


def _index_disks(disks: tuple[Disk, ...], area_m2: float) -> CellIndex:
    """The disks in a CellIndex, each within its radius.

    The cell is the larger of the field's area per disk and the median
    disk diameter, so at least half the disks cover at most 3 x 3 cells.
    """
    if not disks:
        return CellIndex(1.0)
    radii = sorted(d.radius_m for d in disks)
    index = CellIndex(max(math.sqrt(area_m2 / len(disks)),
                          2.0 * radii[len(radii) // 2]))
    for d in disks:
        index.add(d, d.cx, d.cy, d.radius_m)
    return index


def obstruction_at(spec: FieldSpec, x: float, y: float) -> float | None:
    """Depth at which the probe stalls at (x, y), or None for clear soil.

    A point is obstructed when ``(x - cx) ** 2 + (y - cy) ** 2 <=
    radius_m ** 2`` for some disk.  Only the disks the spec's obstruction
    index holds near the query are tested, which gives the same answer as
    testing every disk.  The query is a probe position: finite, and on or
    near the field.
    """
    for d in spec._obstruction_index.near(x, y):
        if (x - d.cx) ** 2 + (y - d.cy) ** 2 <= d.radius_m ** 2:
            return STALL_DEPTH_M
    return None


def sense_raw(spec: FieldSpec, x: float, y: float, rng: np.random.Generator,
              in_soil: bool = True) -> float:
    """RAW counts for the probe at (x, y), fully inserted or, when not
    ``in_soil``, left in air.

    In soil, the inverse of the linear calibration of the ground truth;
    in air, AIR_RAW_MEAN, far below the theta=0 crossover near RAW 1793,
    so default thresholds always flag it.  Either gets Normal(0,
    noise_sigma_raw) noise when configured, and is clamped at 0.
    Zero-noise fields consume no random draws, so the recovery is exact.
    """
    raw = calib.vwc_to_raw(theta_true(spec, x, y)) if in_soil else AIR_RAW_MEAN
    if spec.noise_sigma_raw > 0:
        raw += rng.normal(0.0, spec.noise_sigma_raw)
    return max(raw, 0.0)


# -- Geo-referencing ---------------------------------------------------------
#
# Equirectangular projection about the field origin.


def local_to_wgs84_at(origin_lat: float, origin_lon: float,
                      x: float, y: float) -> tuple[float, float]:
    lat = origin_lat + math.degrees(y / EARTH_RADIUS_M)
    lon = origin_lon + math.degrees(
        x / (EARTH_RADIUS_M * math.cos(math.radians(origin_lat))))
    return lat, lon


def wgs84_to_local_at(origin_lat: float, origin_lon: float,
                      lat: float, lon: float) -> tuple[float, float]:
    y = math.radians(lat - origin_lat) * EARTH_RADIUS_M
    x = math.radians(lon - origin_lon) * EARTH_RADIUS_M * math.cos(
        math.radians(origin_lat))
    return x, y


# -- Simulated time ----------------------------------------------------------


class SimClock:
    """Monotonic simulated time in seconds; nothing ever sleeps."""

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def advance(self, seconds: float):
        if seconds < 0:
            raise ConfigError("cannot advance the clock backwards")
        self.now += seconds


# -- Virtual sensor ----------------------------------------------------------


class VirtualTeros:
    """SDI-12 endpoint backed by the synthetic field.

    When built, the sensor tables the reply to each of the frames it
    answers, each frame encoded by :func:`sdi12.encode_command`: ``?!``
    and, for its own address ``a``, ``a!``, ``aI!`` and ``aD0!`` to
    ``aD9!``, the last ten with an empty data frame.  A bad address
    raises ConfigError then.  Two frames carry state: ``aM!`` takes a
    RAW reading and stages it, and the next ``aD0!`` returns and clears
    it.  Temperature and EC are constants, so the tail of that data
    frame, ``+24+150\r\n``, is encoded once, by
    :func:`sdi12.encode_data_response`, when the sensor is built; each
    reply is the address, the reading through :func:`sdi12.format_value`,
    and that tail.  A reading with no wire text, an infinity or NaN,
    raises format_value's ConfigError.  Every other frame, garbage or
    another sensor's, gets silence.

    The sampler positions the probe before each measurement via
    :meth:`place`; a probe that is not in soil returns air readings.
    Every bytes-like frame the sensor receives, answered or not, is
    appended to ``trace`` in arrival order, so a caller can audit
    exactly which commands were issued (a start-measurement frame ends
    in ``M!``).
    """

    def __init__(self, spec: FieldSpec, rng: np.random.Generator,
                 address: str = "0"):
        Verb, Command = sdi12.Verb, sdi12.Command
        query, acknowledge, identify, self._measure, *data = [
            sdi12.encode_command(cmd) for cmd in (
                Command(Verb.ADDRESS_QUERY), Command(Verb.ACKNOWLEDGE, address),
                Command(Verb.IDENTIFY, address),
                Command(Verb.START_MEASUREMENT, address),
                *(Command(Verb.SEND_DATA, address, index=i) for i in range(10)))]
        self._data0 = data[0]
        self._replies = dict.fromkeys(
            data, sdi12.encode_data_response(sdi12.DataResponse(address, ())))
        # what follows RAW in every data frame: "+24+150\r\n" after the address
        self._data_tail = sdi12.encode_data_response(sdi12.DataResponse(
            address, (SOIL_TEMP_C, SOIL_EC_US_CM)))[len(address):]
        self._replies[query] = self._replies[acknowledge] = (
            f"{address}\r\n".encode("ascii"))
        self._replies[identify] = f"{address}13SIMSOIL TER12 001\r\n".encode("ascii")
        # the reply to aM!: RAW, temperature and EC after MEASURE_DELAY_S
        self._measure_ack = sdi12.encode_measure_ack(
            sdi12.MeasureAck(address, MEASURE_DELAY_S, 3))
        self.spec = spec
        self.rng = rng
        self.address = address
        self.trace: list[bytes] = []
        self._staged: float | None = None  # RAW counts awaiting aD0!
        self._x = 0.0
        self._y = 0.0
        self._in_soil = False

    def place(self, x: float, y: float, in_soil: bool):
        self._x = float(x)
        self._y = float(y)
        self._in_soil = bool(in_soil)

    def exchange(self, frame: bytes) -> bytes | None:
        """Answer one command frame; None models bus silence."""
        frame = sdi12.frame_bytes(frame)
        self.trace.append(frame)
        if frame == self._measure:
            self._staged = sense_raw(self.spec, self._x, self._y, self.rng,
                                     self._in_soil)
            return self._measure_ack
        if frame == self._data0 and self._staged is not None:
            raw, self._staged = self._staged, None
            return ((self.address + sdi12.format_value(raw)).encode("ascii")
                    + self._data_tail)
        # a frame not in the table, garbage or another sensor's, gets
        # None: a real sensor stays quiet
        return self._replies.get(frame)
