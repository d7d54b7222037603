"""Surface-aware sampling state machine.

Each waypoint runs one instance of the per-point loop.  Every attempt
lowers the probe, settles, measures, validates and retracts; the loop
stops at the first valid attempt or when no attempts are left, so the
last attempt in a :class:`PointResult` decides the point.

A failed attempt never retries in place (a rock would just stall the
probe again): attempt k probes ``reposition_offset_m`` metres from the
waypoint along compass bearing 90 * (k - 1) degrees from north, so the
retry pattern is deterministic.  The probe is always fully retracted
before the loop returns, valid or not.

Sensor faults (frame garbage, wrong shape, out-of-range values, bus
silence) are recorded as SENSOR_ERROR attempts and consume a retry;
they never abort the mission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import actuator as act
from . import fieldsim
from .calib import (DEFAULT_THRESHOLDS, Validity, ValidityThresholds,
                    classify, raw_to_vwc)
from .errors import FrameError, RangeError, ShapeError, require_finite
from .sdi12 import RawReading, run_transaction

# most attempts SamplerConfig accepts: from attempt 6 on, attempt k probes
# where attempt k - 4 did, so more attempts only retry bus faults
MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class SamplerConfig:
    target_depth_m: float = 0.05
    settle_s: float = 1.0
    max_attempts: int = 3
    reposition_offset_m: float = 0.10

    def __post_init__(self):
        require_finite(self, "target_depth_m", "settle_s", "reposition_offset_m")
        if (type(self.max_attempts) is not int
                or not 1 <= self.max_attempts <= MAX_ATTEMPTS):
            raise ValueError(
                f"max_attempts must be an integer in [1, {MAX_ATTEMPTS}]")
        if self.target_depth_m < 0:
            raise ValueError("target_depth_m must be >= 0")
        if self.settle_s < 0:
            raise ValueError("settle_s must be >= 0")


@dataclass(frozen=True)
class AttemptRecord:
    """One probe insertion: where, how deep, what was read, verdict."""

    attempt_index: int
    x: float
    y: float
    lat: float
    lon: float
    achieved_depth_m: float
    reading: RawReading | None
    theta: float | None
    validity: Validity


@dataclass
class PointResult:
    """Every attempt at one point, in order; the last one decides it."""

    attempts: list[AttemptRecord]
    actuator: act.ActuatorState
    validated_at_s: float  # clock reading when the last attempt validated

    @property
    def final(self) -> Validity:
        return self.attempts[-1].validity


def attempt_offset(attempt_index: int, offset_m: float) -> tuple[float, float]:
    """Local (dx, dy) of attempt k relative to the waypoint.

    Attempt 1 probes the waypoint itself; attempt k >= 2 probes
    ``offset_m`` along bearing 90 * (k - 1) degrees from north.
    """
    if attempt_index <= 1:
        return 0.0, 0.0
    bearing = math.radians(90.0 * (attempt_index - 1))
    return offset_m * math.sin(bearing), offset_m * math.cos(bearing)


def attempt_point(point, sensor, field: fieldsim.FieldSpec, cfg: SamplerConfig, *,
                  actuator_cfg: act.ActuatorConfig = act.ActuatorConfig(),
                  thresholds: ValidityThresholds = DEFAULT_THRESHOLDS,
                  clock: fieldsim.SimClock | None = None,
                  address: str = "0") -> PointResult:
    """Collect one point: probe, validate, and retry until valid or spent.

    ``point`` needs ``x``/``y`` in the field's local frame; ``sensor``
    needs ``exchange()`` and ``place()`` (see fieldsim.VirtualTeros).
    The actuator starts retracted and is retracted again after every
    attempt.  Returns every attempt; the first valid attempt ends the
    loop, so the last attempt's verdict is the point's.
    """
    clock = clock if clock is not None else fieldsim.SimClock()
    attempts: list[AttemptRecord] = []
    validated_at = clock.now

    for k in range(1, cfg.max_attempts + 1):
        dx, dy = attempt_offset(k, cfg.reposition_offset_m)
        x, y = point.x + dx, point.y + dy

        state = act.lower_to(actuator_cfg, cfg.target_depth_m,
                             fieldsim.obstruction_at(field, x, y))
        clock.advance(act.motion_duration(0, state.position_steps, actuator_cfg))
        clock.advance(cfg.settle_s)

        sensor.place(x, y, in_soil=not state.stalled)
        reading: RawReading | None = None
        theta: float | None = None
        try:
            reading = run_transaction(sensor, address, clock=clock)
        except (FrameError, ShapeError, RangeError, TimeoutError):
            validity = Validity.SENSOR_ERROR
        else:
            theta = raw_to_vwc(reading.raw_counts)
            validity = classify(theta, state.depth_m, cfg.target_depth_m,
                                thresholds)
        lat, lon = fieldsim.local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                              x, y)
        attempts.append(AttemptRecord(
            attempt_index=k, x=x, y=y, lat=lat, lon=lon,
            achieved_depth_m=state.depth_m, reading=reading, theta=theta,
            validity=validity))
        validated_at = clock.now

        # retract to position 0
        clock.advance(act.motion_duration(0, state.position_steps, actuator_cfg))

        if validity is Validity.VALID:
            break

    return PointResult(attempts=attempts, actuator=act.RETRACTED,
                       validated_at_s=validated_at)


@dataclass(frozen=True)
class SoilSample:
    """One persisted, geo-referenced, validity-classified measurement."""

    point_id: int
    timestamp_s: float
    lat: float
    lon: float
    target_depth_m: float
    achieved_depth_m: float
    attempts: int
    raw_counts: float | None
    temp_c: float | None
    ec_us_cm: float | None
    theta: float | None
    status: Validity


def finalize_sample(point, result: PointResult, *,
                    target_depth_m: float) -> SoilSample:
    """Build the persistent record for one point from its last attempt.

    Invalid points are kept and flagged, never dropped: downstream
    consumers filter on ``status``.
    """
    if not result.attempts:
        raise ValueError("attempts must be non-empty")
    src = result.attempts[-1]
    r = src.reading
    return SoilSample(
        point_id=point.id,
        timestamp_s=result.validated_at_s,
        lat=src.lat,
        lon=src.lon,
        target_depth_m=target_depth_m,
        achieved_depth_m=src.achieved_depth_m,
        attempts=len(result.attempts),
        raw_counts=r.raw_counts if r is not None else None,
        temp_c=r.temp_c if r is not None else None,
        ec_us_cm=r.ec_us_cm if r is not None else None,
        theta=src.theta,
        status=src.validity,
    )
