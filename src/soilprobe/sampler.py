"""Surface-aware sampling state machine.

Each waypoint runs one instance of the per-point loop.  Every attempt
lowers the probe, settles, measures, validates and retracts; the loop
stops at the first valid attempt or when no attempts are left, so the
last attempt decides the point.  :func:`attempt_point` returns a
:class:`PointResult`: every attempt, plus the point's one
:class:`SoilSample`, built from that last attempt.

A failed attempt never retries in place (a rock would just stall the
probe again): attempt k probes ``reposition_offset_m`` metres from the
waypoint along compass bearing 90 * (k - 1) degrees from north, so the
retry pattern is deterministic.  The probe is always fully retracted
before the loop returns, valid or not.

A sensor fault, any :class:`~soilprobe.errors.SensorFault` (frame
garbage, wrong shape, out-of-range values, bus silence), is recorded as
a SENSOR_ERROR attempt whose ``fault`` names it, and consumes a retry;
it never aborts the mission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import actuator as act
from .calib import (DEFAULT_THRESHOLDS, Validity, ValidityThresholds,
                    classify, raw_to_vwc)
from .errors import ConfigError, SensorFault, require_finite
from .sdi12 import RawReading, run_transaction

if TYPE_CHECKING:  # numpy loads with fieldsim, imported by the functions that use it
    from . import fieldsim

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
            raise ConfigError(
                f"max_attempts must be an integer in [1, {MAX_ATTEMPTS}]")
        if self.target_depth_m < 0:
            raise ConfigError("target_depth_m must be >= 0")
        if self.settle_s < 0:
            raise ConfigError("settle_s must be >= 0")


@dataclass(frozen=True)
class AttemptRecord:
    """One probe insertion: where, how deep, what was read, verdict.

    ``fault`` is ``"<class name>: <message>"`` of the SensorFault that
    made a SENSOR_ERROR attempt, and None on every other attempt.
    """

    attempt_index: int
    x: float
    y: float
    achieved_depth_m: float
    reading: RawReading | None
    theta: float | None
    validity: Validity
    fault: str | None = None


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


@dataclass
class PointResult:
    """Every attempt at one point, in order, and the sample the last one decided."""

    attempts: list[AttemptRecord]
    sample: SoilSample


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
                  clock: fieldsim.SimClock,
                  actuator_cfg: act.ActuatorConfig = act.ActuatorConfig(),
                  thresholds: ValidityThresholds = DEFAULT_THRESHOLDS,
                  address: str = "0") -> PointResult:
    """Collect one point: probe, validate, and retry until valid or spent.

    ``point`` needs ``id`` and ``x``/``y`` in the field's local frame;
    ``sensor`` needs ``exchange()`` and ``place()`` (see
    fieldsim.VirtualTeros).  Every attempt advances ``clock`` through
    lower, settle, measure and retract, so the probe is back at position
    0 when this returns.  The first valid attempt ends the loop, and the
    last attempt becomes the point's sample: stamped when it validated,
    before its retract, and kept even when invalid, since downstream
    consumers filter on ``status``.
    """
    from . import fieldsim
    attempts: list[AttemptRecord] = []

    for k in range(1, cfg.max_attempts + 1):
        dx, dy = attempt_offset(k, cfg.reposition_offset_m)
        x, y = point.x + dx, point.y + dy

        state = act.lower_to(actuator_cfg, cfg.target_depth_m,
                             fieldsim.obstruction_at(field, x, y))
        # the retract below travels the same steps back to position 0
        travel_s = act.motion_duration(0, state.position_steps, actuator_cfg)
        clock.advance(travel_s)
        clock.advance(cfg.settle_s)

        sensor.place(x, y, in_soil=not state.stalled)
        reading: RawReading | None = None
        theta: float | None = None
        fault: str | None = None
        try:
            reading = run_transaction(sensor, address, clock=clock)
        except SensorFault as exc:
            validity = Validity.SENSOR_ERROR
            fault = f"{type(exc).__name__}: {exc}"
        else:
            theta = raw_to_vwc(reading.raw_counts)
            validity = classify(theta, state.depth_m, cfg.target_depth_m,
                                thresholds)
        # no record type has a __post_init__, so each value goes straight
        # into the new record's __dict__, in field order, as in
        # mission.sample_from_dict: this skips the frozen __init__'s
        # object.__setattr__ calls, most of its cost
        record = object.__new__(AttemptRecord)
        fields = vars(record)
        fields["attempt_index"] = k
        fields["x"] = x
        fields["y"] = y
        fields["achieved_depth_m"] = state.depth_m
        fields["reading"] = reading
        fields["theta"] = theta
        fields["validity"] = validity
        fields["fault"] = fault
        attempts.append(record)
        validated_at = clock.now

        # retract to position 0
        clock.advance(travel_s)

        if validity is Validity.VALID:
            break

    # SamplerConfig keeps max_attempts >= 1, so the loop's names hold the last attempt
    lat, lon = fieldsim.local_to_wgs84_at(field.origin_lat, field.origin_lon, x, y)
    sample = object.__new__(SoilSample)
    fields = vars(sample)  # filled in field order: the log dumps it as is
    fields["point_id"] = point.id
    fields["timestamp_s"] = validated_at
    fields["lat"] = lat
    fields["lon"] = lon
    fields["target_depth_m"] = cfg.target_depth_m
    fields["achieved_depth_m"] = state.depth_m
    fields["attempts"] = len(attempts)
    fields["raw_counts"] = reading.raw_counts if reading is not None else None
    fields["temp_c"] = reading.temp_c if reading is not None else None
    fields["ec_us_cm"] = reading.ec_us_cm if reading is not None else None
    fields["theta"] = theta
    fields["status"] = validity
    return PointResult(attempts=attempts, sample=sample)
