"""State-machine tests: retry geometry, fault handling, safety."""

import numpy as np
import pytest

from soilprobe.calib import Validity
from soilprobe.fieldsim import Disk, SimClock, local_to_wgs84_at
from soilprobe.mission import Waypoint
from soilprobe.sampler import (MAX_ATTEMPTS, SamplerConfig, attempt_offset,
                               attempt_point)

from conftest import (FlakySensor, ScriptedSensor, assert_as_constructed,
                      make_field, make_sensor, measure_frames, retracted)

CFG = SamplerConfig()


def run_point(field, wp=Waypoint(1, 10.0, 10.0), sensor=None, cfg=CFG, **kwargs):
    sensor = sensor if sensor is not None else make_sensor(field)
    kwargs.setdefault("clock", SimClock())
    return attempt_point(wp, sensor, field, cfg, **kwargs), sensor


def test_attempt_offsets_walk_the_compass():
    assert attempt_offset(1, 0.1) == (0.0, 0.0)
    dx, dy = attempt_offset(2, 0.1)   # bearing 90: due east
    assert dx == pytest.approx(0.1) and dy == pytest.approx(0.0, abs=1e-12)
    dx, dy = attempt_offset(3, 0.1)   # bearing 180: due south
    assert dx == pytest.approx(0.0, abs=1e-12) and dy == pytest.approx(-0.1)
    dx, dy = attempt_offset(4, 0.1)   # bearing 270: due west
    assert dx == pytest.approx(-0.1) and dy == pytest.approx(0.0, abs=1e-12)


def test_clean_point_takes_one_attempt():
    clock = SimClock()
    result, sensor = run_point(make_field(theta=0.25), clock=clock)
    assert len(result.attempts) == 1
    assert result.sample.status is Validity.VALID
    a = result.attempts[0]
    assert a.validity is Validity.VALID
    assert a.theta == pytest.approx(0.25, abs=1e-9)
    assert a.achieved_depth_m == 0.05
    assert (a.x, a.y) == (10.0, 10.0)
    assert retracted(result, clock)
    assert measure_frames(sensor.trace) == 1


def test_fully_obstructed_point_exhausts_attempts():
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)])
    clock = SimClock()
    result, sensor = run_point(field, clock=clock)
    assert len(result.attempts) == CFG.max_attempts
    assert result.sample.status is Validity.NOT_PENETRATED
    for a in result.attempts:
        assert a.validity is Validity.NOT_PENETRATED
        assert a.achieved_depth_m == pytest.approx(0.01)
        assert a.theta < 0  # air reading
    assert retracted(result, clock)
    assert measure_frames(sensor.trace) == CFG.max_attempts


def test_obstruction_at_first_attempt_only():
    # disk contains the waypoint but not the +0.10 m east retry position
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)])
    result, _ = run_point(field)
    assert len(result.attempts) == 2
    assert result.sample.status is Validity.VALID
    first, second = result.attempts
    assert first.validity is Validity.NOT_PENETRATED
    assert second.validity is Validity.VALID
    assert second.x == pytest.approx(10.10)
    assert second.y == pytest.approx(10.0)


def test_silent_sensor_records_sensor_errors():
    clock = SimClock()
    result, _ = run_point(make_field(), sensor=ScriptedSensor([]), clock=clock)
    assert len(result.attempts) == CFG.max_attempts
    assert result.sample.status is Validity.SENSOR_ERROR
    for a in result.attempts:
        assert a.validity is Validity.SENSOR_ERROR
        assert a.reading is None and a.theta is None
    assert retracted(result, clock)


GOOD_REPLIES = [b"00003\r\n", b"0+2000+24+150\r\n"]


@pytest.mark.parametrize("replies,fault", [
    ([b"garbage"], "FrameError: measure ack: unexpected b'a'"),
    ([b"00002\r\n", b"0+2000+24\r\n"],
     "ShapeError: expected 3 values (RAW, temp, EC), got 2"),
    ([b"00003\r\n", b"0+2000+99+150\r\n"],
     "RangeError: temp_c must be within [-40, 60] C, got 99.0"),
], ids=["frame", "shape", "range"])
def test_each_sensor_fault_is_named_on_its_attempt(replies, fault):
    result, _ = run_point(make_field(), sensor=ScriptedSensor(replies + GOOD_REPLIES))
    bad, good = result.attempts
    assert (bad.validity, bad.fault) == (Validity.SENSOR_ERROR, fault)
    assert (good.validity, good.fault) == (Validity.VALID, None)


def test_silence_is_named_on_every_attempt():
    field = make_field()
    sensor = FlakySensor(make_sensor(field), np.random.default_rng(0), p_silent=1.0)
    result, _ = run_point(field, sensor=sensor)
    assert [(a.validity, a.fault) for a in result.attempts] == [
        (Validity.SENSOR_ERROR,
         "SilenceError: sensor '0' silent on measure command for 1.0 s")] * CFG.max_attempts
    # a stalled attempt is flagged, but no sensor fault
    stony = make_field(obstructions=[Disk(10.0, 10.0, 0.05)])
    first, second = run_point(stony)[0].attempts
    assert (first.validity, first.fault) == (Validity.NOT_PENETRATED, None)
    assert second.fault is None


def test_reply_value_too_large_for_a_float_is_a_sensor_error():
    overflow = b"0+1" + b"0" * 400 + b"\r\n"
    result, _ = run_point(make_field(), sensor=ScriptedSensor(
        [b"00003\r\n", overflow] + [b"00003\r\n", b"0+2000+24+150\r\n"]))
    assert [a.validity for a in result.attempts] == [Validity.SENSOR_ERROR,
                                                     Validity.VALID]


def test_reading_absent_iff_sensor_error():
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)])
    for sensor in (None, ScriptedSensor([]),):
        result, _ = run_point(field, sensor=sensor)
        for a in result.attempts:
            assert (a.reading is None) == (a.validity is Validity.SENSOR_ERROR)


def test_recovers_after_one_bad_exchange():
    field = make_field(theta=0.25)
    inner = make_sensor(field)

    class OneShotFault:
        def __init__(self):
            self.fired = False

        def place(self, x, y, in_soil):
            inner.place(x, y, in_soil)

        def exchange(self, frame):
            if not self.fired:
                self.fired = True
                return b"////notaframe"
            return inner.exchange(frame)

    result, _ = run_point(field, sensor=OneShotFault())
    assert [a.validity for a in result.attempts] == [Validity.SENSOR_ERROR,
                                                     Validity.VALID]
    assert result.sample.status is Validity.VALID


def test_max_attempts_is_bounded():
    assert SamplerConfig(max_attempts=MAX_ATTEMPTS).max_attempts == MAX_ATTEMPTS
    for bad in (0, MAX_ATTEMPTS + 1, 10 ** 19):
        with pytest.raises(ValueError, match="max_attempts"):
            SamplerConfig(max_attempts=bad)


def test_clock_accounting_single_attempt():
    clock = SimClock()
    result, _ = run_point(make_field(theta=0.25), clock=clock)
    # lower 1000 steps at 500 Hz = 2 s, settle 1 s -> validated at 3 s
    assert result.sample.timestamp_s == pytest.approx(3.0)
    # plus the final retract (2 s)
    assert clock.now == pytest.approx(5.0)


def test_clock_accounting_retry_after_stall():
    # attempt 1 stalls at 200 steps: lower 0.4 s, settle 1 s, retract 0.4 s;
    # attempt 2 east of the disk: lower 2 s, settle 1 s -> validated at 4.8 s
    clock = SimClock()
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)])
    result, _ = run_point(field, clock=clock)
    assert [a.validity for a in result.attempts] == [Validity.NOT_PENETRATED,
                                                     Validity.VALID]
    assert result.sample.timestamp_s == pytest.approx(4.8)
    # plus the final full retract (2 s)
    assert clock.now == pytest.approx(6.8)


def test_clock_accounting_fully_obstructed():
    # three stalled attempts of 1.8 s each; the last validates before
    # its 0.4 s retract
    clock = SimClock()
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)])
    result, _ = run_point(field, clock=clock)
    assert len(result.attempts) == CFG.max_attempts
    assert result.sample.timestamp_s == pytest.approx(5.0)
    assert clock.now == pytest.approx(5.4)


def test_attempt_bound_and_early_exit():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_disks = rng.integers(0, 3)
        disks = [Disk(10.0 + rng.uniform(-0.15, 0.15),
                      10.0 + rng.uniform(-0.15, 0.15),
                      rng.uniform(0.02, 0.3)) for _ in range(n_disks)]
        field = make_field(theta=0.25, obstructions=disks,
                           seed=int(rng.integers(1 << 30)))
        result, _ = run_point(field)
        n = len(result.attempts)
        assert 1 <= n <= CFG.max_attempts
        if n < CFG.max_attempts:
            assert result.attempts[-1].validity is Validity.VALID
        # the loop stops at the first valid attempt, so the last decides
        assert all(a.validity is not Validity.VALID
                   for a in result.attempts[:-1])
        assert result.sample.status is result.attempts[-1].validity
        for k, a in enumerate(result.attempts, start=1):
            assert a.attempt_index == k


def test_safety_property_with_fault_injection():
    rng = np.random.default_rng(99)
    for _ in range(100):
        disks = [Disk(rng.uniform(8, 12), rng.uniform(8, 12), rng.uniform(0.02, 0.5))
                 for _ in range(rng.integers(0, 4))]
        field = make_field(theta=0.30, obstructions=disks, noise=20.0,
                           seed=int(rng.integers(1 << 30)))
        sensor = FlakySensor(make_sensor(field), rng,
                             p_silent=0.15, p_garbage=0.15)
        clock = SimClock()
        result = attempt_point(Waypoint(1, 10.0, 10.0), sensor, field, CFG,
                               clock=clock)
        assert retracted(result, clock)
        assert 1 <= len(result.attempts) <= CFG.max_attempts


def test_transaction_counts_match_attempts_when_bus_is_clean():
    scenarios = [
        make_field(theta=0.25),
        make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)]),
        make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)]),
    ]
    for field in scenarios:
        result, sensor = run_point(field)
        assert measure_frames(sensor.trace) == len(result.attempts)


def test_transaction_accounting_against_trace_with_drops():
    # every attempt issues exactly one measure frame; with a lossy bus,
    # the frames the sensor saw plus the frames the bus ate add back up
    rng = np.random.default_rng(5150)
    for _ in range(60):
        field = make_field(
            theta=0.28, seed=int(rng.integers(1 << 30)),
            obstructions=[Disk(10, 10, 0.05)] if rng.random() < 0.5 else [])
        inner = make_sensor(field)
        flaky = FlakySensor(inner, rng, p_silent=0.25)
        result, _ = run_point(field, sensor=flaky)
        assert measure_frames(inner.trace) + flaky.dropped_measures() \
            == len(result.attempts)


def test_deterministic_with_same_seed():
    def once():
        field = make_field(theta=0.25, noise=30.0, seed=31337,
                           obstructions=[Disk(10.0, 10.0, 0.05)])
        result, _ = run_point(field)
        return [(a.attempt_index, a.x, a.y, a.theta, a.validity)
                for a in result.attempts]
    assert once() == once()


# -- the point's sample ----------------------------------------------------------


def test_sample_comes_from_the_first_valid_attempt():
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)])
    result, _ = run_point(field, wp=Waypoint(7, 10.0, 10.0))
    s, last = result.sample, result.attempts[-1]
    assert s.point_id == 7
    assert s.status is last.validity is Validity.VALID
    assert s.attempts == 2
    assert s.theta == last.theta
    assert (s.raw_counts, s.temp_c, s.ec_us_cm) == (
        last.reading.raw_counts, last.reading.temp_c, last.reading.ec_us_cm)
    assert s.target_depth_m == CFG.target_depth_m
    assert s.achieved_depth_m == last.achieved_depth_m == 0.05
    # geo-referenced where the deciding attempt probed, not at the waypoint
    assert (s.lat, s.lon) == local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                               last.x, last.y)
    assert (s.lat, s.lon) != local_to_wgs84_at(field.origin_lat, field.origin_lon,
                                               10.0, 10.0)


def test_sample_of_a_spent_point_comes_from_its_last_attempt():
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)])
    clock = SimClock()
    result, _ = run_point(field, wp=Waypoint(9, 10.0, 10.0), clock=clock)
    s, last = result.sample, result.attempts[-1]
    assert s.point_id == 9
    assert s.status is Validity.NOT_PENETRATED
    assert s.attempts == 3
    assert s.theta == last.theta < 0
    assert s.achieved_depth_m == last.achieved_depth_m == pytest.approx(0.01)
    # stamped when the last attempt validated, before its retract
    assert s.timestamp_s == pytest.approx(5.0)
    assert retracted(result, clock)


def test_sensor_error_sample_has_null_reading_fields():
    # attempt 1 reads air on the stone; attempts 2 and 3 meet a silent bus
    field = make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)])
    result, _ = run_point(field, sensor=ScriptedSensor(
        [b"00003\r\n", b"0+2000+24+150\r\n"]))
    assert [a.validity for a in result.attempts] == [Validity.NOT_PENETRATED,
                                                     Validity.SENSOR_ERROR,
                                                     Validity.SENSOR_ERROR]
    s = result.sample
    assert s.status is Validity.SENSOR_ERROR and s.attempts == 3
    assert s.raw_counts is None and s.temp_c is None and s.ec_us_cm is None
    assert s.theta is None


def test_records_are_what_their_constructors_build():
    # a stall then a valid retry, a point spent on a stone, and bus
    # faults: every kind of attempt record and sample attempt_point fills
    results = [
        run_point(make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.05)]))[0],
        run_point(make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)]))[0],
        run_point(make_field(theta=0.25, obstructions=[Disk(10.0, 10.0, 0.5)]),
                  sensor=ScriptedSensor([b"00003\r\n", b"0+2000+24+150\r\n"]))[0],
    ]
    kinds = set()
    for result in results:
        for record in [*result.attempts, result.sample]:
            assert_as_constructed(record)
        kinds.update(a.validity for a in result.attempts)
    assert kinds == set(Validity)
    assert results[2].attempts[-1].fault.startswith("SilenceError: ")
