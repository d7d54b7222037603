"""Synthetic field: ground truth, inverse sensor model, projection,
virtual sensor behaviour."""

import math

import numpy as np
import pytest

from soilprobe import sdi12
from soilprobe.calib import raw_to_vwc
from soilprobe.fieldsim import (AIR_RAW_MEAN, EARTH_RADIUS_M, STALL_DEPTH_M,
                                THETA_TRUE_MAX, Blob, Disk, FieldSpec,
                                SimClock, VirtualTeros, local_to_wgs84,
                                obstruction_at, sense_raw, sense_raw_air,
                                theta_true, wgs84_to_local)

from conftest import make_field, make_sensor, measure_frames

CROSSOVER_RAW = 0.6956 / 3.879e-4


# -- ground truth -------------------------------------------------------------


def test_theta_true_constant_field():
    spec = make_field(theta=0.20)
    for x, y in [(0, 0), (3.3, 7.7), (20, 20)]:
        assert theta_true(spec, x, y) == 0.20


def test_theta_true_blob_center_and_sigma():
    spec = make_field(theta=0.20, blobs=[Blob(10.0, 10.0, 5.0, 0.15)])
    assert theta_true(spec, 10.0, 10.0) == pytest.approx(0.35, abs=1e-12)
    # at one sigma from the centre: base + amp * exp(-1/2), by hand
    expected = 0.20 + 0.15 * math.exp(-0.5)
    assert theta_true(spec, 15.0, 10.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.29098, abs=5e-6)


def test_theta_true_clamped():
    hot = make_field(theta=0.5, blobs=[Blob(5, 5, 3, 0.5)])
    cold = make_field(theta=0.05, blobs=[Blob(5, 5, 3, -0.5)])
    assert theta_true(hot, 5, 5) == THETA_TRUE_MAX
    assert theta_true(cold, 5, 5) == 0.0


def test_theta_true_vectorized_matches_scalar():
    spec = make_field(theta=0.2, blobs=[Blob(4, 9, 2.5, 0.1), Blob(12, 3, 6, -0.08)])
    xs = np.linspace(0, 20, 7)
    ys = np.linspace(0, 20, 7)
    grid = theta_true(spec, xs[None, :], ys[:, None])
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            assert grid[i, j] == theta_true(spec, x, y)


@pytest.mark.filterwarnings("error")
def test_theta_true_extreme_blobs_print_no_warning():
    far = make_field(theta=0.2, blobs=[Blob(1e308, 5.0, 3.0, 0.1)])
    assert theta_true(far, 5.0, 5.0) == 0.2
    xs = np.linspace(0, 20, 5)
    assert np.all(theta_true(far, xs[None, :], xs[:, None]) == 0.2)
    # 2 * sigma_m ** 2 is subnormal: d**2 / it overflows to inf off centre
    narrow = make_field(theta=0.2, blobs=[Blob(5.0, 5.0, 1e-160, 0.1)])
    assert theta_true(narrow, 5.0, 5.0) == pytest.approx(0.3, abs=1e-12)
    assert theta_true(narrow, 6.0, 5.0) == 0.2


# -- obstructions -------------------------------------------------------------


def test_obstruction_membership():
    spec = make_field(obstructions=[Disk(5.0, 5.0, 1.0)])
    assert obstruction_at(spec, 5.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 9.0, 9.0) is None
    # boundary is inclusive
    assert obstruction_at(spec, 6.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 6.0 + 1e-9, 5.0) is None


# -- inverse sensor model ------------------------------------------------------


def test_sense_raw_inverts_calibration_examples():
    spec = make_field(theta=0.0802)
    assert sense_raw(spec, 1.0, 1.0, spec.rng()) == pytest.approx(2000.0, abs=1e-6)
    spec0 = make_field(theta=0.0)
    assert sense_raw(spec0, 1.0, 1.0, spec0.rng()) == pytest.approx(CROSSOVER_RAW, abs=1e-9)


def test_sense_raw_deterministic_under_seed():
    spec = make_field(theta=0.25, noise=40.0, seed=77)
    a = [sense_raw(spec, 3.0, 4.0, spec.rng()) for _ in range(1)]
    b = [sense_raw(spec, 3.0, 4.0, spec.rng()) for _ in range(1)]
    assert a == b
    rng = spec.rng()
    seq1 = [sense_raw(spec, 3.0, 4.0, rng) for _ in range(5)]
    rng = spec.rng()
    seq2 = [sense_raw(spec, 3.0, 4.0, rng) for _ in range(5)]
    assert seq1 == seq2


def test_zero_noise_recovery_over_random_points():
    spec = make_field(theta=0.22, blobs=[Blob(6, 8, 4, 0.2), Blob(15, 15, 5, -0.15)])
    rng = spec.rng()
    pts = np.random.default_rng(5).uniform(0, 20, size=(1000, 2))
    worst = max(abs(raw_to_vwc(sense_raw(spec, x, y, rng)) - theta_true(spec, x, y))
                for x, y in pts)
    assert worst <= 1e-9


def test_air_reading_mean_and_floor():
    spec = make_field(noise=0.0)
    assert sense_raw_air(spec, spec.rng()) == AIR_RAW_MEAN
    noisy = make_field(noise=500.0, seed=8)
    rng = noisy.rng()
    draws = [sense_raw_air(noisy, rng) for _ in range(500)]
    assert min(draws) >= 0.0


def test_air_soil_separability_100k_draws():
    # sigma 50: the crossover sits ~31.9 sigma above the air mean
    spec = make_field(noise=50.0, seed=12345)
    rng = spec.rng()
    crossings = sum(sense_raw_air(spec, rng) >= CROSSOVER_RAW for _ in range(100_000))
    assert crossings == 0
    assert (CROSSOVER_RAW - AIR_RAW_MEAN) / 50.0 >= 31.0


# -- projection ---------------------------------------------------------------


def test_projection_origin_fixed_point():
    spec = make_field()
    assert local_to_wgs84(spec, 0.0, 0.0) == (spec.origin_lat, spec.origin_lon)


def test_projection_round_trip_within_nanometre():
    spec = make_field()
    rng = np.random.default_rng(31)
    for x, y in rng.uniform(-500.0, 500.0, size=(200, 2)):
        lat, lon = local_to_wgs84(spec, x, y)
        x2, y2 = wgs84_to_local(spec, lat, lon)
        assert abs(x - x2) <= 1e-9 and abs(y - y2) <= 1e-9


def test_projection_one_degree_north():
    spec = make_field()
    y = EARTH_RADIUS_M * math.pi / 180.0
    lat, lon = local_to_wgs84(spec, 0.0, y)
    assert abs(lat - (spec.origin_lat + 1.0)) <= 1e-9
    assert lon == spec.origin_lon


def test_field_spec_validation():
    with pytest.raises(ValueError):
        make_field(width=0)
    with pytest.raises(ValueError):
        make_field(noise=-1)
    with pytest.raises(TypeError):  # seed is mandatory
        FieldSpec(origin_lat=0, origin_lon=0, width_m=1, height_m=1, base_theta=0.2)
    with pytest.raises(ValueError):
        Blob(0, 0, 0.0, 0.1)
    for sigma in (5e-324, 1e-170):  # 2 * sigma_m ** 2 underflows to 0
        with pytest.raises(ValueError, match="sigma_m"):
            Blob(0, 0, sigma, 0.1)
    with pytest.raises(ValueError):
        Disk(0, 0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("theta", "noise", "width", "height"):
            with pytest.raises(ValueError, match="finite"):
                make_field(**{name: bad})
        with pytest.raises(ValueError, match="origin_lat"):
            FieldSpec(origin_lat=bad, origin_lon=0, width_m=1, height_m=1,
                      base_theta=0.2, seed=1)
        for args in ((bad, 0, 1.0, 0.1), (0, bad, 1.0, 0.1),
                     (0, 0, bad, 0.1), (0, 0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                Blob(*args)
        for args in ((bad, 0, 1.0), (0, bad, 1.0), (0, 0, bad)):
            with pytest.raises(ValueError, match="finite"):
                Disk(*args)
    for seed in (-1, 1.0, "7", True, None):
        with pytest.raises(ValueError, match="seed"):
            make_field(seed=seed)


# -- simulated clock -----------------------------------------------------------


def test_sim_clock():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.0)
    assert clock.now == 1.5
    with pytest.raises(ValueError):
        clock.advance(-0.1)


# -- virtual sensor ------------------------------------------------------------


def test_virtual_sensor_protocol_basics():
    sensor = make_sensor(make_field(theta=0.0802))
    assert sensor.exchange(b"?!") == b"0\r\n"
    assert sensor.exchange(b"0!") == b"0\r\n"
    assert sensor.exchange(b"0I!").endswith(b"\r\n")
    assert sensor.exchange(b"1M!") is None          # not our address
    assert sensor.exchange(b"\x00\xff") is None     # garbage: silence
    assert len(sensor.trace) == 5


def test_virtual_sensor_measure_then_read():
    sensor = make_sensor(make_field(theta=0.0802))
    sensor.place(2.0, 2.0, in_soil=True)
    ack = sdi12.parse_measure_ack(sensor.exchange(b"0M!"))
    assert ack.value_count == 3 and ack.delay_s == 0
    resp = sdi12.parse_data_response(sensor.exchange(b"0D0!"))
    reading = sdi12.decode_reading(resp)
    assert reading.raw_counts == pytest.approx(2000.0, abs=1e-5)
    assert reading.temp_c == 24.0 and reading.ec_us_cm == 150.0
    # data was consumed: a second D0 comes back empty
    assert sdi12.parse_data_response(sensor.exchange(b"0D0!")).values == ()


def test_virtual_sensor_air_reading_when_not_in_soil():
    sensor = make_sensor(make_field(theta=0.25))
    sensor.place(2.0, 2.0, in_soil=False)
    sensor.exchange(b"0M!")
    resp = sdi12.parse_data_response(sensor.exchange(b"0D0!"))
    assert resp.values[0] == AIR_RAW_MEAN


def test_virtual_sensor_transaction_counter():
    sensor = make_sensor(make_field())
    sensor.place(1.0, 1.0, in_soil=True)
    for _ in range(3):
        sdi12.run_transaction(sensor, "0")
    assert measure_frames(sensor.trace) == 3
    assert sensor.trace == [b"0M!", b"0D0!"] * 3
