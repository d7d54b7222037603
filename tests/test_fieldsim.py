"""Synthetic field: ground truth, inverse sensor model, projection,
virtual sensor behaviour."""

import math

import numpy as np
import pytest

from soilprobe import fieldsim, sdi12
from soilprobe.calib import raw_to_vwc
from soilprobe.fieldsim import (AIR_RAW_MEAN, EARTH_RADIUS_M, STALL_DEPTH_M,
                                THETA_TRUE_MAX, Blob, Disk, FieldSpec,
                                SimClock, VirtualTeros, local_to_wgs84,
                                obstruction_at, sense_raw, sense_raw_air,
                                theta_true, wgs84_to_local)

from conftest import (make_field, make_sensor, measure_frames,
                      obstruction_at_reference)

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


NON_FINITE = (math.nan, math.inf, -math.inf)


def rim_queries(disks):
    """Each disk's four axis rim points, a step either side of them, and,
    for radii 5/8 and 5/4, rim points off the axes (3-4-5 triangles),
    all exact in binary."""
    for d in disks:
        r = d.radius_m
        offsets = [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
        if r in (0.625, 1.25):
            offsets += [(sx * r * 0.6, sy * r * 0.8) for sx in (1, -1) for sy in (1, -1)]
        for dx, dy in offsets:
            x, y = d.cx + dx, d.cy + dy
            yield x, y
            yield math.nextafter(x, math.inf), y
            yield math.nextafter(x, -math.inf), y
            yield x, math.nextafter(y, math.inf)
            yield x, math.nextafter(y, -math.inf)


def assert_index_matches_linear_scan(spec, queries):
    for x, y in queries:
        expected = obstruction_at_reference(spec, x, y)
        assert obstruction_at(spec, x, y) == expected, (x, y)
    for x in (*NON_FINITE, 0.5, -3.0):
        for y in (*NON_FINITE, 0.5):
            if not (math.isfinite(x) and math.isfinite(y)):
                assert obstruction_at(spec, x, y) is None, (x, y)
    size, cells, scanned = spec._obstruction_index
    assert sum(map(len, cells.values())) <= (
        fieldsim._MAX_DISK_CELLS * (len(spec.obstructions) - len(scanned)))


def test_obstruction_index_matches_linear_scan_on_cell_edges():
    # more than half the disks have radius 0.5 and the field holds less
    # than 1 m2 per disk, so the cells are 1 m and their edges sit on the
    # integers.  The disks do not overlap; each is centred on an edge, or
    # touches one or two edges with its rim, or lies inside one cell.
    offsets = (0.0, 0.5, 0.25, 0.75)
    disks = [Disk(3 * i + offsets[(i + j) % 4], 3 * j + offsets[(i * j + 1) % 4], 0.5)
             for i in range(-2, 6) for j in range(-2, 6)]
    disks += [Disk(30 + 4 * i + 0.5 * (i % 2), 4 * j - 0.25 * (j % 3), r)
              for i, r in enumerate((0.125, 0.625, 1.25, 1.0)) for j in range(8)]
    big = [Disk(60 + 8 * i, 8.0, 2.5) for i in range(4)] + [Disk(300, 300, 40.0)]
    spec = make_field(width=4.0, height=4.0, obstructions=disks + big)
    size, _, scanned = spec._obstruction_index
    assert size == 1.0 and scanned == big
    rng = np.random.default_rng(11)
    grid = [(i / 16, j / 16) for i in range(-112, 1400, 3) for j in range(-112, 496, 5)]
    random = rng.uniform(-8.0, 100.0, size=(4000, 2)).tolist()
    assert_index_matches_linear_scan(
        spec, [*rim_queries(disks + big), *grid, *random])


def test_obstruction_index_covers_subnormal_squares():
    # radius_m ** 2 = 1e-320 is subnormal, so the test passes points up to
    # about 2e-4 radii beyond the rim; each rim stops 1e-6 radii short of
    # a cell edge, and the points just past the edge must still stall
    r = 1e-160
    size = 2.0 * r
    disks = [Disk(k * size - r * (1 + 1e-6), 0.0, r) for k in range(1, 9)]
    spec = make_field(width=r, height=r, obstructions=disks)
    assert spec._obstruction_index[0] == size
    queries = [(k * size * (1 + j * 1e-6), 0.0) for k in range(1, 9) for j in range(50)]
    assert any(obstruction_at_reference(spec, x, y) for x, y in queries)
    assert_index_matches_linear_scan(spec, queries)


@pytest.mark.parametrize("seed", range(6))
def test_obstruction_index_matches_linear_scan_on_random_specs(seed):
    rng = np.random.default_rng(seed)
    width = float(rng.choice([5.0, 60.5, 1000.0]))
    count = int(rng.choice([1, 7, 300]))
    disks = [Disk(*rng.uniform(-0.1 * width, 1.1 * width, size=2).tolist(),
                  float(10 ** rng.uniform(-2, 0.7)))
             for _ in range(count)]
    spec = make_field(width=width, height=width, obstructions=disks)
    # retry offsets can put queries below 0 and past the far edges
    queries = rng.uniform(-0.2 * width, 1.2 * width, size=(3000, 2)).tolist()
    assert_index_matches_linear_scan(spec, [*rim_queries(disks), *queries])


def test_obstruction_index_without_disks():
    spec = make_field()
    assert_index_matches_linear_scan(spec, [(0.0, 0.0), (-1.0, 3.5), (1e300, 5.0)])


def test_far_and_huge_disks_stay_bounded():
    # the linear scan raises OverflowError on a disk 1e200 m out; the
    # index never lists it near the field, and a squared distance that
    # overflows is a miss
    far = Disk(1e200, 5.0, 0.5)
    huge = Disk(2.0, 2.0, 1e150)
    stone = Disk(5.0, 5.0, 1.0)
    spec = make_field(obstructions=[far, stone])
    assert obstruction_at(spec, 5.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 15.0, 5.0) is None
    assert obstruction_at(spec, 1e200, 5.0) == STALL_DEPTH_M
    spec = make_field(obstructions=[far, stone, huge])
    assert spec._obstruction_index[2] == [huge]
    assert obstruction_at(spec, 15.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 1e300, -1e300) is None


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
        with pytest.raises(ValueError, match="sigma_m is so small"):
            Blob(0, 0, sigma, 0.1)
    for sigma in (1e154, 1e200):  # 2 * sigma_m ** 2 overflows
        with pytest.raises(ValueError, match="sigma_m is so large"):
            Blob(0, 0, sigma, 0.1)
    with pytest.raises(ValueError):
        Disk(0, 0, 0.0)
    for radius in (1e155, 1e200):  # radius_m ** 2 overflows
        with pytest.raises(ValueError, match="radius_m is so large"):
            Disk(0, 0, radius)
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
    # int sides whose int area over the disk count no float can hold make
    # an infinite area, hence one index cell
    vast = make_field(width=10 ** 200, height=10 ** 200,
                      obstructions=[Disk(2.0, 2.0, 1.0)])
    assert obstruction_at(vast, 2.5, 2.0) == obstruction_at_reference(vast, 2.5, 2.0)
    assert obstruction_at(vast, 5.0, 5.0) is None


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
        sdi12.run_transaction(sensor, "0", clock=SimClock())
    assert measure_frames(sensor.trace) == 3
    assert sensor.trace == [b"0M!", b"0D0!"] * 3


@pytest.mark.parametrize("address", ["0", "z", "Q"])
def test_virtual_sensor_replies_match_the_public_encoders(address):
    sensor = make_sensor(make_field(noise=50.0), address=address)
    sensor.place(2.0, 2.0, in_soil=True)
    for _ in range(3):
        ack = sensor.exchange(f"{address}M!".encode())
        assert ack == sdi12.encode_measure_ack(sdi12.MeasureAck(address, 0, 3))
        resp = sdi12.parse_data_response(sensor.exchange(f"{address}D0!".encode()))
        assert len(resp.values) == 3
        assert sensor.trace[-1] == f"{address}D0!".encode()
        # what the sensor sent is what the checking constructor encodes
        public = sdi12.DataResponse(address, resp.values)
        assert sdi12.encode_data_response(resp) == sdi12.encode_data_response(public)
    empty = sensor.exchange(f"{address}D1!".encode())
    assert empty == sdi12.encode_data_response(sdi12.DataResponse(address, ()))


def test_virtual_sensor_refuses_a_non_finite_reading():
    # noise this wide overflows RAW to inf on some draws: the sensor
    # refuses to send it, as DataResponse refuses to hold it
    sensor = make_sensor(make_field(noise=1.7976931348623157e308))
    sensor.place(2.0, 2.0, in_soil=True)
    with pytest.raises(ValueError, match="non-finite value inf"):
        for _ in range(100):
            sensor.exchange(b"0M!")
            sensor.exchange(b"0D0!")
