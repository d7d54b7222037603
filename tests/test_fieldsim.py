"""Synthetic field: ground truth, inverse sensor model, projection,
virtual sensor behaviour."""

import decimal
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from soilprobe import fieldsim, sampler, sdi12
from soilprobe.calib import raw_to_vwc
from soilprobe.errors import ConfigError
from soilprobe.fieldsim import (AIR_RAW_MEAN, EARTH_RADIUS_M, STALL_DEPTH_M,
                                THETA_TRUE_MAX, Blob, Disk, FieldSpec,
                                CellIndex, SimClock, VirtualTeros,
                                local_to_wgs84_at, obstruction_at, sense_raw,
                                theta_true, wgs84_to_local_at)

from soilprobe.mission import generate_waypoints, run_mission
from soilprobe.scenario import load_scenario

from conftest import (make_field, make_sensor, measure_frames,
                      obstruction_at_reference, theta_true_reference)

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
    # blobs at the ends of their ranges: a centre 1e6 m out, a sigma of 1 mm
    far = make_field(theta=0.2, blobs=[Blob(1e6, 5.0, 3.0, 0.1)])
    assert theta_true(far, 5.0, 5.0) == 0.2
    xs = np.linspace(0, 20, 5)
    assert np.all(theta_true(far, xs[None, :], xs[:, None]) == 0.2)
    narrow = make_field(theta=0.2, blobs=[Blob(5.0, 5.0, 1e-3, 0.1)])
    assert theta_true(narrow, 5.0, 5.0) == pytest.approx(0.3, abs=1e-12)
    assert theta_true(narrow, 6.0, 5.0) == 0.2


def same_bits(a, b) -> bool:
    """Equal floats with equal signs of zero, or both NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_theta_true_has_the_reference_bits():
    # theta_true's one scalar formula against the numpy one it replaced,
    # called on scalars: the same bits, including the sign of a zero
    rng = np.random.default_rng(16)
    cases = []  # (spec, xs, ys)

    # random points on a 200 x 200 m field, the largest the benchmarks aim at
    side = 200.0
    blobs = [Blob(float(rng.uniform(0, side)), float(rng.uniform(0, side)),
                  float(rng.uniform(2.0, 40.0)), float(rng.uniform(-0.3, 0.3)))
             for _ in range(3)]
    spec = make_field(theta=0.25, blobs=blobs, width=side, height=side)
    cases.append((spec, rng.uniform(-10, side + 10, 90_000).tolist(),
                  rng.uniform(-10, side + 10, 90_000).tolist()))
    # exactly at each blob centre, and on a centre's row and column
    centres = [(b.cx, b.cy) for b in blobs]
    cases.append((spec, [x for x, _ in centres] + [blobs[0].cx] * 500
                  + rng.uniform(0, side, 500).tolist(),
                  [y for _, y in centres] + rng.uniform(0, side, 500).tolist()
                  + [blobs[1].cy] * 500))

    # far points, and centres and sigmas at the ends of their ranges
    far = [1e5, 1.4e5, 1e6, 2e6, 1e7]
    far_values = far + [-v for v in far] + [math.inf, -math.inf, math.nan]
    far_spec = make_field(theta=0.2, blobs=blobs[:2] + [
        Blob(1e6, 5.0, 3.0, 0.1), Blob(-1e6, -1e6, 1e5, 0.2)])
    coords = far_values + [0.0, 5.0, 150.0]
    pairs = [(x, y) for x in coords for y in coords]
    cases.append((far_spec, [x for x, _ in pairs], [y for _, y in pairs]))

    # the narrowest blob Blob accepts, a sigma of 1 mm
    sigma = 1e-3
    with pytest.raises(ValueError, match=r"^sigma_m must be a number within"):
        Blob(0.0, 0.0, math.nextafter(sigma, 0.0), 0.1)
    narrow = make_field(theta=0.2, blobs=[Blob(5.0, 5.0, sigma, 0.1),
                                          Blob(7.0, 5.0, sigma, -0.05)])
    offsets = (rng.standard_normal(3000) * sigma * 4).tolist()
    cases.append((narrow, [5.0 + d for d in offsets] + [7.0] * 1000,
                  [5.0 - d for d in offsets[::-1]]
                  + (5.0 + rng.standard_normal(1000) * sigma).tolist()))

    # clamped at 0 (with either sign of zero) and at THETA_TRUE_MAX
    xs = rng.uniform(0, 20, 1000).tolist()
    ys = rng.uniform(0, 20, 1000).tolist()
    for base, amplitude in [(-0.0, -0.1), (-0.0, 0.1), (0.0, -0.1), (0.1, -0.1),
                            (-0.2, 0.1), (0.55, 0.1), (0.6, 0.0), (0.7, -0.05)]:
        clamp = make_field(theta=base, blobs=[Blob(10.0, 10.0, 3.0, amplitude),
                                              Blob(1e6, 0.0, 1.0, amplitude)])
        cases.append((clamp, xs + [10.0, 1e6, -500.0, 1e7],
                      ys + [10.0, 0.0, -500.0, 1e7]))

    points, signed_zeros, maxed, mismatches = 0, 0, 0, []
    for spec, xs, ys in cases:
        for x, y in zip(xs, ys):
            got, want = theta_true(spec, x, y), theta_true_reference(spec, x, y)
            points += 1
            signed_zeros += want == 0.0 and math.copysign(1.0, want) < 0
            maxed += want == THETA_TRUE_MAX
            if type(got) is not float or not same_bits(got, want):
                mismatches.append((x, y, got, want))
    assert points >= 100_000
    assert signed_zeros and maxed  # both clamps and -0.0 were exercised
    assert mismatches[:5] == []

    # arrays broadcast and map point by point; a 0-d array gives a float
    grid_x = rng.uniform(-10, side + 10, (40, 1))
    grid_y = rng.uniform(-10, side + 10, 30)
    for x, y in [(grid_x, grid_y), (grid_x[:, 0], 50.0), (7.5, grid_y),
                 (np.array(grid_x[0, 0]), grid_y[0]), (grid_x[:0, 0], 1.0)]:
        got = theta_true(spec, x, y)
        bx, by = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        if bx.ndim == 0:
            assert type(got) is float
            got = np.array(got)
        assert got.shape == bx.shape and got.dtype == float
        assert all(same_bits(g, theta_true_reference(spec, a, b)) for g, a, b
                   in zip(got.ravel().tolist(), bx.ravel().tolist(), by.ravel().tolist()))


# arguments in theta_true's range where np.exp, as the goldens were pinned
# with it, is not the correctly rounded exp, and by how many ulps it is off;
# numpy picks its float64 exp loop at run time from the CPU's features
# (NumPy NEP 38), and another loop may give other bits here
NP_EXP_ULPS_OFF = [
    (-13.803625, -1), (-18.999995, -1), (-1.428417, -1), (-4.877726, -1),
    (-7.538521, -1), (-3.40314, -1), (-8.712146, -1), (-3.950137, -1),
    (-10.051652, -1), (-18.5516, -1), (-5.91654, -1), (-10.578675, -1),
    (-6.960933, -1), (-5.098288, -1), (-5.863163, 1), (-14.988114, -1),
    (-11.117065, -1), (-12.584069, -1), (-3.474732, -1), (-0.731851, -1),
    (-14.370442, -1), (-18.115124, -1), (-10.120932, -1), (-18.180534, -1),
    (-15.377229, -1), (-12.48224, -1), (-17.930667, -1), (-8.359202, -1),
    (-19.93389, -1), (-16.016975, -1), (-19.521498, -1), (-14.423374, -1),
]


def test_np_exp_is_the_one_the_goldens_were_pinned_with():
    # the golden hashes pin theta_true's bits, and theta_true calls np.exp
    # on a Python float; a 40-digit decimal exp, rounded once, is exact here
    context = decimal.Context(prec=40)
    off = []
    for x, ulps in NP_EXP_ULPS_OFF:
        correct = float(context.exp(decimal.Decimal(x)))
        pinned = math.nextafter(correct, math.copysign(math.inf, ulps))
        if float(np.exp(x)) != pinned:
            off.append(x)
    assert not off, (
        f"this CPU's np.exp is not the one the goldens were pinned with: it "
        f"differs on {len(off)} of {len(NP_EXP_ULPS_OFF)} pinned arguments, "
        f"so theta_true's bits and every golden hash may differ too")


@pytest.mark.filterwarnings("error")
def test_theta_true_sum_beyond_the_floats_clamps_without_a_warning():
    # numpy scalar arithmetic once warned "overflow encountered in scalar
    # add" on stderr for a sum of 10 ** 308s.  A base or an amplitude is
    # now a VWC within [-1, 1]: such ints are refused, and the largest
    # sums in range clamp without a word
    with pytest.raises(ConfigError, match=r"^base_theta must be a number within"):
        make_field(theta=10 ** 308)
    with pytest.raises(ConfigError, match=r"^amplitude must be a number within"):
        Blob(1.0, 1.0, 1.0, 10 ** 308)
    for sign, clamped in ((1, THETA_TRUE_MAX), (-1, 0.0)):
        spec = make_field(theta=sign, blobs=[Blob(1.0, 1.0, 1.0, sign)] * 3)
        assert theta_true(spec, 1.0, 1.0) == clamped


# -- obstructions -------------------------------------------------------------


def test_obstruction_membership():
    spec = make_field(obstructions=[Disk(5.0, 5.0, 1.0)])
    assert obstruction_at(spec, 5.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 9.0, 9.0) is None
    # boundary is inclusive
    assert obstruction_at(spec, 6.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 6.0 + 1e-9, 5.0) is None


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
    index = spec._obstruction_index
    assert sum(map(len, index.cells.values())) <= (
        CellIndex.MAX_CELLS * (len(spec.obstructions) - len(index.scanned)))


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
    index = spec._obstruction_index
    assert index.size == 1.0 and index.scanned == big
    rng = np.random.default_rng(11)
    grid = [(i / 16, j / 16) for i in range(-112, 1400, 3) for j in range(-112, 496, 5)]
    random = rng.uniform(-8.0, 100.0, size=(4000, 2)).tolist()
    assert_index_matches_linear_scan(
        spec, [*rim_queries(disks + big), *grid, *random])


def test_obstruction_index_covers_subnormal_squares():
    # the smallest disks, 1 mm, on the smallest field, 1 mm wide, give
    # 2 mm cells; each rim stops 1e-6 radii short of a cell edge, and the
    # points walking out across the edge stall exactly as the scan says.
    # (radius_m ** 2 is at least 1e-6, never subnormal: reaches whose
    # squares are subnormal are the generator's, in the CellIndex test)
    r = 1e-3
    size = 2.0 * r
    disks = [Disk(k * size - r * (1 + 1e-6), 0.0, r) for k in range(1, 9)]
    spec = make_field(width=r, height=r, obstructions=disks)
    assert spec._obstruction_index.size == size
    queries = [(k * size * (1 + j * 1e-7), 0.0) for k in range(1, 9) for j in range(50)]
    queries += [(x, 0.0) for k in range(1, 9) for x in rim_walk(k * size - r * 1e-6, 0.0, 1.0)]
    assert any(obstruction_at_reference(spec, x, y) for x, y in queries)
    assert not all(obstruction_at_reference(spec, x, y) for x, y in queries)
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
    assert_index_matches_linear_scan(spec, [(0.0, 0.0), (-1.0, 3.5), (1e6, 5.0)])


def test_far_and_huge_disks_stay_bounded():
    # disks at the ends of their ranges: a centre 1e6 m out, which the
    # index never lists near the field, and the widest disk, 1 km, which
    # covers too many cells to list; beyond them a disk is refused
    far = Disk(1e6, 5.0, 0.5)
    huge = Disk(2.0, 2.0, 1e3)
    stone = Disk(5.0, 5.0, 1.0)
    spec = make_field(obstructions=[far, stone])
    assert obstruction_at(spec, 5.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 15.0, 5.0) is None
    assert obstruction_at(spec, 1e6, 5.0) == STALL_DEPTH_M
    spec = make_field(obstructions=[far, stone, huge])
    assert spec._obstruction_index.scanned == [huge]
    assert obstruction_at(spec, 15.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, -1e6, 1e6) is None
    assert_index_matches_linear_scan(spec, [(1e6, 5.5), (1e6 + 0.5, 5.0), (1002.0, 2.0),
                                            (1002.0 + 1e-9, 2.0), (-1e6, 1e6)])
    for args, name in (((math.nextafter(1e6, 2e6), 5.0, 0.5), "cx"),
                       ((2.0, 2.0, math.nextafter(1e3, 2e3)), "radius_m")):
        with pytest.raises(ConfigError, match=rf"^{name} must be a number within"):
            Disk(*args)


def rim_walk(c, reach, sign):
    """Points from the rim at c + sign * reach outward: three ulps, then
    the relative steps that only a subnormal reach ** 2 lets pass."""
    rim = c + sign * reach
    points = [rim]
    for _ in range(3):
        points.append(math.nextafter(points[-1], sign * math.inf))
    return points + [rim + sign * reach * t for t in (1e-6, 1e-5, 1e-4, 2e-4)]


def test_cell_index_finds_every_item_within_reach():
    # reaches of 0, subnormal squares, ordinary and the widest spacing,
    # 1e5 m, on cells of ordinary size and of the smallest the generator
    # makes, a 1 mm field's 1024th.  Some items have rims on the cell edge
    # at 0, or just short of it, and the queries walk out from every rim
    # across the edge, where x - cx rounds to the reach.
    rng = np.random.default_rng(17)
    for size in (1.0, 0.3, 1e-3 / 1024, 3e-6):
        items, far_huge = [], []
        for reach in (0.0, 1e-160, size * float(rng.uniform(0.05, 2.0)), 1e5):
            for sx, sy, short in itertools.product(
                    (1.0, -1.0), (1.0, -1.0), (1.0, 1.0 + 1e-6, 1.0 + 1e-5)):
                items.append((-sx * reach * short, -sy * reach * short, reach))
            for _ in range(8):
                if reach == 1e5:
                    far_huge.append(len(items))
                items.append((*(size * rng.uniform(-20.0, 20.0, size=2)).tolist(), reach))
        index = CellIndex(size)
        for k, (cx, cy, reach) in enumerate(items):
            index.add(k, cx, cy, reach)
        queries = (size * rng.uniform(-22.0, 22.0, size=(400, 2))).tolist()
        for cx, cy, reach in items:
            for sign in (1.0, -1.0):
                queries += [(x, cy) for x in rim_walk(cx, reach, sign)]
                queries += [(cx, y) for y in rim_walk(cy, reach, sign)]
                queries += [(cx + sign * f * reach, cy + f * reach) for f in (0.5, 0.7071)]
        for x, y in queries:
            near = index.near(x, y)
            for k, (cx, cy, reach) in enumerate(items):
                if (x - cx) ** 2 + (y - cy) ** 2 <= reach ** 2:
                    assert k in near, (size, k, x, y)
        # a huge item near the field covers too many cells to list
        assert set(far_huge) <= set(index.scanned)
        listed = len(items) - len(index.scanned)
        assert sum(map(len, index.cells.values())) <= CellIndex.MAX_CELLS * listed


def test_neighbour_queries_go_through_the_cell_index(monkeypatch):
    calls = []
    near = CellIndex.near

    def counting_near(self, x, y):
        calls.append((x, y))
        return near(self, x, y)

    monkeypatch.setattr(CellIndex, "near", counting_near)
    spec = make_field(obstructions=[Disk(5.0, 5.0, 1.0)])
    assert obstruction_at(spec, 5.0, 5.0) == STALL_DEPTH_M
    assert obstruction_at(spec, 9.0, 9.0) is None
    assert calls == [(5.0, 5.0), (9.0, 9.0)]
    calls.clear()
    # one query per draw, and at least one draw per waypoint
    waypoints = generate_waypoints(make_field(), 30, 1.0, seed=3)
    assert len(calls) >= len(waypoints) == 30
    assert {(w.x, w.y) for w in waypoints} <= set(calls)


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
    assert sense_raw(spec, 3.0, 4.0, spec.rng(), in_soil=False) == AIR_RAW_MEAN
    noisy = make_field(noise=500.0, seed=8)
    rng = noisy.rng()
    draws = [sense_raw(noisy, 3.0, 4.0, rng, in_soil=False) for _ in range(500)]
    assert min(draws) >= 0.0


def test_air_soil_separability_100k_draws():
    # sigma 50: the crossover sits ~31.9 sigma above the air mean
    spec = make_field(noise=50.0, seed=12345)
    rng = spec.rng()
    crossings = sum(sense_raw(spec, 3.0, 4.0, rng, in_soil=False) >= CROSSOVER_RAW
                    for _ in range(100_000))
    assert crossings == 0
    assert (CROSSOVER_RAW - AIR_RAW_MEAN) / 50.0 >= 31.0


def test_an_air_reading_never_asks_the_ground_truth(monkeypatch):
    def unreachable(spec, x, y):
        raise AssertionError("theta_true evaluated for a probe in air")

    monkeypatch.setattr(fieldsim, "theta_true", unreachable)
    spec = make_field(noise=40.0, seed=3)
    rng, twin = spec.rng(), spec.rng()
    raw = sense_raw(spec, 3.0, 4.0, rng, in_soil=False)
    # one draw, as a reading in soil makes
    assert raw == max(AIR_RAW_MEAN + twin.normal(0.0, 40.0), 0.0)
    assert rng.bit_generator.state == twin.bit_generator.state
    with pytest.raises(AssertionError, match="in air"):
        sense_raw(spec, 3.0, 4.0, rng)


# -- projection ---------------------------------------------------------------


def test_projection_origin_fixed_point():
    spec = make_field()
    origin = (spec.origin_lat, spec.origin_lon)
    assert local_to_wgs84_at(*origin, 0.0, 0.0) == origin


def test_projection_round_trip_within_nanometre():
    spec = make_field()
    rng = np.random.default_rng(31)
    for x, y in rng.uniform(-500.0, 500.0, size=(200, 2)):
        lat, lon = local_to_wgs84_at(spec.origin_lat, spec.origin_lon, x, y)
        x2, y2 = wgs84_to_local_at(spec.origin_lat, spec.origin_lon, lat, lon)
        assert abs(x - x2) <= 1e-9 and abs(y - y2) <= 1e-9


def test_projection_one_degree_north():
    spec = make_field()
    y = EARTH_RADIUS_M * math.pi / 180.0
    lat, lon = local_to_wgs84_at(spec.origin_lat, spec.origin_lon, 0.0, y)
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
    # sigmas whose 2 * sigma_m ** 2 once underflowed to 0 or overflowed, and
    # radii whose square overflowed, are outside their ranges
    for sigma in (5e-324, 1e-170, 1e154, 1e200):
        with pytest.raises(ValueError, match=r"^sigma_m must be a number within "
                                             r"\[0\.001, 100000\] m$"):
            Blob(0, 0, sigma, 0.1)
    with pytest.raises(ValueError):
        Disk(0, 0, 0.0)
    for radius in (1e155, 1e200):
        with pytest.raises(ValueError, match=r"^radius_m must be a number within "
                                             r"\[0\.001, 1000\] m$"):
            Disk(0, 0, radius)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("theta", "noise", "width", "height"):
            with pytest.raises(ValueError, match="must be a number within"):
                make_field(**{name: bad})
        with pytest.raises(ValueError, match="origin_lat"):
            FieldSpec(origin_lat=bad, origin_lon=0, width_m=1, height_m=1,
                      base_theta=0.2, seed=1)
        for args in ((bad, 0, 1.0, 0.1), (0, bad, 1.0, 0.1),
                     (0, 0, bad, 0.1), (0, 0, 1.0, bad)):
            with pytest.raises(ValueError, match="must be a number within"):
                Blob(*args)
        for args in ((bad, 0, 1.0), (0, bad, 1.0), (0, 0, bad)):
            with pytest.raises(ValueError, match="must be a number within"):
                Disk(*args)
    for seed in (-1, 1.0, "7", True, None):
        with pytest.raises(ValueError, match="seed"):
            make_field(seed=seed)
    for lat, lon, name in ((90.5, 0, "origin_lat"), (-91, 0, "origin_lat"),
                           (1e300, 0, "origin_lat"), (0, 180.5, "origin_lon"),
                           (0, -10 ** 308, "origin_lon")):
        with pytest.raises(ConfigError, match=rf"^{name} must be a number within"):
            FieldSpec(origin_lat=lat, origin_lon=lon, width_m=1, height_m=1,
                      base_theta=0.2, seed=1)
    for lat, lon in ((90, 180), (-90, -180)):  # the edges are in range
        FieldSpec(origin_lat=lat, origin_lon=lon, width_m=1, height_m=1,
                  base_theta=0.2, seed=1)
    # int sides at the top of their range index like their floats
    vast = make_field(width=10 ** 5, height=10 ** 5,
                      obstructions=[Disk(2.0, 2.0, 1.0)])
    assert vast._obstruction_index.size == make_field(
        width=1e5, height=1e5, obstructions=[Disk(2.0, 2.0, 1.0)])._obstruction_index.size
    assert obstruction_at(vast, 2.5, 2.0) == obstruction_at_reference(vast, 2.5, 2.0)
    assert obstruction_at(vast, 5.0, 5.0) is None
    with pytest.raises(ConfigError, match=r"^width_m must be a number within"):
        make_field(width=10 ** 200)


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


# RAW readings at the edges of format_value: zeros of both signs, the
# least subnormal, a value just under half of the 6th decimal, which
# rounds to "+0", and large ones
EDGE_RAWS = (0.0, -0.0, 5e-324, 4.9999995e-7, 1e15, 1e300)


@pytest.mark.parametrize("address", ["0", "z", "Q"])
def test_virtual_sensor_replies_match_the_public_encoders(address, monkeypatch):
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
    # the sensor encodes only the reading of each data frame: whatever
    # RAW it stages, the frame is the one the checking constructor encodes
    rng = np.random.default_rng(4242)
    raws = [*rng.uniform(0.0, 5000.0, 5_000).tolist(),
            *(10.0 ** rng.uniform(-9.0, 18.0, 5_000)).tolist(), *EDGE_RAWS]
    staged = iter(raws)
    monkeypatch.setattr(fieldsim, "sense_raw", lambda *args: next(staged))
    for raw in raws:
        sensor.exchange(f"{address}M!".encode())
        assert sensor.exchange(f"{address}D0!".encode()) == sdi12.encode_data_response(
            sdi12.DataResponse(address, (raw, 24.0, 150.0))), raw


def test_a_mission_encodes_only_the_reading_of_each_data_frame(monkeypatch):
    # counted from outside, at the attributes the callers look up: once
    # the sensor is built, each transaction formats one value, its RAW,
    # and no data frame is checked or encoded whole
    calls = Counter()
    sensors = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += bool(sensors)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((sdi12, "format_value"), (sdi12, "encode_data_response"),
                        (sdi12.DataResponse, "__post_init__"),
                        (sampler, "run_transaction")):
        count(owner, name)
    build = VirtualTeros.__init__

    def built(sensor, *args, **kwargs):
        build(sensor, *args, **kwargs)
        sensors.append(sensor)
    monkeypatch.setattr(VirtualTeros, "__init__", built)
    samples, _ = run_mission(load_scenario("paper_field").mission)
    assert len(sensors) == 1
    assert calls["run_transaction"] == sum(s.attempts for s in samples) > len(samples)
    assert calls["format_value"] == calls["run_transaction"]
    assert calls["encode_data_response"] == calls["__post_init__"] == 0


def test_virtual_sensor_refuses_a_non_finite_reading(monkeypatch):
    # noise near the float limit once overflowed RAW to inf; noise is now
    # at most 1000 counts, but a reading with no wire text is still
    # refused, as DataResponse refuses to hold it
    sensor = make_sensor(make_field(noise=1e3))
    sensor.place(2.0, 2.0, in_soil=True)
    for raw in (math.inf, math.nan):
        monkeypatch.setattr(fieldsim, "sense_raw", lambda *args, raw=raw: raw)
        sensor.exchange(b"0M!")
        with pytest.raises(ValueError, match=f"non-finite value {raw}"):
            sensor.exchange(b"0D0!")
