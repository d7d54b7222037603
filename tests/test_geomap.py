"""IDW interpolation properties and export formats."""

import dataclasses
import enum
import json
import math
import tracemalloc

import numpy as np
import pytest

from soilprobe.calib import Validity
from soilprobe.errors import RANGES, ConfigError, EmptyInputError
from soilprobe.geomap import (_CHUNK_CELLS, CUTOFF_RADIUS_M, EXACT_RADIUS_M,
                              IDW_POWER, MoistureGrid,
                              _as_sample_arrays, _centres, _idw, build_grid,
                              export_grid_ascii, export_points_geojson, idw_at,
                              samples_to_local)
from soilprobe.sampler import SoilSample

from conftest import (export_grid_ascii_reference, idw_dense_reference,
                      idw_oracle)


def make_sample(i, lat=45.0, lon=7.5, theta=0.25, status=Validity.VALID,
                attempts=1):
    return SoilSample(point_id=i, timestamp_s=float(i), lat=lat, lon=lon,
                      target_depth_m=0.05, achieved_depth_m=0.05,
                      attempts=attempts, raw_counts=2400.0, temp_c=24.0,
                      ec_us_cm=150.0, theta=theta, status=status)


# -- idw_at ----------------------------------------------------------------------


def test_exact_at_sample_location():
    assert idw_at([(3.0, 4.0)], [0.25], 3.0, 4.0) == 0.25


def test_equidistant_pair_averages():
    xy = [(0.0, 1.0), (0.0, -1.0)]
    assert idw_at(xy, [0.10, 0.30], 0.0, 0.0) == pytest.approx(0.20)


def test_hand_computed_weighting():
    # d=1 and d=2 at power 2: (0.10*1 + 0.30*0.25) / 1.25 = 0.14
    xy = [(1.0, 0.0), (2.0, 0.0)]
    got = idw_at(xy, [0.10, 0.30], 0.0, 0.0)
    assert got == pytest.approx(0.14, abs=1e-12)


def test_empty_input_raises():
    with pytest.raises(EmptyInputError):
        idw_at(np.empty((0, 2)), [], 0.0, 0.0)
    with pytest.raises(EmptyInputError):
        build_grid(np.empty((0, 2)), [], (0, 0, 1, 1))


@pytest.mark.parametrize("xy,theta", [([(0.0, 0.0, 0.0)], [0.2]),
                                      ([(0.0, 0.0)], [0.2, 0.3])])
def test_mismatched_sample_arrays_raise_config_error(xy, theta):
    with pytest.raises(ConfigError, match=r"^xy must be \(n, 2\) matching n theta"):
        idw_at(xy, theta, 0.0, 0.0)


def test_nodata_beyond_cutoff():
    got = idw_at([(0.0, 0.0)], [0.25], 50.0, 50.0)
    assert math.isnan(got)


def test_coincident_samples_tie_break_by_lowest_id():
    xy = [(1.0, 1.0), (1.0, 1.0)]
    assert idw_at(xy, [0.4, 0.2], 1.0, 1.0, ids=[7, 3]) == 0.2
    assert idw_at(xy, [0.4, 0.2], 1.0, 1.0, ids=[2, 5]) == 0.4
    # default ids follow input position
    assert idw_at(xy, [0.4, 0.2], 1.0, 1.0) == 0.4
    # a raster cell centred on the pair breaks the tie the same way
    grid = build_grid(xy, [0.4, 0.2], (0.5, 0.5, 1.5, 1.5), cell_size_m=1.0,
                      ids=[7, 3])
    assert grid.values[0, 0] == 0.2
    # nearest first: the lower id loses when it is farther away
    near = [(1.0, 1.0), (1.0 + 5e-7, 1.0)]
    assert idw_at(near, [0.4, 0.2], 1.0, 1.0, ids=[7, 3]) == 0.4
    grid = build_grid(near, [0.4, 0.2], (0.5, 0.5, 1.5, 1.5), cell_size_m=1.0,
                      ids=[7, 3])
    assert grid.values[0, 0] == 0.4
    # coincident by squares: both offsets square to 0, so the lowest id
    # wins, though hypot puts id 2 nearer
    tiny = [(1e-170, 0.0), (2e-170, 0.0)]
    assert idw_at(tiny, [0.1, 0.2], 0.0, 0.0, ids=[2, 1]) == 0.2
    assert idw_at(tiny, [0.1, 0.2], 0.0, 0.0, ids=[1, 2]) == 0.1


def test_exactness_property_over_random_samples():
    rng = np.random.default_rng(61)
    xy = rng.uniform(0, 19, size=(40, 2))
    theta = rng.uniform(0.05, 0.45, size=40)
    for (x, y), t in zip(xy, theta):
        assert abs(idw_at(xy, theta, x, y) - t) <= 1e-9


def test_boundedness_and_scale_consistency():
    rng = np.random.default_rng(62)
    xy = rng.uniform(0, 10, size=(25, 2))
    theta = rng.uniform(0.1, 0.4, size=25)
    grid = build_grid(xy, theta, (0, 0, 10, 10), cell_size_m=0.5)
    vals = grid.values[~np.isnan(grid.values)]
    assert vals.min() >= theta.min() - 1e-12
    assert vals.max() <= theta.max() + 1e-12
    doubled = build_grid(xy, 2.0 * theta, (0, 0, 10, 10), cell_size_m=0.5)
    assert np.allclose(doubled.values, 2.0 * grid.values, rtol=1e-12,
                       equal_nan=True)


def test_permutation_invariance_is_exact():
    rng = np.random.default_rng(63)
    xy = rng.uniform(0, 10, size=(20, 2))
    theta = rng.uniform(0.1, 0.4, size=20)
    ids = np.arange(100, 120)
    grid = build_grid(xy, theta, (0, 0, 10, 10), ids=ids)
    perm = rng.permutation(20)
    shuffled = build_grid(xy[perm], theta[perm], (0, 0, 10, 10), ids=ids[perm])
    assert np.array_equal(grid.values, shuffled.values, equal_nan=True)


def test_grid_matches_naive_oracle():
    rng = np.random.default_rng(64)
    xy = rng.uniform(0, 10, size=(20, 2))
    theta = rng.uniform(0.05, 0.5, size=20)
    grid = build_grid(xy, theta, (0, 0, 10, 10), cell_size_m=1.0)
    assert (grid.nx, grid.ny) == (10, 10)
    gx, gy = grid.cell_centers()
    for iy, y in enumerate(gy):
        for ix, x in enumerate(gx):
            want = idw_oracle(xy, theta, x, y)
            got = grid.values[iy, ix]
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert abs(got - want) <= 1e-12


def test_grid_nodata_cells_are_exactly_the_far_ones():
    xy = [(3.0, 3.0), (45.0, 45.0)]
    theta = [0.2, 0.3]
    grid = build_grid(xy, theta, (0, 0, 50, 50), cell_size_m=1.0)
    gx, gy = grid.cell_centers()
    for iy, y in enumerate(gy):
        for ix, x in enumerate(gx):
            far = all((x - sx) * (x - sx) + (y - sy) * (y - sy) > 10.0 * 10.0
                      for sx, sy in xy)
            assert math.isnan(grid.values[iy, ix]) == far


def test_thetas_near_the_float_limit_stay_in_range():
    # thetas near 1.7e308 once overflowed their weighted sums, and cells
    # with samples in reach became no-data; a theta is now a VWC within
    # [-1, 1], its range in a log record, and at both edges of it the
    # grid stays inside the sampled range
    rng = np.random.default_rng(63)
    xy = np.vstack([[(0.25, 0.25)], rng.uniform(0, 10, size=(24, 2))])  # one exact hit
    theta = rng.choice([-1.0, 1.0], size=25)
    grid = build_grid(xy, theta, (0, 0, 10, 10), cell_size_m=0.5).values
    assert not np.isnan(grid).any()
    assert grid[0, 0] == theta[0]
    assert -1.0 <= grid.min() and grid.max() <= 1.0
    for beyond in (math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0), 1.7e308,
                   math.nan):
        with pytest.raises(ConfigError, match=r"^theta must be a number within "
                                              r"\[-1, 1\] m3/m3$"):
            build_grid(xy, [*theta[:-1], beyond], (0, 0, 10, 10))


def test_grid_cell_containing_sample_echoes_it():
    # query the cell centre placed exactly on a sample
    xy = [(2.5, 2.5), (7.5, 7.5)]
    grid = build_grid(xy, [0.11, 0.44], (0, 0, 10, 10), cell_size_m=5.0)
    assert grid.values[0, 0] == 0.11
    assert grid.values[1, 1] == 0.44


@pytest.mark.filterwarnings("error")
def test_non_finite_queries_are_nodata_without_warnings():
    xy = [(0.0, 0.0), (1.0, 1.0)]
    for bad in (math.nan, math.inf, -math.inf):
        assert math.isnan(idw_at(xy, [0.1, 0.2], bad, 1.0))
        assert math.isnan(idw_at(xy, [0.1, 0.2], 1.0, bad))
    # a finite query near the float limit is fine too
    assert idw_at([(1.7e308, 0.0), (1.0, 1.0)], [0.1, 0.2], 1.7e308, 0.0) == 0.1


# -- the tiled kernel against the dense one ---------------------------------------


def exact_hit_cells(grid, xy, exact):
    """Cells whose centre lies within ``exact`` of some sample, by
    ``dx*dx + dy*dy <= exact*exact``.  The sum is never below either
    square, so an axis whose offset squares above ``exact*exact`` is
    skipped; an offset one float past ``exact`` may not square above it."""
    gx, gy = grid.cell_centers()
    hit = np.zeros(grid.values.shape, dtype=bool)
    for sx, sy in xy:
        dx, dy = gx - sx, gy - sy
        ix = np.flatnonzero(dx * dx <= exact * exact)
        iy = np.flatnonzero(dy * dy <= exact * exact)
        dx, dy = dx[ix], dy[iy, None]
        hit[np.ix_(iy, ix)] |= dx * dx + dy * dy <= exact * exact
    return hit


def grid_of(xy, theta, ids, bounds, cell):
    """build_grid's raster.  build_grid refuses a cell size outside the
    --cell-size range, and the kernel cases below span 1e-160 m to 1e150 m
    cells: their raster comes from the kernel, on the lattice build_grid
    would give it."""
    lo, hi, _ = RANGES["map"]["cell_size_m"]
    if lo <= cell <= hi:
        return build_grid(xy, theta, bounds, cell_size_m=cell, ids=ids)
    xmin, ymin, xmax, ymax = bounds
    nx, ny = math.ceil((xmax - xmin) / cell), math.ceil((ymax - ymin) / cell)
    values = _idw(*_as_sample_arrays(xy, theta, ids), _centres(xmin, cell, nx),
                  _centres(ymin, cell, ny))
    return MoistureGrid(xmin, ymin, cell, values)


def assert_grid_matches_dense(xy, theta, ids, bounds, cell):
    grid = grid_of(xy, theta, ids, bounds, cell)
    want = idw_dense_reference(*_as_sample_arrays(xy, theta, ids),
                               *grid.cell_centers())
    got = grid.values
    nodata = np.isnan(want)
    assert np.array_equal(np.isnan(got), nodata)
    hit = exact_hit_cells(grid, xy, 1e-6)
    assert np.array_equal(got[hit], want[hit])
    assert np.abs(got - want)[~nodata].max(initial=0.0) <= 1e-12
    assert export_grid_ascii(grid) == export_grid_ascii(
        MoistureGrid(grid.origin_x, grid.origin_y, cell, want))
    return nodata, hit


# (width, height, cell, origin, samples): binary fractions, so a sample
# placed the 10 m cutoff from a cell centre is exactly that far away
DYADIC_CASES = [
    (400.0, 400.0, 2.0, (0.0, 0.0), 120),
    (800.0, 480.0, 4.0, (-37.5, 12.25), 400),
    (300.0, 200.0, 1.0, (1048576.0, -524288.5), 150),
    (1500.0, 1500.0, 10.0, (-5.0, -5.0), 300),  # cell centres on tile edges
]


def sweep_cases():
    for case in DYADIC_CASES:
        yield case
    rng = np.random.default_rng(404)
    for _ in range(6):
        width, height = rng.uniform(250.0, 600.0, size=2)
        # at most 80k cells keeps the dense reference quick
        cell = max(rng.uniform(0.5, 4.0), math.sqrt(width * height / 80_000))
        yield (width, height, cell, tuple(rng.uniform(-200.0, 200.0, size=2)),
               int(rng.integers(50, 300)))


@pytest.mark.parametrize("case", list(sweep_cases()))
def test_tiled_kernel_matches_dense_kernel(case):
    width, height, cell, (ox, oy), n = case
    rng = np.random.default_rng(int(width * 1000 + n))
    cutoff = 10.0
    bounds = (ox, oy, ox + width, oy + height)
    nx, ny = math.ceil(width / cell), math.ceil(height / cell)
    gx = ox + (np.arange(nx) + 0.5) * cell
    gy = oy + (np.arange(ny) + 0.5) * cell

    scattered = np.column_stack([rng.uniform(ox, ox + width, n),
                                 rng.uniform(oy, oy + height, n)])
    k = max(4, n // 10)
    on_centres = np.column_stack([rng.choice(gx, k), rng.choice(gy, k)])
    # exactly cutoff away from a cell centre, along each axis
    at_cutoff = on_centres[: k // 2] + [[cutoff, 0.0]] * (k // 2)
    at_cutoff = np.vstack([at_cutoff, on_centres[k // 2:] - [[0.0, cutoff]]])
    # on tile edges: multiples of the cutoff in x, in y, and in both
    ex = cutoff * rng.integers(math.ceil(ox / cutoff),
                               math.floor((ox + width) / cutoff) + 1, k)
    ey = cutoff * rng.integers(math.ceil(oy / cutoff),
                               math.floor((oy + height) / cutoff) + 1, k)
    on_edges = np.vstack([np.column_stack([ex, rng.choice(gy, k)]),
                          np.column_stack([rng.choice(gx, k), ey]),
                          np.column_stack([ex, ey])])
    xy = np.vstack([scattered, on_centres, at_cutoff, on_edges])
    # coincident pairs with their own theta, on cell centres and elsewhere
    xy = np.vstack([xy, on_centres,
                    xy[rng.choice(len(xy), k, replace=False)]])
    theta = rng.uniform(0.05, 0.45, len(xy))
    ids = rng.permutation(len(xy)) + 1
    perm = rng.permutation(len(xy))

    nodata, hit = assert_grid_matches_dense(xy[perm], theta[perm], ids[perm],
                                            bounds, cell)
    # the cutoff prunes, and the exact-hit rule is exercised
    assert nodata.any() and hit.any()


# (width, height, cell, samples, theta range): a raster one cell wide and
# one one cell tall; cells of 2**-6 m, so that a tile row of 640 cells
# holds more than _CHUNK_CELLS pairs and is split across its columns; and
# thetas across their whole range, [-1, 1]
LATTICE_EDGE_CASES = [
    (2.0, 300.0, 2.0, 40, (0.05, 0.45)),
    (300.0, 2.0, 2.0, 40, (0.05, 0.45)),
    (12.0, 0.25, 2.0**-6, 200, (0.05, 0.45)),
    (80.0, 60.0, 0.5, 150, (-1.0, 1.0)),
]


@pytest.mark.parametrize("case", LATTICE_EDGE_CASES)
def test_lattice_edges_match_dense_kernel(case):
    width, height, cell, n, (lo, hi) = case
    rng = np.random.default_rng(int(width + 1000 * height + n))
    nx, ny = math.ceil(width / cell), math.ceil(height / cell)
    gx, gy = (np.arange(nx) + 0.5) * cell, (np.arange(ny) + 0.5) * cell
    k = n // 10
    on_centres = np.column_stack([rng.choice(gx, k), rng.choice(gy, k)])
    xy = np.vstack([np.column_stack([rng.uniform(0.0, width, n),
                                     rng.uniform(0.0, height, n)]), on_centres])
    # coincident pairs with their own theta, on cell centres and elsewhere
    xy = np.vstack([xy, on_centres, xy[rng.choice(n, k, replace=False)]])
    theta = rng.uniform(lo, hi, len(xy))
    ids = rng.permutation(len(xy)) + 1
    _, hit = assert_grid_matches_dense(xy, theta, ids, (0.0, 0.0, width, height),
                                       cell)
    assert hit.any()
    if cell < 0.1:
        # every sample is near the first tile, whose rows are 640 cells long
        assert (CUTOFF_RADIUS_M / cell) * len(xy) > _CHUNK_CELLS


def test_idw_at_matches_dense_kernel_at_random_points():
    rng = np.random.default_rng(505)
    xy = rng.uniform(0.0, 40.0, (60, 2))
    xy = np.vstack([xy, xy[:5]])  # coincident pairs
    theta = rng.uniform(0.05, 0.45, len(xy))
    ids = rng.permutation(len(xy)) + 1
    points = np.vstack([rng.uniform(-15.0, 55.0, (300, 2)), xy[:10],
                        xy[10:20] + rng.uniform(-1e-6, 1e-6, (10, 2))])
    canonical = _as_sample_arrays(xy, theta, ids)
    for x, y in points:
        want = idw_dense_reference(*canonical, np.array([x]), np.array([y]))[0, 0]
        got = idw_at(xy, theta, x, y, ids=ids)
        dx, dy = xy[:, 0] - x, xy[:, 1] - y
        if (dx * dx + dy * dy).min() <= EXACT_RADIUS_M * EXACT_RADIUS_M:
            assert got == want
        elif math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= 1e-12


def test_kernel_buffers_stay_within_the_chunk_bound():
    # one tile of 640 x 32 cells against 300 samples is 6.1M pairs, 49 MB
    # of float64 held at once; the kernel holds a few buffers of
    # max(_CHUNK_CELLS, samples) pairs, plus one raster, its output
    rng = np.random.default_rng(606)
    n, cell = 300, 2.0**-6
    xy, theta, rank = _as_sample_arrays(rng.uniform(0.0, 10.0, (n, 2)) * [1.0, 0.05],
                                        rng.uniform(0.05, 0.45, n), None)
    gx, gy = (np.arange(640) + 0.5) * cell, (np.arange(32) + 0.5) * cell
    tracemalloc.start()
    try:
        out = _idw(xy, theta, rank, gx, gy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(out).any()
    assert peak - out.nbytes <= 6 * 8 * max(_CHUNK_CELLS, n)


def test_build_grid_holds_one_raster():
    # the grid wraps the kernel's own array: one raster of 800 x 800 cells,
    # 5.1 MB, beside the kernel's chunk buffers, and no copy of it
    rng = np.random.default_rng(607)
    n = 12
    xy, theta = rng.uniform(0.0, 40.0, (n, 2)), rng.uniform(0.05, 0.45, n)
    tracemalloc.start()
    try:
        grid = build_grid(xy, theta, (0.0, 0.0, 40.0, 40.0), cell_size_m=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (800, 800)
    assert peak - grid.values.nbytes <= 6 * 8 * max(_CHUNK_CELLS, n)


def test_grid_matches_naive_oracle_where_tiles_prune():
    rng = np.random.default_rng(65)
    xy = rng.uniform(0, 120, size=(50, 2))
    theta = rng.uniform(0.05, 0.5, size=50)
    grid = build_grid(xy, theta, (0, 0, 120, 120), cell_size_m=3.0)
    gx, gy = grid.cell_centers()
    worst = 0.0
    for iy, y in enumerate(gy):
        for ix, x in enumerate(gx):
            want = idw_oracle(xy, theta, x, y)
            got = grid.values[iy, ix]
            assert math.isnan(want) == math.isnan(got)
            if not math.isnan(want):
                worst = max(worst, abs(got - want))
    assert np.isnan(grid.values).any()
    assert worst <= 1e-12


def on_circle(rng, centres, radius):
    """One point per centre, at a random angle, within ulps of its circle.

    Each point's x is walked one float at a time to the last value with
    ``dx*dx + dy*dy <= radius*radius``, then moved 2 floats inwards to 3
    outwards, so the points straddle the circle.
    """
    cx, cy = centres.T
    angle = rng.uniform(0.0, 2.0 * np.pi, len(centres))
    x, y = cx + radius * np.cos(angle), cy + radius * np.sin(angle)
    dy = y - cy

    def within(x):
        return (x - cx) * (x - cx) + dy * dy <= radius * radius

    outward = np.where(x > cx, np.inf, -np.inf)
    inside = within(x)
    walk = np.where(inside, outward, -outward)
    for _ in range(64):
        step = np.nextafter(x, walk)
        same_side = within(step) == inside
        if not same_side.any():
            break
        x = np.where(same_side, step, x)
    x = np.where(inside, x, np.nextafter(x, -outward))  # the last float inside
    k = rng.integers(-2, 4, len(x))  # k = 1 is the first float outside
    for i in range(1, 4):
        x = np.where(k >= i, np.nextafter(x, outward), x)
        x = np.where(-k >= i, np.nextafter(x, -outward), x)
    return np.column_stack([x, y])


def ring_raster(rng, offset, cell, count):
    """A 40 x 40 raster of ``cell``-sized cells from (offset, offset), and
    ``count`` random cell centres on it, as (bounds, centres)."""
    side = 40
    centres = offset + (rng.integers(0, side, (count, 2)) + 0.5) * cell
    return (offset, offset, offset + side * cell, offset + side * cell), centres


def assert_some_misjudged(ring, centres, radius):
    """The placements straddle the circle, and hypot misjudges some."""
    dx, dy = (ring - centres).T
    inside = dx * dx + dy * dy <= radius * radius
    misjudged = (np.hypot(dx, dy) <= radius) != inside
    assert inside.any() and not inside.all() and misjudged.any()


# hypot misjudges points on the circles only where the coordinates
# resolve the radii to a few ulps of their squares
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_kernel_decides_both_circles_by_squares(offset):
    # a point within ulps of the cutoff or exact radius is inside exactly
    # when dx*dx + dy*dy <= R*R, even where hypot puts it on the other side
    rng = np.random.default_rng(707)
    # the cutoff circle, on a raster where some cells have no sample in reach
    bounds, centres = ring_raster(rng, offset, 8.0, 300)
    xy = on_circle(rng, centres, 10.0)
    theta = rng.uniform(0.05, 0.45, len(xy))
    ids = rng.permutation(len(xy)) + 1
    nodata, _ = assert_grid_matches_dense(xy, theta, ids, bounds, 8.0)
    assert nodata.any() and not nodata.all()
    if offset == 0.0:
        assert_some_misjudged(xy, centres, 10.0)

    # the exact circle, on a raster fine enough to resolve it
    bounds, centres = ring_raster(rng, offset, 4e-6, 800)
    at_exact = on_circle(rng, centres[:700], 1e-6)
    # two points on one exact circle: the nearer one by squares wins
    tied = np.vstack([on_circle(rng, centres[700:], 1e-6),
                      on_circle(rng, centres[700:], 1e-6)])
    xy = np.vstack([at_exact, tied])
    theta = rng.uniform(0.05, 0.45, len(xy))
    ids = rng.permutation(len(xy)) + 1
    _, hit = assert_grid_matches_dense(xy, theta, ids, bounds, 4e-6)
    assert hit.any() and not hit.all()
    if offset == 0.0:
        assert_some_misjudged(at_exact, centres[:700], 1e-6)


def scaled_case(rng, scale, offset=0.0):
    """60 scattered samples and 8 on cell centres of a 16 x 16 raster of
    ``scale``-sized cells from (offset, offset), as (xy, theta, ids,
    bounds, cell)."""
    centres = rng.integers(0, 16, (8, 2)) + 0.5
    xy = offset + np.vstack([rng.uniform(0.0, 16.0, (60, 2)), centres]) * scale
    theta = rng.uniform(0.05, 0.45, len(xy))
    ids = rng.permutation(len(xy)) + 1
    bounds = (offset, offset, offset + 16.0 * scale, offset + 16.0 * scale)
    return xy, theta, ids, bounds, scale


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e-100, 1e-20, 1.0, 1e20,
                                   1e100, 1e150])
def test_kernel_matches_dense_kernel_across_magnitudes(scale):
    # below 1e-6 m every cell is an exact hit, and at 1e-160 every square
    # falls below the normal floats; above 10 m every sample is out of
    # reach of every cell centre but its own
    rng = np.random.default_rng(int(math.log10(scale)) + 1000)
    nodata, hit = assert_grid_matches_dense(*scaled_case(rng, scale))
    assert hit.any() and not nodata.all()
    assert hit.all() == (scale < 1.0) and nodata.any() == (scale > 1.0)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9, 1e12])
def test_kernel_matches_dense_kernel_across_offsets(offset):
    rng = np.random.default_rng(int(math.log10(offset + 1.0)) + 3000)
    nodata, hit = assert_grid_matches_dense(*scaled_case(rng, 8.0, offset))
    assert nodata.any() and hit.any() and not nodata.all()


def test_idw_params_validation():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build_grid([(0, 0)], [0.1], (0, 0, 1, 1), cell_size_m=bad)
    with pytest.raises(ValueError):
        build_grid([(0, 0)], [0.1], (0, 0, 1, 1), cell_size_m=0)
    with pytest.raises(ValueError):
        build_grid([(0, 0)], [0.1], (1, 0, 0, 1))
    # the radii and the power are constants, not settings
    for setting in ("power", "exact_radius_m"):
        with pytest.raises(TypeError):
            build_grid([(0, 0)], [0.1], (0, 0, 1, 1), **{setting: 2.0})


def test_kernel_weights_are_the_documented_power():
    # the kernel weighs a squared distance d2 by 1 / d2: d ** -IDW_POWER
    # only while the power is Shepard's 2
    assert IDW_POWER == 2.0


def test_reciprocal_weights_equal_the_power_bit_for_bit():
    # the kernel's np.reciprocal(d2) stands for np.power(d2, -IDW_POWER / 2):
    # 10**7 seeded squared distances, log-uniform from 1e-320 to 1e308 and
    # so subnormal ones too, plus the edges, give the same bits either way;
    # the tiniest overflow to inf both ways, as the kernel allows
    rng = np.random.default_rng(2024)
    edges = np.array([0.0, -0.0, math.inf, 5e-324, np.finfo(float).tiny,
                      np.finfo(float).max, 1.0])
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(11):  # the edges, then 10 blocks of 10**6
            d2 = 10.0 ** rng.uniform(-320.0, 308.0, 10 ** 6) if k else edges
            power = np.power(d2, -0.5 * IDW_POWER)
            reciprocal = np.reciprocal(d2)
            assert np.array_equal(power.view(np.int64), reciprocal.view(np.int64))


def test_raster_size_cap_rejects_before_allocating():
    # about 1e12 cells: refused by the cap, never handed to numpy
    with pytest.raises(ValueError, match="cells"):
        build_grid([(0, 0)], [0.1], (0, 0, 1e6, 1e6), cell_size_m=1.0)
    # an infinite extent, given or overflowed from finite bounds, is named
    # as such: no cell count describes it
    with pytest.raises(ValueError, match=r"^raster extent inf x 1\.0 m is not finite$"):
        build_grid([(0, 0)], [0.1], (0, 0, math.inf, 1.0), cell_size_m=1.0)
    with pytest.raises(ValueError, match=r"^raster extent inf x inf m is not finite$"):
        build_grid([(0, 0)], [0.1], (-1e308, -1e308, 1e308, 1e308))


@pytest.mark.filterwarnings("error")
def test_cell_centres_beyond_the_floats_are_refused():
    # a finite extent whose last cell centre overflows once made NaN cells
    # and an overflow warning.  Such cells are now refused by their range,
    # and a raster of cells no larger than 1 km that the cell cap lets
    # through ends within 2 ** 24 km of its origin
    line = r"^cell_size_m must be a number within \[0\.001, 1000\] m$"
    for cell in (1e308, 0.8e308, math.nextafter(1e3, math.inf)):
        with pytest.raises(ConfigError, match=line):
            build_grid([(0, 0)], [0.1], (1.7e308, 0.0, 1.75e308, 1.0), cell_size_m=cell)
    with pytest.raises(ConfigError, match="cells$"):
        build_grid([(0, 0)], [0.1], (1.7e308, 0.0, 1.75e308, 1.0), cell_size_m=1e3)
    grid = build_grid([(0, 0)], [0.1], (-1e3, 0.0, 1e3, 1.0), cell_size_m=1e3)
    assert grid.values.shape == (1, 2) and np.isnan(grid.values).all()


# -- exports ----------------------------------------------------------------------


def test_geojson_structure_and_coordinate_order():
    samples = [make_sample(1, lat=45.001, lon=7.502, theta=0.21),
               make_sample(2, lat=45.002, lon=7.503, theta=None,
                           status=Validity.SENSOR_ERROR, attempts=3)]
    doc = json.loads(export_points_geojson(samples))
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 2
    f0 = doc["features"][0]
    assert f0["geometry"]["type"] == "Point"
    assert f0["geometry"]["coordinates"] == [7.502, 45.001]  # lon, lat
    assert f0["properties"] == {"point_id": 1, "theta": 0.21,
                                "status": "valid", "attempts": 1}
    f1 = doc["features"][1]
    assert f1["properties"]["status"] == "sensor_error"
    assert f1["properties"]["theta"] is None


def test_ascii_grid_layout():
    values = np.array([[0.1, np.nan], [0.25, 0.333333333]])
    from soilprobe.geomap import MoistureGrid
    grid = MoistureGrid(origin_x=1.0, origin_y=2.0, cell_size_m=0.5,
                        values=values)
    text = export_grid_ascii(grid)
    lines = text.splitlines()
    assert lines[0] == "ncols 2"
    assert lines[1] == "nrows 2"
    assert lines[2] == "xllcorner 1.000000"
    assert lines[3] == "yllcorner 2.000000"
    assert lines[4] == "cellsize 0.500000"
    assert lines[5] == "NODATA_value -9999"
    # north (row index 1) first, south last
    assert lines[6] == "0.250000 0.333333"
    assert lines[7] == "0.100000 -9999"
    assert text.endswith("\n")


def test_exports_never_write_nan_or_infinity():
    grid = MoistureGrid(0.0, 0.0, 1.0, np.array([[math.inf, -math.inf, 0.5]]))
    assert export_grid_ascii(grid).splitlines()[6] == "-9999 -9999 0.500000"
    with pytest.raises(ValueError):
        export_points_geojson([make_sample(1, theta=math.nan)])


def test_samples_to_local_anchor():
    samples = [make_sample(1, lat=45.0, lon=7.5),
               make_sample(2, lat=45.0001, lon=7.5002)]
    xy = samples_to_local(samples)
    # anchored at the southwest-most sample
    assert xy[0] == pytest.approx([0.0, 0.0])
    assert xy[1][0] > 0 and xy[1][1] > 0
    with pytest.raises(EmptyInputError):
        samples_to_local([])


# -- the writers against json and the per-cell reference -------------------------


def geojson_reference(samples) -> str:
    """The FeatureCollection as ``json`` writes it: the writer's definition."""
    features = [{
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [s.lon, s.lat]},
        "properties": {"point_id": s.point_id, "theta": s.theta,
                       "status": s.status.value, "attempts": s.attempts},
    } for s in samples]
    return json.dumps({"type": "FeatureCollection", "features": features},
                      indent=2, allow_nan=False) + "\n"


SPECIAL_NUMBERS = [0, 1, -7, 45, 2**64 + 1, -(2**70), 0.0, -0.0, 5e-324,
                   -5e-324, 1e16, -1e16, 1e-7, 0.1, 1e300, 1.7976931348623157e308,
                   np.float64(0.1), np.float64(-0.0), np.float64(1e16)]


def random_number(rng):
    pick = rng.random()
    if pick < 0.4:
        return SPECIAL_NUMBERS[rng.integers(len(SPECIAL_NUMBERS))]
    if pick < 0.7:
        return float(rng.uniform(-180.0, 180.0))
    if pick < 0.85:
        return np.float64(rng.normal() * 10.0 ** rng.integers(-20, 21))
    return int(rng.integers(-10**6, 10**6))


def random_int(rng):
    return int(rng.integers(0, 10**6)) if rng.random() < 0.8 else 2**64 + 7


class Code(enum.IntEnum):
    """An int subclass that is not a bool, which json writes by int's repr."""

    FIRST = 1
    HUGE = 2**64 + 3


def test_geojson_matches_json_on_random_samples():
    rng = np.random.default_rng(808)
    statuses = list(Validity)
    assert export_points_geojson([]) == geojson_reference([])
    coded = [dataclasses.replace(make_sample(i), point_id=code, attempts=Code.FIRST)
             for i, code in enumerate(Code)]
    assert export_points_geojson(coded) == geojson_reference(coded)
    assert '"point_id": 18446744073709551619,' in export_points_geojson(coded)
    for _ in range(300):
        samples = [SoilSample(
            point_id=random_int(rng), timestamp_s=0.0, lat=random_number(rng),
            lon=random_number(rng), target_depth_m=0.05, achieved_depth_m=0.05,
            attempts=random_int(rng), raw_counts=None, temp_c=None,
            ec_us_cm=None,
            theta=None if rng.random() < 0.2 else random_number(rng),
            status=statuses[rng.integers(len(statuses))])
            for _ in range(rng.integers(0, 6))]
        assert export_points_geojson(samples) == geojson_reference(samples)


@pytest.mark.parametrize("field", ["lat", "lon", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float64("-inf")])
def test_geojson_refuses_non_finite_numbers(field, bad):
    samples = [make_sample(1), dataclasses.replace(make_sample(2), **{field: bad})]
    with pytest.raises(ValueError):
        geojson_reference(samples)
    with pytest.raises(ValueError):
        export_points_geojson(samples)


@pytest.mark.parametrize("field", ["point_id", "lat", "lon", "theta", "attempts"])
def test_geojson_refuses_non_numbers(field):
    with pytest.raises(TypeError):
        geojson_reference([dataclasses.replace(make_sample(1),
                                               **{field: np.int64(3)})])
    for bad in (np.int64(3), "45.0", True, [1.0]):
        samples = [dataclasses.replace(make_sample(1), **{field: bad})]
        with pytest.raises(TypeError):
            export_points_geojson(samples)


def test_ascii_grid_matches_per_cell_writer():
    rng = np.random.default_rng(909)
    specials = [math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, 5e-324,
                -5e-324, 0.0078125, -0.0078125, 2.5 + 2**-7]
    for _ in range(60):
        ny, nx = rng.integers(1, 25, 2)
        values = rng.uniform(-1.0, 1.0, (ny, nx))
        # odd multiples of 2**-7 end in 5 at the 7th decimal: .6f half-ways
        halfway = rng.random((ny, nx)) < 0.2
        values[halfway] = rng.integers(-10**5, 10**5, halfway.sum()) * 2.0**-7
        for iy in np.flatnonzero(rng.random(ny) < 0.4):
            cells = rng.integers(0, nx, rng.integers(1, nx + 1))
            values[iy, cells] = rng.choice(specials, cells.size)
        grid = MoistureGrid(*rng.uniform(-1e3, 1e3, 2), rng.uniform(0.1, 5.0),
                            values)
        assert export_grid_ascii(grid) == export_grid_ascii_reference(grid)
