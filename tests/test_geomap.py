"""IDW interpolation properties and export formats."""

import json
import math

import numpy as np
import pytest

from soilprobe.calib import Validity
from soilprobe.errors import EmptyInputError
from soilprobe.geomap import (IdwParams, build_grid, export_grid_ascii,
                              export_points_geojson, idw_at, samples_to_local)
from soilprobe.sampler import SoilSample

from conftest import idw_oracle


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
    xy = [(1.0, 1.0), (18.0, 18.0)]
    theta = [0.2, 0.3]
    params = IdwParams(cutoff_radius_m=3.0)
    grid = build_grid(xy, theta, (0, 0, 20, 20), params, cell_size_m=1.0)
    gx, gy = grid.cell_centers()
    for iy, y in enumerate(gy):
        for ix, x in enumerate(gx):
            far = all(math.hypot(x - sx, y - sy) > 3.0 for sx, sy in xy)
            assert math.isnan(grid.values[iy, ix]) == far


def test_grid_cell_containing_sample_echoes_it():
    # query the cell centre placed exactly on a sample
    xy = [(2.5, 2.5), (7.5, 7.5)]
    grid = build_grid(xy, [0.11, 0.44], (0, 0, 10, 10), cell_size_m=5.0)
    assert grid.values[0, 0] == 0.11
    assert grid.values[1, 1] == 0.44


def test_idw_params_validation():
    with pytest.raises(ValueError):
        IdwParams(power=0)
    with pytest.raises(ValueError):
        IdwParams(cutoff_radius_m=0)
    for bad in (math.nan, math.inf):
        for field in ("power", "cutoff_radius_m", "exact_radius_m"):
            with pytest.raises(ValueError):
                IdwParams(**{field: bad})
        with pytest.raises(ValueError):
            build_grid([(0, 0)], [0.1], (0, 0, 1, 1), cell_size_m=bad)
    with pytest.raises(ValueError):
        build_grid([(0, 0)], [0.1], (0, 0, 1, 1), cell_size_m=0)
    with pytest.raises(ValueError):
        build_grid([(0, 0)], [0.1], (1, 0, 0, 1))


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


def test_samples_to_local_anchor():
    samples = [make_sample(1, lat=45.0, lon=7.5),
               make_sample(2, lat=45.0001, lon=7.5002)]
    xy, origin = samples_to_local(samples)
    assert origin == (45.0, 7.5)
    assert xy[0] == pytest.approx([0.0, 0.0])
    assert xy[1][0] > 0 and xy[1][1] > 0
    with pytest.raises(EmptyInputError):
        samples_to_local([])
