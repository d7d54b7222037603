"""Waypoint generation, hull geometry, mission execution, log I/O."""

import contextlib
import dataclasses
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from soilprobe.actuator import ActuatorConfig
from soilprobe.calib import Validity
from soilprobe.errors import RANGES, ConfigError, LogFormatError
from soilprobe import cli, mission
from soilprobe.fieldsim import EARTH_RADIUS_M, Disk, local_to_wgs84_at
from soilprobe.sampler import SamplerConfig, SoilSample
from soilprobe.mission import (MissionConfig, MissionSummary, Waypoint,
                               convex_hull, convex_hull_area, dump_sample_log,
                               dump_summary, generate_waypoints,
                               parse_sample_log, read_sample_log,
                               run_mission, sample_from_dict, select_valid)

from conftest import (generate_waypoints_reference, make_field,
                      parse_sample_log_reference)


# -- waypoint generation -------------------------------------------------------


def test_generate_waypoints_spacing_by_brute_force():
    field = make_field(width=20.0, height=20.0)
    wps = generate_waypoints(field, 95, 1.0, seed=4242)
    assert len(wps) == 95
    assert sorted(w.id for w in wps) == list(range(1, 96))
    for w in wps:
        assert 0.0 <= w.x <= 20.0 and 0.0 <= w.y <= 20.0
    # brute force over all pairs
    for i, a in enumerate(wps):
        for b in wps[i + 1:]:
            assert math.dist((a.x, a.y), (b.x, b.y)) >= 1.0


def test_generate_waypoints_single_point():
    wps = generate_waypoints(make_field(), 1, 1.0, seed=1)
    assert len(wps) == 1 and wps[0].id == 1
    # an int spacing no float can hold is refused, not overflowed
    with pytest.raises(ValueError, match="min_spacing_m"):
        generate_waypoints(make_field(), 1, 10 ** 400, seed=1)


def test_generate_waypoints_infeasible():
    field = make_field(width=2.0, height=2.0)
    with pytest.raises(ConfigError):
        generate_waypoints(field, 1000, 1.0, seed=3)


def test_generate_waypoints_deterministic_and_tourlike():
    field = make_field()
    a = generate_waypoints(field, 40, 1.0, seed=11)
    b = generate_waypoints(field, 40, 1.0, seed=11)
    assert a == b
    c = generate_waypoints(field, 40, 1.0, seed=12)
    assert a != c
    # emitted in nearest-neighbour order from the origin
    first = min(a, key=lambda w: w.x ** 2 + w.y ** 2)
    assert a[0] == first


# (width, height, count, spacing, seed)
WAYPOINT_SWEEP = [
    (20.0, 20.0, 95, 1.0, 4242),
    (100.0, 37.0, 300, 2.0, 1),
    (100.0, 100.0, 250, 2, 2),         # an int spacing
    (0.5, 300.0, 150, 0.25, 3),
    (3.0, 3.0, 40, 0.3, 4),
    (20.0, 20.0, 200, 0.0, 5),
    (20.0, 20.0, 200, 5e-324, 6),      # spacing_sq underflows to 0
    (20.0, 20.0, 200, 1e-160, 7),      # spacing_sq is subnormal
    (100.0, 100.0, 200, 1e-6, 8),      # cells set by the extent, not the spacing
    (1e5, 1e5, 150, 5e3, 9),           # the widest field
    (1e-3, 1e-3, 60, 1e-4, 10),        # the narrowest field
    (10.0, 10.0, 1, 1e5, 11),          # the widest spacing
    (10.0, 10.0, 1, 10 ** 5, 13),      # the widest spacing, an int
    (7.0, 5.0, 2, 5.0, 12),            # spacing as wide as the field
]


@pytest.mark.parametrize("width,height,count,spacing,seed", WAYPOINT_SWEEP)
def test_generate_waypoints_matches_quadratic_reference(width, height, count,
                                                        spacing, seed):
    field = make_field(width=width, height=height)
    for s in range(seed, seed + 3):
        expected = generate_waypoints_reference(field, count, spacing, s)
        assert generate_waypoints(field, count, spacing, s) == expected


# (width, height, count, spacing, seed, max_trials)
INFEASIBLE_SWEEP = [
    (2.0, 2.0, 1000, 1.0, 3, 20_000),
    (10.0, 10.0, 2, 1e5, 1, 1000),
    (20.0, 20.0, 400, 1.0, 2, 5000),
    # counts above the draws allowed: both refuse before the first draw
    (5.0, 5.0, 30, 1.0, 0, 20),
    (1.0, 1.0, 5, 0.0, 4, 4),
]


@pytest.mark.parametrize("width,height,count,spacing,seed,max_trials",
                         INFEASIBLE_SWEEP)
def test_generate_waypoints_infeasible_matches_reference(width, height, count,
                                                         spacing, seed, max_trials):
    field = make_field(width=width, height=height)
    with pytest.raises(ConfigError) as expected:
        generate_waypoints_reference(field, count, spacing, seed, max_trials)
    with pytest.raises(ConfigError) as got:
        generate_waypoints(field, count, spacing, seed, max_trials)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("points,order", [
    ([(3.0, 4.0), (5.0, 0.0), (0.0, 5.0), (4.0, 3.0)], [0, 3, 1, 2]),
    ([(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)], [0, 2, 1]),
    # numpy's x * x keys of the first two are equal, and of the next two
    # put the first nearer the origin; Python's ** 2 keys, which decide,
    # put the second nearer in both pairs
    ([(0.6629591047443686, 2.9258306898104243),
      (0.3217719193568289, 2.9826938884024656)], None),
    ([(0.3357497907385406, 2.9811528102428806),
      (1.392514441297946, 2.6572360698245587)], None),
])
def test_tour_takes_the_first_of_equally_near_points(points, order):
    if order is None:
        nearest = min(range(len(points)),
                      key=lambda k: points[k][0] ** 2 + points[k][1] ** 2)
        order = [nearest, 1 - nearest]
    assert mission._nearest_neighbour_tour(points) == order


# -- convex hull ----------------------------------------------------------------


def brute_force_hull_area(pts):
    """Independent oracle: hull edges found by the all-points-one-side
    test over every point pair, area by shoelace."""
    n = len(pts)
    on_hull = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ax, ay = pts[i]
            bx, by = pts[j]
            left = right = 0
            for k in range(n):
                if k in (i, j):
                    continue
                cx, cy = pts[k]
                cr = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if cr > 0:
                    left += 1
                elif cr < 0:
                    right += 1
            if left == 0 or right == 0:
                on_hull.add((ax, ay))
                on_hull.add((bx, by))
    gx = sum(p[0] for p in on_hull) / len(on_hull)
    gy = sum(p[1] for p in on_hull) / len(on_hull)
    ring = sorted(on_hull, key=lambda p: math.atan2(p[1] - gy, p[0] - gx))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def test_hull_area_unit_square():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert convex_hull_area(square) == 1.0
    # interior points change nothing
    assert convex_hull_area(square + [(0.5, 0.5)]) == 1.0


def test_hull_degenerate_inputs():
    # the monotone chain leaves the extreme points of a line, and no
    # vertex for a single point; the shoelace terms of two points cancel
    assert convex_hull([(0, 0), (1, 1)]) == [(0.0, 0.0), (1.0, 1.0)]
    assert convex_hull_area([(0, 0), (1, 1)]) == 0.0
    assert convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0.0, 0.0), (3.0, 3.0)]
    assert convex_hull_area([(0, 0), (1, 1), (2, 2), (3, 3)]) == 0.0
    assert convex_hull([(1, 1), (1, 1), (1, 1)]) == []
    assert convex_hull_area([(1, 1), (1, 1), (1, 1)]) == 0.0
    assert convex_hull_area([]) == 0.0


def test_hull_matches_brute_force_oracle():
    rng = np.random.default_rng(314)
    pts = [(rng.uniform(0, 19), rng.uniform(0, 20)) for _ in range(100)]
    fast = convex_hull_area(pts)
    assert fast == pytest.approx(brute_force_hull_area(pts), rel=1e-9)
    assert fast <= 380.0
    # monotone under taking subsets
    assert convex_hull_area(pts[:30]) <= fast + 1e-12


def test_hull_vertices_are_counter_clockwise():
    hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    area2 = sum(x0 * y1 - x1 * y0
                for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
    assert area2 > 0


# -- mission execution -----------------------------------------------------------


def simple_mission(n=5, obstructed=(), **field_kwargs):
    field = make_field(
        theta=0.25,
        obstructions=[Disk(2.0 + 3.0 * i, 2.0, 0.12) for i in obstructed],
        **field_kwargs)
    wps = tuple(Waypoint(i + 1, 2.0 + 3.0 * i, 2.0) for i in range(n))
    return MissionConfig(field=field, waypoints=wps)


def test_run_mission_counts_and_conservation():
    samples, summary = run_mission(simple_mission(5, obstructed=(1, 3)))
    assert summary.points_total == 5 == len(samples)
    assert summary.points_valid == 3
    assert summary.points_invalid == 2
    assert summary.points_valid + summary.points_invalid == summary.points_total
    assert [s.status for s in samples] == [
        Validity.VALID, Validity.NOT_PENETRATED, Validity.VALID,
        Validity.NOT_PENETRATED, Validity.VALID]


def test_run_mission_timestamps_and_duration():
    samples, summary = run_mission(simple_mission(4))
    stamps = [s.timestamp_s for s in samples]
    assert stamps == sorted(stamps)
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    # the clock keeps ticking through the last retract (1000 steps, 500 Hz)
    assert summary.duration_s == pytest.approx(stamps[-1] + 2.0)


def test_run_mission_travel_time_first_leg():
    samples, _ = run_mission(simple_mission(1))
    # origin -> (2, 2) at 0.5 m/s, then 2 s lowering, 1 s settle
    expected = math.dist((0, 0), (2, 2)) / 0.5 + 2.0 + 1.0
    assert samples[0].timestamp_s == pytest.approx(expected)


def test_run_mission_is_deterministic():
    cfg = simple_mission(5, obstructed=(2,), noise=25.0, seed=777)
    log1 = dump_sample_log(run_mission(cfg)[0])
    log2 = dump_sample_log(run_mission(cfg)[0])
    assert log1 == log2


def test_valid_sample_invariants_hold():
    samples, _ = run_mission(simple_mission(6, obstructed=(0, 4), noise=20.0))
    for s in samples:
        if s.status is Validity.VALID:
            assert 0.0 <= s.theta <= 0.70
            assert s.achieved_depth_m >= s.target_depth_m - 0.005
        else:
            assert s.attempts == 3   # exhausted every retry


def test_select_valid_partitions_log():
    samples, summary = run_mission(simple_mission(5, obstructed=(1,)))
    valid = select_valid(samples)
    assert len(valid) == summary.points_valid
    assert all(s.status is Validity.VALID for s in valid)
    excluded = [s for s in samples if s not in valid]
    assert all(s.status is not Validity.VALID for s in excluded)


def test_mission_config_validation():
    field = make_field()
    with pytest.raises(ValueError):
        MissionConfig(field=field, waypoints=())
    with pytest.raises(ValueError):
        MissionConfig(field=field, waypoints=(Waypoint(1, -1.0, 0.0),))
    with pytest.raises(ValueError):
        MissionConfig(field=field,
                      waypoints=(Waypoint(1, 1, 1), Waypoint(1, 2, 2)))
    with pytest.raises(ValueError):
        MissionConfig(field=field, waypoints=(Waypoint(1, 1, 1),),
                      speed_mps=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="speed_mps"):
            MissionConfig(field=field, waypoints=(Waypoint(1, 1, 1),),
                          speed_mps=bad)
    with pytest.raises(ValueError, match="integer"):
        MissionConfig(field=field, waypoints=(Waypoint(1.0, 1, 1),))


@pytest.mark.parametrize("build,name", [
    (lambda v: ActuatorConfig(steps_per_metre=v), "steps_per_metre"),
    (lambda v: ActuatorConfig(max_depth_m=v), "max_depth_m"),
    (lambda v: ActuatorConfig(step_rate_hz=v), "step_rate_hz"),
    (lambda v: MissionConfig(field=make_field(), waypoints=(Waypoint(1, 1, 1),),
                             speed_mps=v), "speed_mps"),
])
def test_positive_fields_name_themselves(build, name):
    # every key here has a physical range whose lower bound is above 0
    line = {"steps_per_metre": "steps_per_metre must be a number within [1, 1e+06] steps/m",
            "max_depth_m": "max_depth_m must be a number within [0.001, 5] m",
            "step_rate_hz": "step_rate_hz must be a number within [1, 1e+06] Hz",
            "speed_mps": "speed_mps must be a number within [0.001, 100] m/s"}[name]
    for bad in (0, 0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == line
    with pytest.raises(ConfigError) as info:
        build(5e-324)
    assert str(info.value) == line


@pytest.mark.parametrize("kwargs,line", [
    (lambda: {"speed_mps": 5e-324},
     r"^speed_mps must be a number within \[0\.001, 100\] m/s$"),
    (lambda: {"sampler": SamplerConfig(settle_s=1e308)},
     r"^settle_s must be a number within \[0, 3600\] s$"),
    (lambda: {"actuator": ActuatorConfig(step_rate_hz=5e-324)},
     r"^step_rate_hz must be a number within \[1, 1e\+06\] Hz$"),
    (lambda: {"sampler": SamplerConfig(target_depth_m=1e300),
              "actuator": ActuatorConfig(steps_per_metre=1e10, max_depth_m=1e300)},
     r"^target_depth_m must be a number within \[0, 5\] m$"),
    (lambda: {"sampler": SamplerConfig(reposition_offset_m=1e308)},
     r"^reposition_offset_m must be a number within \[0, 1000\] m$"),
], ids=["speed", "settle", "step-rate", "steps", "extent"])
def test_mission_config_refuses_a_run_that_cannot_finish(kwargs, line):
    # these once built through the API, and run_mission returned an
    # infinite duration_s that dump_summary refused with json's ValueError;
    # each value is now refused by its own range, before any run is checked
    with pytest.raises(ConfigError, match=line):
        MissionConfig(field=make_field(), waypoints=(Waypoint(1, 1, 1),), **kwargs())


def test_mission_config_keeps_every_attempt_on_the_globe():
    # the attempts' extent is the field plus the reposition offset on each
    # side, undoubled: a margin of a millionth of it decides
    field = make_field(width=19.0, height=20.0)
    reach = SamplerConfig().reposition_offset_m
    metres_per_degree = math.radians(EARTH_RADIUS_M)
    north = (field.height_m + reach) / metres_per_degree
    south = reach / metres_per_degree
    metres_per_degree *= math.cos(math.radians(field.origin_lat))  # of longitude
    east = (field.width_m + reach) / metres_per_degree
    west = reach / metres_per_degree
    for edges, fits in ((1 + 1e-6, True), (1 - 1e-6, False)):
        # so near the south pole a degree of longitude is about 1.7 mm wide
        for origin in ({"origin_lat": 90.0 - north * edges},
                       {"origin_lat": -90.0 + south * edges, "width_m": 0.01},
                       {"origin_lon": 180.0 - east * edges},
                       {"origin_lon": -180.0 + west * edges}):
            _check_on_globe(dataclasses.replace(field, **origin), fits)


def _check_on_globe(field, fits):
    build = lambda: MissionConfig(field=field, waypoints=(Waypoint(1, 0.0, 0.0),))
    if fits:
        build()
    else:
        with pytest.raises(ConfigError, match=r"^field: .* reaches past latitude "
                                              r"\[-90, 90\] or longitude \[-180, 180\]$"):
            build()



def test_every_field_on_the_globe_keeps_its_numbers_finite():
    # the globe bound is the only extent check: each mission it accepts has
    # finite latitudes and longitudes at twice its attempts' extent, and a
    # finite 2 * n * x_max * y_max for up to n = 10**9 points.  Sides and
    # offsets span their ranges, [0.001, 1e5] m and [0, 1000] m, odd draws
    # log-uniformly and even ones at an end of a range; half the origins'
    # latitudes lie on a pole and half their longitudes on the antimeridian
    rng = np.random.default_rng(2525)
    accepted, extremes = 0, {}
    for i in range(2_000):
        if i % 2:
            width, height = map(float, 10.0 ** rng.uniform(-3.0, 5.0, size=2))
            reach = float(10.0 ** rng.uniform(-3.0, 3.0))
        else:
            width, height = map(float, rng.choice((1e-3, 1e5), size=2))
            reach = float(rng.choice((0.0, 1e3)))
        lat = float(rng.choice((*rng.uniform(-90.0, 90.0, size=2), -90.0, 90.0)))
        lon = float(rng.choice((*rng.uniform(-180.0, 180.0, size=2), -180.0, 180.0)))
        field = dataclasses.replace(make_field(), origin_lat=lat, origin_lon=lon,
                                    width_m=width, height_m=height)
        sampler = SamplerConfig(reposition_offset_m=reach)
        try:
            cfg = MissionConfig(field=field, waypoints=(Waypoint(1, 0.0, 0.0),),
                                sampler=sampler)
        except ConfigError as exc:
            assert re.fullmatch(r"field: .* reaches past latitude \[-90, 90\] or "
                                r"longitude \[-180, 180\]", str(exc))
            continue
        accepted += 1
        x_max, y_max = 2.0 * (width + reach), 2.0 * (height + reach)
        for s in (-1.0, 1.0):
            corner = local_to_wgs84_at(lat, lon, s * x_max, s * y_max)
            assert all(math.isfinite(v) for v in corner), cfg
        assert math.isfinite(2.0 * 10 ** 9 * x_max * y_max), cfg
        for name, size in (("width", width), ("height", height), ("reach", reach)):
            if size > extremes.get(name, (-1.0,))[0]:
                extremes[name] = (size, cfg)
    assert accepted >= 150  # of 2,000; the globe bound refuses the rest
    assert {size for size, _ in extremes.values()} == {1e5, 1e3}
    # a one-point mission at each accepted extreme runs and writes its records
    for _, cfg in extremes.values():
        samples, summary = run_mission(cfg)
        assert json.loads(dump_summary(summary))["points_total"] == 1
        assert parse_sample_log(dump_sample_log(samples).splitlines())[0] == samples


def test_randomized_missions_hold_invariants():
    # counts conserve, clocks stay monotone, valid rows pass the gates,
    # whatever the layout, obstruction cover, or noise level
    rng = np.random.default_rng(9090)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        wps = []
        while len(wps) < n:
            x, y = rng.uniform(1, 19, size=2)
            if all((x - w.x) ** 2 + (y - w.y) ** 2 >= 1.0 for w in wps):
                wps.append(Waypoint(len(wps) + 1, float(x), float(y)))
        blocked = [w for w in wps if rng.random() < 0.3]
        field = make_field(
            theta=float(rng.uniform(0.1, 0.4)),
            obstructions=[Disk(w.x, w.y, 0.12) for w in blocked],
            noise=float(rng.uniform(0, 30.0)),
            seed=int(rng.integers(1 << 30)))
        samples, summary = run_mission(
            MissionConfig(field=field, waypoints=tuple(wps)))
        assert summary.points_total == n == len(samples)
        assert summary.points_valid + summary.points_invalid == n
        assert summary.points_invalid == len(blocked)
        stamps = [s.timestamp_s for s in samples]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        assert summary.duration_s >= stamps[-1]
        for s in samples:
            if s.status is Validity.VALID:
                assert 0.0 <= s.theta <= 0.70
                assert s.achieved_depth_m >= s.target_depth_m - 0.005


def test_hull_area_in_summary():
    cfg = simple_mission(3)
    field = cfg.field
    wps = (Waypoint(1, 0.0, 0.0), Waypoint(2, 4.0, 0.0), Waypoint(3, 0.0, 3.0),
           Waypoint(4, 4.0, 3.0))
    _, summary = run_mission(MissionConfig(field=field, waypoints=wps))
    assert summary.area_convex_hull_m2 == pytest.approx(12.0)


# -- log serialization ------------------------------------------------------------


def test_log_round_trip(tmp_path):
    samples, summary = run_mission(simple_mission(4, obstructed=(2,)))
    path = tmp_path / "run.jsonl"
    path.write_text(dump_sample_log(samples), encoding="ascii")
    assert read_sample_log(path) == (samples, dump_sample_log(samples).splitlines())
    spath = tmp_path / "summary.json"
    spath.write_text(dump_summary(summary), encoding="ascii")
    assert json.loads(spath.read_text()) == dataclasses.asdict(summary)


def test_log_is_jsonl_with_expected_keys():
    samples, _ = run_mission(simple_mission(2))
    lines = dump_sample_log(samples).splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert list(rec) == ["point_id", "timestamp_s", "lat", "lon",
                         "target_depth_m", "achieved_depth_m", "attempts",
                         "raw_counts", "temp_c", "ec_us_cm", "theta", "status"]
    assert rec["status"] == "valid"


def test_sample_dict_round_trip():
    samples, _ = run_mission(simple_mission(3, obstructed=(1,)))
    for s in samples:
        assert sample_from_dict(json.loads(dump_sample_log([s]))) == s


def test_parse_log_reports_offending_line():
    good = dump_sample_log(run_mission(simple_mission(2))[0]).splitlines()
    lines = [good[0], "{not json", good[1]]
    with pytest.raises(LogFormatError) as err:
        parse_sample_log(lines)
    assert err.value.line_no == 2
    with pytest.raises(LogFormatError) as err:
        parse_sample_log(['{"point_id": 1}'])
    assert err.value.line_no == 1


@pytest.mark.parametrize("endings", [
    ("\r", "\r", "\r"), ("\r\n", "\r\n", "\r\n"), ("\r", "\r\n", "\n"),
    ("\n", "\r", "\r\n"), ("\r\n", "\r", ""),
], ids=["cr", "crlf", "cr-crlf-lf", "lf-cr-crlf", "crlf-cr-none"])
@pytest.mark.parametrize("bad", [b"\xff", b"{"], ids=["not-utf8", "not-json"])
def test_read_log_numbers_lines_as_it_splits_them(tmp_path, endings, bad):
    # a byte that is not UTF-8 is on the line the splitter puts it on, as
    # a JSON error in the same place is
    first, second = _valid_record(point_id=1), _valid_record(point_id=2)
    path = tmp_path / "run.jsonl"
    path.write_bytes(f"{first}{endings[0]}{second}{endings[1]}".encode()
                     + bad + endings[2].encode())
    with pytest.raises(LogFormatError, match="line 3") as err:
        read_sample_log(path)
    assert err.value.line_no == 3
    path.write_bytes(f"{first}{endings[0]}{second}{endings[1]}".encode())
    assert read_sample_log(path)[1] == [first, second]


def _valid_record(**changes):
    rec = {"point_id": 3, "timestamp_s": 12, "lat": 45.0, "lon": 7.5,
           "target_depth_m": 0.05, "achieved_depth_m": 0.05, "attempts": 1,
           "raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0,
           "theta": 0.25, "status": "valid"}
    rec.update(changes)
    return json.dumps(rec)


def test_parse_log_keeps_values_unconverted():
    line = _valid_record()
    (sample,), _ = parse_sample_log([line])
    assert type(sample.timestamp_s) is int  # an int is a number; kept as is
    assert dump_sample_log([sample]) == line + "\n"
    flagged = _valid_record(raw_counts=None, temp_c=None, ec_us_cm=None,
                            theta=None, status="sensor_error")
    assert dump_sample_log(parse_sample_log([flagged])[0]) == flagged + "\n"


@pytest.mark.parametrize("changes,needle", [
    ({"lat": "45.0"}, "lat"),
    ({"lon": None}, "lon"),
    ({"timestamp_s": math.nan}, "timestamp_s"),
    ({"achieved_depth_m": math.inf}, "achieved_depth_m"),
    ({"raw_counts": [1]}, "raw_counts"),
    ({"temp_c": True}, "temp_c"),
    ({"lat": 10 ** 400}, "line 2"),
    ({"point_id": 3.0}, "point_id"),
    ({"point_id": "3"}, "point_id"),
    ({"attempts": True}, "attempts"),
    ({"theta": None}, "theta"),
    ({"theta": math.nan}, "theta"),
    ({"status": "great"}, "great"),
    ({"lat": 90.5}, r"lat must be a number within \[-90, 90\] deg$"),
    ({"lat": -1.7e308}, r"lat must be a number within \[-90, 90\] deg$"),
    ({"lon": -180.5}, r"lon must be a number within \[-180, 180\] deg$"),
    # a line that is JSON but not an object is refused by its JSON type
    (5, "line 2: expected a JSON object, got a number$"),
    (1.5, "line 2: expected a JSON object, got a number$"),
    ("abc", "line 2: expected a JSON object, got a string$"),
    (list(range(12)), "line 2: expected a JSON object, got an array$"),
    (True, "line 2: expected a JSON object, got a boolean$"),
    (None, "line 2: expected a JSON object, got null$"),
])
def test_parse_log_rejects_mistyped_fields(changes, needle):
    # a dict changes fields of a valid record; any other value is the line
    bad = _valid_record(**changes) if type(changes) is dict else json.dumps(changes)
    lines = [_valid_record(), bad]
    with pytest.raises(LogFormatError, match=needle) as err:
        parse_sample_log(lines)
    assert err.value.line_no == 2


# a repeated key is refused as json decodes it, before the field set is
# compared; see tests/test_cli.py for unknown and repeated keys in full records
@pytest.mark.parametrize("line,needle", [
    ('{"point_id": 3, "point_id": 3}', "line 2: field 'point_id' appears more than once"),
    ('{"point_id": 3}', "line 2: missing fields: timestamp_s, lat, lon"),
])
def test_parse_log_takes_each_field_once(line, needle):
    with pytest.raises(LogFormatError, match=needle):
        parse_sample_log([_valid_record(), line])


def test_parse_log_keeps_each_line_beside_its_sample():
    samples, _ = run_mission(simple_mission(3, obstructed=(1,)))
    lines = ["", *dump_sample_log(samples).splitlines(), " "]
    assert parse_sample_log(lines) == (samples, lines[1:-1])


def test_decoded_samples_equal_constructed_ones():
    # sample_from_dict builds a sample without SoilSample's __init__, which
    # is only sound while that __init__ runs no checks of its own
    assert not hasattr(SoilSample, "__post_init__")
    samples, _ = run_mission(simple_mission(3, obstructed=(1,)))
    for s in samples:
        d = json.loads(dump_sample_log([s]))
        decoded = sample_from_dict(d)
        assert decoded == s and hash(decoded) == hash(s) and repr(decoded) == repr(s)
        assert d["status"] == s.status.value  # the caller's dict is left alone
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.theta = 0.0


def test_writers_refuse_nan():
    (sample,), _ = parse_sample_log([_valid_record()])
    bad = dataclasses.replace(sample, theta=math.nan)
    # twice: the one record encoder keeps no trace of a refused record,
    # which would read as a cycle the second time
    for _ in range(2):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_sample_log([bad])
    with pytest.raises(ValueError):
        dump_summary(MissionSummary(1, 1, 0, math.nan, 0.0))


def test_dump_writes_what_the_stock_encoder_writes(monkeypatch):
    # the prebuilt C record encoder, and the stock encoder that serves
    # where the C accelerator is missing, both write json.dumps's bytes
    samples, _ = run_mission(simple_mission(4, obstructed=(2,)))
    expected = "".join(json.dumps(vars(s), allow_nan=False) + "\n" for s in samples)
    assert mission._RECORD_ENCODER is not None
    assert dump_sample_log(samples) == expected
    monkeypatch.setattr(mission, "_RECORD_ENCODER", None)
    assert dump_sample_log(samples) == expected


def test_a_canonical_log_line_is_scanned_once(monkeypatch, tmp_path):
    # counted from outside, at the attribute the reader looks up: no line
    # that simulate writes goes on to the hooked decode, while a line with
    # space around it, a repeated name or trailing data does
    decoded = []
    decode = mission._DECODER.decode

    def counted(line):
        decoded.append(line)
        return decode(line)
    monkeypatch.setattr(mission._DECODER, "decode", counted)
    log = tmp_path / "run.jsonl"
    assert cli.main(["simulate", "--config", "paper_field", "--out-log", str(log),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    samples, lines = read_sample_log(log)
    assert len(samples) == len(lines) == 95
    assert decoded == []
    line = lines[0]
    odd = [f" {line}\t", line[:-1] + ', "lat": 45.0}', line + " {}"]
    for bad in odd:
        with contextlib.suppress(LogFormatError):
            parse_sample_log([bad])
    assert decoded == odd


# what the differential fuzz sets a field to: a value of each JSON type,
# the ones json reads beyond the floats, and integers too large for one
LOG_FUZZ_TYPES = ("a", "", [1], {}, {"a": 1}, True, False, None, math.nan,
                  math.inf, -math.inf, 10 ** 400, -(10 ** 400))


def _range_edges(name):
    """Both ends of ``name``'s log range and one step beyond each: an ulp
    for a number, one for an integer, and each end in the other type."""
    if name not in RANGES["log"]:
        return (0, -1, 2 ** 63, 1.0, "valid", "VALID")
    lo, hi, _ = RANGES["log"][name]
    if type(lo) is int:
        return (lo, hi, lo - 1, hi + 1, float(lo), float(hi))
    return (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
            int(lo), int(hi))


def _record_text(pairs, rng=None, compact=False) -> str:
    """A JSON object of ``pairs``, which may repeat a name, in their order
    or shuffled by ``rng``; json's spacing, or none with ``compact``."""
    pairs = list(pairs)
    if rng:
        rng.shuffle(pairs)
    sep, colon = (",", ":") if compact else (", ", ": ")
    return "{" + sep.join(json.dumps(k) + colon + json.dumps(v) for k, v in pairs) + "}"


def _fuzzed_record_lines(records, rng):
    """Seeded lines built from ``records`` that each hold one fault or two,
    or none, plus lines that are blank or not an object."""
    faults = [(name, value) for name in mission.SAMPLE_FIELDS
              for value in (*LOG_FUZZ_TYPES, *_range_edges(name))]
    lines = ["", "  ", "\t\r", "5", '"abc"', "null", "true", "[]", "{}",
             json.dumps(list(records[0].values())), "{", "x", "[" * 50]
    for record in records:
        items = list(record.items())
        for name, value in faults:  # one field set to one fault
            lines.append(_record_text({**record, name: value}.items()))
        for name in record:  # one field missing, renamed or repeated
            lines.append(_record_text((k, v) for k, v in items if k != name))
            lines.append(_record_text((k + ":" if k == name else k, v) for k, v in items))
            lines.append(_record_text([*items, (name, record[name])]))
            lines.append(_record_text([(name, 0), *items]))
        lines.append(_record_text([*items, ("extra", 1)]))
        for _ in range(40):  # key order, spacing and the space around
            text = _record_text(items, rng, compact=rng.random() < 0.5)
            pad = ["".join(rng.choice(" \t\r") for _ in range(rng.randrange(3)))
                   for _ in range(2)]
            lines.append(pad[0] + text + pad[1])
        for _ in range(150):  # two faults, in shuffled order
            (a, x), (b, y) = rng.sample(faults, 2)
            lines.append(_record_text({**record, a: x, b: y}.items(), rng))
        lines.append(json.dumps(record, indent=1))
        lines.append(json.dumps(record) + " {}")
        # a name repeated inside a field's value
        lines.append(json.dumps({**record, "lat": "@"}).replace('"@"', '{"a": 1, "a": 2}'))
    return lines


def test_parse_log_matches_the_looping_reference_on_fuzzed_records():
    # every line alone and after a valid one: the compiled check and the
    # one-scan reader give the same samples and lines, or the same refusal
    samples, _ = run_mission(simple_mission(4, obstructed=(2,)))
    logged = dump_sample_log(samples).splitlines()
    records = [json.loads(line) for line in logged]
    assert {r["status"] for r in records} == {"valid", "not_penetrated"}

    def outcome(parse, lines):
        try:
            return repr(parse(lines))
        except LogFormatError as exc:
            return type(exc), str(exc), exc.line_no

    cases = _fuzzed_record_lines(records, random.Random(41))
    kinds = Counter()  # refusals and accepted logs
    for line in cases:
        for lines in ([line], [logged[0], line]):
            expected = outcome(parse_sample_log_reference, lines)
            assert outcome(parse_sample_log, lines) == expected, lines[-1]
            kinds["refused" if type(expected) is tuple else "accepted"] += 1
    assert kinds["accepted"] > 200 and kinds["refused"] > 2000


def test_parse_log_empty_and_blank_lines(tmp_path):
    assert parse_sample_log([]) == ([], [])
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_sample_log(path) == ([], [])
    assert parse_sample_log(["", "  "]) == ([], [])


def test_summary_serialization_shape():
    summary = MissionSummary(5, 3, 2, 120.5, 44.0)
    text = dump_summary(summary)
    d = json.loads(text)
    assert d == {"points_total": 5, "points_valid": 3, "points_invalid": 2,
                 "duration_s": 120.5, "area_convex_hull_m2": 44.0}
