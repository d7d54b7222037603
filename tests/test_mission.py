"""Waypoint generation, hull geometry, mission execution, log I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest

from soilprobe.actuator import ActuatorConfig
from soilprobe.calib import Validity
from soilprobe.errors import DegenerateError, InfeasibleError, LogFormatError
from soilprobe import mission
from soilprobe.fieldsim import Disk
from soilprobe.geomap import IdwParams
from soilprobe.mission import (MissionConfig, MissionSummary, Waypoint,
                               convex_hull, convex_hull_area, dump_sample_log,
                               dump_summary, generate_waypoints,
                               parse_sample_log, read_sample_log,
                               read_summary, run_mission, sample_from_dict,
                               sample_to_dict, select_valid)

from conftest import generate_waypoints_reference, make_field


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
    with pytest.raises(InfeasibleError):
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
    (1e6, 1e6, 150, 5e4, 9),
    (1e-3, 1e-3, 60, 1e-4, 10),
    (10.0, 10.0, 1, 1e300, 11),
    (10.0, 10.0, 1, 10 ** 300, 13),    # an int spacing near the float limit
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
    (10.0, 10.0, 2, 1e300, 1, 1000),
    (20.0, 20.0, 400, 1.0, 2, 5000),
    (5.0, 5.0, 30, 1.0, 0, 20),
    (1.0, 1.0, 5, 0.0, 4, 4),
]


@pytest.mark.parametrize("width,height,count,spacing,seed,max_trials",
                         INFEASIBLE_SWEEP)
def test_generate_waypoints_infeasible_matches_reference(width, height, count,
                                                         spacing, seed, max_trials):
    field = make_field(width=width, height=height)
    with pytest.raises(InfeasibleError) as expected:
        generate_waypoints_reference(field, count, spacing, seed, max_trials)
    with pytest.raises(InfeasibleError) as got:
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
    with pytest.raises(DegenerateError):
        convex_hull_area([(0, 0), (1, 1)])
    with pytest.raises(DegenerateError):
        convex_hull_area([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateError):
        convex_hull_area([(1, 1), (1, 1), (1, 1)])


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
    (lambda v: IdwParams(power=v), "power"),
    (lambda v: IdwParams(cutoff_radius_m=v), "cutoff_radius_m"),
    (lambda v: IdwParams(exact_radius_m=v), "exact_radius_m"),
    (lambda v: MissionConfig(field=make_field(), waypoints=(Waypoint(1, 1, 1),),
                             speed_mps=v), "speed_mps"),
])
def test_positive_fields_name_themselves(build, name):
    for bad in (0, 0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be finite and > 0"
    build(5e-324)


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
    assert read_sample_log(path) == samples
    spath = tmp_path / "summary.json"
    spath.write_text(dump_summary(summary), encoding="ascii")
    assert read_summary(spath) == summary


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
        assert sample_from_dict(sample_to_dict(s)) == s


def test_parse_log_reports_offending_line():
    good = dump_sample_log(run_mission(simple_mission(2))[0]).splitlines()
    lines = [good[0], "{not json", good[1]]
    with pytest.raises(LogFormatError) as err:
        parse_sample_log(lines)
    assert err.value.line_no == 2
    with pytest.raises(LogFormatError) as err:
        parse_sample_log(['{"point_id": 1}'])
    assert err.value.line_no == 1


def _valid_record(**changes):
    rec = {"point_id": 3, "timestamp_s": 12, "lat": 45.0, "lon": 7.5,
           "target_depth_m": 0.05, "achieved_depth_m": 0.05, "attempts": 1,
           "raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0,
           "theta": 0.25, "status": "valid"}
    rec.update(changes)
    return json.dumps(rec)


def test_parse_log_keeps_values_unconverted():
    line = _valid_record()
    (sample,) = parse_sample_log([line])
    assert type(sample.timestamp_s) is int  # an int is a number; kept as is
    assert dump_sample_log([sample]) == line + "\n"
    flagged = _valid_record(raw_counts=None, temp_c=None, ec_us_cm=None,
                            theta=None, status="sensor_error")
    assert dump_sample_log(parse_sample_log([flagged])) == flagged + "\n"


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
])
def test_parse_log_rejects_mistyped_fields(changes, needle):
    lines = [_valid_record(), _valid_record(**changes)]
    with pytest.raises(LogFormatError, match=needle) as err:
        parse_sample_log(lines)
    assert err.value.line_no == 2


def test_writers_refuse_nan():
    (sample,) = parse_sample_log([_valid_record()])
    with pytest.raises(ValueError):
        dump_sample_log([dataclasses.replace(sample, theta=math.nan)])
    with pytest.raises(ValueError):
        dump_summary(MissionSummary(1, 1, 0, math.nan, 0.0))


def test_parse_log_empty_and_blank_lines(tmp_path):
    assert parse_sample_log([]) == []
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_sample_log(path) == []
    assert parse_sample_log(["", "  "]) == []


def test_summary_serialization_shape():
    summary = MissionSummary(5, 3, 2, 120.5, 44.0)
    text = dump_summary(summary)
    d = json.loads(text)
    assert d == {"points_total": 5, "points_valid": 3, "points_invalid": 2,
                 "duration_s": 120.5, "area_convex_hull_m2": 44.0}
