"""Scenario document loading and validation."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from soilprobe import mission
from soilprobe.errors import ConfigError
from soilprobe.mission import generate_waypoints
from soilprobe.scenario import bundled_scenarios, load_scenario

from conftest import make_field, scenario_doc


def minimal_doc(**overrides):
    doc = {
        "field": {"origin_lat": 45.0, "origin_lon": 7.5, "width_m": 10.0,
                  "height_m": 10.0, "base_theta": 0.25, "seed": 5},
        "mission": {"waypoints": [{"id": 1, "x": 2.0, "y": 2.0},
                                  {"id": 2, "x": 5.0, "y": 5.0}]},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_bundled_paper_field_loads():
    assert "paper_field" in bundled_scenarios()
    scn = load_scenario("paper_field")
    assert scn.name == "paper_field"
    m = scn.mission
    assert len(m.waypoints) == 95
    assert len(m.field.obstructions) == 25
    assert m.field.width_m == 19.0 and m.field.height_m == 20.0
    assert m.sampler.target_depth_m == 0.05
    assert m.sampler.max_attempts == 3
    # every obstruction disk sits on a waypoint and swallows the retries
    for d in m.field.obstructions:
        assert d.radius_m >= m.sampler.reposition_offset_m
        assert any((w.x, w.y) == (d.cx, d.cy) for w in m.waypoints)


def test_load_from_path_and_defaults(tmp_path):
    scn = load_scenario(write_doc(tmp_path, minimal_doc()))
    assert scn.name == "scn"
    assert scn.mission.speed_mps == 0.5          # defaulted
    assert scn.mission.sampler.settle_s == 1.0   # defaulted
    assert [w.id for w in scn.mission.waypoints] == [1, 2]


def test_seed_override_touches_only_the_field(tmp_path):
    path = write_doc(tmp_path, minimal_doc())
    base = load_scenario(path)
    bumped = load_scenario(path, seed_override=99)
    assert bumped.mission.field.seed == 99
    assert base.mission.field.seed == 5
    assert bumped.mission.waypoints == base.mission.waypoints
    with pytest.raises(ConfigError, match="seed"):
        load_scenario(path, seed_override=-1)


def test_generate_block(tmp_path):
    doc = minimal_doc()
    doc["mission"] = {"generate": {"count": 12, "min_spacing_m": 1.0, "seed": 3}}
    scn = load_scenario(write_doc(tmp_path, doc))
    assert len(scn.mission.waypoints) == 12


def test_lat_lon_waypoints_convert(tmp_path):
    doc = minimal_doc()
    doc["mission"] = {"waypoints": [{"id": 1, "lat": 45.0, "lon": 7.5}]}
    scn = load_scenario(write_doc(tmp_path, doc))
    w = scn.mission.waypoints[0]
    assert abs(w.x) < 1e-9 and abs(w.y) < 1e-9


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _generate(count=3, min_spacing_m=1.0, seed=1):
    return _set(("mission",), {"generate": {
        "count": count, "min_spacing_m": min_spacing_m, "seed": seed}})


@pytest.mark.parametrize("mutate,needle", [
    pytest.param(lambda d: d.pop("field"), "^scn: missing fields: field$",
                 id="missing-field"),
    pytest.param(lambda d: d.pop("mission"), "^scn: missing fields: mission$",
                 id="missing-mission"),
    (lambda d: d["field"].pop("seed"), "seed"),
    (lambda d: d["field"].update(widht_m=3), "unknown"),
    (lambda d: d.update(extra={}), "unknown"),
    # map parameters are flags of `map`, not scenario keys
    pytest.param(lambda d: d.update(idw={}), "unknown", id="idw-block"),
    (lambda d: d["mission"].update(generate={"count": 3, "min_spacing_m": 1,
                                             "seed": 1}), "exactly one"),
    (lambda d: d["mission"].pop("waypoints"), "exactly one"),
    (lambda d: d["mission"]["waypoints"].append({"id": 3}), "x/y or lat/lon"),
    (lambda d: d["mission"]["waypoints"].append({"id": 1, "x": 1, "y": 1}),
     "unique"),
    (lambda d: d["mission"]["waypoints"].append({"id": 3, "x": 99, "y": 1}),
     "outside"),
    (lambda d: d.update(sampler={"target_depth_m": 0.5}), "max depth"),
    (lambda d: d.update(calib={"theta_min": 1.0, "theta_max": 0.1}),
     "theta_min"),
    pytest.param(_set(("field", "seed"), -1), "seed", id="seed-negative"),
    pytest.param(_set(("field", "seed"), "abc"), "seed", id="seed-string"),
    pytest.param(_set(("field", "seed"), 1.5), "seed", id="seed-float"),
    pytest.param(_set(("field", "width_m"), math.nan), "width_m", id="width-nan"),
    pytest.param(_set(("field", "width_m"), 10 ** 400), "field", id="width-huge-int"),
    pytest.param(_set(("field", "base_theta"), math.inf), "base_theta",
                 id="base-theta-inf"),
    pytest.param(_set(("field", "blobs"), [{"cx": 1, "cy": 1, "sigma_m": 1,
                                            "amplitude": math.inf}]),
                 "amplitude", id="blob-inf"),
    pytest.param(_set(("field", "obstructions"), [{"cx": math.nan, "cy": 1,
                                                   "radius_m": 1}]),
                 "cx", id="disk-nan"),
    pytest.param(_set(("field",), []), "^field: expected a JSON object, got an array$",
                 id="field-list"),
    pytest.param(_set(("field", "blobs"), {}),
                 "^field.blobs: expected a JSON array, got an object$", id="blobs-object"),
    pytest.param(_set(("mission", "waypoints"), 5),
                 "^mission.waypoints: expected a JSON array, got a number$",
                 id="waypoints-number"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "lat": "x", "lon": 7.5}]),
                 r"waypoints\[0\]", id="waypoint-lat-string"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1.5, "x": 1, "y": 1}]),
                 "integer", id="waypoint-id-float"),
    pytest.param(_set(("mission", "waypoints"), [{"id": [1], "x": 1, "y": 1}]),
                 r"waypoint id \[1\] is not an integer", id="waypoint-id-list"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "x": 1, "y": 1, "z": 5}]),
                 r"^mission\.waypoints\[0\]: unknown fields: 'z'$",
                 id="waypoint-unknown-key"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "x": 1, "y": 1,
                                                  "lat": "a"}]),
                 r"^mission\.waypoints\[0\]: need exactly one of x/y or lat/lon$",
                 id="waypoint-xy-and-lat"),
    pytest.param(_set(("mission", "waypoints"), [{"x": 1, "y": 1}]),
                 r"^mission\.waypoints\[0\]: missing fields: id$",
                 id="waypoint-no-id"),
    pytest.param(_set(("mission", "waypoints"), [5]),
                 r"^mission\.waypoints\[0\]: expected a JSON object, got a number$",
                 id="waypoint-number"),
    # JSON ints that each fit a float but whose int sum or difference
    # does not once raised OverflowError; such sides are now refused by
    # their range
    *(pytest.param(lambda d, side=side: (
        d["field"].update({side: 10 ** 308}),
        d.update(sampler={"reposition_offset_m": 8 * 10 ** 307})),
        rf"^field: {side} must be a number within \[0\.001, 100000\] m$",
        id=f"{side}-plus-offset-int")
      for side in ("width_m", "height_m")),
    # an origin that far out is now refused by its key, before any waypoint
    *(pytest.param(lambda d, key=key: (
        d["field"].update({"origin_" + key: 10 ** 308}),
        d["mission"].update(waypoints=[{"id": 1, "lat": 45, "lon": 7, key: -10 ** 308}])),
        rf"^field: origin_{key} must be a number within \[-{bound}, {bound}\] deg$",
        id=f"{key}-less-origin-int")
      for key, bound in (("lat", 90), ("lon", 180))),
    pytest.param(_set(("field", "blobs"), [{}]),
                 r"^field\.blobs: missing fields: cx, cy, sigma_m, amplitude$",
                 id="blob-empty"),
    pytest.param(_set(("mission", "speed_mps"), math.nan), "speed_mps",
                 id="speed-nan"),
    pytest.param(_set(("sampler",), {"target_depth_m": math.nan}),
                 "target_depth_m", id="target-depth-nan"),
    pytest.param(_set(("sampler",), {"settle_s": math.inf}), "settle_s",
                 id="settle-inf"),
    pytest.param(_set(("sampler",), {"max_attempts": 2.0}), "max_attempts",
                 id="max-attempts-float"),
    pytest.param(_set(("sampler",), {"max_attempts": 10 ** 19}), "max_attempts",
                 id="max-attempts-huge"),
    pytest.param(_set(("field", "blobs"), [{"cx": 1, "cy": 1, "sigma_m": 5e-324,
                                            "amplitude": 0.1}]),
                 "sigma_m", id="blob-sigma-underflow"),
    pytest.param(_set(("actuator",), {"step_rate_hz": math.inf}), "step_rate_hz",
                 id="step-rate-inf"),
    pytest.param(_set(("calib",), {"depth_tol_m": math.nan}), "depth_tol_m",
                 id="depth-tol-nan"),
    pytest.param(_generate(seed=-1), "seed", id="generate-seed-negative"),
    pytest.param(_generate(seed="1"), "seed", id="generate-seed-string"),
    pytest.param(_generate(count="5"), "count", id="generate-count-string"),
    pytest.param(_generate(count=0), "count", id="generate-count-zero"),
    pytest.param(_generate(count=True), "count", id="generate-count-bool"),
    pytest.param(_generate(min_spacing_m=math.nan), "min_spacing_m",
                 id="generate-spacing-nan"),
    pytest.param(_generate(min_spacing_m=-1.0), "min_spacing_m",
                 id="generate-spacing-negative"),
    pytest.param(_generate(min_spacing_m="1"), "min_spacing_m",
                 id="generate-spacing-string"),
    pytest.param(_set(("mission",), {"generate": 5}),
                 "^mission.generate: expected a JSON object, got a number$",
                 id="generate-number"),
])
def test_bad_documents_raise_scenario_error(tmp_path, mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        load_scenario(write_doc(tmp_path, doc))


def test_an_infeasible_layout_names_the_generate_block(tmp_path, monkeypatch):
    # an infeasible layout once left load_scenario as it was, naming no key;
    # 20 draws reach the same refusal as 100,000
    monkeypatch.setattr(mission, "REJECTION_TRIAL_LIMIT", 20)
    doc = minimal_doc()
    doc["mission"] = {"generate": {"count": 2, "min_spacing_m": 100.0, "seed": 1}}
    with pytest.raises(ConfigError, match=r"^mission\.generate: placed 1 of 2 "
                       r"points after 20 draws; spacing 100\.0 m does not fit"):
        load_scenario(write_doc(tmp_path, doc))


def test_generate_block_key_errors(tmp_path):
    doc = minimal_doc()
    doc["mission"] = {"generate": {"count": 3, "seed": 1}}
    with pytest.raises(ConfigError, match="min_spacing_m"):
        load_scenario(write_doc(tmp_path, doc))
    doc["mission"] = {"generate": {"count": 3, "min_spacing_m": 1.0, "seed": 1,
                                   "shape": "ring"}}
    with pytest.raises(ConfigError, match="unknown"):
        load_scenario(write_doc(tmp_path, doc))


def test_unreadable_references(tmp_path):
    with pytest.raises(ConfigError, match="bundled"):
        load_scenario("no_such_scenario")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError, match="^bad: Expecting property name"):
        load_scenario(bad)
    top_list = tmp_path / "list.json"
    top_list.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="^list: expected a JSON object, got an array$"):
        load_scenario(top_list)


@pytest.mark.parametrize("name,kind", [
    (["x"], "an array"), (None, "null"), ({"a": 1}, "an object"), (5, "a number"),
    (1.5, "a number"), (True, "a boolean"),
])
def test_a_name_that_is_not_a_string_is_refused(tmp_path, name, kind):
    # once run, and printed as a Python repr: scenario '['x']'
    with pytest.raises(ConfigError) as exc:
        load_scenario(write_doc(tmp_path, minimal_doc(name=name)))
    assert str(exc.value) == f"name: expected a JSON string, got {kind}"
    assert load_scenario(write_doc(tmp_path, minimal_doc(name="x\ny"))).name == "x\ny"


def test_an_int_of_too_many_digits_is_a_scenario_error(tmp_path):
    # int() refuses more than 4,300 digits with a ValueError that is not a
    # JSONDecodeError; it once escaped load_scenario as it was
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(minimal_doc()).replace('"seed": 5',
                                                      '"seed": ' + "1" * 5000))
    with pytest.raises(ConfigError, match=r"^digits: Exceeds the limit \(4300 digits\)"):
        load_scenario(path)


def test_a_count_no_field_holds_is_refused_before_any_draw(tmp_path, monkeypatch):
    # 10 ** 30 points once spent all 100,000 draws before the refusal; each
    # draw places at most one point, so a count above the draws allowed is
    # refused before the first, whatever the spacing
    doc = json.loads(resources.files("soilprobe").joinpath(
        "scenarios", "paper_field.json").read_text())
    doc["mission"] = {"generate": {"count": 10 ** 30, "min_spacing_m": 1.0, "seed": 1}}
    path = write_doc(tmp_path, doc)

    def no_draws(seed):
        raise AssertionError("a generator was created")
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"mission.generate: count {10 ** 30} exceeds the 100000 draws "
            "allowed; each draw places at most one point")
        # (width, height, count, spacing, seed, max_trials): spacings whose
        # square is 0 on paper_field's sides, and two layouts that used to
        # spend their budget first
        for width, height, count, spacing, seed, max_trials in [
                (19.0, 20.0, 10 ** 30, 0.0, 1, 50),
                (19.0, 20.0, 10 ** 30, 5e-324, 1, 50),
                (5.0, 5.0, 30, 1.0, 0, 20),
                (1.0, 1.0, 5, 0.0, 4, 4)]:
            field = make_field(width=width, height=height)
            patch.setattr(mission, "REJECTION_TRIAL_LIMIT", max_trials)
            with pytest.raises(ConfigError) as info:
                generate_waypoints(field, count, spacing, seed)
            assert str(info.value) == (
                f"count {count} exceeds the {max_trials} draws allowed; "
                "each draw places at most one point")


FLOATS = ("a", [1], {}, None, True, False, 10 ** 400)
# an int key takes an int of any size: 10 ** 400 is a valid seed, and a
# count that cannot be placed, not a mistyped one
INTS = FLOATS[:-1]


def _number(block, key, bounds):
    return f"{block}: {key} must be a number within {bounds}"


KEY_CASES = [
    ("field.origin_lat", FLOATS, _number("field", "origin_lat", "[-90, 90] deg")),
    ("field.origin_lon", FLOATS, _number("field", "origin_lon", "[-180, 180] deg")),
    ("field.base_theta", FLOATS, _number("field", "base_theta", "[-1, 1] m3/m3")),
    ("field.noise_sigma_raw", FLOATS,
     _number("field", "noise_sigma_raw", "[0, 1000] counts")),
    *((f"field.{key}", FLOATS, _number("field", key, "[0.001, 100000] m"))
      for key in ("width_m", "height_m")),
    ("field.seed", INTS, "field: seed must be a non-negative integer"),
    *((f"field.blobs.0.{key}", FLOATS, _number("field.blobs", key, "[-1e+06, 1e+06] m"))
      for key in ("cx", "cy")),
    ("field.blobs.0.amplitude", FLOATS,
     _number("field.blobs", "amplitude", "[-1, 1] m3/m3")),
    ("field.blobs.0.sigma_m", FLOATS, _number("field.blobs", "sigma_m", "[0.001, 100000] m")),
    *((f"field.obstructions.0.{key}", FLOATS,
       _number("field.obstructions", key, "[-1e+06, 1e+06] m")) for key in ("cx", "cy")),
    ("field.obstructions.0.radius_m", FLOATS,
     _number("field.obstructions", "radius_m", "[0.001, 1000] m")),
    ("sampler.target_depth_m", FLOATS, _number("sampler", "target_depth_m", "[0, 5] m")),
    ("sampler.settle_s", FLOATS, _number("sampler", "settle_s", "[0, 3600] s")),
    ("sampler.reposition_offset_m", FLOATS,
     _number("sampler", "reposition_offset_m", "[0, 1000] m")),
    ("sampler.max_attempts", FLOATS,
     "sampler: max_attempts must be an integer within [1, 100]"),
    ("actuator.steps_per_metre", FLOATS,
     _number("actuator", "steps_per_metre", "[1, 1e+06] steps/m")),
    ("actuator.max_depth_m", FLOATS, _number("actuator", "max_depth_m", "[0.001, 5] m")),
    ("actuator.step_rate_hz", FLOATS, _number("actuator", "step_rate_hz", "[1, 1e+06] Hz")),
    *((f"calib.{key}", FLOATS, _number("calib", key, "[-1, 1] m3/m3"))
      for key in ("theta_min", "theta_max")),
    ("calib.depth_tol_m", FLOATS, _number("calib", "depth_tol_m", "[0, 5] m")),
    ("mission.speed_mps", FLOATS, _number("mission", "speed_mps", "[0.001, 100] m/s")),
    *((f"mission.waypoints.0.{key}", FLOATS,
       _number("mission.waypoints[0]", key, "[0, 100000] m")) for key in ("x", "y")),
    ("mission.waypoints.1.lat", FLOATS,
     _number("mission.waypoints[1]", "lat", "[-90, 90] deg")),
    ("mission.waypoints.1.lon", FLOATS,
     _number("mission.waypoints[1]", "lon", "[-180, 180] deg")),
    ("mission.generate.count", INTS, "mission.generate: count must be an integer >= 1"),
    ("mission.generate.min_spacing_m", FLOATS,
     _number("mission.generate", "min_spacing_m", "[0, 100000] m")),
    ("mission.generate.seed", INTS,
     "mission.generate: seed must be a non-negative integer"),
]


@pytest.mark.parametrize("path,values,line", KEY_CASES, ids=[c[0] for c in KEY_CASES])
def test_a_non_number_is_refused_by_its_key(tmp_path, path, values, line):
    # these once met a builtin operator or float() and reported its text,
    # such as "field: must be real number, not str", naming no key
    keys = tuple(int(k) if k.isdigit() else k for k in path.split("."))
    for value in values:
        doc = scenario_doc(generate="generate" in keys)
        _set(keys, value)(doc)
        with pytest.raises(ConfigError) as exc:
            load_scenario(write_doc(tmp_path, doc))
        assert str(exc.value) == line, value

