"""Scenario document loading and validation."""

import json
import math

import pytest

from soilprobe.errors import ScenarioError
from soilprobe.scenario import bundled_scenarios, load_scenario

from conftest import scenario_doc


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
    with pytest.raises(ScenarioError, match="seed"):
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
    (lambda d: d.pop("field"), "required"),
    (lambda d: d.pop("mission"), "required"),
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
    pytest.param(_set(("field",), []), "field: expected an object", id="field-list"),
    pytest.param(_set(("field", "blobs"), {}), "expected a list", id="blobs-object"),
    pytest.param(_set(("mission", "waypoints"), 5), "expected a list",
                 id="waypoints-number"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "lat": "x", "lon": 7.5}]),
                 r"waypoints\[0\]", id="waypoint-lat-string"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1.5, "x": 1, "y": 1}]),
                 "integer", id="waypoint-id-float"),
    pytest.param(_set(("mission", "waypoints"), [{"id": [1], "x": 1, "y": 1}]),
                 r"waypoint id \[1\] is not an integer", id="waypoint-id-list"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "x": 1, "y": 1, "z": 5}]),
                 r"^mission\.waypoints\[0\]: unknown keys \['z'\]$",
                 id="waypoint-unknown-key"),
    pytest.param(_set(("mission", "waypoints"), [{"id": 1, "x": 1, "y": 1,
                                                  "lat": "a"}]),
                 r"^mission\.waypoints\[0\]: need exactly one of x/y or lat/lon$",
                 id="waypoint-xy-and-lat"),
    pytest.param(_set(("mission", "waypoints"), [{"x": 1, "y": 1}]),
                 r"^mission\.waypoints\[0\]: missing required keys \['id'\]$",
                 id="waypoint-no-id"),
    pytest.param(_set(("mission", "waypoints"), [5]),
                 r"^mission\.waypoints\[0\]: expected an object, got int$",
                 id="waypoint-number"),
    # JSON ints that each fit a float but whose int sum or difference
    # does not once raised OverflowError
    *(pytest.param(lambda d, side=side: (
        d["field"].update({side: 10 ** 308}),
        d.update(sampler={"reposition_offset_m": 8 * 10 ** 307})),
        r"^field: .* overflows$", id=f"{side}-plus-offset-int")
      for side in ("width_m", "height_m")),
    *(pytest.param(lambda d, key=key: (
        d["field"].update({"origin_" + key: 10 ** 308}),
        d["mission"].update(waypoints=[{"id": 1, "lat": 45, "lon": 7, key: -10 ** 308}])),
        r"^mission: waypoint 1: x and y must be finite$", id=f"{key}-less-origin-int")
      for key in ("lat", "lon")),
    pytest.param(_set(("field", "blobs"), [{}]),
                 r"^field\.blobs: missing required keys \['cx', 'cy', 'sigma_m', "
                 r"'amplitude'\]$", id="blob-empty"),
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
    pytest.param(_set(("mission",), {"generate": 5}), "expected an object",
                 id="generate-number"),
])
def test_bad_documents_raise_scenario_error(tmp_path, mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=needle):
        load_scenario(write_doc(tmp_path, doc))


def test_generate_block_key_errors(tmp_path):
    doc = minimal_doc()
    doc["mission"] = {"generate": {"count": 3, "seed": 1}}
    with pytest.raises(ScenarioError, match="min_spacing_m"):
        load_scenario(write_doc(tmp_path, doc))
    doc["mission"] = {"generate": {"count": 3, "min_spacing_m": 1.0, "seed": 1,
                                   "shape": "ring"}}
    with pytest.raises(ScenarioError, match="unknown"):
        load_scenario(write_doc(tmp_path, doc))


def test_unreadable_references(tmp_path):
    with pytest.raises(ScenarioError, match="bundled"):
        load_scenario("no_such_scenario")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(bad)
    top_list = tmp_path / "list.json"
    top_list.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="object"):
        load_scenario(top_list)


def test_an_int_of_too_many_digits_is_a_scenario_error(tmp_path):
    # int() refuses more than 4,300 digits with a ValueError that is not a
    # JSONDecodeError; it once escaped load_scenario as it was
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(minimal_doc()).replace('"seed": 5',
                                                      '"seed": ' + "1" * 5000))
    with pytest.raises(ScenarioError, match=r"^digits: invalid JSON: .*4300 digits"):
        load_scenario(path)


FLOATS = ("a", [1], {}, None, 10 ** 400)
# an int key takes an int of any size: 10 ** 400 is a valid seed, and a
# count that cannot be placed (InfeasibleError), not a mistyped one
INTS = FLOATS[:-1]


KEY_CASES = [
    *((f"field.{key}", FLOATS, f"field: {key} must be finite")
      for key in ("origin_lat", "origin_lon", "base_theta", "noise_sigma_raw")),
    *((f"field.{key}", FLOATS, f"field: {key} must be finite and > 0")
      for key in ("width_m", "height_m")),
    ("field.seed", INTS, "field: seed must be a non-negative integer"),
    *((f"field.blobs.0.{key}", FLOATS, f"field.blobs: {key} must be finite")
      for key in ("cx", "cy", "amplitude")),
    ("field.blobs.0.sigma_m", FLOATS, "field.blobs: sigma_m must be finite and > 0"),
    *((f"field.obstructions.0.{key}", FLOATS, f"field.obstructions: {key} must be finite")
      for key in ("cx", "cy")),
    ("field.obstructions.0.radius_m", FLOATS,
     "field.obstructions: radius_m must be finite and > 0"),
    *((f"sampler.{key}", FLOATS, f"sampler: {key} must be finite")
      for key in ("target_depth_m", "settle_s", "reposition_offset_m")),
    ("sampler.max_attempts", FLOATS,
     "sampler: max_attempts must be an integer in [1, 100]"),
    *((f"actuator.{key}", FLOATS, f"actuator: {key} must be finite and > 0")
      for key in ("steps_per_metre", "max_depth_m", "step_rate_hz")),
    *((f"calib.{key}", FLOATS, f"calib: {key} must be finite")
      for key in ("theta_min", "theta_max", "depth_tol_m")),
    ("mission.speed_mps", FLOATS, "mission: speed_mps must be finite and > 0"),
    *((f"mission.waypoints.0.{key}", FLOATS,
       "mission: waypoint 1: x and y must be finite") for key in ("x", "y")),
    *((f"mission.waypoints.1.{key}", FLOATS,
       "mission.waypoints[1]: lat and lon must be finite") for key in ("lat", "lon")),
    ("mission.generate.count", INTS, "mission.generate: count must be an integer >= 1"),
    ("mission.generate.min_spacing_m", FLOATS,
     "mission.generate: min_spacing_m must be finite and >= 0"),
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
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_doc(tmp_path, doc))
        assert str(exc.value) == line, value

