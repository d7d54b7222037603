"""The benchmark's tracer, its workloads, the demos and the package's
lazy imports keep working.

``perfbench/tracing.py`` looks up package attributes by name and reads
``VirtualTeros.trace``; a rename inside the package would only show up
when ``perfbench/run.py --trace 1`` runs.  These tests load the tracer
and the workload builder from their files (without editing them), and
run each demo from a copy in a temporary directory.  The import tests
run each command in a fresh interpreter and compare the sets of modules
it loaded.  The record tests hold every value type to ``errors.record``
and each record type's calls to those of its stock dataclass twin.
"""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import soilprobe
from soilprobe import cli, errors, mission, scenario
from soilprobe.calib import Validity
from soilprobe.mission import MissionConfig, Waypoint
from soilprobe.sampler import SoilSample
from soilprobe.sdi12 import RawReading, Verb

from conftest import (declared_ranges, generate_waypoints_reference, make_field,
                      stock_twin)

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_perfbench("tracing")
    for owner, attr, name in tracing.TRACED:
        assert callable(getattr(owner, attr, None)), name


def test_tracer_counts_trace_frames_after_run_mission():
    tracing = load_perfbench("tracing")
    cfg = MissionConfig(field=make_field(), waypoints=(Waypoint(1, 2.0, 2.0),
                                                       Waypoint(2, 5.0, 2.0)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up on the module, as the CLI does, so the wrapper runs
        samples, _ = mission.run_mission(cfg)
    finally:
        tracer.uninstall()
    spans = Counter(span[0] for span in tracer.spans)
    transactions = spans["sdi12.run_transaction"]
    assert len(samples) == 2 and transactions == 2
    # the per-layer figures count where the work happens: one data frame
    # parsed per transaction, and two frames on the wire (aM! and aD0!)
    assert spans["sdi12.parse_data_response"] == transactions
    assert tracer.counts["trace_frames"] == spans["fieldsim.exchange"] == 2 * transactions


def test_no_module_reads_a_private_name_of_another():
    package = ROOT / "src" / "soilprobe"
    modules = {path.stem for path in package.glob("*.py")}
    assert {"sdi12", "fieldsim"} <= modules
    hits = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # names this module binds to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases.add(alias.asname or alias.name)
                    elif node.module is not None and alias.name.startswith("_"):
                        hits.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                hits.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert hits == []


def test_only_cli_main_catches_a_refusal():
    # each command raises; only main turns a SoilProbeError (or anything
    # broader) into a stderr line and an exit code, and no command returns one
    tree = ast.parse((ROOT / "src" / "soilprobe" / "cli.py").read_text(encoding="utf-8"))
    broad = {"SoilProbeError", "Exception", "BaseException"}
    catchers, returns = [], []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and (node.type is None or broad & {
                    getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}):
                catchers.append(name)
            if (name.startswith("cmd_") and isinstance(node, ast.Return)
                    and node.value is not None):
                returns.append(f"{name}:{node.lineno}")
    assert catchers == ["main"]
    assert returns == []
    assert sum(getattr(top, "name", "").startswith("cmd_") for top in tree.body) == 4


def _names(node) -> set:
    """Every name and attribute name under ``node``."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} - {None}


def test_sensor_faults_are_caught_as_one_type():
    # which failures are sensor faults is decided by SensorFault alone: no
    # except lists its subclasses one by one, and silence is not a builtin
    faults = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.SensorFault)
              and value is not errors.SensorFault}
    assert faults == {"FrameError", "ShapeError", "RangeError", "SilenceError"}
    hits = []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = _names(node.type)
                if "TimeoutError" in names or len(names & faults) > 1:
                    hits.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                if "TimeoutError" in _names(node.exc):
                    hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
    tree = ast.parse((ROOT / "src" / "soilprobe" / "sampler.py").read_text(encoding="utf-8"))
    attempt_point = next(node for node in tree.body
                         if getattr(node, "name", None) == "attempt_point")
    assert [_names(node.type) for node in ast.walk(attempt_point)
            if isinstance(node, ast.ExceptHandler)] == [{"SensorFault"}]


def test_every_error_type_is_raised_or_a_base_of_one_that_is():
    # a type nothing raises is a refusal the package only pretends to
    # have; and only errors.prefixed catches a ConfigError to reword it
    defined = {node.name for node in ast.parse(
        (ROOT / "src" / "soilprobe" / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    raised, rewording = set(), []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised |= _names(exc) & defined
                elif (isinstance(node, ast.ExceptHandler) and node.type is not None
                        and "ConfigError" in _names(node.type)):
                    rewording.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    dead = {name for name in defined
            if not any(issubclass(getattr(errors, r), getattr(errors, name))
                       for r in raised)}
    assert dead == set()
    assert sorted(soilprobe._EXPORTS["errors"]) == sorted(defined)
    assert rewording == ["errors.prefixed"]


def test_the_overflow_guards_stay_gone():
    # every number is checked against its physical range where it enters
    # (errors.RANGES), so nothing behind that point can overflow: no
    # handler catches OverflowError, and the cell index's clamp of far
    # and non-finite coordinates is gone
    handlers, limits = [], []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "OverflowError" in _names(node.type)):
                handlers.append(f"{path.name}:{node.lineno}")
            if ("_CELL_LIMIT" in (getattr(node, "id", None), getattr(node, "attr", None))
                    or isinstance(node, ast.FunctionDef) and node.name == "_cell"):
                limits.append(f"{path.name}:{node.lineno}")
    assert handlers == []
    assert limits == []


def test_json_is_read_in_one_module():
    # the sample log's reader in mission is the package's one reader of
    # JSON, which the scenario shares: no other module calls json.loads or
    # json.load or builds a JSONDecoder, and one table of type words
    # (a dict keyed by Python types) names what a decoded value holds
    readers, tables = [], []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _names(node.func) & {
                    "loads", "load", "JSONDecoder"}:
                readers.append(path.name)
            if isinstance(node, ast.Dict) and {"dict", "list", "bool"} & {
                    getattr(key, "id", None) for key in node.keys}:
                tables.append(f"{path.name}:{node.lineno}")
    assert set(readers) == {"mission.py"}
    assert len(tables) == 1 and tables[0].startswith("mission.py:")


def test_every_value_type_is_a_record():
    # errors.record alone decides how a value is built: no module names a
    # stock dataclass decorator, and only sdi12._data_response builds a
    # record by hand, skipping the checks the data-frame grammar has made
    hits = []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                names = {getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.alias) else None}
                if "dataclass" in names and where != "errors.record":
                    hits.append(f"{path.name}:{node.lineno} dataclass")
                if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                        and getattr(node.value, "id", None) == "object"
                        and where != "sdi12._data_response"):
                    hits.append(f"{path.name}:{node.lineno} object.__new__")
    assert hits == []


def test_each_range_block_of_a_record_is_declared_once():
    # errors.record writes the range checks of a block its class declares,
    # so no __post_init__ wires a block by hand: nothing calls
    # require_within, and the one within call left in a __post_init__ is
    # MissionConfig's for speed_mps, made after its waypoint check
    calls, by_hand = [], []
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(top, ast.Call) and "require_within" in _names(top.func):
                calls.append(f"{path.name}:{top.lineno}")
            if not isinstance(top, ast.ClassDef):
                continue
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                    by_hand += [f"{top.name}: {ast.unparse(call)}" for call in ast.walk(node)
                                if isinstance(call, ast.Call) and "within" in _names(call.func)]
    assert calls == [] and not hasattr(errors, "require_within")
    assert by_hand == ["MissionConfig: within('mission', 'speed_mps', self.speed_mps)"]
    declared = Counter(block for _, block, _ in declared_ranges())
    assert declared == dict.fromkeys(("field", "field.blobs", "field.obstructions",
                                      "sampler", "actuator", "calib"), 1)
    for name, block, fields in declared_ranges():
        assert set(errors.RANGES[block]) <= set(fields), name


def _record_types() -> dict:
    """Every record type of the package, by name."""
    types = {}
    for path in sorted((ROOT / "src" / "soilprobe").glob("*.py")):
        module = importlib.import_module(f"soilprobe.{path.stem}")
        types.update((name, value) for name, value in vars(module).items()
                     if isinstance(value, type) and dataclasses.is_dataclass(value)
                     and value.__module__ == module.__name__)
    return types


_READING = RawReading(2000.0, 24.0, 150.0)
_SAMPLE = SoilSample(1, 12.5, 45.0, 7.5, 0.05, 0.05, 1, 2000.0, 24.0, 150.0,
                     0.08, Validity.VALID)
_MISSION = MissionConfig(field=make_field(), waypoints=(Waypoint(1, 2.0, 3.0),))

# keyword arguments that build each record type and, for a type with a
# __post_init__ or a declared range block, changes to them that it refuses
RECORD_CASES = {
    "ActuatorConfig": ({}, {"step_rate_hz": 0.5}),
    "ActuatorState": ({"position_steps": 1000, "depth_m": 0.05}, None),
    "ValidityThresholds": ({}, {"theta_min": 0.9}),
    "Blob": ({"cx": 1.0, "cy": 2.0, "sigma_m": 3.0, "amplitude": 0.1},
             {"sigma_m": 0.0}),
    "Disk": ({"cx": 1.0, "cy": 2.0, "radius_m": 0.5}, {"radius_m": 0.0}),
    "FieldSpec": ({name: getattr(_MISSION.field, name) for name in (
        "origin_lat", "origin_lon", "width_m", "height_m", "base_theta", "seed")},
        {"seed": -1}),
    "MoistureGrid": ({"origin_x": 0.0, "origin_y": 0.0, "cell_size_m": 1.0,
                      "values": np.zeros((2, 3))}, None),
    "Waypoint": ({"id": 1, "x": 2.0, "y": 3.0}, None),
    "MissionConfig": ({"field": _MISSION.field, "waypoints": _MISSION.waypoints},
                      {"waypoints": ()}),
    "MissionSummary": ({"points_total": 2, "points_valid": 1, "points_invalid": 1,
                        "duration_s": 9.5, "area_convex_hull_m2": 0.0}, None),
    "SamplerConfig": ({}, {"max_attempts": 0}),
    "AttemptRecord": ({"attempt_index": 1, "x": 2.0, "y": 3.0,
                       "achieved_depth_m": 0.05, "reading": _READING,
                       "theta": 0.08, "validity": Validity.VALID}, None),
    "SoilSample": (vars(_SAMPLE), None),
    "PointResult": ({"attempts": [], "sample": _SAMPLE}, None),
    "Scenario": ({"name": "small", "mission": _MISSION}, None),
    "Command": ({"verb": Verb.SEND_DATA, "index": 1}, {"index": 10}),
    "MeasureAck": ({"address": "0", "delay_s": 1, "value_count": 3},
                   {"delay_s": 1000}),
    "DataResponse": ({"address": "0", "values": (1.0, 2.0)}, {"address": "!"}),
    "RawReading": (vars(_READING), {"temp_c": 61.0}),
}


def _outcome(make, *args, **kwargs):
    """The type and text of what ``make(*args, **kwargs)`` raised, or
    the repr and ``vars()`` keys of what it built."""
    try:
        built = make(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(built), list(vars(built))


def test_every_record_type_has_a_case():
    assert sorted(_record_types()) == sorted(RECORD_CASES)


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_a_record_answers_each_call_as_its_stock_twin(name, monkeypatch):
    cls = _record_types()[name]
    twin = stock_twin(cls)
    kwargs, refused = RECORD_CASES[name]
    values = [kwargs.get(f.name, f.default) for f in dataclasses.fields(cls)]
    assert _outcome(cls, **kwargs) == _outcome(twin, **kwargs)
    # a missing argument, where a field has no default
    missing = _outcome(cls)
    assert missing == _outcome(twin)
    assert all(f.default is not dataclasses.MISSING for f in dataclasses.fields(cls)) or (
        missing[0] is TypeError and "missing" in missing[1])
    extra = _outcome(cls, *values, None)
    assert extra[0] is TypeError and "positional arguments" in extra[1]
    assert extra == _outcome(twin, *values, None)
    unknown = _outcome(cls, **kwargs, bogus=1)
    assert unknown == (TypeError, f"{name}.__init__() got an unexpected "
                                  "keyword argument 'bogus'")
    assert unknown == _outcome(twin, **kwargs, bogus=1)
    if refused is None:
        assert not hasattr(cls, "__post_init__")
        assert name not in {declared for declared, _, _ in declared_ranges()}
        return
    got = _outcome(cls, **{**kwargs, **refused})
    assert issubclass(got[0], errors.SoilProbeError)
    assert got == _outcome(twin, **{**kwargs, **refused})
    if not hasattr(cls, "__post_init__"):
        return
    calls = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__",
                        lambda self: (calls.append(self), post_init(self))[1])
    built = cls(**kwargs)
    assert len(calls) == 1 and calls[0] is built


@pytest.mark.parametrize("name, block", sorted(
    (name, block) for name, block, _ in declared_ranges()))
def test_a_declared_block_refuses_as_its_stock_twin(name, block):
    # each ranged field set alone to each kind of value within judges, and
    # every one set out of range at once: the checks record writes accept
    # and refuse what the twin's within calls do, first fault first
    cls = _record_types()[name]
    twin = stock_twin(cls)
    kwargs = RECORD_CASES[name][0]
    for key, (lo, hi, _) in errors.RANGES[block].items():
        for value in (lo, hi, float(lo), lo - 1, hi + 1, 2 * hi + 1, math.nan,
                      math.inf, -math.inf, True, False, "1", None, 10**400):
            changed = {**kwargs, key: value}
            assert _outcome(cls, **changed) == _outcome(twin, **changed), (key, value)
    spoiled = {**kwargs, **dict.fromkeys(errors.RANGES[block], math.nan)}
    got = _outcome(cls, **spoiled)
    assert got[0] is errors.ConfigError and got == _outcome(twin, **spoiled)
    assert got[1].startswith(f"{next(iter(errors.RANGES[block]))} must be ")


def test_readme_lists_every_range():
    # the README's range table holds each entry of errors.RANGES, as
    # "| `block.key` | lo | hi | unit |", so the two cannot drift apart
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [f"{block}.{key}" for block, ranges in errors.RANGES.items()
               for key, (lo, hi, unit) in ranges.items()
               if f"| `{block}.{key}` | {lo:g} | {hi:g} | {unit or '-'} |" not in readme]
    assert missing == []


def test_survey_1k_waypoints_match_the_quadratic_reference(tmp_path):
    # ties the benchmark's generated layout, pinned by its golden hashes,
    # to the reference generator
    workloads = load_perfbench("workloads")
    run = workloads.build("survey_1k", workloads.DEFAULT_SEED, ROOT, tmp_path)
    scn = scenario.load_scenario(run["config"])
    generate = json.loads(Path(run["config"]).read_text())["mission"]["generate"]
    expected = generate_waypoints_reference(
        scn.mission.field, generate["count"], generate["min_spacing_m"],
        generate["seed"])
    assert len(expected) == 1000
    assert list(scn.mission.waypoints) == expected


@pytest.mark.parametrize("name", ["survey_1k", "stony_grid"])
def test_generated_workloads_map_to_their_golden_bytes(name, tmp_path):
    # the benchmark's pinned validate and map outputs, checked on every
    # test run too
    workloads = load_perfbench("workloads")
    run = workloads.build(name, workloads.DEFAULT_SEED, ROOT, tmp_path)
    log, valid, points, grid = (tmp_path / f for f in (
        "run.jsonl", "valid.jsonl", "points.geojson", "grid.asc"))
    assert cli.main(["simulate", "--config", run["config"], "--out-log", str(log),
                     "--out-summary", str(tmp_path / "summary.json")]) == 0
    assert cli.main(["validate", "--log", str(log), "--out", str(valid)]) == 0
    assert cli.main(["map", "--log", str(log), "--out-points", str(points),
                     "--out-grid", str(grid), *run["map_flags"]]) == 0
    golden = run["expect"]["sha256"]
    for path in (valid, points, grid):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden[path.name]


# what a demo writes into the out/ directory beside it
DEMO_OUTPUTS = {"05_moisture_mapping.py": ("points.geojson", "grid.asc")}


@pytest.mark.parametrize("script", [
    "01_codec_walkthrough.py",
    "02_calibration_curve.py",
    "03_point_sampling.py",
    "04_mission_run.py",
    "05_moisture_mapping.py",
    "06_fault_injection.py",
])
def test_demo_runs(script, tmp_path, capsys):
    copy = tmp_path / script
    shutil.copy(ROOT / "demos" / script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out
    for name in DEMO_OUTPUTS.get(script, ()):
        assert (tmp_path / "out" / name).stat().st_size > 0


def test_field_scenario_builder_regenerates_paper_field(tmp_path, monkeypatch, capsys):
    # the builder checks its margins with theta_true and runs the mission
    # before it writes; what it writes is the bundled file, byte for byte
    spec = importlib.util.spec_from_file_location(
        "build_field_scenario", ROOT / "demos" / "build_field_scenario.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    monkeypatch.setattr(builder, "OUT", tmp_path / "paper_field.json")
    builder.main()
    bundled = ROOT / "src" / "soilprobe" / "scenarios" / "paper_field.json"
    assert (tmp_path / "paper_field.json").read_bytes() == bundled.read_bytes()
    assert "theta margin to the validity gates" in capsys.readouterr().out


# -- lazy imports ---------------------------------------------------------------

# every public name of the package, under the module that defines it
EXPORTS = {
    "actuator": ("ActuatorConfig", "ActuatorState", "lower_to", "motion_duration"),
    "calib": ("DEFAULT_THRESHOLDS", "Validity", "ValidityThresholds", "classify",
              "raw_to_vwc", "vwc_to_raw"),
    "errors": ("ConfigError", "EmptyInputError", "FrameError", "LogFormatError",
               "RangeError", "SensorFault", "ShapeError", "SilenceError",
               "SoilProbeError"),
    "fieldsim": ("Blob", "CellIndex", "Disk", "FieldSpec", "SimClock",
                 "VirtualTeros", "local_to_wgs84_at", "obstruction_at",
                 "sense_raw", "theta_true", "wgs84_to_local_at"),
    "geomap": ("MoistureGrid", "build_grid", "export_grid_ascii",
               "export_points_geojson", "idw_at"),
    "mission": ("MissionConfig", "MissionSummary", "Waypoint", "convex_hull_area",
                "generate_waypoints", "read_sample_log", "run_mission",
                "select_valid"),
    "sampler": ("AttemptRecord", "PointResult", "SamplerConfig", "SoilSample",
                "attempt_point"),
    "scenario": ("Scenario", "bundled_scenarios", "load_scenario"),
    "sdi12": ("Command", "DataResponse", "MeasureAck", "RawReading", "Verb",
              "decode_reading", "encode_command", "parse_command",
              "parse_data_response", "parse_measure_ack", "run_transaction"),
}


def test_every_export_is_its_home_modules_object():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 62
    assert sorted(soilprobe.__all__) == sorted([*EXPORTS, *names])
    listed = dir(soilprobe)
    star: dict = {}
    exec("from soilprobe import *", star)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"soilprobe.{module}")
        assert getattr(soilprobe, module) is home
        assert module in listed and star[module] is home
        for name in names:
            assert getattr(soilprobe, name) is getattr(home, name), name
            assert name in listed and star[name] is getattr(home, name), name
    assert soilprobe.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'soilprobe' has no attribute 'nope'"):
        soilprobe.nope
    assert not hasattr(soilprobe, "nope")
    assert not hasattr(soilprobe, "np")  # what a submodule imports is not exported
    with pytest.raises(ImportError, match="nope"):
        exec("from soilprobe import nope", {})


# imports the package in a fresh interpreter, runs one command, and prints
# the numpy and soilprobe modules loaded after each step, as JSON
FOOTPRINT = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("soilprobe."))
import soilprobe
report = {"import": loaded()}
argv = json.loads(sys.argv[1])
if argv:
    from soilprobe import cli
    report["code"] = cli.main(argv)
    report["command"] = loaded()
print(json.dumps(report))
"""


def fresh_footprint(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def paper_field_log(tmp_path_factory):
    log = tmp_path_factory.mktemp("paper_field") / "run.jsonl"
    assert cli.main(["simulate", "--config", "paper_field", "--out-log", str(log),
                     "--out-summary", os.devnull]) == 0
    return str(log)


def test_import_soilprobe_loads_no_submodule_and_no_numpy():
    assert fresh_footprint([]) == {"import": []}


def test_codec_loads_only_the_codec():
    report = fresh_footprint(["codec", "--encode", "0M"])
    assert report["code"] == 0
    assert report["command"] == ["soilprobe.cli", "soilprobe.errors",
                                 "soilprobe.sdi12"]


def test_validate_never_loads_numpy(paper_field_log, tmp_path):
    report = fresh_footprint(["validate", "--log", paper_field_log,
                              "--out", str(tmp_path / "valid.jsonl")])
    assert report["code"] == 0
    assert report["command"] == [f"soilprobe.{m}" for m in (
        "actuator", "calib", "cli", "errors", "mission", "sampler", "sdi12")]


def test_tour_loads_no_numpy(monkeypatch):
    # the generator's tour runs where numpy cannot be imported: with the
    # uniform stream in Python too, the generator would need no numpy
    points = [(3.0, 4.0), (5.0, 0.0), (0.0, 5.0), (4.0, 3.0)]
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
    assert mission._nearest_neighbour_tour(points) == [0, 3, 1, 2]


@pytest.mark.parametrize("command", ["simulate", "map"])
def test_cold_simulate_and_map_still_run(command, paper_field_log, tmp_path):
    argv = {
        "simulate": ["simulate", "--config", "paper_field",
                     "--out-log", str(tmp_path / "run.jsonl"),
                     "--out-summary", str(tmp_path / "summary.json")],
        "map": ["map", "--log", paper_field_log,
                "--out-points", str(tmp_path / "points.geojson"),
                "--out-grid", str(tmp_path / "grid.asc")],
    }[command]
    report = fresh_footprint(argv)
    assert report["code"] == 0
    assert "numpy" in report["command"]
    # only map interpolates
    assert ("soilprobe.geomap" in report["command"]) == (command == "map")
