"""The benchmark's tracer, its workloads and the demos keep working
against the package.

``perfbench/tracing.py`` looks up package attributes by name and reads
``VirtualTeros.trace``; a rename inside the package would only show up
when ``perfbench/run.py --trace 1`` runs.  These tests load the tracer
and the workload builder from their files (without editing them), and
run the demos that write no files.
"""

import ast
import hashlib
import importlib.util
import json
import runpy
from collections import Counter
from pathlib import Path

import pytest

from soilprobe import cli, mission, scenario
from soilprobe.mission import MissionConfig, Waypoint

from conftest import generate_waypoints_reference, make_field

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


@pytest.mark.parametrize("script", [
    "01_codec_walkthrough.py",
    "02_calibration_curve.py",
    "03_point_sampling.py",
    "04_mission_run.py",
    "06_fault_injection.py",
])
def test_demo_runs(script, capsys):
    runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out
