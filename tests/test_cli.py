"""CLI behaviour: subcommands, exit codes, stdout/stderr discipline."""

import dataclasses
import json
import math
import os
import random
import re
import stat
from importlib import resources

import numpy as np
import pytest

from soilprobe import cli, geomap, mission, scenario
from soilprobe.calib import Validity
from soilprobe.errors import (RANGES, ConfigError, EmptyInputError, FrameError,
                              LogFormatError, RangeError, SilenceError)
from soilprobe.fieldsim import Disk
from soilprobe.mission import (MissionConfig, dump_sample_log,
                               generate_waypoints, read_sample_log,
                               run_mission, select_valid)
from soilprobe.sdi12 import RawReading

from conftest import make_field, scenario_doc, validate_reference


def small_scenario(tmp_path, n_obstructed=1):
    doc = {
        "field": {"origin_lat": 45.0, "origin_lon": 7.5, "width_m": 12.0,
                  "height_m": 12.0, "base_theta": 0.25, "seed": 9,
                  "obstructions": [{"cx": 2.0 + 3.0 * i, "cy": 2.0,
                                    "radius_m": 0.12}
                                   for i in range(n_obstructed)]},
        "mission": {"waypoints": [{"id": i + 1, "x": 2.0 + 3.0 * i, "y": 2.0}
                                  for i in range(4)]},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_writes_log_and_summary(tmp_path):
    log = tmp_path / "run.jsonl"
    summary = tmp_path / "summary.json"
    code = cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
                     "--out-log", str(log), "--out-summary", str(summary)])
    assert code == 0
    samples, _ = read_sample_log(log)
    s = json.loads(summary.read_text())
    assert s["points_total"] == 4 and s["points_valid"] == 3 and s["points_invalid"] == 1
    assert len(samples) == 4


def test_simulate_stdout_when_no_out_flags(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(small_scenario(tmp_path, 0))])
    assert code == 0
    out = capsys.readouterr()
    lines = [l for l in out.out.splitlines() if l.strip()]
    assert len(lines) == 5  # 4 samples + 1 summary object
    assert json.loads(lines[0])["point_id"] == 1
    assert json.loads(lines[-1])["points_total"] == 4
    assert "4 points" in out.err  # diagnostics stay on stderr


def test_simulate_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert "simulate:" in capsys.readouterr().err


def test_simulate_seed_flag_changes_noise_only(tmp_path):
    doc_path = small_scenario(tmp_path, 0)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    cli.main(["simulate", "--config", str(doc_path), "--out-log", str(a),
              "--out-summary", str(tmp_path / "sa.json")])
    cli.main(["simulate", "--config", str(doc_path), "--out-log", str(b),
              "--out-summary", str(tmp_path / "sb.json"), "--seed", "123"])
    sa, _ = read_sample_log(a)
    sb, _ = read_sample_log(b)
    assert [s.point_id for s in sa] == [s.point_id for s in sb]
    assert [(s.lat, s.lon) for s in sa] == [(s.lat, s.lon) for s in sb]


def test_validate_counts_and_filters(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
              "--out-log", str(log), "--out-summary",
              str(tmp_path / "s.json")])
    out = tmp_path / "valid.jsonl"
    assert cli.main(["validate", "--log", str(log), "--out", str(out)]) == 0
    # the whole line, the zero count included
    assert capsys.readouterr().err.endswith(
        "\nvalidate: 4 samples: 3 valid, 1 not_penetrated, 0 sensor_error\n")
    kept, _ = read_sample_log(out)
    assert len(kept) == 3
    assert all(s.status.value == "valid" for s in kept)


def test_validate_empty_log_is_fine(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    assert cli.main(["validate", "--log", str(log)]) == 0
    assert "0 samples" in capsys.readouterr().err


def test_validate_malformed_log_exits_3(tmp_path, capsys):
    log = tmp_path / "broken.jsonl"
    log.write_text('{"point_id": 1}\n')
    assert cli.main(["validate", "--log", str(log)]) == 3
    assert "line 1" in capsys.readouterr().err
    log.write_bytes(b"\xff\xfe\n")
    assert cli.main(["validate", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and "UTF-8" in err and len(err.splitlines()) == 1


def flagged_mission_log() -> str:
    """A generated mission's log holding every status: stones stop some
    probes, and a few samples are turned into sensor errors."""
    field = make_field(obstructions=[Disk(4.0 + 4.0 * i, 10.0, 1.5) for i in range(4)])
    cfg = MissionConfig(field=field, waypoints=generate_waypoints(field, 40, 1.0, seed=5))
    samples, _ = run_mission(cfg)
    samples[3::7] = [dataclasses.replace(s, raw_counts=None, temp_c=None, ec_us_cm=None,
                                         theta=None, status=Validity.SENSOR_ERROR)
                     for s in samples[3::7]]
    assert {s.status for s in samples} == set(Validity)
    return dump_sample_log(samples)


def test_validate_writes_what_the_reencoding_reference_writes(tmp_path):
    paper = tmp_path / "paper.jsonl"
    assert cli.main(["simulate", "--config", "paper_field", "--out-log", str(paper),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    generated = tmp_path / "generated.jsonl"
    generated.write_text(flagged_mission_log())
    for log in (paper, generated):
        out = tmp_path / "valid.jsonl"
        assert cli.main(["validate", "--log", str(log), "--out", str(out)]) == 0
        samples, _ = read_sample_log(log)
        assert 0 < len(select_valid(samples)) < len(samples)
        assert out.read_bytes() == validate_reference(samples).encode("ascii")


RECORD = {"point_id": 1, "timestamp_s": 1.5, "lat": 45.0, "lon": 7.5,
          "target_depth_m": 0.05, "achieved_depth_m": 0.05, "attempts": 1,
          "raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0,
          "theta": 0.25, "status": "valid"}
FLAGGED = {**RECORD, "point_id": 2, "achieved_depth_m": 0.01, "attempts": 3,
           "raw_counts": None, "temp_c": None, "ec_us_cm": None, "theta": None,
           "status": "not_penetrated"}
OTHER_ORDER = json.dumps(dict(reversed(RECORD.items())))
SPACED = "  " + json.dumps({**RECORD, "point_id": 3}, separators=(" ,  ", "\t: ")) + " \t"


# (log as written, what validate writes): valid records pass through as
# written, each ending in one LF, and blank lines go
@pytest.mark.parametrize("text,expected", [
    (f"{OTHER_ORDER}\n{json.dumps(FLAGGED)}\n", f"{OTHER_ORDER}\n"),
    (f"{SPACED}\n{json.dumps(FLAGGED)}\n", f"{SPACED}\n"),
    (f"{OTHER_ORDER}\r\n{json.dumps(FLAGGED)}\r\n{SPACED}\r\n",
     f"{OTHER_ORDER}\n{SPACED}\n"),
    (f"{json.dumps(FLAGGED)}\n{OTHER_ORDER}", f"{OTHER_ORDER}\n"),
    (f"\n{OTHER_ORDER}\n  \n\n{json.dumps(FLAGGED)}\n\t\n{SPACED}\n\n",
     f"{OTHER_ORDER}\n{SPACED}\n"),
], ids=["key-order", "spaces", "crlf", "no-final-newline", "blank-lines"])
def test_validate_passes_other_layouts_through(tmp_path, capsys, text, expected):
    log, out = tmp_path / "run.jsonl", tmp_path / "valid.jsonl"
    log.write_bytes(text.encode("ascii"))
    assert cli.main(["validate", "--log", str(log), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("ascii")
    assert "1 not_penetrated" in capsys.readouterr().err


@pytest.mark.parametrize("line,needle", [
    (json.dumps({**RECORD, "note": "x"}), "unknown fields: 'note'"),
    (json.dumps({**RECORD, "ключ": 1}, ensure_ascii=False), "unknown fields: 'ключ'"),
    (json.dumps({**RECORD, "a\nb": 1}), r"unknown fields: 'a\nb'"),
    (json.dumps({**RECORD, "thetta": RECORD["theta"]}).replace('"theta": 0.25, ', ""),
     "missing fields: theta; unknown fields: 'thetta'"),
    # json alone would keep the last status and pass the line through
    ('{"status": "válido", ' + json.dumps(RECORD)[1:], "field 'status' appears more than once"),
    ('{"theta": 0.25, ' + json.dumps(RECORD)[1:], "field 'theta' appears more than once"),
], ids=["unknown", "unknown-non-ascii", "unknown-newline", "misspelt",
        "repeated-non-ascii", "repeated-same-value"])
def test_unknown_or_repeated_fields_exit_3_with_one_line(tmp_path, capsys, line, needle):
    log = tmp_path / "run.jsonl"
    log.write_text(json.dumps(FLAGGED) + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["validate", "--log", str(log), "--out", str(out / "v.jsonl")],
                 ["map", "--log", str(log), "--out-points", str(out / "p.geojson"),
                  "--out-grid", str(out / "g.asc")]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: {log}: line 2: {needle}\n"
        assert list(out.iterdir()) == []


def _line_3_not_utf8(lines, ending) -> bytes:
    """``lines`` joined by ``ending``, line 3 opening with a byte that is
    not UTF-8."""
    raw = [line.encode() for line in lines]
    raw[2] = b"\xff" + raw[2]
    return ending.encode().join(raw)


def _after_record(line):
    """A log of a valid record, then the line that ``line`` makes of the
    record's text."""
    return lambda r: f"{json.dumps(r)}\n{line(json.dumps(r))}\n".encode()


def _repeat_lat(text):
    return text.replace('"lat": ', '"lat": 1, "lat": ', 1)


# one fault, as a scenario holds it and as a sample log does: the
# scenario's bytes, made from a valid document, and the place its
# refusal names; the log's bytes, made from a valid record, and the line
# its refusal names; the words of both refusals after their place, or of
# each where the two documents hold different names
SAME_FAULTS = {
    "array-for-object": (lambda d: b"[1]", "scn", _after_record(lambda r: "[1]"), 2,
                         "expected a JSON object, got an array"),
    "null-for-object": (lambda d: json.dumps({**d, "sampler": None}).encode(), "sampler",
                        _after_record(lambda r: "null"), 2,
                        "expected a JSON object, got null"),
    "repeated-name": (lambda d: _repeat_lat(json.dumps(d)).encode(), "scn",
                      _after_record(_repeat_lat), 2, "field 'lat' appears more than once"),
    "nested-too-deep": (lambda d: b"[" * 100_000, "scn",
                        _after_record(lambda r: "[" * 100_000), 2, "JSON nested too deeply"),
    **{f"not-utf8-{name}": (
        lambda d, end=end: _line_3_not_utf8(json.dumps(d, indent=1).split("\n"), end),
        "scn: line 3", lambda r, end=end: _line_3_not_utf8([json.dumps(r)] * 3, end), 3,
        "not valid UTF-8") for name, end in (("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n"))},
    "missing-and-unknown": (
        lambda d: json.dumps(d).replace('"amplitude"', '"amplitud"').encode(), "field.blobs",
        _after_record(lambda r: r.replace('"theta"', '"thetta"')), 2,
        ("missing fields: amplitude; unknown fields: 'amplitud'",
         "missing fields: theta; unknown fields: 'thetta'")),
}


@pytest.mark.parametrize("fault", SAME_FAULTS)
def test_a_fault_reads_the_same_in_a_scenario_and_a_log(tmp_path, capsys, fault):
    # the scenario is read with the log's reader: simulate exits 2 and
    # validate 3, each on one line, in the same words after its place
    scenario_bytes, place, log_bytes, line_no, words = SAME_FAULTS[fault]
    scenario_words, log_words = (words, words) if type(words) is str else words
    scn, log = tmp_path / "scn.json", tmp_path / "run.jsonl"
    scn.write_bytes(scenario_bytes(scenario_doc()))
    log.write_bytes(log_bytes(RECORD))
    assert cli.main(["simulate", "--config", str(scn)]) == 2
    assert capsys.readouterr().err == f"simulate: {place}: {scenario_words}\n"
    assert cli.main(["validate", "--log", str(log)]) == 3
    assert capsys.readouterr().err == f"validate: {log}: line {line_no}: {log_words}\n"


def test_map_outputs(tmp_path):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
              "--out-log", str(log), "--out-summary", str(tmp_path / "s.json")])
    points = tmp_path / "points.geojson"
    grid = tmp_path / "grid.asc"
    assert cli.main(["map", "--log", str(log), "--out-points", str(points),
                     "--out-grid", str(grid), "--cell-size", "1.0"]) == 0
    doc = json.loads(points.read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 4  # invalid points exported too, flagged
    statuses = {f["properties"]["status"] for f in doc["features"]}
    assert statuses == {"valid", "not_penetrated"}
    header = grid.read_text().splitlines()[:6]
    assert header[0].startswith("ncols") and header[5] == "NODATA_value -9999"


def test_map_without_valid_samples_exits_4(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path, 4)),
              "--out-log", str(log), "--out-summary", str(tmp_path / "s.json")])
    assert cli.main(["map", "--log", str(log)]) == 4
    assert "no valid" in capsys.readouterr().err


def test_map_malformed_log_exits_3(tmp_path, capsys):
    log = tmp_path / "broken.jsonl"
    log.write_text("garbage\n")
    assert cli.main(["map", "--log", str(log)]) == 3
    capsys.readouterr()
    log.write_bytes(b"\n\xff\xfe\n")
    assert cli.main(["map", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "UTF-8" in err and len(err.splitlines()) == 1


def test_map_bad_parameters_exit_2(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
              "--out-log", str(log), "--out-summary", str(tmp_path / "s.json")])
    assert cli.main(["map", "--log", str(log), "--cell-size", "-1"]) == 2
    for bad in ("nan", "inf"):
        assert cli.main(["map", "--log", str(log), "--cell-size", bad]) == 2
    assert "map:" in capsys.readouterr().err


def read_ascii_grid(path):
    """(cell centres x, y, values) of an ESRI ASCII grid, row 0 southernmost."""
    lines = path.read_text().splitlines()
    header = {key: float(value) for key, value in map(str.split, lines[:6])}
    values = np.array([[float(v) for v in line.split()] for line in lines[6:]])[::-1]
    cell = header["cellsize"]
    cx = header["xllcorner"] + (np.arange(values.shape[1]) + 0.5) * cell
    cy = header["yllcorner"] + (np.arange(values.shape[0]) + 0.5) * cell
    return cx, cy, values


def test_map_of_paper_field_has_no_spurious_nodata(tmp_path):
    log, grid = tmp_path / "run.jsonl", tmp_path / "g.asc"
    cli.main(["simulate", "--config", "paper_field", "--out-log", str(log),
              "--out-summary", str(tmp_path / "s.json")])
    assert cli.main(["map", "--log", str(log),
                     "--out-points", str(tmp_path / "p.geojson"),
                     "--out-grid", str(grid)]) == 0
    cx, cy, values = read_ascii_grid(grid)
    xy = geomap.samples_to_local(select_valid(read_sample_log(log)[0]))
    near = np.hypot(cx[None, :, None] - xy[:, 0], cy[:, None, None] - xy[:, 1]).min(axis=2)
    # every cell has a sample in reach, and so a value
    assert near.max() < geomap.CUTOFF_RADIUS_M
    assert (values != geomap.NODATA).all()


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    return err.startswith(prefix) and len(err.splitlines()) == 1


def test_simulate_bad_values_exit_2_with_one_line(tmp_path, capsys):
    scn = small_scenario(tmp_path)
    assert cli.main(["simulate", "--config", str(scn), "--seed", "-1"]) == 2
    assert one_line_error(capsys, "simulate: --seed -1: seed must be a non-negative integer")
    doc = json.loads(scn.read_text())
    # a document's own bad seed is refused by its key, unless --seed replaces it
    bad = json.loads(json.dumps(doc))
    bad["field"]["seed"] = -1
    path = tmp_path / "bad_seed.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert one_line_error(capsys, "simulate: field: seed must be a non-negative integer")
    assert cli.main(["simulate", "--config", str(path), "--seed", "3",
                     "--out-log", os.devnull, "--out-summary", os.devnull]) == 0
    assert one_line_error(capsys, "simulate: scenario")
    for mutate in (lambda d: d["field"].update(seed="abc"),
                   lambda d: d.update(sampler={"target_depth_m": math.nan}),
                   lambda d: d["mission"].update(speed_mps=math.nan),
                   lambda d: d.update(mission={"generate": {
                       "count": 3, "min_spacing_m": 1.0, "seed": -1}}),
                   lambda d: d.update(mission={"generate": {
                       "count": "5", "min_spacing_m": 1.0, "seed": 1}}),
                   # finite, but travel time overflows; the writers refuse inf
                   lambda d: d["mission"].update(speed_mps=5e-324),
                   # 2 * sigma_m ** 2 underflows to 0
                   lambda d: d["field"].update(blobs=[{
                       "cx": 2.0, "cy": 2.0, "sigma_m": 5e-324,
                       "amplitude": 0.1}]),
                   # with an obstructed waypoint this once looped without end
                   lambda d: d.update(sampler={"max_attempts": 10 ** 19})):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out.jsonl"
        assert cli.main(["simulate", "--config", str(path),
                         "--out-log", str(out)]) == 2
        assert one_line_error(capsys, "simulate: ")
        assert not out.exists()
    # values whose squares once overflowed in theta_true or obstruction_at
    # as "(34, 'Numerical result out of range')", or in the tour, or whose
    # RAW reading no frame carries, are refused by their ranges
    for mutate, prefix in (
            (lambda d: d["field"].update(blobs=[{
                "cx": 2.0, "cy": 2.0, "sigma_m": 1e200, "amplitude": 0.1}]),
             "simulate: field.blobs: sigma_m must be a number within"),
            (lambda d: d["field"].update(obstructions=[{
                "cx": 2.0, "cy": 2.0, "radius_m": 1e200}]),
             "simulate: field.obstructions: radius_m must be a number within"),
            (lambda d: d.update(mission={"generate": {
                "count": 1, "min_spacing_m": 10 ** 400, "seed": 1}}),
             "simulate: mission.generate: min_spacing_m must be a number within"),
            (lambda d: (d["field"].update(width_m=1e200, height_m=1e200),
                        d.update(mission={"generate": {
                            "count": 5, "min_spacing_m": 1.0, "seed": 1}})),
             "simulate: field: width_m must be a number within"),
            (lambda d: d["field"].update(noise_sigma_raw=1.7976931348623157e308),
             "simulate: field: noise_sigma_raw must be a number within")):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert one_line_error(capsys, prefix)


@pytest.mark.parametrize("mutate,line", [
    (lambda d: d["mission"].update(speed_mps=5e-324),
     "simulate: mission: speed_mps must be a number within [0.001, 100] m/s"),
    (lambda d: d.update(sampler={"settle_s": 1e308}),
     "simulate: sampler: settle_s must be a number within [0, 3600] s"),
    (lambda d: d.update(actuator={"step_rate_hz": 5e-324}),
     "simulate: actuator: step_rate_hz must be a number within [1, 1e+06] Hz"),
    (lambda d: d.update(actuator={"steps_per_metre": 1e10, "max_depth_m": 1e300},
                        sampler={"target_depth_m": 1e300}),
     "simulate: sampler: target_depth_m must be a number within [0, 5] m"),
    (lambda d: d.update(sampler={"reposition_offset_m": 1e308}),
     "simulate: sampler: reposition_offset_m must be a number within [0, 1000] m"),
    (lambda d: d["mission"].update(sensor_address="zz"),
     "simulate: mission: invalid SDI-12 address 'zz'"),
], ids=["speed", "settle", "step-rate", "steps", "extent", "address"])
def test_simulate_refuses_a_run_that_cannot_finish_by_name(tmp_path, capsys,
                                                          mutate, line):
    # these loaded once and then failed mid-run or in the writers, with a
    # line that named no field (json's "Out of range float values ..."),
    # and then were refused by the overflow checks of the whole run; each
    # is now refused by its own key's range
    doc = json.loads(small_scenario(tmp_path).read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    assert cli.main(["simulate", "--config", str(path), "--out-log", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_simulate_lets_a_defect_in_the_run_raise(tmp_path, monkeypatch):
    # only SoilProbeError is a config error once the scenario has loaded
    def broken(cfg):
        raise ValueError("a defect")
    monkeypatch.setattr(mission, "run_mission", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["simulate", "--config", str(small_scenario(tmp_path))])


def test_simulate_lets_a_defect_in_loading_raise(tmp_path, monkeypatch):
    # loading is no catch-all either: only SoilProbeError is a config error
    def broken(ref, seed_override=None):
        raise ValueError("a defect")
    monkeypatch.setattr(scenario, "load_scenario", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["simulate", "--config", str(small_scenario(tmp_path))])


def test_map_lets_a_defect_in_the_raster_raise(tmp_path, monkeypatch):
    log = tmp_path / "run.jsonl"
    assert cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
                     "--out-log", str(log),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    def broken(*args, **kwargs):
        raise ValueError("a defect")
    monkeypatch.setattr(geomap, "build_grid", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["map", "--log", str(log)])


def test_the_scenario_name_stays_on_one_line(tmp_path, capsys):
    # the summary line names the scenario as a quoted string, so a name
    # holding a line break cannot split it; a plain name prints as before
    argv = ["simulate", "--out-log", os.devnull, "--out-summary", os.devnull]
    assert cli.main([*argv, "--config", "paper_field"]) == 0
    assert capsys.readouterr().err.startswith("simulate: scenario 'paper_field': 95 points")
    doc = json.loads(small_scenario(tmp_path).read_text())
    path = tmp_path / "named.json"
    for name, shown in (("a\nb", r"'a\nb'"), ("a\r\nb", r"'a\r\nb'"),
                        ("a\u2028b", r"'a\u2028b'"), ("it's", '"it\'s"')):
        path.write_text(json.dumps({**doc, "name": name}))
        assert cli.main([*argv, "--config", str(path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"simulate: scenario {shown}: 4 points, ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")


def test_unreadable_inputs_exit_2_with_one_line(tmp_path, capsys):
    # a log or scenario path that is missing or a directory is refused by
    # the OSError it raised, naming the path
    missing, folder = tmp_path / "missing.jsonl", tmp_path / "folder.json"
    folder.mkdir()
    for command in ("validate", "map"):
        assert cli.main([command, "--log", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"{command}: [Errno 2] No such file or directory: {str(missing)!r}\n")
        assert cli.main([command, "--log", str(folder)]) == 2
        assert capsys.readouterr().err == (
            f"{command}: [Errno 21] Is a directory: {str(folder)!r}\n")
    assert cli.main(["simulate", "--config", str(folder)]) == 2
    assert capsys.readouterr().err == (
        f"simulate: cannot read {folder}: [Errno 21] Is a directory: {str(folder)!r}\n")


def test_a_path_holding_line_breaks_stays_on_one_line(tmp_path, capsys):
    # a refusal names its path as it is, except that each character
    # str.splitlines breaks on is written as its backslash escape
    odd = "a\nb\r\nc\rd\x0be\x1cf\x85g\u2028h\u00e9"
    shown = r"a\nb\r\nc\rd\x0be\x1cf\x85g\u2028h" + "\u00e9"
    scn = tmp_path / f"{odd}.json"
    scn.write_text('{"field": 5}')
    assert cli.main(["simulate", "--config", str(scn)]) == 2
    assert capsys.readouterr().err == f"simulate: {shown}: missing fields: mission\n"
    folder = tmp_path / odd
    folder.mkdir()
    where = f"{tmp_path}/{shown}"
    assert cli.main(["simulate", "--config", str(folder)]) == 2
    assert capsys.readouterr().err == (
        f"simulate: cannot read {where}: [Errno 21] Is a directory: {str(folder)!r}\n")
    log = folder / "run.jsonl"
    log.write_text('{"point_id": 1}\n')
    assert cli.main(["validate", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"validate: {where}/run.jsonl: line 1: ")
    assert len(err.splitlines()) == 1
    log.write_text("")
    assert cli.main(["validate", "--log", str(log), "--out", str(folder / odd / "out")]) == 2
    assert capsys.readouterr().err == (
        f"validate: {where}/{shown}/out: No such file or directory\n")


def test_simulate_an_int_of_too_many_digits_exits_2(tmp_path, capsys):
    # once a bare ValueError from load_scenario, caught only by a catch-all
    path = tmp_path / "digits.json"
    path.write_text(small_scenario(tmp_path).read_text().replace(
        '"seed": 9', '"seed": ' + "1" * 5000))
    out = tmp_path / "out.jsonl"
    assert cli.main(["simulate", "--config", str(path), "--out-log", str(out)]) == 2
    assert one_line_error(capsys, "simulate: digits: Exceeds the limit (4300 digits)")
    assert not out.exists()


def test_simulate_int_sizes_whose_sum_leaves_float_range_exit_2(tmp_path, capsys):
    # once an OverflowError from load_scenario, caught only by a catch-all
    doc = json.loads(small_scenario(tmp_path).read_text())
    doc["field"].update(width_m=10 ** 308, height_m=10 ** 308)
    doc["sampler"] = {"reposition_offset_m": 8 * 10 ** 307}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    assert cli.main(["simulate", "--config", str(path), "--out-log", str(out)]) == 2
    assert one_line_error(capsys, "simulate: field: width_m must be a number within ")
    assert not out.exists()


# text of Python's own errors, which names no key or flag
BUILTIN_TEXT = ("not supported between", "must be real number", "unsupported operand",
                "unhashable", "positional argument")
FUZZ_VALUES = ("a", [1], {}, None, 10 ** 400, math.nan, math.inf, -math.inf, 0, -1,
               5e-324, 1e300, 1.7e308, True, 1.5)


def _key_paths(node, path=()):
    """The path of every object member and list item under ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from _key_paths(child, (*path, key))


def _fuzz_failure(code, err, out_dir, outputs, codes=(0, 2)):
    """What is wrong with one fuzzed run, or None."""
    if code not in codes:
        return f"exit {code}"
    if len(err.splitlines()) != 1:
        return f"{len(err.splitlines())} stderr lines"
    if any(text in err for text in BUILTIN_TEXT):
        return "builtin text"
    written = sorted(p.name for p in out_dir.iterdir())
    if written != (sorted(outputs) if code == 0 else []):
        return f"wrote {written}"
    return None


def test_fuzzed_scenarios_and_map_flags_exit_0_or_2_with_one_line(
        tmp_path, capsys, monkeypatch):
    # a seeded 300 of the 780 documents that set one key of a scenario
    # holding every key to one bad value, then `simulate --seed` and the
    # map flags at their extremes: a run that refuses its config or flag
    # names it on one line and writes nothing

    # an infeasible layout is refused after 1,000 draws, not 100,000: the
    # same refusal, in milliseconds
    monkeypatch.setattr(mission, "REJECTION_TRIAL_LIMIT", 1000)
    cases = [(gen, path, value) for gen in (False, True)
             for path in _key_paths(scenario_doc(gen))
             if not gen or path[0] == "mission" for value in FUZZ_VALUES]
    failures = []
    out = tmp_path / "out"
    out.mkdir()
    for gen, path, value in random.Random(17).sample(cases, 300):
        doc = scenario_doc(gen)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config = tmp_path / "fuzz.json"
        config.write_text(json.dumps(doc))
        code = cli.main(["simulate", "--config", str(config),
                         "--out-log", str(out / "run.jsonl"),
                         "--out-summary", str(out / "s.json")])
        failure = _fuzz_failure(code, capsys.readouterr().err, out,
                                ["run.jsonl", "s.json"])
        if failure:
            failures.append((path, value, failure))
        for p in out.iterdir():
            p.unlink()
    # `--cell-size -inf` would read as a flag: the `=` form passes the value
    log = tmp_path / "run.jsonl"
    config.write_text(json.dumps(scenario_doc()))
    for seed in ("-1", "0", str(2 ** 64), "9" * 4000):
        code = cli.main(["simulate", "--config", str(config), f"--seed={seed}",
                         "--out-log", str(out / "run.jsonl"),
                         "--out-summary", str(out / "s.json")])
        failure = _fuzz_failure(code, capsys.readouterr().err, out,
                                ["run.jsonl", "s.json"])
        if failure:
            failures.append(("--seed", seed[:20], failure))
        for p in out.iterdir():
            p.unlink()
    assert cli.main(["simulate", "--config", str(config), "--out-log", str(log),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    for value in ("nan", "inf", "-inf", "0", "5e-324", "1e300", "1.7e308"):
        capsys.readouterr()
        code = cli.main(["map", "--log", str(log), f"--cell-size={value}",
                         "--out-points", str(out / "p.geojson"),
                         "--out-grid", str(out / "g.asc")])
        failure = _fuzz_failure(code, capsys.readouterr().err, out,
                                ["g.asc", "p.geojson"])
        if failure:
            failures.append(("--cell-size", value, failure))
        for p in out.iterdir():
            p.unlink()
    assert failures == []


# what a log field is set to: each scenario fuzz value, latitudes and
# longitudes just out of range and on their edges, and each status
LOG_FUZZ_VALUES = (*FUZZ_VALUES, 91.0, -90.5, 180.5, -500.0, 90, -180,
                   *(status.value for status in Validity))
DROP = object()  # the mutation that removes the field
FRAME_BYTES = b"0aZ?!MDI+-.5\r\n\xff "
# what a codec --encode spec is drawn from: ASCII, SDI-12's letters and
# digits, non-ASCII, and the lone surrogates that stand in a POSIX argv
# for bytes that do not decode
SPEC_CHARS = "0019aZMDI?!!+ é€\udc80\udcff"


def _log_fuzz_cases(records):
    """Each (record, field, value) that sets one field of one record of a
    log to one fuzz value, or drops it."""
    return [(i, name, value) for i, record in enumerate(records) for name in record
            for value in (*LOG_FUZZ_VALUES, DROP)]


def _multi_field_cases(records, rng, n):
    """``n`` seeded (record, changes) that each set two or three fields of
    one record of a log to fuzz values, or drop them."""
    cases = []
    for _ in range(n):
        i = rng.randrange(len(records))
        names = rng.sample(list(records[i]), rng.choice((2, 3)))
        cases.append((i, {name: rng.choice((*LOG_FUZZ_VALUES, DROP)) for name in names}))
    return cases


def _fuzzed_log(records, i, changes) -> str:
    """The log with each field of record ``i`` that ``changes`` names set
    to its value, or dropped."""
    record = dict(records[i])
    for name, value in changes.items():
        if value is DROP:
            del record[name]
        else:
            record[name] = value
    return "".join(json.dumps(record if k == i else r) + "\n"
                   for k, r in enumerate(records))


def _fuzz_frames(rng, n):
    """``n`` frames of 0 to 13 bytes, drawn mostly from SDI-12's alphabet."""
    return [bytes(rng.choice(FRAME_BYTES) for _ in range(rng.randrange(14)))
            for _ in range(n)]


def _fuzz_specs(rng, n):
    """``n`` codec --encode specs of 0 to 6 characters."""
    return ["".join(rng.choice(SPEC_CHARS) for _ in range(rng.randrange(7)))
            for _ in range(n)]


def _nodata_in_reach(log, grid) -> bool:
    """Whether a no-data cell of ``grid`` has a valid sample of ``log`` within
    the cutoff; the header's 6 decimals may move a cell centre by 1e-6 m."""
    cx, cy, values = read_ascii_grid(grid)
    xy = geomap.samples_to_local(select_valid(read_sample_log(log)[0]))
    near = np.hypot(cx[None, :, None] - xy[:, 0], cy[:, None, None] - xy[:, 1]).min(axis=2)
    return bool(((values == geomap.NODATA) & (near < geomap.CUTOFF_RADIUS_M - 1e-5)).any())


def test_fuzzed_logs_and_frames_exit_with_their_code_and_one_line(tmp_path, capsys):
    # a seeded 120 of the 1,200 logs that set or drop one field of one
    # record of a small flagged log, and 40 seeded logs that set or drop
    # two or three fields of one record, through validate and map, then 300
    # seeded frames through codec --parse: each ends in a documented exit
    # code and one stderr line, a refusal writes nothing, and a map that
    # succeeds leaves no cell without a value that has a sample in reach
    log = tmp_path / "run.jsonl"
    assert cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
                     "--out-log", str(log), "--out-summary", os.devnull]) == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    fuzzed = tmp_path / "fuzz.jsonl"
    out = tmp_path / "out"
    out.mkdir()
    commands = ((["validate", "--log", str(fuzzed), "--out", str(out / "v.jsonl")],
                 ["v.jsonl"]),
                # 1 m cells: a longitude moved to 1.5 still maps, onto 471,770 x 2
                (["map", "--log", str(fuzzed), "--out-points", str(out / "p.geojson"),
                  "--out-grid", str(out / "g.asc"), "--cell-size", "1"],
                 ["g.asc", "p.geojson"]))
    cases = _log_fuzz_cases(records)
    assert len(cases) == 1200
    failures = []
    for i, changes in ([(i, {name: value}) for i, name, value
                        in random.Random(23).sample(cases, 120)]
                       + _multi_field_cases(records, random.Random(37), 40)):
        fuzzed.write_text(_fuzzed_log(records, i, changes))
        for argv, outputs in commands:
            capsys.readouterr()
            code = cli.main(argv)
            failure = _fuzz_failure(code, capsys.readouterr().err, out, outputs,
                                    codes=(0, 2, 3, 4, 5))
            if (failure is None and code == 0 and argv[0] == "map"
                    and _nodata_in_reach(fuzzed, out / "g.asc")):
                failure = "a no-data cell with a sample in reach"
            if failure:
                failures.append((i, repr(changes)[:60], argv[0], failure))
            for p in out.iterdir():
                p.unlink()
    for frame in _fuzz_frames(random.Random(29), 300):
        capsys.readouterr()
        code = cli.main(["codec", "--parse", frame.hex()])
        captured = capsys.readouterr()
        lines = (captured.err if code else captured.out).splitlines()
        if code not in (0, 2, 5) or len(lines) != 1 or (captured.out and captured.err):
            failures.append((frame, code, captured))
        elif code == 5 and not re.search(r" at byte \d+$", lines[0]):
            failures.append((frame, code, "names no byte"))
    # 300 seeded specs through codec --encode: each is sent as its own
    # bytes, so an encoded frame is those bytes and a refusal names one
    encoded = 0
    for spec in _fuzz_specs(random.Random(31), 300):
        capsys.readouterr()
        code = cli.main(["codec", f"--encode={spec}"])
        captured = capsys.readouterr()
        lines = (captured.err if code else captured.out).splitlines()
        sent = os.fsencode(spec if spec.endswith("!") else spec + "!")
        named = re.search(r"unexpected (b'.*') at byte (\d+)$", captured.err)
        if code not in (0, 5) or len(lines) != 1 or (captured.out and captured.err):
            failures.append((spec, code, captured))
        elif code == 5 and not re.search(r" at byte \d+$", lines[0]):
            failures.append((spec, code, "names no byte"))
        elif named and named[1] != repr(sent[int(named[2]):][:1]):
            failures.append((spec, code, "names a byte not sent"))
        elif code == 0 and bytes.fromhex(lines[0].split()[0]) != sent:
            failures.append((spec, code, "encodes other bytes"))
        encoded += code == 0
    assert failures == []
    assert encoded > 0


@pytest.mark.filterwarnings("error")
def test_simulate_far_blob_prints_only_the_summary(tmp_path, capsys):
    doc = json.loads(small_scenario(tmp_path).read_text())
    # the farthest centre in range, 1e6 m out
    doc["field"]["blobs"] = [{"cx": 1e6, "cy": 2.0, "sigma_m": 3.0,
                              "amplitude": 0.1}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path),
                     "--out-log", str(tmp_path / "run.jsonl"),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    assert one_line_error(capsys, "simulate: scenario")


def test_simulate_far_disk_prints_only_the_summary(tmp_path, capsys):
    # a disk 1e6 m out, the farthest in range, never obstructs, as a blob
    # that far never wets
    plain = tmp_path / "plain"
    far = tmp_path / "far"
    doc = json.loads((resources.files("soilprobe") / "scenarios"
                      / "paper_field.json").read_text())
    doc["field"]["obstructions"].append({"cx": 1e6, "cy": 2.0, "radius_m": 0.5})
    path = tmp_path / "paper_field_far.json"
    path.write_text(json.dumps(doc))
    for config, out in (("paper_field", plain), (str(path), far)):
        out.mkdir()
        assert cli.main(["simulate", "--config", config,
                         "--out-log", str(out / "run.jsonl"),
                         "--out-summary", str(out / "s.json")]) == 0
        assert one_line_error(capsys, "simulate: scenario")
    for name in ("run.jsonl", "s.json"):
        assert (far / name).read_bytes() == (plain / name).read_bytes()


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    scn = str(small_scenario(tmp_path))
    log = str(tmp_path / "run.jsonl")
    assert cli.main(["simulate", "--config", scn, "--out-log", log,
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "out")
    for argv in (["simulate", "--config", scn, "--out-log", missing],
                 ["simulate", "--config", scn, "--out-log", log,
                  "--out-summary", missing],
                 ["validate", "--log", log, "--out", missing],
                 ["validate", "--log", log, "--out", str(tmp_path)],
                 ["map", "--log", log, "--out-points", missing],
                 ["map", "--log", log, "--out-points",
                  str(tmp_path / "p.geojson"), "--out-grid", missing]):
        assert cli.main(argv) == 2
        assert one_line_error(capsys, f"{argv[0]}: ")
    # all or nothing: a failed later output leaves an earlier path as it
    # was, absent or not, and no temporary file stays behind
    fresh = tmp_path / "fresh"
    for old in (None, "old"):
        if old:
            fresh.write_text(old)
        before = sorted(tmp_path.iterdir())
        for argv in (["simulate", "--config", scn, "--out-log", str(fresh),
                      "--out-summary", missing],
                     ["map", "--log", log, "--out-points", str(fresh),
                      "--out-grid", missing],
                     ["map", "--log", log, "--out-points", str(fresh),
                      "--out-grid", str(tmp_path)]):
            assert cli.main(argv) == 2
            assert one_line_error(capsys, f"{argv[0]}: ")
            assert sorted(tmp_path.iterdir()) == before
    assert fresh.read_text() == "old"
    assert cli.main(["simulate", "--config", scn, "--out-log", str(fresh),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    assert fresh.read_bytes() == (tmp_path / "run.jsonl").read_bytes()


def test_outputs_write_through_devices_and_symlinks(tmp_path, capsys):
    scn = str(small_scenario(tmp_path))
    log = tmp_path / "run.jsonl"
    summary = str(tmp_path / "s.json")
    missing = str(tmp_path / "missing" / "out")
    # a device is written through, never swapped for a regular file
    for argv, code in ((["simulate", "--config", scn, "--out-log", os.devnull,
                         "--out-summary", summary], 0),
                       (["simulate", "--config", scn, "--out-log", str(log),
                         "--out-summary", os.devnull], 0),
                       (["map", "--log", str(log), "--out-points", os.devnull,
                         "--out-grid", os.devnull], 0),
                       (["simulate", "--config", scn, "--out-log", os.devnull,
                         "--out-summary", missing], 2)):
        assert cli.main(argv) == code
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
    capsys.readouterr()
    # a symlink stays a symlink, its target takes the output and keeps its mode
    target = tmp_path / "target.jsonl"
    target.write_text("old")
    target.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert cli.main(["simulate", "--config", scn, "--out-log", str(link),
                     "--out-summary", summary]) == 0
    assert link.is_symlink() and target.read_bytes() == log.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys):
    # one file cannot hold both outputs: the second used to replace the first
    scn = str(small_scenario(tmp_path))
    log = tmp_path / "run.jsonl"
    assert cli.main(["simulate", "--config", scn, "--out-log", str(log),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "old").write_text("old")
    (out / "link").symlink_to(out / "old")
    capsys.readouterr()
    for first, second in (("new", "new"), ("old", "old"), ("old", "link"),
                          ("link", "old"), ("link", "link")):
        one, other = str(out / first), str(out / second)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for argv in (["simulate", "--config", scn, "--out-log", one,
                      "--out-summary", other],
                     ["map", "--log", str(log), "--out-points", one,
                      "--out-grid", other]):
            assert cli.main(argv) == 2
            assert one_line_error(
                capsys, f"{argv[0]}: {other}: names the file of another output")
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
            assert (out / "link").is_symlink()
    # a device takes both
    for argv in (["simulate", "--config", scn, "--out-log", os.devnull,
                  "--out-summary", os.devnull],
                 ["map", "--log", str(log), "--out-points", os.devnull,
                  "--out-grid", os.devnull]):
        assert cli.main(argv) == 0
    capsys.readouterr()


def test_mistyped_log_records_exit_3(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path, 0)),
              "--out-log", str(log), "--out-summary", str(tmp_path / "s.json")])
    capsys.readouterr()
    lines = log.read_text().splitlines()
    first = json.loads(lines[0])
    assert first["status"] == "valid"
    for change in ({"lat": "45.0"}, {"theta": None}, {"theta": math.nan}):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**first, **change})] + lines[1:]))
        for command in ("validate", "map"):
            assert cli.main([command, "--log", str(bad)]) == 3
            assert one_line_error(capsys, f"{command}: ")
    # a line that is JSON but not an object
    for line, kind in (("5", "a number"), ('"abc"', "a string"),
                       (json.dumps(list(first.values())), "an array")):
        bad.write_text("\n".join([line] + lines[1:]))
        for command in ("validate", "map"):
            assert cli.main([command, "--log", str(bad)]) == 3
            assert capsys.readouterr().err == (
                f"{command}: {bad}: line 1: expected a JSON object, got {kind}\n")


def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys):
    # json gives up with RecursionError about 1,000 levels deep
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
              "--out-log", str(log), "--out-summary", str(tmp_path / "s.json")])
    capsys.readouterr()
    deep = tmp_path / "deep.jsonl"
    deep.write_text(log.read_text().splitlines()[0] + "\n" + "[" * 200_000 + "\n")
    out = tmp_path / "out"
    for argv in (["validate", "--log", str(deep), "--out", str(out / "v.jsonl")],
                 ["map", "--log", str(deep), "--out-points", str(out / "p.geojson"),
                  "--out-grid", str(out / "g.asc")]):
        out.mkdir()
        assert cli.main(argv) == 3
        assert one_line_error(capsys, f"{argv[0]}: {deep}: line 2: ")
        assert list(out.iterdir()) == []
        out.rmdir()
    scn = tmp_path / "deep.json"
    scn.write_text('{"a":' * 200_000)
    out.mkdir()
    assert cli.main(["simulate", "--config", str(scn),
                     "--out-log", str(out / "run.jsonl"),
                     "--out-summary", str(out / "s.json")]) == 2
    assert one_line_error(capsys, "simulate: deep: JSON nested too deeply")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("coordinates,needle", [
    # two valid records whose latitudes project onto an infinite y span
    ([(1.7e308, 7.5), (-1.7e308, 7.5)], "line 1: lat must be a number within [-90, 90] deg"),
    # one record off the globe, which once needed more cells than allowed
    ([(91.0, 500.0)], "line 1: lat must be a number within [-90, 90] deg"),
    ([(45.0, 500.0)], "line 1: lon must be a number within [-180, 180] deg"),
], ids=["lat-near-float-limit", "lat-91-lon-500", "lon-500"])
def test_log_coordinates_off_the_globe_exit_3_with_one_line(tmp_path, capsys,
                                                            coordinates, needle):
    # these passed validate and made map blame its default --cell-size
    log = tmp_path / "run.jsonl"
    log.write_text("".join(json.dumps({**RECORD, "point_id": i, "lat": lat, "lon": lon})
                           + "\n" for i, (lat, lon) in enumerate(coordinates)))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["validate", "--log", str(log), "--out", str(out / "v.jsonl")],
                 ["map", "--log", str(log), "--out-points", str(out / "p.geojson"),
                  "--out-grid", str(out / "g.asc")]):
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"{argv[0]}: {log}: {needle}\n"
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("field", [name for name, value in RECORD.items()
                                   if type(value) is float])
def test_log_ints_beyond_the_floats_exit_3_naming_the_field(tmp_path, capsys, field):
    # these once read "int too large to convert to float", which names
    # neither the field nor the value
    log = tmp_path / "run.jsonl"
    log.write_text(json.dumps({**RECORD, field: 10**400}) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["validate", "--log", str(log), "--out", str(out / "v.jsonl")],
                 ["map", "--log", str(log), "--out-points", str(out / "p.geojson"),
                  "--out-grid", str(out / "g.asc")]):
        assert cli.main(argv) == 3
        assert re.fullmatch(rf"{argv[0]}: {re.escape(str(log))}: line 1: {field} "
                            r"must be a number within \[\S+, \S+\] \S+\n",
                            capsys.readouterr().err)
        assert list(out.iterdir()) == []


def test_simulate_refuses_a_field_whose_attempts_leave_the_globe(tmp_path, capsys):
    # 20 m north of latitude 89.99999 is past the pole: such a run once
    # wrote a log that validate refuses
    doc = json.loads(resources.files("soilprobe").joinpath(
        "scenarios", "paper_field.json").read_text())
    doc["field"]["origin_lat"] = 89.99999
    path = tmp_path / "polar.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    assert cli.main(["simulate", "--config", str(path), "--out-log", str(out)]) == 2
    assert capsys.readouterr().err == (
        "simulate: mission: field: a 19.0 x 20.0 m field at latitude 89.99999, "
        "longitude 7.5, with attempts up to sampler.reposition_offset_m 0.1 m "
        "beyond it, reaches past latitude [-90, 90] or longitude [-180, 180]\n")
    assert not out.exists()


def test_map_oversized_raster_exits_2(tmp_path, capsys):
    # two samples about 11 m x 8 m apart: 1 mm cells, the smallest in
    # range, would be ~1e8 cells
    log = tmp_path / "two.jsonl"
    rec = {"point_id": 1, "timestamp_s": 1.0, "lat": 45.0, "lon": 7.5,
           "target_depth_m": 0.05, "achieved_depth_m": 0.05, "attempts": 1,
           "raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0,
           "theta": 0.25, "status": "valid"}
    log.write_text(json.dumps(rec) + "\n" + json.dumps(
        {**rec, "point_id": 2, "lat": 45.0001, "lon": 7.5001}) + "\n")
    assert cli.main(["map", "--log", str(log), "--cell-size", "0.001"]) == 2
    assert one_line_error(capsys, "map: --cell-size 0.001: cell size 0.001 m needs more than")


def test_map_cell_size_whose_padded_extent_overflows_exits_2(tmp_path, capsys):
    # the raster is padded by one cell on each side: with 1e308 m cells its
    # extent once overflowed to inf, while 1e300 m cells mapped onto 2 x 2.
    # Cells are now at most 1 km, and the largest maps onto 3 x 3
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", "paper_field", "--out-log", str(log),
              "--out-summary", str(tmp_path / "s.json")])
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    argv = ["map", "--log", str(log), "--out-points", str(out / "p.geojson"),
            "--out-grid", str(out / "g.asc"), "--cell-size"]
    for size in ("1e308", "1e300"):
        assert cli.main([*argv, size]) == 2
        assert capsys.readouterr().err == (
            f"map: --cell-size {float(size)}: cell_size_m must be a number within "
            "[0.001, 1000] m\n")
        assert list(out.iterdir()) == []
    assert cli.main([*argv, "1000"]) == 0
    assert "onto 3 x 3 cells" in capsys.readouterr().err


def test_codec_parse_and_encode(capsys):
    assert cli.main(["codec", "--parse", "304d21"]) == 0  # "0M!"
    assert "START_MEASUREMENT" in capsys.readouterr().out
    assert cli.main(["codec", "--parse", "30303031330d0a"]) == 0  # "00013\r\n"
    assert "delay_s=1" in capsys.readouterr().out
    assert cli.main(["codec", "--encode", "0D0"]) == 0
    assert "30443021" in capsys.readouterr().out
    assert cli.main(["codec", "--encode", "?"]) == 0
    assert capsys.readouterr().out.startswith("3f21")


def test_codec_frame_error_exits_5(capsys):
    assert cli.main(["codec", "--parse", "30580d0a21"]) == 5
    assert "codec:" in capsys.readouterr().err
    assert cli.main(["codec", "--encode", "0X"]) == 5


def test_codec_value_too_large_for_a_float_exits_5(capsys):
    frame = b"0+1" + b"0" * 400 + b"\r\n"
    assert cli.main(["codec", "--parse", frame.hex()]) == 5
    assert one_line_error(capsys, "codec: data frame: value too large for a float at byte 1")


def test_codec_names_the_parser_that_got_furthest(capsys):
    # a near-miss ack: the ack grammar stops at the bad terminator, byte 5,
    # where the data grammar stops at byte 1
    assert cli.main(["codec", "--parse", "30303031330d20"]) == 5  # "00013\r "
    assert capsys.readouterr().err == "codec: measure ack: unexpected b'\\r' at byte 5\n"
    # a near-miss data frame still reports in data-frame terms
    assert cli.main(["codec", "--parse", b"0+5..5\r\n".hex()]) == 5
    assert capsys.readouterr().err == "codec: data frame: unexpected b'.' at byte 3\n"


@pytest.mark.parametrize("spec,at", [("é", 0), ("0é", 1), ("\udcff", 0)],
                         ids=["non-ascii", "non-ascii-after-address", "undecoded-argv-byte"])
def test_codec_encode_refuses_the_bytes_it_was_given(capsys, spec, at):
    # each character was once replaced by "?": "é" encoded the address
    # query, and "0é" was refused at a byte never typed; an argv byte that
    # does not decode arrives as a lone surrogate, and is sent as that byte
    assert cli.main(["codec", "--encode", spec]) == 5
    byte = os.fsencode(spec)[at:at + 1]
    assert capsys.readouterr() == (
        "", f"codec: command frame: unexpected {byte!r} at byte {at}\n")


def test_codec_encode_spec_without_bytes_exits_2(capsys):
    # a surrogate outside U+DC80..U+DCFF stands for no byte a command line
    # holds: main, called in process, refuses it as a flag value
    assert cli.main(["codec", "--encode", "0\ud800"]) == 2
    assert one_line_error(capsys, "codec: not encodable: ")


def test_codec_bad_hex_exits_2(capsys):
    assert cli.main(["codec", "--parse", "zz"]) == 2
    assert "hex" in capsys.readouterr().err


def test_main_gives_each_refusal_type_its_exit_code(capsys, monkeypatch):
    # commands raise; main alone writes the one stderr line and picks the code
    for error, code in ((ConfigError("refused"), 2), (SilenceError("refused"), 2),
                        (LogFormatError("refused", 1), 3),
                        (EmptyInputError("refused"), 4),
                        (FrameError("refused", position=3), 5)):
        def refuse(args, error=error):
            raise error
        monkeypatch.setattr(cli, "cmd_codec", refuse)
        assert cli.main(["codec", "--encode", "0M"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "codec: refused" + (" at byte 3" if code == 5 else "") + "\n"

    def broken(args):
        raise ValueError("a defect")
    monkeypatch.setattr(cli, "cmd_codec", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["codec", "--encode", "0M"])


def test_pipeline_composes(tmp_path):
    # simulate | validate | map with no manual edits
    log = tmp_path / "run.jsonl"
    valid = tmp_path / "valid.jsonl"
    assert cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
                     "--out-log", str(log),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    assert cli.main(["validate", "--log", str(log), "--out", str(valid)]) == 0
    assert cli.main(["map", "--log", str(valid),
                     "--out-points", str(tmp_path / "p.geojson"),
                     "--out-grid", str(tmp_path / "g.asc")]) == 0
    assert (tmp_path / "g.asc").exists() and (tmp_path / "p.geojson").exists()


PIPELINE_OUTPUTS = ("run.jsonl", "summary.json", "valid.jsonl", "points.geojson",
                    "grid.asc")


def run_pipeline(config, out):
    """simulate -> validate -> map into ``out``; the five outputs' bytes."""
    out.mkdir()
    assert cli.main(["simulate", "--config", str(config),
                     "--out-log", str(out / "run.jsonl"),
                     "--out-summary", str(out / "summary.json")]) == 0
    assert cli.main(["validate", "--log", str(out / "run.jsonl"),
                     "--out", str(out / "valid.jsonl")]) == 0
    assert cli.main(["map", "--log", str(out / "run.jsonl"),
                     "--out-points", str(out / "points.geojson"),
                     "--out-grid", str(out / "grid.asc")]) == 0
    return {name: (out / name).read_bytes() for name in PIPELINE_OUTPUTS}


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_pipeline_matches_the_reference_layers(tmp_path, reference_layers, seed):
    # the goldens pin seed 0 only: at other seeds, every optimised layer
    # must still write what its kept reference writes
    rng = np.random.default_rng(seed)
    side = 30.0
    doc = {
        "field": {
            "origin_lat": 45.0, "origin_lon": 7.5, "width_m": side,
            "height_m": side, "base_theta": float(rng.uniform(0.15, 0.3)),
            "seed": seed, "noise_sigma_raw": 20.0,
            "blobs": [{"cx": float(rng.uniform(0, side)),
                       "cy": float(rng.uniform(0, side)),
                       "sigma_m": float(rng.uniform(2.0, 8.0)),
                       "amplitude": float(rng.uniform(-0.15, 0.2))}
                      for _ in range(3)],
            "obstructions": [{"cx": float(rng.uniform(0, side)),
                              "cy": float(rng.uniform(0, side)),
                              "radius_m": float(rng.uniform(0.1, 0.4))}
                             for _ in range(150)]},
        "mission": {"generate": {"count": 200, "min_spacing_m": 1.0,
                                 "seed": seed}},
    }
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    optimised = run_pipeline(config, tmp_path / "optimised")
    with reference_layers():
        reference = run_pipeline(config, tmp_path / "reference")
    for name in PIPELINE_OUTPUTS:
        assert optimised[name] == reference[name], name
    statuses = {s.status for s in read_sample_log(tmp_path / "optimised" / "run.jsonl")[0]}
    assert {Validity.VALID, Validity.NOT_PENETRATED} <= statuses


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["codec"])  # needs --parse or --encode
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["map", "--log", "run.jsonl", "--power", "2"])  # no such flag
    assert exc.value.code == 2


# -- every physical range at its edges -------------------------------------------

# the scenario changes each key's bounds need to run, beside the key itself
EDGE_SETUP = {
    ("mission.waypoints", "x"): lambda d: d["field"].update(width_m=1e5),
    ("mission.waypoints", "y"): lambda d: d["field"].update(height_m=1e5),
    ("mission.generate", "min_spacing_m"): lambda d: d.update(mission={
        "generate": {"count": 1, "min_spacing_m": 1.0, "seed": 2}}),
    ("sampler", "target_depth_m"): lambda d: d["actuator"].update(max_depth_m=5.0),
    ("actuator", "max_depth_m"): lambda d: d["sampler"].update(target_depth_m=0.0),
    ("calib", "theta_min"): lambda d: d["calib"].update(theta_max=1.0),
    ("calib", "theta_max"): lambda d: d["calib"].update(theta_min=-1.0),
}
# bounds that pass their range but that another check refuses: no field
# has its corner on a pole or on the antimeridian's east side, and no
# waypoint on a pole or the antimeridian lies in a field at latitude 45
EDGE_REFUSED_ELSEWHERE = {
    ("field", "origin_lat", -90.0): "reaches past latitude",
    ("field", "origin_lat", 90.0): "reaches past latitude",
    ("field", "origin_lon", 180.0): "reaches past latitude",
    ("mission.waypoints", "lat", -90.0): "outside the field",
    ("mission.waypoints", "lat", 90.0): "outside the field",
    ("mission.waypoints", "lon", -180.0): "outside the field",
    ("mission.waypoints", "lon", 180.0): "outside the field",
}


def edge_doc(block, key, value):
    """A scenario whose ``block`` key ``key`` is ``value``; everything
    else lies well inside its range, and each waypoint at the field's
    origin corner."""
    doc = scenario_doc()
    doc["mission"]["waypoints"] = [{"id": 1, "x": 0.0, "y": 0.0},
                                   {"id": 2, "lat": 45.0, "lon": 7.5}]
    if block.startswith("field") and key.startswith("origin"):
        doc["mission"]["waypoints"].pop()  # the lat/lon waypoint moves with it
        doc["sampler"]["reposition_offset_m"] = 0.0
    EDGE_SETUP.get((block, key), lambda d: None)(doc)
    if block == "mission.waypoints":
        doc["mission"]["waypoints"][0 if key in "xy" else 1][key] = value
    elif block in ("field.blobs", "field.obstructions"):
        doc["field"][block.split(".")[1]][0][key] = value
    else:
        node = doc
        for part in block.split("."):
            node = node[part]
        node[key] = value
    return doc


def range_line(key, lo, hi, unit):
    kind = "an integer" if type(lo) is int else "a number"
    return f"{key} must be {kind} within [{lo:g}, {hi:g}]" + (f" {unit}" if unit else "")


def edges(lo, hi):
    """(bound, the next value beyond it) at each end of [lo, hi]."""
    if type(lo) is int:
        return (lo, lo - 1), (hi, hi + 1)
    return (lo, math.nextafter(lo, -math.inf)), (hi, math.nextafter(hi, math.inf))


def test_every_range_accepts_its_bounds_and_refuses_the_next_value(tmp_path, capsys):
    # each entry of the range table: the bounds pass, and the next float
    # (or int) beyond each is refused on one line naming the key and the
    # range.  Scenario keys go through simulate (exit 2), log fields
    # through validate and map (exit 3) and the sensor's reading, and
    # --cell-size through map (exit 2)
    assert set(RANGES) == {"field", "field.blobs", "field.obstructions", "mission",
                           "mission.waypoints", "mission.generate", "sampler",
                           "actuator", "calib", "log", "map"}
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "edge.json"
    sim = ["simulate", "--config", str(config), "--out-log", str(out / "run.jsonl"),
           "--out-summary", str(out / "s.json")]
    failures = []

    def run(argv, code, line):
        got = cli.main(argv)
        err = capsys.readouterr().err
        if got != code or (line is not None and err != line + "\n"):
            failures.append((argv[0], got, err))
        for p in out.iterdir():
            p.unlink()
        return err

    for block, ranges in RANGES.items():
        if block in ("log", "map"):
            continue
        for key, (lo, hi, unit) in ranges.items():
            prefix = (f"mission.waypoints[{0 if key in 'xy' else 1}]"
                      if block == "mission.waypoints" else block)
            for bound, beyond in edges(lo, hi):
                config.write_text(json.dumps(edge_doc(block, key, bound)))
                other = EDGE_REFUSED_ELSEWHERE.get((block, key, bound))
                err = run(sim, 2 if other else 0, None)
                if other and other not in err:
                    failures.append((block, key, bound, err))
                config.write_text(json.dumps(edge_doc(block, key, beyond)))
                run(sim, 2, f"simulate: {prefix}: {range_line(key, lo, hi, unit)}")

    log = tmp_path / "run.jsonl"
    readers = (["validate", "--log", str(log), "--out", str(out / "v.jsonl")],
               ["map", "--log", str(log), "--out-points", str(out / "p.geojson"),
                "--out-grid", str(out / "g.asc")])
    for key, (lo, hi, unit) in RANGES["log"].items():
        for bound, beyond in edges(lo, hi):
            log.write_text(json.dumps({**RECORD, key: bound}) + "\n")
            for argv in readers:
                run(argv, 0, None)
            log.write_text(json.dumps({**RECORD, key: beyond}) + "\n")
            for argv in readers:
                run(argv, 3, f"{argv[0]}: {log}: line 1: {range_line(key, lo, hi, unit)}")
            if key in ("raw_counts", "temp_c", "ec_us_cm"):  # the sensor's reading
                reading = {"raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0}
                RawReading(**{**reading, key: bound})
                with pytest.raises(RangeError, match=re.escape(
                        f"{key} must be within [{lo:g}, {hi:g}] {unit}, got {beyond!r}")):
                    RawReading(**{**reading, key: beyond})

    log.write_text(json.dumps(RECORD) + "\n")
    (lo, hi, unit), = RANGES["map"].values()
    for bound, beyond in edges(lo, hi):
        run([*readers[1], f"--cell-size={bound!r}"], 0, None)
        run([*readers[1], f"--cell-size={beyond!r}"], 2,
            f"map: --cell-size {beyond!r}: {range_line('cell_size_m', lo, hi, unit)}")
    assert failures == []
