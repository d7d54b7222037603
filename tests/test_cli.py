"""CLI behaviour: subcommands, exit codes, stdout/stderr discipline."""

import json
import math
import os
import stat
from importlib import resources

import pytest

from soilprobe import cli
from soilprobe.mission import read_sample_log, read_summary


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
    samples = read_sample_log(log)
    s = read_summary(summary)
    assert s.points_total == 4 and s.points_valid == 3 and s.points_invalid == 1
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
    sa = read_sample_log(a)
    sb = read_sample_log(b)
    assert [s.point_id for s in sa] == [s.point_id for s in sb]
    assert [(s.lat, s.lon) for s in sa] == [(s.lat, s.lon) for s in sb]


def test_validate_counts_and_filters(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    cli.main(["simulate", "--config", str(small_scenario(tmp_path)),
              "--out-log", str(log), "--out-summary",
              str(tmp_path / "s.json")])
    out = tmp_path / "valid.jsonl"
    assert cli.main(["validate", "--log", str(log), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "3 valid" in err and "1 not_penetrated" in err
    kept = read_sample_log(out)
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
    assert cli.main(["map", "--log", str(log), "--power", "0"]) == 2
    for bad in ("nan", "inf"):
        assert cli.main(["map", "--log", str(log), "--cell-size", bad]) == 2
        assert cli.main(["map", "--log", str(log), "--power", bad]) == 2
    assert "map:" in capsys.readouterr().err


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    return err.startswith(prefix) and len(err.splitlines()) == 1


def test_simulate_bad_values_exit_2_with_one_line(tmp_path, capsys):
    scn = small_scenario(tmp_path)
    assert cli.main(["simulate", "--config", str(scn), "--seed", "-1"]) == 2
    assert one_line_error(capsys, "simulate: field: seed")
    doc = json.loads(scn.read_text())
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
    # squares that overflow are refused by name, not met in theta_true or
    # obstruction_at as "(34, 'Numerical result out of range')"
    for mutate, prefix in (
            (lambda d: d["field"].update(blobs=[{
                "cx": 2.0, "cy": 2.0, "sigma_m": 1e200, "amplitude": 0.1}]),
             "simulate: field.blobs: sigma_m is so large"),
            (lambda d: d["field"].update(obstructions=[{
                "cx": 2.0, "cy": 2.0, "radius_m": 1e200}]),
             "simulate: field.obstructions: radius_m is so large"),
            # an int spacing beyond float range is refused, not overflowed
            (lambda d: d.update(mission={"generate": {
                "count": 1, "min_spacing_m": 10 ** 400, "seed": 1}}),
             "simulate: mission.generate: min_spacing_m must be finite"),
            # the tour's squared distances would overflow
            (lambda d: (d["field"].update(width_m=1e200, height_m=1e200),
                        d.update(mission={"generate": {
                            "count": 5, "min_spacing_m": 1.0, "seed": 1}})),
             "simulate: mission.generate: a field of 1e+200 x 1e+200 m is so large"),
            # noise this wide overflows a RAW reading, which no frame carries
            (lambda d: d["field"].update(noise_sigma_raw=1.7976931348623157e308),
             "simulate: non-finite value inf cannot go on the wire")):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert one_line_error(capsys, prefix)


@pytest.mark.filterwarnings("error")
def test_simulate_far_blob_prints_only_the_summary(tmp_path, capsys):
    doc = json.loads(small_scenario(tmp_path).read_text())
    doc["field"]["blobs"] = [{"cx": 1e308, "cy": 2.0, "sigma_m": 3.0,
                              "amplitude": 0.1}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path),
                     "--out-log", str(tmp_path / "run.jsonl"),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
    assert one_line_error(capsys, "simulate: scenario")


def test_simulate_far_disk_prints_only_the_summary(tmp_path, capsys):
    # a disk 1e200 m out never obstructs, as a blob that far never wets
    plain = tmp_path / "plain"
    far = tmp_path / "far"
    doc = json.loads((resources.files("soilprobe") / "scenarios"
                      / "paper_field.json").read_text())
    doc["field"]["obstructions"].append({"cx": 1e200, "cy": 2.0, "radius_m": 0.5})
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
    assert one_line_error(capsys, "simulate: deep: invalid JSON: ")
    assert list(out.iterdir()) == []


def test_map_oversized_raster_exits_2(tmp_path, capsys):
    # two samples about 11 m x 8 m apart: 1e-5 m cells would be ~1e12 cells
    log = tmp_path / "two.jsonl"
    rec = {"point_id": 1, "timestamp_s": 1.0, "lat": 45.0, "lon": 7.5,
           "target_depth_m": 0.05, "achieved_depth_m": 0.05, "attempts": 1,
           "raw_counts": 2400.0, "temp_c": 24.0, "ec_us_cm": 150.0,
           "theta": 0.25, "status": "valid"}
    log.write_text(json.dumps(rec) + "\n" + json.dumps(
        {**rec, "point_id": 2, "lat": 45.0001, "lon": 7.5001}) + "\n")
    assert cli.main(["map", "--log", str(log), "--cell-size", "1e-5"]) == 2
    assert one_line_error(capsys, "map: cell size")


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


def test_codec_bad_hex_exits_2(capsys):
    assert cli.main(["codec", "--parse", "zz"]) == 2
    assert "hex" in capsys.readouterr().err


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["codec"])  # needs --parse or --encode
    assert exc.value.code == 2
