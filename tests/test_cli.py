"""CLI behaviour: subcommands, exit codes, stdout/stderr discipline."""

import json

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
