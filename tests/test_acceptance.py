"""Acceptance suite: one test per exit criterion, each printing a
PASS line when it holds.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria:
  1. bundled paper_field scenario reports exactly 95 / 70 / 25 in <= 5 s
  2. calibration arithmetic: raw 2000 -> 0.0802 (1e-9); theta=0
     crossover at 0.6956 / 3.879e-4 (1e-6, against a bisection oracle)
  3. zero-noise inverse model recovers ground truth within 1e-9 at
     1000 random points
  4. codec: 1e4 generated frames survive encode-parse-encode
     bit-identically; 1e5 fuzz inputs raise only typed errors
  5. state-machine safety: 500 randomized scenarios always end with the
     actuator home and attempts <= max_attempts
  6. IDW exactness (1e-9), boundedness, and naive-oracle equivalence
     (1e-12) on a 10x10 grid with 20 samples
  7. field recovery: IDW grid vs analytic ground truth, MAE <= 0.05
  8. identical seeds give byte-identical logs, summaries, and exports,
     and the paper_field artefacts keep their pinned sha256
  9. the validity filter: on an obstructed field the map of valid
     samples has MAE <= 0.015 and at least 5x less error than the map of
     every sample with a theta; with no obstructions the two maps are
     equal; either gate of classify alone flags the same samples
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from soilprobe import cli, sdi12
from soilprobe.calib import Validity, ValidityThresholds, classify, raw_to_vwc
from soilprobe.errors import FrameError
from soilprobe.fieldsim import (Blob, Disk, FieldSpec, SimClock, sense_raw,
                                theta_true, wgs84_to_local_at)
from soilprobe.geomap import build_grid, idw_at
from soilprobe.mission import (MissionConfig, Waypoint, generate_waypoints,
                               run_mission, select_valid)
from soilprobe.sampler import SamplerConfig, attempt_point

from conftest import FlakySensor, idw_oracle, make_field, make_sensor, retracted


# sha256 of the paper_field artefacts at the default seed; any change to
# their bytes must be deliberate and update these values
PAPER_FIELD_SHA256 = {
    "run.jsonl": "a7250a5514932a1311adf4dba5a314953eea8ca85f5715a90fd2a16623df8134",
    "summary.json": "d8a2092435a44f3f42f38b81d673e62a87da4743a66b80505f3b50fcbc8dda47",
    "valid.jsonl": "efe1a4f913ba9498878682073f636d2f5a873ca7947ba1a53143fbfeb50fe8d2",
    "points.geojson": "5ddb96389e3b5a39d1cedacbb4837c3aafeb980de68c2a7ff25bcea75b66e7e7",
    "grid.asc": "d1256a0ab32da48fd3f07ae95ec31daa425d72edc02c5c83d5eb97d393c68b96",
}


def ok(n, text):
    print(f"ACCEPTANCE PASS criterion {n}: {text}")


def test_criterion_1_paper_scenario_reproduction(tmp_path):
    log = tmp_path / "run.jsonl"
    summary_path = tmp_path / "summary.json"
    t0 = time.perf_counter()
    code = cli.main(["simulate", "--config", "paper_field",
                     "--out-log", str(log), "--out-summary", str(summary_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    s = json.loads(summary_path.read_text())
    assert s["points_total"] == 95
    assert s["points_valid"] == 70
    assert s["points_invalid"] == 25
    assert elapsed <= 5.0
    ok(1, f"paper_field -> 95 total / 70 valid / 25 invalid in {elapsed:.2f} s")


def test_criterion_2_calibration_arithmetic():
    assert abs(raw_to_vwc(2000.0) - 0.0802) <= 1e-9
    # independent root finder for the theta = 0 crossover
    lo, hi = 0.0, 10_000.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if raw_to_vwc(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    crossover = (lo + hi) / 2.0
    assert abs(crossover - 0.6956 / 3.879e-4) <= 1e-6
    ok(2, f"raw 2000 -> {raw_to_vwc(2000.0):.6f}; crossover {crossover:.4f}")


def test_criterion_3_inverse_model_consistency():
    spec = make_field(theta=0.22,
                      blobs=[Blob(6, 8, 4, 0.2), Blob(15, 15, 5, -0.15)],
                      noise=0.0)
    rng = spec.rng()
    pts = np.random.default_rng(17).uniform(0, 20, size=(1000, 2))
    worst = max(abs(raw_to_vwc(sense_raw(spec, x, y, rng)) - theta_true(spec, x, y))
                for x, y in pts)
    assert worst <= 1e-9
    ok(3, f"1000-point zero-noise recovery, worst error {worst:.2e}")


def test_criterion_4_codec_round_trip_and_fuzz():
    rng = np.random.default_rng(404)
    addresses = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    verbs = list(sdi12.Verb)
    frames = []
    for _ in range(10_000):
        kind = rng.integers(3)
        address = addresses[rng.integers(len(addresses))]
        if kind == 0:
            cmd = sdi12.Command(verbs[rng.integers(len(verbs))], address,
                                index=int(rng.integers(10)))
            wire = sdi12.encode_command(cmd)
            assert sdi12.parse_command(wire) == cmd
            assert sdi12.encode_command(sdi12.parse_command(wire)) == wire
        elif kind == 1:
            ack = sdi12.MeasureAck(address, int(rng.integers(1000)),
                                   int(rng.integers(10)))
            wire = sdi12.encode_measure_ack(ack)
            assert sdi12.parse_measure_ack(wire) == ack
            assert sdi12.encode_measure_ack(sdi12.parse_measure_ack(wire)) == wire
        else:
            values = tuple(
                round(float(rng.uniform(-99_999.0, 99_999.0)), int(rng.integers(7)))
                for _ in range(rng.integers(10)))
            resp = sdi12.DataResponse(address, values)
            wire = sdi12.encode_data_response(resp)
            assert sdi12.parse_data_response(wire) == resp
            assert sdi12.encode_data_response(sdi12.parse_data_response(wire)) == wire
        frames.append(wire)

    # fuzz: random bytes plus bit-flipped valid frames; typed errors only
    parsers = (sdi12.parse_command, sdi12.parse_measure_ack,
               sdi12.parse_data_response)
    pool = rng.integers(0, 256, size=1_600_000).astype(np.uint8).tobytes()
    offset = 0
    for i in range(100_000):
        if i % 2 == 0:
            length = int(rng.integers(0, 16))
            frame = pool[offset:offset + length]
            offset += length
        else:
            frame = bytearray(frames[rng.integers(len(frames))])
            frame[rng.integers(len(frame))] = rng.integers(256)
            frame = bytes(frame)
        for parser in parsers:
            try:
                parser(frame)
            except FrameError:
                pass  # the one allowed failure mode
    ok(4, "1e4 frames round-trip bit-identically; 1e5 fuzz inputs -> typed errors only")


def test_criterion_5_fsm_safety_500_scenarios():
    rng = np.random.default_rng(505)
    for run in range(500):
        disks = [Disk(float(rng.uniform(9, 11)), float(rng.uniform(9, 11)),
                      float(rng.uniform(0.02, 0.6)))
                 for _ in range(rng.integers(0, 5))]
        field = make_field(theta=float(rng.uniform(0.05, 0.45)),
                           obstructions=disks,
                           noise=float(rng.uniform(0, 60)),
                           seed=int(rng.integers(1 << 30)))
        sensor = FlakySensor(make_sensor(field), rng,
                             p_silent=float(rng.uniform(0, 0.3)),
                             p_garbage=float(rng.uniform(0, 0.3)))
        cfg = SamplerConfig(max_attempts=int(rng.integers(1, 5)))
        clock = SimClock()
        result = attempt_point(Waypoint(1, 10.0, 10.0), sensor, field, cfg,
                               clock=clock)
        assert retracted(result, clock)
        assert 1 <= len(result.attempts) <= cfg.max_attempts
    ok(5, "500 randomized runs ended retracted with attempts within bounds")


def test_criterion_6_idw_properties():
    rng = np.random.default_rng(606)
    xy = rng.uniform(0, 10, size=(20, 2))
    theta = rng.uniform(0.05, 0.5, size=20)

    for (x, y), t in zip(xy, theta):
        assert abs(idw_at(xy, theta, x, y) - t) <= 1e-9

    grid = build_grid(xy, theta, (0, 0, 10, 10), cell_size_m=1.0)
    assert (grid.nx, grid.ny) == (10, 10)
    vals = grid.values[~np.isnan(grid.values)]
    assert vals.min() >= theta.min() and vals.max() <= theta.max()

    gx, gy = grid.cell_centers()
    worst = 0.0
    for iy, y in enumerate(gy):
        for ix, x in enumerate(gx):
            want = idw_oracle(xy, theta, x, y)
            got = grid.values[iy, ix]
            assert math.isnan(want) == math.isnan(got)
            if not math.isnan(want):
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    ok(6, f"exact at samples, bounded, oracle gap {worst:.2e}")


def test_criterion_7_field_recovery_quality():
    field = FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=19.0,
                      height_m=20.0, base_theta=0.22,
                      blobs=(Blob(5.0, 14.0, 6.0, 0.14),
                             Blob(14.5, 5.0, 5.0, -0.10)),
                      noise_sigma_raw=0.0, seed=1)
    wps = generate_waypoints(field, 100, 1.0, seed=2)
    samples, _ = run_mission(MissionConfig(field=field, waypoints=tuple(wps)))
    valid = select_valid(samples)
    assert len(valid) == 100
    xy = np.array([(w.x, w.y) for w in wps])
    theta = np.array([s.theta for s in valid])
    grid = build_grid(xy, theta, (0, 0, 19.0, 20.0), cell_size_m=0.5)
    gx, gy = grid.cell_centers()
    truth = theta_true(field, gx[None, :], gy[:, None])
    mask = ~np.isnan(grid.values)
    assert mask.all()  # 100 spread points leave nothing out of reach
    mae = float(np.abs(grid.values - truth).mean())
    assert mae <= 0.05
    ok(7, f"IDW grid vs analytic ground truth: MAE {mae:.4f} <= 0.05")


def test_criterion_8_pipeline_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert cli.main(["simulate", "--config", "paper_field",
                         "--out-log", str(d / "run.jsonl"),
                         "--out-summary", str(d / "summary.json")]) == 0
        assert cli.main(["validate", "--log", str(d / "run.jsonl"),
                         "--out", str(d / "valid.jsonl")]) == 0
        assert cli.main(["map", "--log", str(d / "run.jsonl"),
                         "--out-points", str(d / "points.geojson"),
                         "--out-grid", str(d / "grid.asc")]) == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("run.jsonl", "summary.json", "valid.jsonl",
                                     "points.geojson", "grid.asc")})
    assert outputs[0] == outputs[1]
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs[0].items()} == PAPER_FIELD_SHA256
    ok(8, "two seeded runs produced byte-identical logs, summaries, and "
          "exports, matching the pinned sha256")


def _stony_field(stones: int, seed: int = 0) -> FieldSpec:
    """Criterion 7's field with sensor noise and ``stones`` seeded disks
    of 1 m radius; 25 of them cover about a fifth of it."""
    rng = random.Random(f"criterion 9:{seed}")
    return FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=20.0,
                     height_m=20.0, base_theta=0.22,
                     blobs=(Blob(5.0, 14.0, 6.0, 0.14),
                            Blob(14.5, 5.0, 5.0, -0.10)),
                     obstructions=tuple(Disk(rng.uniform(0, 20), rng.uniform(0, 20), 1.0)
                                        for _ in range(stones)),
                     noise_sigma_raw=25.0, seed=seed)


def _mapped(field, samples):
    """The 0.5 m IDW grid of ``samples``' thetas over ``field``."""
    xy = np.array([wgs84_to_local_at(field.origin_lat, field.origin_lon, s.lat, s.lon)
                   for s in samples])
    return build_grid(xy, np.array([s.theta for s in samples]),
                      (0, 0, field.width_m, field.height_m), cell_size_m=0.5)


def test_criterion_9_the_validity_filter_keeps_the_map_true():
    # AgriOne's claim: dropping the insertions that did not reach the soil
    # makes the map reliable.  Map the valid samples, and every sample
    # with a theta as if it were valid, from one seeded obstructed mission.
    # Over seeds 0-14 of this field, 78-91 samples were valid, the filtered
    # MAE read 0.0075-0.0118 and the ratio 7.1-20.1; the bounds sit
    # outside those ranges.
    field = _stony_field(25)
    wps = tuple(generate_waypoints(field, 100, 1.0, seed=0))
    samples, _ = run_mission(MissionConfig(field=field, waypoints=wps))
    valid = select_valid(samples)
    every = [s for s in samples if s.theta is not None]
    assert len(every) == 100 and 70 <= len(valid) <= 95
    filtered, unfiltered = _mapped(field, valid), _mapped(field, every)
    gx, gy = filtered.cell_centers()
    truth = theta_true(field, gx[None, :], gy[:, None])
    assert not np.isnan(filtered.values).any()
    mae = float(np.abs(filtered.values - truth).mean())
    mae_all = float(np.abs(unfiltered.values - truth).mean())
    assert mae <= 0.015
    assert mae_all >= 5.0 * mae
    # each gate alone: here every stall is also an air reading, far below
    # theta_min, so the depth gate and the theta window each flag exactly
    # the samples both together flag
    depth_only = ValidityThresholds(theta_min=-1.0, theta_max=1.0)
    window_only = ValidityThresholds(depth_tol_m=1.0)
    for thresholds in (depth_only, window_only):
        assert [classify(s.theta, s.achieved_depth_m, s.target_depth_m, thresholds)
                for s in samples] == [s.status for s in samples]
    # control: the same mission on no stones; the filter removes nothing
    # and the two maps are one
    clear = _stony_field(0)
    samples, _ = run_mission(MissionConfig(field=clear, waypoints=wps))
    assert all(s.status is Validity.VALID for s in samples)
    assert np.array_equal(_mapped(clear, select_valid(samples)).values,
                          _mapped(clear, [s for s in samples if s.theta is not None]).values)
    ok(9, f"{len(valid)} of 100 samples valid: map MAE {mae:.4f} <= 0.015, "
          f"{mae_all:.4f} ({mae_all / mae:.1f}x) unfiltered; equal maps with no stones")


# runs map in a fresh interpreter, after the BLAS thread variables are set
MAP_IN_FRESH_PROCESS = """
import sys
from soilprobe import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_blas_thread_count_leaves_the_grid_bytes_alone(tmp_path):
    # the IDW sums come from a BLAS matrix product, which may split its
    # work across threads; the raster must not depend on how many
    log = tmp_path / "run.jsonl"
    assert cli.main(["simulate", "--config", "paper_field", "--out-log", str(log),
                     "--out-summary", str(tmp_path / "summary.json")]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         *filter(None, [env.get("PYTHONPATH")])])
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        grid = tmp_path / f"grid_{threads}.asc"
        done = subprocess.run(
            [sys.executable, "-c", MAP_IN_FRESH_PROCESS, "map", "--log", str(log),
             "--out-points", str(tmp_path / "points.geojson"), "--out-grid", str(grid)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(grid.read_bytes()).hexdigest() == PAPER_FIELD_SHA256["grid.asc"]
