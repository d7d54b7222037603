#!/usr/bin/env python3
"""Regenerate the bundled `paper_field` scenario.

The scenario encodes the reference field campaign at desk scale: a
19 x 20 m field (~380 m2), 95 sampling points spaced at least one metre
apart, a 0.05 m probing depth, and exactly 25 points sitting on
obstructions so the mission ends with 70 valid and 25 invalid samples.

Everything is seeded, and the waypoints plus obstruction disks are
frozen into the JSON (rather than regenerated at load time) so the
70/25 split holds bit-for-bit on any machine.  The script verifies that
claim by running the full mission before it writes anything.

Run from the repository root:

    python demos/build_field_scenario.py
"""

import json
from pathlib import Path

import numpy as np

from soilprobe.fieldsim import Blob, Disk, FieldSpec, theta_true
from soilprobe.mission import MissionConfig, generate_waypoints, run_mission

OUT = Path(__file__).resolve().parents[1] / "src" / "soilprobe" / "scenarios" / "paper_field.json"

FIELD_SEED = 52901        # noise / sensing stream
WAYPOINT_SEED = 1295      # rejection-sampled point layout
OBSTRUCTION_SEED = 77     # which 25 points sit on obstructions

WIDTH, HEIGHT = 19.0, 20.0
N_POINTS, N_OBSTRUCTED = 95, 25
MIN_SPACING = 1.0
DISK_RADIUS = 0.12        # covers the probe plus every 0.10 m retry offset
NOISE_SIGMA_RAW = 25.0


def main():
    blobs = [
        {"cx": 5.0, "cy": 14.0, "sigma_m": 6.0, "amplitude": 0.14},
        {"cx": 14.5, "cy": 5.0, "sigma_m": 5.0, "amplitude": -0.10},
    ]
    field = FieldSpec(
        origin_lat=45.0, origin_lon=7.5,
        width_m=WIDTH, height_m=HEIGHT, base_theta=0.22,
        blobs=tuple(Blob(b["cx"], b["cy"], b["sigma_m"], b["amplitude"])
                    for b in blobs),
        obstructions=(), noise_sigma_raw=NOISE_SIGMA_RAW, seed=FIELD_SEED)

    waypoints = generate_waypoints(field, N_POINTS, MIN_SPACING, WAYPOINT_SEED)
    print(f"placed {len(waypoints)} waypoints with >= {MIN_SPACING} m spacing")

    rng = np.random.default_rng(OBSTRUCTION_SEED)
    blocked = sorted(rng.choice(len(waypoints), size=N_OBSTRUCTED, replace=False))
    disks = [Disk(waypoints[i].x, waypoints[i].y, DISK_RADIUS) for i in blocked]

    # sanity: no disk may touch any other waypoint (spacing already
    # guarantees this, but the 70/25 split depends on it)
    for d in disks:
        for w in waypoints:
            dist = ((w.x - d.cx) ** 2 + (w.y - d.cy) ** 2) ** 0.5
            assert dist <= 1e-12 or dist > DISK_RADIUS + 0.10, (d, w)

    # sanity: ground truth keeps a wide margin inside the validity window
    sigma_theta = NOISE_SIGMA_RAW * 3.879e-4
    margins = []
    for w in waypoints:
        t = theta_true(field, w.x, w.y)
        margins.append(min(t - 0.0, 0.70 - t) / sigma_theta)
    print(f"theta margin to the validity gates: {min(margins):.1f} sigma")
    assert min(margins) > 8.0

    full = FieldSpec(
        origin_lat=field.origin_lat, origin_lon=field.origin_lon,
        width_m=WIDTH, height_m=HEIGHT, base_theta=field.base_theta,
        blobs=field.blobs, obstructions=tuple(disks),
        noise_sigma_raw=NOISE_SIGMA_RAW, seed=FIELD_SEED)
    samples, summary = run_mission(MissionConfig(field=full, waypoints=tuple(waypoints)))
    print(f"mission: {summary.points_total} points, {summary.points_valid} valid, "
          f"{summary.points_invalid} invalid, {summary.duration_s / 60:.1f} min "
          f"simulated, hull {summary.area_convex_hull_m2:.0f} m2")
    assert (summary.points_total, summary.points_valid, summary.points_invalid) \
        == (N_POINTS, N_POINTS - N_OBSTRUCTED, N_OBSTRUCTED)

    doc = {
        "name": "paper_field",
        "field": {
            "origin_lat": full.origin_lat,
            "origin_lon": full.origin_lon,
            "width_m": WIDTH,
            "height_m": HEIGHT,
            "base_theta": full.base_theta,
            "blobs": blobs,
            "obstructions": [{"cx": d.cx, "cy": d.cy, "radius_m": d.radius_m}
                             for d in disks],
            "noise_sigma_raw": NOISE_SIGMA_RAW,
            "seed": FIELD_SEED,
        },
        "mission": {
            "speed_mps": 0.5,
            "waypoints": [{"id": w.id, "x": w.x, "y": w.y} for w in waypoints],
        },
        "sampler": {"target_depth_m": 0.05, "settle_s": 1.0,
                    "max_attempts": 3, "reposition_offset_m": 0.10},
        "actuator": {"steps_per_metre": 20000, "max_depth_m": 0.15,
                     "step_rate_hz": 500},
        "calib": {"theta_min": 0.0, "theta_max": 0.70, "depth_tol_m": 0.005},
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
