#!/usr/bin/env python3
"""Run the bundled field campaign end to end through the library API.

Loads the `paper_field` scenario (95 waypoints over 19 x 20 m, 25 of
them sitting on obstructions), executes the mission, and prints the
summary plus a compact status strip of the whole log.
"""

from collections import Counter

from soilprobe.mission import run_mission
from soilprobe.scenario import load_scenario

scn = load_scenario("paper_field")
print(f"scenario {scn.name!r}: {len(scn.mission.waypoints)} waypoints, "
      f"{len(scn.mission.field.obstructions)} obstruction disks, "
      f"noise sigma {scn.mission.field.noise_sigma_raw} counts")

samples, summary = run_mission(scn.mission)

print(f"\n{summary.points_total} points: {summary.points_valid} valid, "
      f"{summary.points_invalid} invalid")
print(f"simulated duration: {summary.duration_s / 60:.1f} min")
print(f"convex hull of sampled positions: {summary.area_convex_hull_m2:.0f} m2")

marks = {"valid": ".", "not_penetrated": "x", "sensor_error": "!"}
strip = "".join(marks[s.status.value] for s in samples)
print("\nstatus strip (mission order, x = flagged and excluded):")
for i in range(0, len(strip), 48):
    print("  " + strip[i:i + 48])

by_attempts = Counter(s.attempts for s in samples)
print("\nattempts per point:", dict(sorted(by_attempts.items())))
theta = [s.theta for s in samples if s.status.value == "valid"]
print(f"valid theta range: {min(theta):.3f} .. {max(theta):.3f} m3/m3")
