#!/usr/bin/env python3
"""From sample log to moisture map.

Runs the bundled scenario, keeps the valid samples, interpolates them
onto a half-metre raster, renders the raster as ASCII art against the
known ground truth, and writes the GeoJSON + ESRI ASCII exports next to
this script (demos/out/).
"""

from pathlib import Path

import numpy as np

from soilprobe.fieldsim import theta_true, wgs84_to_local_at
from soilprobe.geomap import build_grid, export_grid_ascii, export_points_geojson
from soilprobe.mission import run_mission, select_valid
from soilprobe.scenario import load_scenario

scn = load_scenario("paper_field")
field = scn.mission.field
samples, _ = run_mission(scn.mission)
valid = select_valid(samples)
print(f"{len(valid)} valid samples feed the map; "
      f"{len(samples) - len(valid)} flagged points stay out")

xy = np.array([wgs84_to_local_at(field.origin_lat, field.origin_lon, s.lat, s.lon)
               for s in valid])
theta = np.array([s.theta for s in valid])
grid = build_grid(xy, theta, (0, 0, field.width_m, field.height_m),
                  cell_size_m=0.5, ids=[s.point_id for s in valid])

gx, gy = grid.cell_centers()
truth = theta_true(field, gx[None, :], gy[:, None])
mae = float(np.abs(grid.values - truth).mean())
print(f"grid {grid.nx} x {grid.ny} at {grid.cell_size_m} m; "
      f"MAE vs ground truth {mae:.4f} m3/m3")

shades = " .:-=+*#%@"
lo, hi = grid.values.min(), grid.values.max()
print(f"\ninterpolated moisture, north up ({lo:.2f} -> '{shades[1]}', "
      f"{hi:.2f} -> '{shades[-1]}'):")
for row in grid.values[::-1]:
    idx = np.clip(((row - lo) / (hi - lo) * (len(shades) - 1)).astype(int),
                  0, len(shades) - 1)
    print("  " + "".join(shades[i] for i in idx))

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
(out / "points.geojson").write_text(export_points_geojson(samples))
(out / "grid.asc").write_text(export_grid_ascii(grid))
print(f"\nwrote {out / 'points.geojson'}")
print(f"wrote {out / 'grid.asc'}")
