"""Seeded workload generators and the expectations each workload must meet.

Every workload is a scenario document plus the ``map`` flags of the
pipeline.  ``paper_field`` is the frozen scenario bundled with the
package and ignores the seed; the other two are built here from the
benchmark seed, so the program only ever sees the generated JSON file.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("paper_field", "survey_1k", "stony_grid")

# the seed at which the generated workloads' artefact hashes are pinned
DEFAULT_SEED = 0

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _paper_field(root: Path) -> dict:
    path = root / "src" / "soilprobe" / "scenarios" / "paper_field.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _disks(rng: random.Random, count: int, radius_m: float,
           width_m: float, height_m: float) -> list[dict]:
    return [{"cx": rng.uniform(0.0, width_m), "cy": rng.uniform(0.0, height_m),
             "radius_m": radius_m} for _ in range(count)]


def _survey_1k(root: Path, seed: int) -> dict:
    """paper_field's moisture stretched to 100 x 100 m, 1,000 generated points."""
    rng = random.Random(f"survey_1k:{seed}")
    doc = _paper_field(root)
    field = doc["field"]
    sx = 100.0 / field["width_m"]
    sy = 100.0 / field["height_m"]
    field["blobs"] = [{"cx": b["cx"] * sx, "cy": b["cy"] * sy,
                       "sigma_m": b["sigma_m"] * (sx * sy) ** 0.5,
                       "amplitude": b["amplitude"]} for b in field["blobs"]]
    field["width_m"] = field["height_m"] = 100.0
    field["obstructions"] = _disks(rng, 100, 0.3, 100.0, 100.0)
    field["seed"] = rng.randrange(2**31)
    doc["name"] = "survey_1k"
    doc["mission"] = {"speed_mps": 0.5, "generate": {
        "count": 1000, "min_spacing_m": 2.0, "seed": rng.randrange(2**31)}}
    return doc


def _stony_grid(root: Path, seed: int) -> dict:
    """A 40 x 40 boustrophedon grid at 1.5 m over 1,500 stones of 0.5 m."""
    rng = random.Random(f"stony_grid:{seed}")
    doc = _paper_field(root)
    field = doc["field"]
    field["width_m"] = field["height_m"] = 60.5
    field["obstructions"] = _disks(rng, 1500, 0.5, 60.5, 60.5)
    field["seed"] = rng.randrange(2**31)
    waypoints = []
    for row in range(40):
        cols = range(40) if row % 2 == 0 else range(39, -1, -1)
        for col in cols:
            waypoints.append({"id": len(waypoints) + 1,
                              "x": 1.0 + 1.5 * col, "y": 1.0 + 1.5 * row})
    doc["name"] = "stony_grid"
    doc["mission"] = {"speed_mps": 0.5, "waypoints": waypoints}
    return doc


def build(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir``; return the run spec.

    The spec names the scenario, the ``map`` flags, the field block the
    raster is scored against, and what the outputs must satisfy.
    """
    if name == "paper_field":
        doc = _paper_field(root)
        config = "paper_field"
        map_flags: list[str] = []
    else:
        doc = (_survey_1k if name == "survey_1k" else _stony_grid)(root, seed)
        config = str(workdir / f"{name}.json")
        Path(config).write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
        map_flags = ["--cell-size", "1.0"] if name == "survey_1k" else []

    golden = GOLDEN[name]
    pinned = golden if name == "paper_field" or seed == DEFAULT_SEED else None
    return {
        "workload": name,
        "config": config,
        "map_flags": map_flags,
        "field": doc["field"],
        "expect": {
            "points_total": len(doc["mission"].get("waypoints", ())) or
            doc["mission"]["generate"]["count"],
            "counts": pinned["counts"] if pinned else None,
            "sha256": pinned["sha256"] if pinned else None,
            "raster": golden.get("raster"),
            "invalid_share": golden.get("invalid_share"),
            "min_attempts_per_point": golden.get("min_attempts_per_point"),
        },
    }
