"""Correctness checks on the five artefacts of one pipeline pass.

``artefact_hashes`` fingerprints a pass; ``check_outputs`` decides
whether the artefacts are right and scores the raster against the
field's ground truth.  Both only read files, so the benchmark can run
them on a copy of any artefact set.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from soilprobe.fieldsim import (Blob, FieldSpec, local_to_wgs84_at, theta_true,
                                wgs84_to_local_at)

ARTEFACTS = ("run.jsonl", "summary.json", "valid.jsonl", "points.geojson", "grid.asc")
NODATA = -9999.0
# the raster is written with 6 decimals, so IDW's convex bound holds to this
ROUNDING = 5e-7


def artefact_hashes(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ARTEFACTS}


def _read_grid(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    header = {}
    for line in lines[:6]:
        key, value = line.split()
        header[key] = float(value)
    values = np.array([[float(v) for v in line.split()] for line in lines[6:]])
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if values.shape != (nrows, ncols):
        raise ValueError(f"grid body is {values.shape}, header says {(nrows, ncols)}")
    return header, values[::-1]  # row 0 is the southernmost row again


def grid_mae(field_doc: dict, valid: list[dict], header: dict, values) -> float:
    """Mean |raster - theta_true| over the cells that hold data.

    ``map`` anchors its frame at the lowest lat/lon of the valid
    samples, so each cell centre goes back to the field frame through
    lat/lon before the ground truth is evaluated.
    """
    field = FieldSpec(
        origin_lat=field_doc["origin_lat"], origin_lon=field_doc["origin_lon"],
        width_m=field_doc["width_m"], height_m=field_doc["height_m"],
        base_theta=field_doc["base_theta"], seed=field_doc["seed"],
        blobs=tuple(Blob(**b) for b in field_doc.get("blobs", ())))
    anchor_lat = min(s["lat"] for s in valid)
    anchor_lon = min(s["lon"] for s in valid)
    cell = header["cellsize"]
    iy, ix = np.nonzero(values != NODATA)
    fx, fy = [], []
    for x, y in zip(header["xllcorner"] + (ix + 0.5) * cell,
                    header["yllcorner"] + (iy + 0.5) * cell):
        lat, lon = local_to_wgs84_at(anchor_lat, anchor_lon, x, y)
        x_f, y_f = wgs84_to_local_at(field.origin_lat, field.origin_lon, lat, lon)
        fx.append(x_f)
        fy.append(y_f)
    truth = theta_true(field, np.array(fx), np.array(fy))
    return float(np.mean(np.abs(values[iy, ix] - truth)))


def check_outputs(outdir: Path, spec: dict) -> tuple[list[str], dict]:
    """Return (problems, facts) for the artefacts in ``outdir``.

    An empty problem list means every check passed.  ``facts`` holds
    the counts and the raster error the benchmark reports.
    """
    problems: list[str] = []
    hashes = artefact_hashes(outdir)
    pinned = spec["expect"]["sha256"]
    if pinned is not None:
        for name in ARTEFACTS:
            if hashes[name] != pinned[name]:
                problems.append(f"{name}: sha256 {hashes[name][:16]}... is not the pinned value")
    try:
        facts = _check_content(outdir, spec, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"artefacts do not decode: {type(exc).__name__}: {exc}")
        facts = {}
    return problems, facts


def _check_content(outdir: Path, spec: dict, problems: list[str]) -> dict:
    """Append what is wrong with the decoded artefacts; return the facts."""
    expect = spec["expect"]
    summary = json.loads((outdir / "summary.json").read_text(encoding="ascii"))
    run_lines = (outdir / "run.jsonl").read_text(encoding="ascii").splitlines(keepends=True)
    samples = [json.loads(line) for line in run_lines]
    valid_lines = [line for line, s in zip(run_lines, samples) if s["status"] == "valid"]
    valid = [s for s in samples if s["status"] == "valid"]
    counts = [summary["points_total"], summary["points_valid"], summary["points_invalid"]]
    attempts = sum(s["attempts"] for s in samples)
    facts = {"counts": counts, "attempts": attempts}

    if counts != [len(samples), len(valid), len(samples) - len(valid)]:
        problems.append(f"summary counts {counts} disagree with run.jsonl")
    if len(samples) != expect["points_total"]:
        problems.append(f"{len(samples)} points, expected {expect['points_total']}")
    if expect["counts"] is not None and counts != expect["counts"]:
        problems.append(f"summary counts {counts}, expected {expect['counts']}")
    if expect["invalid_share"] is not None:
        low, high = expect["invalid_share"]
        share = counts[2] / max(1, counts[0])
        if not low <= share <= high:
            problems.append(f"invalid share {share:.3f} outside [{low}, {high}]")
    if expect["min_attempts_per_point"] is not None:
        per_point = attempts / max(1, counts[0])
        if per_point <= expect["min_attempts_per_point"]:
            problems.append(f"{per_point:.3f} attempts per point, need more than "
                            f"{expect['min_attempts_per_point']}")
    if (outdir / "valid.jsonl").read_text(encoding="ascii") != "".join(valid_lines):
        problems.append("valid.jsonl is not the valid subset of run.jsonl")

    features = json.loads((outdir / "points.geojson").read_text(encoding="ascii"))["features"]
    if [f["properties"]["point_id"] for f in features] != [s["point_id"] for s in samples]:
        problems.append("points.geojson does not list the points of run.jsonl in order")

    header, values = _read_grid(outdir / "grid.asc")
    if expect["raster"] is not None:
        (lo_c, hi_c), (lo_r, hi_r) = expect["raster"]
        if not (lo_c <= header["ncols"] <= hi_c and lo_r <= header["nrows"] <= hi_r):
            problems.append(f"raster {int(header['ncols'])} x {int(header['nrows'])} "
                            f"outside {expect['raster']}")
    data = values[values != NODATA]
    thetas = [s["theta"] for s in valid]
    if not valid or data.size == 0:
        problems.append("no valid samples or an empty raster")
        return facts
    if data.min() < min(thetas) - ROUNDING or data.max() > max(thetas) + ROUNDING:
        problems.append("raster leaves the range of the valid samples")
    facts["cells"] = int(values.size)
    facts["grid_mae"] = grid_mae(spec["field"], valid, header, values)
    return facts
