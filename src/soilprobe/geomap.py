"""Moisture mapping: inverse-distance-weighted interpolation of valid
samples onto a raster, plus GeoJSON and ESRI ASCII exports.

One IDW kernel serves :func:`idw_at` and :func:`build_grid`.  IDW with
positive weights is a convex combination, so every interpolated value
stays inside the sampled range and the surface is exact at the sample
points.  Cells farther than the cutoff radius from every sample are
no-data (NaN internally, -9999 in the ASCII export): the map never
extrapolates far beyond the sampled hull.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .fieldsim import wgs84_to_local_at

NODATA = -9999

# cap on the (cells x samples) distance block held in memory at once
_CHUNK_CELLS = 65536


@dataclass(frozen=True)
class IdwParams:
    power: float = 2.0
    cutoff_radius_m: float = 10.0
    exact_radius_m: float = 1e-6

    def __post_init__(self):
        for name in ("power", "cutoff_radius_m", "exact_radius_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class MoistureGrid:
    """Raster of interpolated VWC over a local metric frame.

    ``values[iy, ix]`` holds the cell whose centre is at
    (origin_x + (ix + 0.5) * cell, origin_y + (iy + 0.5) * cell): row 0
    is the southernmost row.  NaN marks no-data.
    """

    origin_x: float
    origin_y: float
    cell_size_m: float
    values: np.ndarray

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        gx = self.origin_x + (np.arange(self.nx) + 0.5) * self.cell_size_m
        gy = self.origin_y + (np.arange(self.ny) + 0.5) * self.cell_size_m
        return gx, gy


def _as_sample_arrays(xy, theta, ids):
    """Samples in canonical order, plus each sample's rank by id."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    theta = np.asarray(theta, dtype=float).ravel()
    if xy.size == 0 or theta.size == 0:
        raise EmptyInputError("need at least one sample to interpolate")
    if xy.shape[1] != 2 or xy.shape[0] != theta.shape[0]:
        raise ValueError("xy must be (n, 2) matching n theta values")
    ids = np.arange(theta.size) if ids is None else np.asarray(ids)
    # canonical sample order so results never depend on input order
    order = np.lexsort((ids, theta, xy[:, 1], xy[:, 0]))
    rank = np.argsort(np.argsort(ids[order], kind="stable"))
    return xy[order], theta[order], rank


def _idw(xy, theta, rank, qx, qy, params: IdwParams) -> np.ndarray:
    """:func:`idw_at` at each (qx[i], qy[i]); exact-hit ties go to the lowest rank."""
    out = np.full(qx.size, np.nan)
    step = max(1, _CHUNK_CELLS // theta.size)
    for q0 in range(0, qx.size, step):
        q1 = min(qx.size, q0 + step)
        d = np.hypot(qx[q0:q1, None] - xy[:, 0], qy[q0:q1, None] - xy[:, 1])
        # exact hits get 1/0 weights here and are overwritten just below
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(d <= params.cutoff_radius_m, d ** -params.power, 0.0)
            wsum = w.sum(axis=1)
            np.divide((w * theta).sum(axis=1), wsum, out=out[q0:q1],
                      where=wsum > 0)
        hits = np.flatnonzero((d <= params.exact_radius_m).any(axis=1))
        if hits.size:
            tied = d[hits] == d[hits].min(axis=1, keepdims=True)
            out[q0 + hits] = theta[np.where(tied, rank, rank.size).argmin(axis=1)]
    return out


def idw_at(xy, theta, x: float, y: float, params: IdwParams = IdwParams(),
           ids=None) -> float:
    """Interpolated VWC at one query point; NaN when out of reach.

    A sample within ``exact_radius_m`` wins outright (nearest first,
    then lowest id on ties), which also makes the surface exact at the
    sample locations.  Otherwise the samples inside ``cutoff_radius_m``
    are combined with weights d**-power.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    return float(_idw(xy, theta, rank, *np.array([[x], [y]], float), params)[0])


def build_grid(xy, theta, bounds, params: IdwParams = IdwParams(),
               cell_size_m: float = 0.5, ids=None) -> MoistureGrid:
    """Evaluate IDW at every cell centre of a rectangular raster.

    ``bounds`` is (xmin, ymin, xmax, ymax) in the local frame.  Every
    cell goes through the same kernel as :func:`idw_at`, so values and
    exact-hit tie-breaks match it everywhere.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise ValueError("cell_size_m must be finite and > 0")
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("bounds must have positive extent")
    nx = max(1, math.ceil((xmax - xmin) / cell_size_m))
    ny = max(1, math.ceil((ymax - ymin) / cell_size_m))

    grid = MoistureGrid(xmin, ymin, cell_size_m, values=np.empty((ny, nx)))
    qx, qy = np.meshgrid(*grid.cell_centers())
    grid.values.flat = _idw(xy, theta, rank, qx.ravel(), qy.ravel(), params)
    return grid


# -- Exports -----------------------------------------------------------------


def samples_to_local(samples, origin_lat: float | None = None,
                     origin_lon: float | None = None):
    """Project samples onto a local metric frame.

    With no origin given, anchors at (min lat, min lon) over the
    samples, which is all a bare log file supports.  Returns the (n, 2)
    coordinate array plus the anchor used.
    """
    if not samples:
        raise EmptyInputError("no samples to project")
    if origin_lat is None:
        origin_lat = min(s.lat for s in samples)
    if origin_lon is None:
        origin_lon = min(s.lon for s in samples)
    xy = np.array([wgs84_to_local_at(origin_lat, origin_lon, s.lat, s.lon)
                   for s in samples])
    return xy, (origin_lat, origin_lon)


def export_points_geojson(samples) -> str:
    """GeoJSON FeatureCollection of all samples, valid and invalid.

    Coordinates are [longitude, latitude] per RFC 7946; ``status`` in
    the properties tells the two classes apart.
    """
    features = [{
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [s.lon, s.lat]},
        "properties": {"point_id": s.point_id, "theta": s.theta,
                       "status": s.status.value, "attempts": s.attempts},
    } for s in samples]
    return json.dumps({"type": "FeatureCollection", "features": features},
                      indent=2) + "\n"


def export_grid_ascii(grid: MoistureGrid) -> str:
    """ESRI ASCII raster: header, then rows north to south, 6 decimals."""
    lines = [
        f"ncols {grid.nx}",
        f"nrows {grid.ny}",
        f"xllcorner {grid.origin_x:.6f}",
        f"yllcorner {grid.origin_y:.6f}",
        f"cellsize {grid.cell_size_m:.6f}",
        f"NODATA_value {NODATA}",
    ]
    for iy in range(grid.ny - 1, -1, -1):
        row = grid.values[iy]
        lines.append(" ".join(
            str(NODATA) if math.isnan(v) else f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
