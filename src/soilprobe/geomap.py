"""Moisture mapping: inverse-distance-weighted interpolation of valid
samples onto a raster, plus GeoJSON and ESRI ASCII exports.

One IDW kernel serves :func:`idw_at` and :func:`build_grid`.  IDW with
positive weights is a convex combination, so every interpolated value
stays inside the sampled range and the surface is exact at the sample
points.  Cells farther than the cutoff radius from every sample are
no-data (NaN internally, -9999 in the ASCII export): the map never
extrapolates far beyond the sampled hull.

Only samples within the cutoff (or exact) radius can change a value,
so the kernel groups its queries into square tiles of that side and
weighs each tile against the samples near it, never against all of
them (local Shepard interpolation; Franke & Nielson 1980).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, require_positive
from .fieldsim import wgs84_to_local_at

NODATA = -9999

# cap on the (tile cells x tile samples) distance block held in memory at once
_CHUNK_CELLS = 65536

# largest raster build_grid accepts: 128 MiB of float64 values
MAX_GRID_CELLS = 1 << 24


@dataclass(frozen=True)
class IdwParams:
    power: float = 2.0
    cutoff_radius_m: float = 10.0
    exact_radius_m: float = 1e-6

    def __post_init__(self):
        require_positive(self, "power", "cutoff_radius_m", "exact_radius_m")


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
    """:func:`idw_at` at each (qx[i], qy[i]); exact-hit ties go to the lowest rank.

    ``xy`` must be in canonical order, which sorts it by x first.  The
    finite queries are grouped into square tiles whose side is ``reach``,
    the larger of the cutoff and exact radii.  Each tile weighs only the
    samples inside its queries' bounding box grown by ``reach``, which
    holds every sample the cutoff and exact tests can keep.  Non-finite
    queries stay NaN.
    """
    out = np.full(qx.size, np.nan)
    live = np.flatnonzero(np.isfinite(qx) & np.isfinite(qy))
    if not live.size:
        return out
    reach = max(params.cutoff_radius_m, params.exact_radius_m)
    # a tiny reach may overflow a tile index to inf, which only merges tiles
    with np.errstate(over="ignore"):
        tx, ty = np.floor(qx[live] / reach), np.floor(qy[live] / reach)
    by_tile = np.lexsort((tx, ty))
    live, tx, ty = live[by_tile], tx[by_tile], ty[by_tile]
    starts = np.r_[0, np.flatnonzero((tx[1:] != tx[:-1])
                                     | (ty[1:] != ty[:-1])) + 1]
    ends = np.r_[starts[1:], live.size]
    lqx, lqy = qx[live], qy[live]
    x0, x1 = np.minimum.reduceat(lqx, starts), np.maximum.reduceat(lqx, starts)
    y0, y1 = np.minimum.reduceat(lqy, starts), np.maximum.reduceat(lqy, starts)
    # each tile's query box grown by reach; the pad outweighs every rounding
    # in the box and in d, so no sample that d <= cutoff or d <= exact would
    # keep is left out
    with np.errstate(over="ignore"):
        grow = reach + 1e-9 * (reach + np.abs([x0, x1, y0, y1]).max(axis=0))
        x0, x1, y0, y1 = x0 - grow, x1 + grow, y0 - grow, y1 + grow
    xs, ys = xy[:, 0], xy[:, 1]
    i0, i1 = xs.searchsorted(x0, "left"), xs.searchsorted(x1, "right")
    vals = np.full(live.size, np.nan)

    for t in np.flatnonzero(i1 > i0):
        # ascending indices keep canonical order within the tile
        near = i0[t] + np.flatnonzero((ys[i0[t]:i1[t]] >= y0[t])
                                      & (ys[i0[t]:i1[t]] <= y1[t]))
        if not near.size:
            continue
        sx, sy, sth, srank = xs[near], ys[near], theta[near], rank[near]
        step = max(1, _CHUNK_CELLS // near.size)
        for q0 in range(starts[t], ends[t], step):
            q1 = min(ends[t], q0 + step)
            d = np.hypot(lqx[q0:q1, None] - sx, lqy[q0:q1, None] - sy)
            # exact hits get 1/0 weights here and are overwritten just below;
            # absurdly large thetas may overflow, written as no-data on export
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w = np.where(d <= params.cutoff_radius_m, d ** -params.power,
                             0.0)
                wsum = w.sum(axis=1)
                np.divide((w * sth).sum(axis=1), wsum, out=vals[q0:q1],
                          where=wsum > 0)
            hits = np.flatnonzero((d <= params.exact_radius_m).any(axis=1))
            if hits.size:
                tied = d[hits] == d[hits].min(axis=1, keepdims=True)
                vals[q0 + hits] = sth[
                    np.where(tied, srank, rank.size).argmin(axis=1)]
    out[live] = vals
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
    exact-hit tie-breaks match it everywhere.  A raster of more than
    ``MAX_GRID_CELLS`` cells raises ValueError before anything is
    allocated.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise ValueError("cell_size_m must be finite and > 0")
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounds must have positive extent")
    # clamped before ceil, so an infinite extent cannot overflow it
    nx, ny = (max(1, math.ceil(min(extent / cell_size_m, MAX_GRID_CELLS + 1)))
              for extent in (xmax - xmin, ymax - ymin))
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(f"cell size {cell_size_m} m needs more than "
                         f"{MAX_GRID_CELLS} cells")

    grid = MoistureGrid(xmin, ymin, cell_size_m, values=np.empty((ny, nx)))
    qx, qy = np.meshgrid(*grid.cell_centers())
    grid.values.flat = _idw(xy, theta, rank, qx.ravel(), qy.ravel(), params)
    return grid


# -- Exports -----------------------------------------------------------------


def samples_to_local(samples):
    """Project samples onto a local metric frame.

    Anchors at (min lat, min lon) over the samples, which is all a bare
    log file supports.  Returns the (n, 2) coordinate array plus the
    anchor.
    """
    if not samples:
        raise EmptyInputError("no samples to project")
    origin_lat = min(s.lat for s in samples)
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
                      indent=2, allow_nan=False) + "\n"


def export_grid_ascii(grid: MoistureGrid) -> str:
    """ESRI ASCII raster: header, then rows north to south, 6 decimals.

    NaN and infinite cells are written as ``NODATA``.
    """
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
            f"{v:.6f}" if math.isfinite(v) else str(NODATA) for v in row))
    return "\n".join(lines) + "\n"
