"""Moisture mapping: inverse-distance-weighted interpolation of valid
samples onto a raster, plus GeoJSON and ESRI ASCII exports.

One IDW kernel serves :func:`idw_at` and :func:`build_grid`.  IDW with
positive weights is a convex combination, so every interpolated value
stays inside the sampled range and the surface is exact at the sample
points.  A sample within ``EXACT_RADIUS_M`` of a query is its value;
cells farther than ``CUTOFF_RADIUS_M`` from every sample are no-data
(NaN internally, -9999 in the ASCII export): the map never
extrapolates far beyond the sampled hull.

Only samples within the cutoff radius can change a value, so the
kernel groups its queries into square tiles of that side and weighs
each tile against the samples near it, never against all of them
(local Shepard interpolation; Franke & Nielson 1980).  Weights come
from squared distances; ``hypot`` decides every pair that lies within
rounding of either radius, so which samples count, and which sample
wins an exact hit, never depend on the squaring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, EmptyInputError, require_positive
from .fieldsim import wgs84_to_local_at

NODATA = -9999

# a sample within EXACT_RADIUS_M of a query is the query's value; samples
# farther than CUTOFF_RADIUS_M from it do not count
CUTOFF_RADIUS_M = 10.0
EXACT_RADIUS_M = 1e-6

# largest IDW power: a weight d ** -50 of a sample that counts,
# EXACT_RADIUS_M < d <= CUTOFF_RADIUS_M, stays within about 1e-300..1e300,
# which leaves room for the sum of the weights
MAX_POWER = 50.0

# cap on the (tile cells x tile samples) distance block held in memory at once
_CHUNK_CELLS = 65536

# largest raster build_grid accepts: 128 MiB of float64 values
MAX_GRID_CELLS = 1 << 24

# relative width of the band around a squared radius inside which the
# squared distance cannot tell in from out; dx*dx + dy*dy and hypot each
# round within a few ulps, far inside it
_SQUARE_BAND = 1e-12


@dataclass(frozen=True)
class IdwParams:
    """IDW settings.  A power above ``MAX_POWER`` is refused: the weight
    near the exact radius could overflow, and cells with samples in
    reach would turn no-data."""

    power: float = 2.0

    def __post_init__(self):
        require_positive(self, "power")
        if self.power > MAX_POWER:
            raise ConfigError(
                f"power must be at most {MAX_POWER:g} for radii "
                f"{EXACT_RADIUS_M:g} to {CUTOFF_RADIUS_M:g} m, or an IDW "
                f"weight leaves 1e-300..1e300")


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
        raise ConfigError("xy must be (n, 2) matching n theta values")
    ids = np.arange(theta.size) if ids is None else np.asarray(ids)
    # canonical sample order so results never depend on input order
    order = np.lexsort((ids, theta, xy[:, 1], xy[:, 0]))
    rank = np.argsort(np.argsort(ids[order], kind="stable"))
    return xy[order], theta[order], rank


def _idw(xy, theta, rank, qx, qy, params: IdwParams) -> np.ndarray:
    """:func:`idw_at` at each (qx[i], qy[i]); exact-hit ties go to the lowest rank.

    ``xy`` must be in canonical order, which sorts it by x first.  The
    finite queries are grouped into square tiles whose side is the
    cutoff radius.  Each tile weighs only the samples inside its
    queries' bounding box grown by that radius, which holds every
    sample the cutoff and exact tests can keep.  Non-finite queries
    stay NaN.

    Weights are ``d2 ** (-power / 2)`` on squared distances ``d2``,
    computed in reused buffers.  ``np.hypot`` decides and weighs what
    squaring cannot: pairs whose ``d2`` lies within ``_SQUARE_BAND`` of
    the squared cutoff, and the exact-hit test of every row holding a
    ``d2`` up to that band above the squared exact radius, which every
    ``d2`` below the normal floats is.  So the kept pairs, the no-data
    cells and the exact-hit winners are those of distances from
    ``np.hypot``; only the weights differ from ``hypot(...) ** -power``,
    by a few ulps.
    """
    out = np.full(qx.size, np.nan)
    live = np.flatnonzero(np.isfinite(qx) & np.isfinite(qy))
    if not live.size:
        return out
    cutoff, exact = CUTOFF_RADIUS_M, EXACT_RADIUS_M
    tx, ty = np.floor(qx[live] / cutoff), np.floor(qy[live] / cutoff)
    by_tile = np.lexsort((tx, ty))
    live, tx, ty = live[by_tile], tx[by_tile], ty[by_tile]
    starts = np.r_[0, np.flatnonzero((tx[1:] != tx[:-1])
                                     | (ty[1:] != ty[:-1])) + 1]
    ends = np.r_[starts[1:], live.size]
    lqx, lqy = qx[live], qy[live]
    x0, x1 = np.minimum.reduceat(lqx, starts), np.maximum.reduceat(lqx, starts)
    y0, y1 = np.minimum.reduceat(lqy, starts), np.maximum.reduceat(lqy, starts)
    # each tile's query box grown by the cutoff; the pad outweighs every
    # rounding in the box and in d, so no sample that d <= cutoff would
    # keep is left out
    with np.errstate(over="ignore"):
        grow = cutoff + 1e-9 * (cutoff + np.abs([x0, x1, y0, y1]).max(axis=0))
        x0, x1, y0, y1 = x0 - grow, x1 + grow, y0 - grow, y1 + grow
    xs, ys = xy[:, 0], xy[:, 1]
    i0, i1 = xs.searchsorted(x0, "left"), xs.searchsorted(x1, "right")
    vals = np.full(live.size, np.nan)

    power = params.power
    # thetas beyond 1 in size are weighed scaled by a power of two into
    # [-1, 1], exactly, so no weighted sum overflows; the scale is undone
    # on each result
    top = float(np.abs(theta).max())
    scale = math.frexp(top)[1] if top > 1.0 else 0
    weighed = np.ldexp(theta, -scale) if scale else theta
    # each squared radius widened by the band; products, not **, which
    # rounds some squares to a different last bit
    shrink, grow = 1.0 - _SQUARE_BAND, 1.0 + _SQUARE_BAND
    cut_lo = (cutoff * shrink) * (cutoff * shrink)
    cut_hi = (cutoff * grow) * (cutoff * grow)
    exact_hi = (exact * grow) * (exact * grow)
    # a chunk holds at most max(_CHUNK_CELLS, samples of one tile) pairs,
    # and never more than every query against those samples
    most = int((i1 - i0).max())
    size = min(max(_CHUNK_CELLS, most), live.size * most)
    d2_buf, dy_buf = np.empty(size), np.empty(size)
    keep_buf, sure_buf = np.empty(size, bool), np.empty(size, bool)

    for t in np.flatnonzero(i1 > i0):
        # ascending indices keep canonical order within the tile
        near = i0[t] + np.flatnonzero((ys[i0[t]:i1[t]] >= y0[t])
                                      & (ys[i0[t]:i1[t]] <= y1[t]))
        if not near.size:
            continue
        sx, sy, sth, srank = xs[near], ys[near], theta[near], rank[near]
        sweighed = weighed[near]
        step = max(1, _CHUNK_CELLS // near.size)
        for q0 in range(starts[t], ends[t], step):
            q1 = min(ends[t], q0 + step)
            shape = (q1 - q0, near.size)
            d2, dy, keep, sure = (buf[:shape[0] * shape[1]].reshape(shape)
                                  for buf in (d2_buf, dy_buf, keep_buf, sure_buf))
            # far pairs may overflow to inf, which every test drops
            with np.errstate(over="ignore"):
                np.subtract(lqx[q0:q1, None], sx, out=d2)
                np.subtract(lqy[q0:q1, None], sy, out=dy)
                np.multiply(d2, d2, out=d2)
                np.multiply(dy, dy, out=dy)
                d2 += dy
            may_hit = np.flatnonzero(d2.min(axis=1) <= exact_hi)
            np.less_equal(d2, cut_hi, out=keep)
            np.less(d2, cut_lo, out=sure)
            # hypot weighs the pairs whose squares cannot tell in from out
            edge = None
            if np.count_nonzero(keep) != np.count_nonzero(sure):
                edge = np.flatnonzero(keep ^ sure)
                r, c = np.divmod(edge, shape[1])
                d = np.hypot(lqx[q0 + r] - sx[c], lqy[q0 + r] - sy[c])
            # exact hits get 1/0 weights here and are overwritten just below
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w = np.power(d2, -0.5 * power, out=d2)
                w *= keep
                if edge is not None:
                    w.flat[edge] = np.where(d <= cutoff, d ** -power, 0.0)
                wsum = w.sum(axis=1)
                w *= sweighed
                np.divide(w.sum(axis=1), wsum, out=vals[q0:q1], where=wsum > 0)
            if scale:
                np.ldexp(vals[q0:q1], scale, out=vals[q0:q1])
            if may_hit.size:
                d = np.hypot(lqx[q0 + may_hit, None] - sx,
                             lqy[q0 + may_hit, None] - sy)
                hit = (d <= exact).any(axis=1)
                d = d[hit]
                tied = d == d.min(axis=1, keepdims=True)
                vals[q0 + may_hit[hit]] = sth[
                    np.where(tied, srank, rank.size).argmin(axis=1)]
    out[live] = vals
    return out


def idw_at(xy, theta, x: float, y: float, params: IdwParams = IdwParams(),
           ids=None) -> float:
    """Interpolated VWC at one query point; NaN when out of reach.

    A sample within ``EXACT_RADIUS_M`` wins outright (nearest first,
    then lowest id on ties), which also makes the surface exact at the
    sample locations.  Otherwise the samples inside ``CUTOFF_RADIUS_M``
    are combined with weights d**-power.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    return float(_idw(xy, theta, rank, *np.array([[x], [y]], float), params)[0])


def build_grid(xy, theta, bounds, params: IdwParams = IdwParams(),
               cell_size_m: float = 0.5, ids=None) -> MoistureGrid:
    """Evaluate IDW at every cell centre of a rectangular raster.

    ``bounds`` is (xmin, ymin, xmax, ymax) in the local frame.  Every
    cell goes through the same kernel as :func:`idw_at`, so values and
    exact-hit tie-breaks match it everywhere.  An extent that is not
    finite, or a raster of more than ``MAX_GRID_CELLS`` cells, raises
    ConfigError before anything is allocated.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise ConfigError("cell_size_m must be finite and > 0")
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError("bounds must have positive extent")
    width, height = xmax - xmin, ymax - ymin
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ConfigError(f"raster extent {width} x {height} m is not finite")
    # clamped before ceil, so a quotient that overflows to inf cannot overflow it
    nx, ny = (max(1, math.ceil(min(extent / cell_size_m, MAX_GRID_CELLS + 1)))
              for extent in (width, height))
    if nx * ny > MAX_GRID_CELLS:
        raise ConfigError(f"cell size {cell_size_m} m needs more than "
                          f"{MAX_GRID_CELLS} cells")

    grid = MoistureGrid(xmin, ymin, cell_size_m, values=np.empty((ny, nx)))
    qx, qy = np.meshgrid(*grid.cell_centers())
    grid.values.flat = _idw(xy, theta, rank, qx.ravel(), qy.ravel(), params)
    return grid


# -- Exports -----------------------------------------------------------------


def samples_to_local(samples):
    """Project samples onto a local metric frame.

    Anchors at (min lat, min lon) over the samples, which is all a bare
    log file supports.  Returns the (n, 2) coordinate array.
    """
    if not samples:
        raise EmptyInputError("no samples to project")
    origin_lat = min(s.lat for s in samples)
    origin_lon = min(s.lon for s in samples)
    return np.array([wgs84_to_local_at(origin_lat, origin_lon, s.lat, s.lon)
                     for s in samples])


# one GeoJSON Feature as json.dumps(indent=2) lays it out inside the collection
_FEATURE = """\
    {{
      "type": "Feature",
      "geometry": {{
        "type": "Point",
        "coordinates": [
          {lon},
          {lat}
        ]
      }},
      "properties": {{
        "point_id": {point_id},
        "theta": {theta},
        "status": {status},
        "attempts": {attempts}
      }}
    }}"""


def _json_number(value) -> str:
    """``value`` as :func:`json.dumps` writes a number or null.

    Ints and floats (subclasses too, such as ``np.float64``) take the
    ``int`` and ``float`` reprs that ``json`` uses; NaN and infinity
    raise ValueError, as ``allow_nan=False`` does.  Anything else,
    bools and strings included, raises TypeError.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"out of range float value {value!r} is not "
                             "JSON compliant")
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"{type(value).__name__} is not a JSON number")


def export_points_geojson(samples) -> str:
    """GeoJSON FeatureCollection of all samples, valid and invalid.

    Coordinates are [longitude, latitude] per RFC 7946; ``status`` in
    the properties tells the two classes apart.  The text is what
    ``json.dumps(..., indent=2, allow_nan=False)`` gives, written from
    one template per Feature.
    """
    num = _json_number
    features = [_FEATURE.format(
        lon=num(s.lon), lat=num(s.lat), point_id=num(s.point_id),
        theta=num(s.theta), status=encode_basestring_ascii(s.status.value),
        attempts=num(s.attempts)) for s in samples]
    if not features:
        return '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'
    return ('{\n  "type": "FeatureCollection",\n  "features": [\n'
            + ",\n".join(features) + "\n  ]\n}\n")


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
    fmt, nodata = "{:.6f}".format, str(NODATA)
    rows = grid.values[::-1]
    for finite, row in zip(np.isfinite(rows).all(axis=1).tolist(), rows):
        if finite:
            lines.append(" ".join(map(fmt, row.tolist())))
        else:
            lines.append(" ".join(fmt(v) if math.isfinite(v) else nodata
                                  for v in row.tolist()))
    return "\n".join(lines) + "\n"
