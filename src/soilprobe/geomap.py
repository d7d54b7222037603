"""Moisture mapping: inverse-distance-weighted interpolation of valid
samples onto a raster, plus GeoJSON and ESRI ASCII exports.

One IDW kernel serves :func:`idw_at` and :func:`build_grid`, at
Shepard's power 2: a sample at squared distance d2 weighs 1 / d2, that
is d**-2.  IDW with positive weights is a convex combination, so every
interpolated value stays inside the sampled range and the surface is
exact at the sample points.  "Within R" means the float64 squared
distance ``dx*dx + dy*dy <= R*R``.  A sample within ``EXACT_RADIUS_M``
of a query is its value (nearest by squared distance, then lowest id);
cells with no sample within ``CUTOFF_RADIUS_M`` are no-data (NaN
internally, -9999 in the ASCII export): the map never extrapolates far
beyond the sampled hull.

The kernel works on the cell lattice: a raster's cell centres are
the nodes (x[ix], y[iy]), and a query point is a lattice of one node.
Only samples within the cutoff radius can change a value, so the
kernel groups the nodes into square tiles of that side and weighs
each tile against the samples near it, never against all of them
(local Shepard interpolation; Franke & Nielson 1980).  On a lattice a
squared distance is a row term plus a column term (Felzenszwalb &
Huttenlocher 2012), so each tile squares its offsets once per row and
once per column.  That one squared distance decides the cutoff, the
exact hit and the weight, so which samples count, which cells are
no-data, and which sample wins an exact hit never depend on the sums.
Each node's weight sum and weighted sum come from one matrix product,
whose BLAS summation order may move a value in its last bits.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (RANGES, ConfigError, EmptyInputError, range_text, record,
                     within)
from .fieldsim import wgs84_to_local_at

NODATA = -9999

# a sample within EXACT_RADIUS_M of a query is the query's value; samples
# farther than CUTOFF_RADIUS_M from it do not count; "within R" is
# dx*dx + dy*dy <= R*R
CUTOFF_RADIUS_M = 10.0
EXACT_RADIUS_M = 1e-6

# Shepard's power: a sample at distance d weighs d ** -IDW_POWER; the
# kernel weighs a squared distance d2 by 1 / d2, which holds it at 2
IDW_POWER = 2.0

# cap on the (tile cells x tile samples) distance block held in memory at once
_CHUNK_CELLS = 65536

# largest raster build_grid accepts: 128 MiB of float64 values
MAX_GRID_CELLS = 1 << 24


@record
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
        return (_centres(self.origin_x, self.cell_size_m, self.nx),
                _centres(self.origin_y, self.cell_size_m, self.ny))


def _centres(origin: float, cell_size_m: float, n: int) -> np.ndarray:
    """The ``n`` cell centres of a raster axis, origin + (i + 0.5) * cell."""
    return origin + (np.arange(n) + 0.5) * cell_size_m


def _as_sample_arrays(xy, theta, ids):
    """Samples in canonical order, plus each sample's rank by id.  Each
    theta lies in a log record's range, so no IDW sum overflows."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    theta = np.asarray(theta, dtype=float).ravel()
    if xy.size == 0 or theta.size == 0:
        raise EmptyInputError("need at least one sample to interpolate")
    if xy.shape[1] != 2 or xy.shape[0] != theta.shape[0]:
        raise ConfigError("xy must be (n, 2) matching n theta values")
    lo, hi, unit = RANGES["log"]["theta"]
    if not (lo <= theta.min() and theta.max() <= hi):  # NaN fails both tests
        raise ConfigError(f"theta must be a number within {range_text(lo, hi, unit)}")
    ids = np.arange(theta.size) if ids is None else np.asarray(ids)
    # canonical sample order so results never depend on input order
    order = np.lexsort((ids, theta, xy[:, 1], xy[:, 0]))
    rank = np.argsort(np.argsort(ids[order], kind="stable"))
    return xy[order], theta[order], rank


def _tile_runs(g):
    """Runs of the axis ``g`` that fall in one tile, ``floor(g / cutoff)``,
    as (starts, ends, lowest, highest); ascending axes, as cell centres
    are, give one run per tile."""
    t = np.floor(g / CUTOFF_RADIUS_M)
    starts = np.r_[0, np.flatnonzero(t[1:] != t[:-1]) + 1]
    ends = np.r_[starts[1:], g.size]
    return starts, ends, np.minimum.reduceat(g, starts), np.maximum.reduceat(g, starts)


def _idw(xy, theta, rank, gx, gy) -> np.ndarray:
    """:func:`idw_at` at every node (gx[ix], gy[iy]) of a lattice, as a
    (gy.size, gx.size) array.

    ``xy`` must be in canonical order, which sorts it by x first, and
    both axes must be non-empty and finite.  The nodes are grouped into
    square tiles whose side is the cutoff radius.  Each
    tile weighs only the samples inside its nodes' bounding box grown by
    that radius, which holds every sample the cutoff and exact tests can
    keep.

    On a lattice, ``(x - sx)**2`` depends only on the column and
    ``(y - sy)**2`` only on the row, so each tile squares its columns'
    and its rows' offsets once per sample, and each pair's squared
    distance ``d2`` is one sum of the two: the same rounded sum that
    squaring each pair's offsets gives.  That ``d2`` decides both
    circles: a pair counts when ``d2 <= cutoff * cutoff``, and a node
    whose nearest ``d2`` is at most ``exact * exact`` takes the value of
    that sample, the lowest rank on ties.  Weights are ``1 / d2``, or
    d**-2, by ``np.reciprocal`` (bit for bit ``np.power(d2, -1.0)``, as
    a test checks), in reused buffers of at most ``max(_CHUNK_CELLS,
    samples of one tile)`` pairs; a tile row holding more is split
    across its columns.  Each node's weight sum and weighted sum come
    from one matrix product of its weights with [1, theta], whose
    summation order is the BLAS kernel's: the values differ from the
    same weights summed in order by a few ulps.
    """
    cutoff, exact = CUTOFF_RADIUS_M, EXACT_RADIUS_M
    col0, col1, x0, x1 = _tile_runs(gx)
    row0, row1, y0, y1 = _tile_runs(gy)
    # each tile's node box grown by the cutoff, tiles indexed [row run,
    # column run]; the pad outweighs every rounding in the box and in d2,
    # so no sample that d2 <= cutoff * cutoff would keep is left out
    with np.errstate(over="ignore"):
        reach = np.maximum(np.abs(y0), np.abs(y1))[:, None]
        reach = np.maximum(reach, np.maximum(np.abs(x0), np.abs(x1)))
        grow = cutoff + 1e-9 * (cutoff + reach)
        x0, x1 = x0 - grow, x1 + grow
        y0, y1 = y0[:, None] - grow, y1[:, None] + grow
    xs, ys = xy[:, 0], xy[:, 1]
    i0, i1 = xs.searchsorted(x0, "left"), xs.searchsorted(x1, "right")
    vals = np.full((gy.size, gx.size), np.nan)

    # the right-hand side of each tile's matrix product: a weight sum and
    # a weighted sum per node
    ones_theta = np.column_stack([np.ones(theta.size), theta])
    cut2, exact2 = cutoff * cutoff, exact * exact
    # a chunk holds at most max(_CHUNK_CELLS, samples of one tile) pairs,
    # and never more than every node against those samples
    most = int((i1 - i0).max())
    size = min(max(_CHUNK_CELLS, most), vals.size * most)
    d2_buf, keep_buf = np.empty(size), np.empty(size, bool)

    # far pairs may overflow their squares to inf, which the cutoff drops;
    # exact hits get 1/0 weights, and are overwritten; a node with no
    # weight divides 0 by 0 into NaN, no-data; matmul checks the flags too
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for r, c in zip(*np.nonzero(i1 > i0)):
            # ascending indices keep canonical order within the tile
            lo, hi = i0[r, c], i1[r, c]
            near = lo + np.flatnonzero((ys[lo:hi] >= y0[r, c])
                                       & (ys[lo:hi] <= y1[r, c]))
            if not near.size:
                continue
            sx, sy, rhs, n = xs[near], ys[near], ones_theta[near], near.size
            # whole tile rows per chunk while one fits, else part of one row
            cstep = min(col1[c] - col0[c], max(_CHUNK_CELLS, n) // n)
            rstep = max(1, max(_CHUNK_CELLS, n) // (cstep * n))
            for ca in range(col0[c], col1[c], cstep):
                cb = min(col1[c], ca + cstep)
                dx2 = np.square(gx[ca:cb, None] - sx)
                dx2_min = dx2.min(axis=0)
                for ra in range(row0[r], row1[r], rstep):
                    rb = min(row1[r], ra + rstep)
                    shape = (rb - ra, cb - ca, n)
                    d2 = d2_buf[:shape[0] * shape[1] * n].reshape(shape)
                    keep = keep_buf[:d2.size].reshape(shape)
                    dy2 = np.square(gy[ra:rb, None] - sy)
                    np.add(dy2[:, None, :], dx2, out=d2)
                    # rounding is monotone, so no node is within the exact
                    # radius of a sample that fails this
                    close = np.flatnonzero(dx2_min + dy2.min(axis=0) <= exact2)
                    cand = near[close]
                    # a copy, taken before the weights overwrite d2
                    d2c = d2[:, :, close]
                    np.less_equal(d2, cut2, out=keep)
                    w = np.reciprocal(d2, out=d2)  # d2 ** (-IDW_POWER / 2)
                    w *= keep
                    sums = (w.reshape(-1, n) @ rhs).reshape(shape[0], shape[1], 2)
                    block = vals[ra:rb, ca:cb]
                    np.divide(sums[..., 1], sums[..., 0], out=block)
                    if cand.size:
                        d2c = d2c.reshape(-1, cand.size)
                        nearest = d2c.min(axis=1, keepdims=True)
                        hits = np.flatnonzero(nearest <= exact2)
                        tied = d2c[hits] == nearest[hits]
                        block[np.divmod(hits, shape[1])] = theta[cand][
                            np.where(tied, rank[cand], rank.size).argmin(axis=1)]
    return vals


def idw_at(xy, theta, x: float, y: float, ids=None) -> float:
    """Interpolated VWC at one query point; NaN when out of reach.

    A sample within ``EXACT_RADIUS_M`` wins outright (nearest by squared
    distance, then lowest id), which also makes the surface exact at the
    sample locations.  Otherwise the samples within ``CUTOFF_RADIUS_M``
    are combined with weights d**-2, Shepard's power.  "Within R" is
    ``dx*dx + dy*dy <= R*R`` in float64.  The point is a
    lattice of one node; a point at a non-finite coordinate is NaN.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    query = np.array([[x], [y]], float)
    if not np.isfinite(query).all():
        return math.nan
    return float(_idw(xy, theta, rank, *query)[0, 0])


def build_grid(xy, theta, bounds, cell_size_m: float = 0.5,
               ids=None) -> MoistureGrid:
    """Evaluate IDW at every cell centre of a rectangular raster.

    ``bounds`` is (xmin, ymin, xmax, ymax) in the local frame.  Every
    cell goes through the same kernel as :func:`idw_at`, so values and
    exact-hit tie-breaks match it everywhere.  A cell size outside its
    range in ``errors.RANGES["map"]``, an extent that is not finite, or a
    raster of more than ``MAX_GRID_CELLS`` cells raises ConfigError
    before anything is allocated.
    """
    xy, theta, rank = _as_sample_arrays(xy, theta, ids)
    within("map", "cell_size_m", cell_size_m)
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
    values = _idw(xy, theta, rank, _centres(xmin, cell_size_m, nx),
                  _centres(ymin, cell_size_m, ny))
    return MoistureGrid(xmin, ymin, cell_size_m, values)


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


# one GeoJSON Feature as json.dumps(indent=2) lays it out inside the
# collection; the values are lon, lat, point_id, theta, status, attempts
_FEATURE = """\
    {
      "type": "Feature",
      "geometry": {
        "type": "Point",
        "coordinates": [
          %s,
          %s
        ]
      },
      "properties": {
        "point_id": %s,
        "theta": %s,
        "status": %s,
        "attempts": %s
      }
    }"""


def _json_number(value) -> str:
    """``value`` as :func:`json.dumps` writes a number or null.

    A finite ``float`` and an ``int`` take their reprs, tested by exact
    type first as most values are.  Other ints and floats (subclasses
    too, such as ``np.float64``) take the ``int`` and ``float`` reprs
    that ``json`` uses; NaN and infinity raise ValueError, as
    ``allow_nan=False`` does.  Anything else, bools and strings
    included, raises TypeError.
    """
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return repr(value)
    elif kind is int:
        return repr(value)
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
    one ``%`` template per Feature.
    """
    num = _json_number
    features = [_FEATURE % (
        num(s.lon), num(s.lat), num(s.point_id), num(s.theta),
        encode_basestring_ascii(s.status.value), num(s.attempts))
        for s in samples]
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
    # every non-finite cell becomes NaN, which "%.6f" writes as "nan"
    rows = np.where(np.isfinite(grid.values), grid.values, np.nan)[::-1]
    row_fmt = " ".join(["%.6f"] * grid.nx)
    body = "".join(row_fmt % tuple(row.tolist()) + "\n" for row in rows)
    return "\n".join(lines) + "\n" + body.replace("nan", str(NODATA))
