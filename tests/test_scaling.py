"""Growth gates: the work of a neighbour structure or of the IDW kernel,
counted at n points and at 4n points on a field of four times the area.

At constant density a structure that answers each query from nearby
items does about 4x the work at 4n; a quadratic one does about 16x.
The gates count calls and the items they return rather than time them:
a clock swings with the machine, and numpy hides a quadratic at small
sizes.  The work is counted from outside, at the attribute the caller
looks up, as ``perfbench/tracing.py`` does; nothing under ``src/``
carries a hook for it.
"""

from collections import Counter

import numpy as np

from soilprobe import fieldsim, geomap
from soilprobe.mission import generate_waypoints

from conftest import make_field

# (count, field side in metres) at one density, a point per 10 m2, and
# one spacing
SIZES = ((1000, 100.0), (4000, 200.0))
SPACING_M = 2.0

# the largest growth of the work from n to 4n points: linear plus slack
MAX_GROWTH = 4.5
# the largest mean number of accepted points one query reads
MAX_MEAN_NEAR = 4.0
# the raster cell of the IDW gate
CELL_M = 0.5


def test_waypoint_generator_queries_grow_linearly(monkeypatch):
    tally = Counter()
    near = fieldsim.CellIndex.near

    def counted(index, x, y):
        items = near(index, x, y)
        tally["calls"] += 1
        tally["items"] += len(items)
        return items
    monkeypatch.setattr(fieldsim.CellIndex, "near", counted)

    calls = []
    for count, side in SIZES:
        tally.clear()
        points = generate_waypoints(make_field(width=side, height=side), count,
                                    SPACING_M, seed=7)
        assert len(points) == count
        # each accepted point was a draw, and each draw one query
        assert tally["calls"] >= count
        assert tally["items"] / tally["calls"] < MAX_MEAN_NEAR
        calls.append(tally["calls"])
    assert calls[1] / calls[0] <= MAX_GROWTH


class CountingNumpy:
    """numpy, except that ``reciprocal`` adds up the sizes it is given:
    the kernel weighs each (node, sample) pair by one reciprocal."""

    def __init__(self):
        self.pairs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def reciprocal(self, a, *args, **kwargs):
        self.pairs += a.size
        return np.reciprocal(a, *args, **kwargs)


def test_idw_kernel_pairs_grow_linearly(monkeypatch):
    pairs = []
    for count, side in SIZES:
        rng = np.random.default_rng(count)
        xy = rng.uniform(0.0, side, (count, 2))
        theta = rng.uniform(0.05, 0.45, count)
        counting = CountingNumpy()
        monkeypatch.setattr(geomap, "np", counting)
        grid = geomap.build_grid(xy, theta, (0.0, 0.0, side, side), CELL_M)
        # every cell has a sample in reach, and each cell weighs one at least
        assert not np.isnan(grid.values).any()
        assert counting.pairs >= grid.values.size
        pairs.append(counting.pairs)
    assert pairs[1] / pairs[0] <= MAX_GROWTH
