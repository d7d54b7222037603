"""Growth gates: the work of a neighbour structure, counted at n points
and at 4n points on a field of four times the area.

At constant density a structure that answers each query from nearby
items does about 4x the work at 4n; a quadratic one does about 16x.
The gates count calls and the items they return rather than time them:
a clock swings with the machine, and numpy hides a quadratic at small
sizes.  The work is counted from outside, at the attribute the caller
looks up, as ``perfbench/tracing.py`` does; nothing under ``src/``
carries a hook for it.
"""

from collections import Counter

from soilprobe import fieldsim
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
