"""Shared test helpers: deterministic fields, fault-injecting sensors,
the naive interpolation oracle, the dense IDW kernel and the linear
waypoint and obstruction references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from soilprobe.errors import InfeasibleError
from soilprobe.fieldsim import STALL_DEPTH_M, FieldSpec, VirtualTeros
from soilprobe.mission import REJECTION_TRIAL_LIMIT, Waypoint


def idw_oracle(xy, theta, qx, qy, power=2.0, cutoff=10.0, exact=1e-6):
    """Direct-evaluation IDW, independent of the library implementation."""
    best = None
    for i, (x, y) in enumerate(xy):
        d = math.hypot(x - qx, y - qy)
        if d <= exact and (best is None or (d, i) < best):
            best = (d, i)
    if best is not None:
        return theta[best[1]]
    num = den = 0.0
    for i, (x, y) in enumerate(xy):
        d = math.hypot(x - qx, y - qy)
        if d <= cutoff:
            w = d ** -power
            num += w * theta[i]
            den += w
    return num / den if den > 0 else float("nan")


def idw_dense_reference(xy, theta, rank, qx, qy, power=2.0, cutoff=10.0,
                        exact=1e-6):
    """The dense IDW kernel: every query weighs every sample.

    Same arguments as ``geomap._idw`` (samples in canonical order, ranks
    by id, 1-D queries), with the parameters spelt out.  The library's
    kernel must agree with it to rounding, and exactly on exact hits.
    """
    out = np.full(qx.size, np.nan)
    step = max(1, 65536 // theta.size)
    for q0 in range(0, qx.size, step):
        q1 = min(qx.size, q0 + step)
        d = np.hypot(qx[q0:q1, None] - xy[:, 0], qy[q0:q1, None] - xy[:, 1])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.where(d <= cutoff, d ** -power, 0.0)
            wsum = w.sum(axis=1)
            np.divide((w * theta).sum(axis=1), wsum, out=out[q0:q1],
                      where=wsum > 0)
        hits = np.flatnonzero((d <= exact).any(axis=1))
        if hits.size:
            tied = d[hits] == d[hits].min(axis=1, keepdims=True)
            out[q0 + hits] = theta[np.where(tied, rank, rank.size).argmin(axis=1)]
    return out


def generate_waypoints_reference(field, count, min_spacing_m, seed,
                                 max_trials=REJECTION_TRIAL_LIMIT):
    """The quadratic waypoint generator: every draw is compared with every
    accepted point, and each tour step scans every remaining point.

    ``mission.generate_waypoints`` must return the same waypoints and
    raise the same InfeasibleError message (argument checks aside).
    """
    rng = np.random.default_rng(seed)
    spacing_sq = min_spacing_m * min_spacing_m
    accepted: list[tuple[float, float]] = []
    trials = 0
    while len(accepted) < count:
        if trials >= max_trials:
            raise InfeasibleError(
                f"placed {len(accepted)} of {count} points after {trials} "
                f"draws; spacing {min_spacing_m} m does not fit "
                f"{field.width_m} x {field.height_m} m")
        trials += 1
        x = rng.uniform(0.0, field.width_m)
        y = rng.uniform(0.0, field.height_m)
        if all((x - ax) ** 2 + (y - ay) ** 2 >= spacing_sq for ax, ay in accepted):
            accepted.append((x, y))

    ordered: list[tuple[float, float]] = []
    cx, cy = 0.0, 0.0
    remaining = list(accepted)
    while remaining:
        nearest = min(remaining, key=lambda p: (p[0] - cx) ** 2 + (p[1] - cy) ** 2)
        remaining.remove(nearest)
        ordered.append(nearest)
        cx, cy = nearest
    return [Waypoint(i + 1, x, y) for i, (x, y) in enumerate(ordered)]


def obstruction_at_reference(spec, x, y):
    """The linear scan: test the point against every disk of the spec."""
    for d in spec.obstructions:
        if (x - d.cx) ** 2 + (y - d.cy) ** 2 <= d.radius_m ** 2:
            return STALL_DEPTH_M
    return None


def make_field(theta=0.25, blobs=(), obstructions=(), noise=0.0, seed=1234,
               width=20.0, height=20.0):
    return FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=width,
                     height_m=height, base_theta=theta, blobs=tuple(blobs),
                     obstructions=tuple(obstructions),
                     noise_sigma_raw=noise, seed=seed)


def make_sensor(spec, **kwargs):
    return VirtualTeros(spec, spec.rng(), **kwargs)


def measure_frames(frames) -> int:
    """How many start-measurement (``aM!``) frames are in ``frames``."""
    return sum(1 for f in frames if f.endswith(b"M!"))


class ScriptedSensor:
    """Replays canned replies in order; None entries model silence."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.trace = []

    def place(self, x, y, in_soil):
        pass

    def exchange(self, frame):
        self.trace.append(bytes(frame))
        return self.replies.pop(0) if self.replies else None


class FlakySensor:
    """Wraps a real sensor and injects bus faults from a seeded rng.

    ``dropped`` counts frames the inner sensor never saw (bus silence);
    garbled exchanges still reach the inner sensor but the reply is
    trashed on the way back.
    """

    def __init__(self, inner, rng: np.random.Generator,
                 p_silent=0.0, p_garbage=0.0):
        self.inner = inner
        self.rng = rng
        self.p_silent = p_silent
        self.p_garbage = p_garbage
        self.dropped_frames: list[bytes] = []

    def place(self, x, y, in_soil):
        self.inner.place(x, y, in_soil)

    def exchange(self, frame):
        roll = self.rng.random()
        if roll < self.p_silent:
            self.dropped_frames.append(bytes(frame))
            return None
        reply = self.inner.exchange(frame)
        if roll < self.p_silent + self.p_garbage:
            return b"\xff\x00!!garbage\r\n"
        return reply

    def dropped_measures(self) -> int:
        return measure_frames(self.dropped_frames)


@pytest.fixture
def flat_field():
    return make_field()
