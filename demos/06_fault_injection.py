#!/usr/bin/env python3
"""Running the sampler against a misbehaving bus.

A wrapper around the virtual sensor randomly swallows frames (silence)
or trashes replies (garbage).  The state machine records those attempts
as sensor errors, keeps retrying, and always parks the probe; nothing
ever leaks out as an exception or leaves the actuator extended.
"""

import numpy as np

from soilprobe.calib import Validity
from soilprobe.fieldsim import FieldSpec, VirtualTeros
from soilprobe.mission import Waypoint
from soilprobe.sampler import SamplerConfig, attempt_point


class LossyBus:
    """Delivers frames with probability 1 - p_silent - p_garbage."""

    def __init__(self, inner, rng, p_silent, p_garbage):
        self.inner = inner
        self.rng = rng
        self.p_silent = p_silent
        self.p_garbage = p_garbage

    def place(self, x, y, in_soil):
        self.inner.place(x, y, in_soil)

    def exchange(self, frame):
        roll = self.rng.random()
        if roll < self.p_silent:
            return None
        reply = self.inner.exchange(frame)
        if roll < self.p_silent + self.p_garbage:
            return b"\x07\x07 interference \x07\x07"
        return reply


field = FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=20.0, height_m=20.0,
                  base_theta=0.25, seed=21, noise_sigma_raw=20.0)
rng = np.random.default_rng(4)

print("sampling the same point 12 times over a bus that eats or garbles")
print("30% of all frames (max 3 attempts per point):\n")

tally = {status: 0 for status in Validity}
for run in range(12):
    bus = LossyBus(VirtualTeros(field, field.rng()), rng,
                   p_silent=0.15, p_garbage=0.15)
    result = attempt_point(Waypoint(run, 10.0, 10.0), bus, field, SamplerConfig())
    assert result.actuator.position_steps == 0  # always parked
    trail = " ".join(a.validity.value for a in result.attempts)
    print(f"  run {run:2d}: {len(result.attempts)} attempt(s): {trail}"
          f"  -> final {result.final.value}")
    tally[result.final] += 1

print("\nfinal verdicts:", {k.value: v for k, v in tally.items()})
print("every run ended with the actuator at position 0")
