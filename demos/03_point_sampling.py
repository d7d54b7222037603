#!/usr/bin/env python3
"""One waypoint, step by step, through the sampling state machine.

The waypoint sits on a small obstruction, so the first insertion stalls
at 0.01 m and reads air; the probe retracts, repositions 0.10 m east,
and the second insertion succeeds.  Both attempt records are printed,
then the sample that the last one decided.
"""

from soilprobe.fieldsim import Disk, FieldSpec, SimClock, VirtualTeros
from soilprobe.mission import Waypoint
from soilprobe.sampler import SamplerConfig, attempt_point

field = FieldSpec(origin_lat=45.0, origin_lon=7.5, width_m=20.0, height_m=20.0,
                  base_theta=0.25, obstructions=(Disk(10.0, 10.0, 0.05),),
                  noise_sigma_raw=0.0, seed=7)
sensor = VirtualTeros(field, field.rng())
clock = SimClock()

result = attempt_point(Waypoint(1, 10.0, 10.0), sensor, field, SamplerConfig(),
                       clock=clock)

print("attempts:")
for a in result.attempts:
    reading = "silent" if a.reading is None else f"RAW {a.reading.raw_counts:8.2f}"
    theta = "   --  " if a.theta is None else f"{a.theta:+.4f}"
    print(f"  #{a.attempt_index} at ({a.x:6.2f}, {a.y:6.2f})  "
          f"depth {a.achieved_depth_m:.3f} m  {reading}  theta {theta}"
          f"  -> {a.validity.value}")

s = result.sample
print(f"\nsample of point {s.point_id}: {s.status.value} after {s.attempts} "
      f"attempt(s), theta {s.theta:.4f} at ({s.lat:.7f}, {s.lon:.7f}), "
      f"validated at {s.timestamp_s:.1f} s")
print(f"simulated time spent on this point: {clock.now:.1f} s, "
      "the last retract included")
print("measure transactions on the bus: "
      f"{sum(1 for f in sensor.trace if f.endswith(b'M!'))}")
