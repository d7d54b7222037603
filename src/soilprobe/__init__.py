"""Simulated soil-moisture probing stack.

The pieces, bottom to top: an SDI-12 wire codec and transaction
sequencer (:mod:`~soilprobe.sdi12`), RAW-to-VWC calibration and
validity gates (:mod:`~soilprobe.calib`), a stepper actuator model
(:mod:`~soilprobe.actuator`), the surface-aware sampling state machine
(:mod:`~soilprobe.sampler`), a deterministic synthetic field with a
virtual sensor (:mod:`~soilprobe.fieldsim`), waypoint missions
(:mod:`~soilprobe.mission`), and IDW moisture mapping with GeoJSON and
ESRI ASCII exports (:mod:`~soilprobe.geomap`).  ``soilprobe.cli`` binds
it all into the ``soilprobe`` command.
"""

from .actuator import ActuatorConfig, ActuatorState, lower_to, motion_duration
from .calib import (DEFAULT_THRESHOLDS, Validity, ValidityThresholds, classify,
                    raw_to_vwc, vwc_to_raw)
from .errors import (DegenerateError, EmptyInputError, FrameError,
                     InfeasibleError, LogFormatError, RangeError,
                     ScenarioError, ShapeError, SoilProbeError)
from .fieldsim import (Blob, CellIndex, Disk, FieldSpec, SimClock, VirtualTeros,
                       local_to_wgs84_at, obstruction_at, sense_raw,
                       sense_raw_air, theta_true, wgs84_to_local_at)
from .geomap import (IdwParams, MoistureGrid, build_grid, export_grid_ascii,
                     export_points_geojson, idw_at)
from .mission import (MissionConfig, MissionSummary, Waypoint,
                      convex_hull_area, generate_waypoints, read_sample_log,
                      run_mission, select_valid)
from .sampler import (AttemptRecord, PointResult, SamplerConfig, SoilSample,
                      attempt_point, finalize_sample)
from .scenario import Scenario, bundled_scenarios, load_scenario
from .sdi12 import (Command, DataResponse, MeasureAck, RawReading, Verb,
                    decode_reading, encode_command, parse_command,
                    parse_data_response, parse_measure_ack, run_transaction)

__version__ = "0.1.0"
