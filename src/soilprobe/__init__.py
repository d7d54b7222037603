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

``import soilprobe`` loads none of these modules, and not numpy.  Each
public name and each submodule loads on first use, through a module
``__getattr__`` (PEP 562): ``soilprobe.build_grid`` imports
:mod:`~soilprobe.geomap` and numpy, while ``soilprobe.classify`` imports
only :mod:`~soilprobe.calib` and :mod:`~soilprobe.errors`.  A command
thus pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed under the module that defines it
_EXPORTS = {
    "actuator": ("ActuatorConfig", "ActuatorState", "lower_to", "motion_duration"),
    "calib": ("DEFAULT_THRESHOLDS", "Validity", "ValidityThresholds", "classify",
              "raw_to_vwc", "vwc_to_raw"),
    "errors": ("ConfigError", "EmptyInputError", "FrameError", "LogFormatError",
               "RangeError", "SensorFault", "ShapeError", "SilenceError",
               "SoilProbeError"),
    "fieldsim": ("Blob", "CellIndex", "Disk", "FieldSpec", "SimClock",
                 "VirtualTeros", "local_to_wgs84_at", "obstruction_at",
                 "sense_raw", "theta_true", "wgs84_to_local_at"),
    "geomap": ("MoistureGrid", "build_grid", "export_grid_ascii",
               "export_points_geojson", "idw_at"),
    "mission": ("MissionConfig", "MissionSummary", "Waypoint", "convex_hull_area",
                "generate_waypoints", "read_sample_log", "run_mission",
                "select_valid"),
    "sampler": ("AttemptRecord", "PointResult", "SamplerConfig", "SoilSample",
                "attempt_point"),
    "scenario": ("Scenario", "bundled_scenarios", "load_scenario"),
    "sdi12": ("Command", "DataResponse", "MeasureAck", "RawReading", "Verb",
              "decode_reading", "encode_command", "parse_command",
              "parse_data_response", "parse_measure_ack", "run_transaction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on this package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
