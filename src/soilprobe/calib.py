"""RAW-count calibration and measurement validity gates.

The probe reports its dielectric measurement as dimensionless RAW
counts; volumetric water content (VWC, m3/m3) follows a fixed linear
calibration of those counts.  Validity gating pairs a depth check (did
the probe reach its target insertion depth?) with a plausibility window
on the computed water content, so air readings from a failed insertion
and shorted/flooded readings are both flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, require_finite

# theta [m3/m3] = VWC_PER_COUNT * RAW + VWC_AT_ZERO_COUNTS
VWC_PER_COUNT = 3.879e-4
VWC_AT_ZERO_COUNTS = -0.6956


class Validity(str, Enum):
    """Final classification of one measurement."""

    VALID = "valid"
    NOT_PENETRATED = "not_penetrated"
    SENSOR_ERROR = "sensor_error"


@dataclass(frozen=True)
class ValidityThresholds:
    """Gate settings for :func:`classify`.

    ``theta_max`` defaults above the porosity of any agricultural soil,
    so it only trips on shorted or flooded readings.  A probe left in
    air computes theta near -0.70, far below ``theta_min``.
    """

    theta_min: float = 0.0      # m3/m3
    theta_max: float = 0.70     # m3/m3
    depth_tol_m: float = 0.005

    def __post_init__(self):
        require_finite(self, "theta_min", "theta_max", "depth_tol_m")
        if self.theta_min > self.theta_max:
            raise ConfigError("theta_min must not exceed theta_max")
        if self.depth_tol_m < 0:
            raise ConfigError("depth_tol_m must be >= 0")


DEFAULT_THRESHOLDS = ValidityThresholds()


def raw_to_vwc(raw_counts):
    """Convert RAW counts to volumetric water content in m3/m3.

    Linear in the counts; accepts scalars or numpy arrays.
    """
    return VWC_PER_COUNT * raw_counts + VWC_AT_ZERO_COUNTS


def vwc_to_raw(theta):
    """Inverse of :func:`raw_to_vwc`: the RAW counts that produce ``theta``."""
    return (theta - VWC_AT_ZERO_COUNTS) / VWC_PER_COUNT


def classify(theta, achieved_depth_m, target_depth_m,
             thresholds: ValidityThresholds = DEFAULT_THRESHOLDS) -> Validity:
    """Classify one measurement as VALID or NOT_PENETRATED.

    NOT_PENETRATED when the probe stopped more than ``depth_tol_m``
    short of the target depth, or when theta falls outside
    [theta_min, theta_max].  SENSOR_ERROR is never returned here; it is
    assigned upstream when no reading could be decoded at all.
    """
    if achieved_depth_m < target_depth_m - thresholds.depth_tol_m:
        return Validity.NOT_PENETRATED
    if theta < thresholds.theta_min or theta > thresholds.theta_max:
        return Validity.NOT_PENETRATED
    return Validity.VALID
