"""Stepper-driven linear probe actuator.

Pure kinematics: depth is quantized to whole motor steps, position 0 is
fully retracted, and an obstruction makes the carriage stop (stall) at
the obstruction depth instead of the target.  No force, acceleration,
or driver signalling is modelled.
"""

from __future__ import annotations

from .errors import ConfigError, record


@record(ranges="actuator")
class ActuatorConfig:
    """Defaults put a 0.05 m target at exactly 1000 steps."""

    steps_per_metre: float = 20000.0
    max_depth_m: float = 0.15
    step_rate_hz: float = 500.0


@record
class ActuatorState:
    position_steps: int = 0
    depth_m: float = 0.0
    stalled: bool = False


def lower_to(cfg: ActuatorConfig, target_depth_m: float,
             obstruction_depth_m: float | None = None) -> ActuatorState:
    """Drive the retracted probe down to ``target_depth_m``.

    With an obstruction shallower than the target the carriage stops
    there instead.  The stall flag is set exactly when the final
    position falls short of the target by more than one step, so
    sub-step quantization never reads as a stall.

    A target outside [0, ``cfg.max_depth_m``] is the caller's argument,
    not a reading, so it raises ConfigError.
    """
    if not 0.0 <= target_depth_m <= cfg.max_depth_m:
        raise ConfigError(f"target depth {target_depth_m} m outside "
                          f"[0, {cfg.max_depth_m}] m")
    target_steps = round(target_depth_m * cfg.steps_per_metre)
    if obstruction_depth_m is not None and obstruction_depth_m < target_depth_m:
        final_steps = min(target_steps, round(obstruction_depth_m * cfg.steps_per_metre))
    else:
        final_steps = target_steps
    return ActuatorState(final_steps, final_steps / cfg.steps_per_metre,
                         (target_steps - final_steps) > 1)


def motion_duration(from_steps: int, to_steps: int, cfg: ActuatorConfig) -> float:
    """Seconds the stepper needs to travel between two positions."""
    return abs(to_steps - from_steps) / cfg.step_rate_hz
