"""Actuator kinematics: quantization, stall behaviour, timing."""

import numpy as np
import pytest

from soilprobe.actuator import ActuatorConfig, lower_to, motion_duration
from soilprobe.errors import ConfigError, SensorFault

CFG = ActuatorConfig()  # 20000 steps/m, 0.15 m max, 500 Hz


def test_lower_to_target_exact_steps():
    # 0.05 m * 20000 steps/m = 1000 whole steps
    s = lower_to(CFG, 0.05)
    assert s.position_steps == 1000
    assert s.depth_m == 0.05
    assert not s.stalled


def test_lower_to_obstruction_stalls():
    s = lower_to(CFG, 0.05, obstruction_depth_m=0.02)
    assert s.position_steps == 400
    assert s.depth_m == pytest.approx(0.02)
    assert s.stalled


def test_lower_to_null_motion():
    s = lower_to(CFG, 0.0, obstruction_depth_m=0.01)
    assert s.position_steps == 0 and not s.stalled


def test_lower_to_obstruction_below_target_is_clean():
    s = lower_to(CFG, 0.05, obstruction_depth_m=0.10)
    assert s.position_steps == 1000 and not s.stalled


def test_lower_to_rejects_out_of_range():
    # a target is the caller's argument, not a reading: no sensor fault
    with pytest.raises(ConfigError) as info:
        lower_to(CFG, 0.151)
    assert not isinstance(info.value, SensorFault)
    with pytest.raises(ConfigError) as info:
        lower_to(CFG, -0.01)
    assert not isinstance(info.value, SensorFault)


@pytest.mark.parametrize("frm,to,rate,expected", [
    (0, 1000, 500.0, 2.0),
    (0, 0, 500.0, 0.0),
    (1000, 0, 500.0, 2.0),
])
def test_motion_duration(frm, to, rate, expected):
    cfg = ActuatorConfig(step_rate_hz=rate)
    assert motion_duration(frm, to, cfg) == expected


def test_depth_quantization_property():
    rng = np.random.default_rng(21)
    for target in rng.uniform(0.0, CFG.max_depth_m, size=500):
        s = lower_to(CFG, target)
        assert isinstance(s.position_steps, int)
        assert abs(s.depth_m * CFG.steps_per_metre - s.position_steps) < 1.0


def test_stall_iff_shortfall_beyond_one_step():
    step = 1.0 / CFG.steps_per_metre
    # obstruction one step short of target: quantization, not a stall
    near = lower_to(CFG, 0.05, obstruction_depth_m=0.05 - step)
    assert near.position_steps == 999 and not near.stalled
    # two steps short: stall
    shy = lower_to(CFG, 0.05, obstruction_depth_m=0.05 - 2 * step)
    assert shy.position_steps == 998 and shy.stalled


def test_config_validation():
    with pytest.raises(ValueError):
        ActuatorConfig(steps_per_metre=0)
    with pytest.raises(ValueError):
        ActuatorConfig(max_depth_m=-1)
    with pytest.raises(ValueError):
        ActuatorConfig(step_rate_hz=0)
