"""Concrete environments: the small benchmark POMDP, the blood-glucose
mobile-health simulator, and the worst-case ladder instance family."""

from .glucose import (
    GlucoseTrajectory,
    glucose_simulate,
    target_value_oracle,
)
from .hard import (
    ConditionReport,
    HardInstanceParams,
    check_conditions,
    hard_instance_pair,
    kl_bound,
    params_from_mixing_time,
    theorem2_design,
    top_state_occupancy,
)
from .toy import toy_model

__all__ = [
    "ConditionReport",
    "GlucoseTrajectory",
    "HardInstanceParams",
    "check_conditions",
    "glucose_simulate",
    "hard_instance_pair",
    "kl_bound",
    "params_from_mixing_time",
    "target_value_oracle",
    "theorem2_design",
    "top_state_occupancy",
    "toy_model",
]
