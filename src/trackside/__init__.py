"""Roadside BLE beacon checkpoint tracking: radio model, rendezvous
probability, battery guide, drive-by simulator, deployment planner, and
the receiver-to-map reporting pipeline."""

from .pathloss import (
    Material,
    PathLossModel,
    RssiSample,
    attenuation_from_ranges,
    detection_range,
    fit_exponent,
    predict_rssi,
)
from .power import battery_life, derive_guide, recommend_interval
from .presets import DriveScenario, Mount, path_loss_preset, scenario_for_mount
from .rendezvous import (
    AdvertiserConfig,
    PassGeometry,
    ScannerConfig,
    detection_probability,
    detection_probability_independent,
    detection_probability_oracle,
    in_range_time,
)
from .roadplan import DeploymentPlan, Road, plan_deployment, select_sites, speed_profile
from .sim import TrialMatrixSpec, calibrate, run_matrix, simulate_pass

__version__ = "0.1.0"

__all__ = [
    "AdvertiserConfig",
    "DeploymentPlan",
    "DriveScenario",
    "Material",
    "Mount",
    "PassGeometry",
    "PathLossModel",
    "Road",
    "RssiSample",
    "ScannerConfig",
    "TrialMatrixSpec",
    "attenuation_from_ranges",
    "battery_life",
    "calibrate",
    "derive_guide",
    "detection_probability",
    "detection_probability_independent",
    "detection_probability_oracle",
    "detection_range",
    "fit_exponent",
    "in_range_time",
    "path_loss_preset",
    "plan_deployment",
    "predict_rssi",
    "recommend_interval",
    "run_matrix",
    "scenario_for_mount",
    "select_sites",
    "simulate_pass",
    "speed_profile",
]
