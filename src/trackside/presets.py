"""Named calibrations and the drive-by scenario that ties them together."""

from __future__ import annotations

import configparser
import enum
from dataclasses import dataclass, replace
from functools import cached_property

from . import pathloss
from .pathloss import Material, PathLossModel
from .rendezvous import (
    DEFAULT_SCAN_CYCLE_MS,
    AdvertiserConfig,
    PassGeometry,
    ScannerConfig,
    detection_probability,
    in_range_time,
    mph_to_ms,
)

# Scanner duty is not directly measurable in the field; this window is the
# drive-by matrix calibration result (see sim.calibrate) against the 2500 ms
# receiver loop.
CALIBRATED_SCAN_WINDOW_MS = 1170.0

PATH_LOSS_PRESETS: dict[str, PathLossModel] = {
    # BT4 module: -95 dBm reached at 25 m.
    "hm10-bt4": PathLossModel(exponent=pathloss.EXPONENT_BT4),
    # Off-the-shelf BT5 module: strong out to 41 m.
    "otsb-bt5": PathLossModel(exponent=pathloss.EXPONENT_BT5),
}
DEFAULT_PATH_LOSS_PRESET = "hm10-bt4"
DEFAULT_PATH_LOSS = PATH_LOSS_PRESETS[DEFAULT_PATH_LOSS_PRESET]


class Mount(enum.Enum):
    """Where the receiver hides on the vehicle."""

    WHEEL_ARCH = "wheelarch"
    BONNET = "bonnet"


def path_loss_preset(name: str) -> PathLossModel:
    """The model a preset name stands for; names are resolved at the
    command line, and every layer below takes the model."""
    try:
        return PATH_LOSS_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PATH_LOSS_PRESETS))
        raise ValueError(f"unknown path-loss preset {name!r} (known: {known})") from None


def default_scanner() -> ScannerConfig:
    return ScannerConfig(
        scan_window_ms=CALIBRATED_SCAN_WINDOW_MS, scan_cycle_ms=DEFAULT_SCAN_CYCLE_MS
    )


@dataclass(frozen=True)
class DriveScenario:
    """Everything needed to score one drive-by: radio model plus timing.
    The beacon is the field unit, with the defaults of ``PassGeometry``
    (2 m off the road) and ``AdvertiserConfig`` (3 ms events).  Build it
    with ``scenario_for_mount``."""

    path_loss: PathLossModel
    scanner: ScannerConfig
    materials: frozenset[Material] = frozenset()

    @cached_property
    def detection_range_m(self) -> float:
        """Computed once per scenario: every speed and probe shares it."""
        return pathloss.detection_range(self.path_loss, materials=self.materials)

    def in_range_time_s(self, speed_mph: float) -> float:
        geometry = PassGeometry(
            speed_ms=mph_to_ms(speed_mph), detection_range_m=self.detection_range_m
        )
        return in_range_time(geometry)

    def pass_probability(self, speed_mph: float, interval_ms: float) -> float:
        """Single-pass detection probability at this speed and interval."""
        adv = AdvertiserConfig(interval_ms=interval_ms)
        return detection_probability(adv, self.scanner, self.in_range_time_s(speed_mph))


def scenario_for_mount(
    mount: Mount = Mount.WHEEL_ARCH,
    path_loss: PathLossModel = DEFAULT_PATH_LOSS,
    scanner: ScannerConfig | None = None,
    bonnet_attenuation_db: float | None = None,
) -> DriveScenario:
    """The drive-by scenario for a receiver mount: the one way to build a
    ``DriveScenario``.  ``bonnet_attenuation_db`` replaces the model's
    bonnet loss (the calibration's free parameter).
    """
    if bonnet_attenuation_db is not None:
        table = {**path_loss.attenuation_db, Material.BONNET: bonnet_attenuation_db}
        path_loss = replace(path_loss, attenuation_db=table)
    return DriveScenario(
        path_loss=path_loss,
        scanner=scanner if scanner is not None else default_scanner(),
        materials=frozenset({Material.BONNET}) if mount is Mount.BONNET else frozenset(),
    )


def write_preset_ini(path, model: PathLossModel, scanner: ScannerConfig) -> None:
    """Serialize a calibration as flat key-value config with sections."""
    config = configparser.ConfigParser()
    config["pathloss"] = {
        "rssi_ref_dbm": repr(model.rssi_ref_dbm),
        "exponent": repr(model.exponent),
        "reliability_threshold_dbm": repr(model.reliability_threshold_dbm),
    }
    config["attenuation_db"] = {
        material.value: repr(loss)
        for material, loss in sorted(model.attenuation_db.items(), key=lambda kv: kv[0].value)
    }
    config["scanner"] = {
        "scan_window_ms": repr(scanner.scan_window_ms),
        "scan_cycle_ms": repr(scanner.scan_cycle_ms),
    }
    with open(path, "w") as fh:
        config.write(fh)


def read_preset_ini(path) -> tuple[PathLossModel, ScannerConfig]:
    config = configparser.ConfigParser()
    with open(path) as fh:
        config.read_file(fh)
    attenuation = {
        Material(name): float(value)
        for name, value in config["attenuation_db"].items()
        # Older presets list an unmeasured vehicle-body loss that no longer
        # exists as a material; it never affected any result.
        if name != "vehicle_body"
    }
    model = PathLossModel(
        rssi_ref_dbm=config.getfloat("pathloss", "rssi_ref_dbm"),
        exponent=config.getfloat("pathloss", "exponent"),
        reliability_threshold_dbm=config.getfloat("pathloss", "reliability_threshold_dbm"),
        attenuation_db=attenuation,
    )
    scanner = ScannerConfig(
        scan_window_ms=config.getfloat("scanner", "scan_window_ms"),
        scan_cycle_ms=config.getfloat("scanner", "scan_cycle_ms"),
    )
    return model, scanner
