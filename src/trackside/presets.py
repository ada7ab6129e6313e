"""Named calibrations and the drive-by scenario that ties them together."""

from __future__ import annotations

import configparser
import enum
import math

from . import pathloss
from .pathloss import Material, PathLossModel
from .rendezvous import (
    DEFAULT_SCAN_CYCLE_MS,
    AdvertiserConfig,
    ScannerConfig,
    detection_probability,
    mph_to_ms,
)
from .value import Value

# Scanner duty is not directly measurable in the field; this window is the
# drive-by matrix calibration result (see sim.calibrate) against the 2500 ms
# receiver loop.
CALIBRATED_SCAN_WINDOW_MS = 1170.0

# The field beacon stands this far to the side of the vehicle's path.
LATERAL_OFFSET_M = 2.0

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


def pass_speed_ms(speed_mph: float) -> float:
    """A drive-by speed in m/s, the unit an in-range time divides by;
    refused unless positive and finite there (5e-324 mph is 0 m/s)."""
    speed_ms = mph_to_ms(speed_mph)
    if not 0 < speed_ms < math.inf:  # also rejects NaN
        raise ValueError("speed must be positive and finite")
    return speed_ms


def default_scanner() -> ScannerConfig:
    return ScannerConfig(
        scan_window_ms=CALIBRATED_SCAN_WINDOW_MS, scan_cycle_ms=DEFAULT_SCAN_CYCLE_MS
    )


class DriveScenario(Value):
    """Everything needed to score one drive-by: radio model plus timing.
    The beacon is the field unit, ``LATERAL_OFFSET_M`` off the road with
    the default of ``AdvertiserConfig`` (3 ms events).  Build it with
    ``scenario_for_mount``."""

    __slots__ = ("path_loss", "scanner", "materials", "_range_m")

    @property
    def detection_range_m(self) -> float:
        """Computed once per scenario, when first read: every speed and
        probe shares it."""
        try:
            return self._range_m
        except AttributeError:
            r = pathloss.detection_range(self.path_loss, materials=self.materials)
            object.__setattr__(self, "_range_m", r)
            return r

    def in_range_time_s(self, speed_mph: float) -> float:
        """Seconds inside the detection disc on a straight pass: its chord
        ``LATERAL_OFFSET_M`` from the beacon, over the speed in m/s."""
        r = self.detection_range_m
        speed_ms = pass_speed_ms(speed_mph)
        if LATERAL_OFFSET_M >= r:
            return 0.0
        return 2.0 * math.sqrt(r * r - LATERAL_OFFSET_M * LATERAL_OFFSET_M) / speed_ms

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
        path_loss = PathLossModel(
            path_loss.rssi_ref_dbm, path_loss.exponent, path_loss.reliability_threshold_dbm, table
        )
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
