"""Log-distance path-loss model with per-material attenuation.

Converts between RSSI, distance and detection range, and calibrates the
path-loss exponent from measured RSSI samples.  Distances below the 1 m
reference are clamped (the log-distance form is meaningless in the near
field); a NearFieldWarning is emitted instead of an error.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from typing import Iterable, Mapping, Sequence

from .value import Value


class NearFieldWarning(UserWarning):
    """Distance below the 1 m reference was clamped to 1 m."""


class DeadBeaconWarning(UserWarning):
    """Threshold unreachable even at the 1 m reference: range is zero."""


class SingularFitError(ValueError):
    """Exponent fit is underdetermined (all samples at one distance)."""


class Material(enum.Enum):
    """Obstructions between beacon and receiver, keyed for CSV intake."""

    NONE = "none"
    PLASTIC_CASE = "plastic_case"
    CARDBOARD_CASE = "cardboard_case"
    WATER_LITRE = "water_litre"
    PLASTIC_BAG = "plastic_bag"
    BONNET = "bonnet"


_MATERIAL_ALIASES = {
    "water": Material.WATER_LITRE,
    "plastic": Material.PLASTIC_CASE,
    "cardboard": Material.CARDBOARD_CASE,
    "bag": Material.PLASTIC_BAG,
}

# Field anchors: -70 dBm at 1 m, unreliable past -95 dBm, which the
# BT4 module hits at 25 m and the BT5 one at 41 m.
RSSI_REF_DBM = -70.0
RELIABILITY_THRESHOLD_DBM = -95.0
EXPONENT_BT4 = 1.7883456975917413  # solves -70 - 10*n*log10(25) = -95
EXPONENT_BT5 = 1.5501147221827891  # solves -70 - 10*n*log10(41) = -95

# Obstruction attenuations derived from measured loss-of-signal ranges
# against the 66.3 m clear anchor at the BT4 exponent.  Ranges measured
# with different obstructions imply two unobstructed maxima: 45 m at 44%
# loss gives ~80.4 m while 57 m at 14% loss gives ~66.3 m; the
# cardboard-consistent 66.3 m is the more conservative.  Water was measured
# inside a thin bag at 33 m; the bag's own share comes from the
# extrapolated 37 m bag-free range.  The bonnet value is the calibrated
# result of the drive-by matrix fit (see sim.calibrate).
BONNET_ATTENUATION_DB = 2.5
DEFAULT_ATTENUATION_DB: Mapping[Material, float] = {
    Material.NONE: 0.0,
    Material.PLASTIC_CASE: 3.01,
    Material.CARDBOARD_CASE: 1.17,
    Material.WATER_LITRE: 5.42,
    Material.PLASTIC_BAG: 0.89,
    Material.BONNET: BONNET_ATTENUATION_DB,
}


class PathLossModel(Value):
    """Radio propagation parameters; immutable after construction.  The
    model keeps its own copy of the attenuation table."""

    __slots__ = ("rssi_ref_dbm", "exponent", "reliability_threshold_dbm", "attenuation_db")

    def __init__(
        self,
        rssi_ref_dbm: float = RSSI_REF_DBM,
        exponent: float = EXPONENT_BT4,
        reliability_threshold_dbm: float = RELIABILITY_THRESHOLD_DBM,
        attenuation_db: Mapping[Material, float] = DEFAULT_ATTENUATION_DB,
    ) -> None:
        if not 0.5 < exponent < 6.0:
            raise ValueError(f"path-loss exponent {exponent} outside (0.5, 6.0)")
        if not (math.isfinite(rssi_ref_dbm) and math.isfinite(reliability_threshold_dbm)):
            raise ValueError("reference RSSI and reliability threshold must be finite")
        if rssi_ref_dbm <= reliability_threshold_dbm:
            raise ValueError("reference RSSI must sit above the reliability threshold")
        table = dict(attenuation_db)
        for material, loss in table.items():
            if not math.isfinite(loss) or loss < 0:
                raise ValueError(f"attenuation for {material.value} must be finite and >= 0")
        if table.get(Material.NONE, 0.0) != 0.0:
            raise ValueError("Material.NONE must carry zero attenuation")
        Value.__init__(self, rssi_ref_dbm, exponent, reliability_threshold_dbm, table)

    def total_attenuation_db(self, materials: Iterable[Material]) -> float:
        return sum(self.attenuation_db.get(m, 0.0) for m in set(materials))


class RssiSample(Value):
    """One calibration measurement."""

    __slots__ = ("distance_m", "rssi_dbm", "materials")

    def __init__(
        self, distance_m: float, rssi_dbm: float, materials: Iterable[Material] = frozenset()
    ) -> None:
        if not 0 < distance_m < math.inf:  # also rejects NaN
            raise ValueError("sample distance must be positive and finite")
        if not math.isfinite(rssi_dbm):
            raise ValueError("sample RSSI must be finite")
        Value.__init__(self, distance_m, rssi_dbm, frozenset(materials))


class FitResult(Value):
    """Least-squares exponent fit plus its residual report."""

    __slots__ = ("model", "residuals_db", "stderr")


def predict_rssi(
    model: PathLossModel, distance_m: float, materials: Iterable[Material] = ()
) -> float:
    """Predicted RSSI in dBm at ``distance_m`` through ``materials``."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if distance_m < 1.0:
        warnings.warn(
            f"distance {distance_m} m clamped to the 1 m reference", NearFieldWarning
        )
        distance_m = 1.0
    loss = 10.0 * model.exponent * math.log10(distance_m)
    return model.rssi_ref_dbm - loss - model.total_attenuation_db(materials)


def detection_range(
    model: PathLossModel,
    threshold_dbm: float | None = None,
    materials: Iterable[Material] = (),
) -> float:
    """Distance in meters at which predicted RSSI crosses ``threshold_dbm``.

    The exact inverse of predict_rssi.  A threshold above the attenuated
    1 m reference cannot be met anywhere: the beacon is dead on arrival,
    signalled by a 0.0 return and a DeadBeaconWarning.
    """
    if threshold_dbm is None:
        threshold_dbm = model.reliability_threshold_dbm
    effective_ref = model.rssi_ref_dbm - model.total_attenuation_db(materials)
    if threshold_dbm > effective_ref:
        warnings.warn(
            "threshold exceeds attenuated 1 m reference: beacon dead on arrival",
            DeadBeaconWarning,
        )
        return 0.0
    try:
        return 10.0 ** ((effective_ref - threshold_dbm) / (10.0 * model.exponent))
    except OverflowError:
        raise ValueError(
            f"a {effective_ref - threshold_dbm:g} dB link margin reaches beyond any distance"
        ) from None


def fit_exponent(samples: Sequence[RssiSample]) -> FitResult:
    """Least-squares path-loss exponent from RSSI samples.

    With the 1 m reference (RSSI_REF_DBM) and the attenuations
    (DEFAULT_ATTENUATION_DB) fixed, the model is linear in the exponent:
    rssi_ref - rssi - attenuation = n * 10*log10(d).  Minimising squared
    dBm residuals gives n = sum(x*y) / sum(x*x).
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit an exponent")
    distances = {round(s.distance_m, 12) for s in samples}
    if len(distances) < 2:
        raise SingularFitError("all samples at one distance: exponent unconstrained")

    xs, ys = [], []
    for s in samples:
        att = sum(DEFAULT_ATTENUATION_DB.get(m, 0.0) for m in s.materials)
        xs.append(10.0 * math.log10(s.distance_m))
        ys.append(RSSI_REF_DBM - s.rssi_dbm - att)
    sxx = sum(x * x for x in xs)
    if sxx == 0.0:
        raise SingularFitError("samples carry no distance information beyond 1 m")
    n_hat = sum(x * y for x, y in zip(xs, ys)) / sxx

    residuals = tuple(y - n_hat * x for x, y in zip(xs, ys))
    dof = len(samples) - 1
    sigma2 = sum(r * r for r in residuals) / dof if dof > 0 else 0.0
    stderr = math.sqrt(sigma2 / sxx)

    return FitResult(model=PathLossModel(exponent=n_hat), residuals_db=residuals, stderr=stderr)


def parse_materials(token: str) -> frozenset[Material]:
    """Parse a ``+``-joined material list, e.g. ``plastic_case+water``."""
    token = token.strip()
    if not token or token == "none":
        return frozenset()
    out = set()
    for part in token.split("+"):
        part = part.strip().lower()
        if not part:
            continue
        if part in _MATERIAL_ALIASES:
            out.add(_MATERIAL_ALIASES[part])
            continue
        try:
            out.add(Material(part))
        except ValueError:
            raise ValueError(f"unknown material {part!r}") from None
    out.discard(Material.NONE)
    return frozenset(out)


def load_samples_csv(path) -> list[RssiSample]:
    """Read RSSI samples from a ``distance_m,rssi_dbm,materials`` CSV."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        required = {"distance_m", "rssi_dbm"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError("RSSI CSV needs header distance_m,rssi_dbm[,materials]")
        for row in reader:
            materials = parse_materials(row.get("materials") or "")
            samples.append(
                RssiSample(
                    distance_m=float(row["distance_m"]),
                    rssi_dbm=float(row["rssi_dbm"]),
                    materials=materials,
                )
            )
    return samples
