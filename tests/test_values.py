"""Values check themselves: whatever builds one, a file reader or Python
code, a float field that is NaN or infinite is refused when the value is
built."""

import math

import pytest

from trackside.pathloss import Material, PathLossModel, RssiSample
from trackside.protocol import DetectionEvent, DetectionRecord, ReceiverState, RegistryEntry
from trackside.rendezvous import AdvertiserConfig, PassGeometry, ScannerConfig
from trackside.roadplan import Road

# Per float field: a builder of the value with that field set to x and every
# other field valid, and a valid x.
FIELDS = {
    "Road.polyline lat": (lambda x: Road(((x, 1.0), (1.0, 1.1))), 1.1),
    "Road.polyline lon": (lambda x: Road(((1.0, 1.0), (1.0, x))), 1.1),
    "Road.surface_vmax_mph":
        (lambda x: Road(((1.0, 1.0), (1.0, 1.1)), surface_vmax_mph=x), 45.0),
    "RegistryEntry.lat": (lambda x: RegistryEntry("B-01", x, 118.03), 5.41),
    "RegistryEntry.lon": (lambda x: RegistryEntry("B-01", 5.41, x), 118.03),
    "DetectionEvent.lat": (lambda x: DetectionEvent("B-01", "RX1", 1, 0, 0, x, 118.03), 5.41),
    "DetectionEvent.lon": (lambda x: DetectionEvent("B-01", "RX1", 1, 0, 0, 5.41, x), 118.03),
    "AdvertiserConfig.interval_ms": (lambda x: AdvertiserConfig(x), 500.0),
    "AdvertiserConfig.event_duration_ms": (lambda x: AdvertiserConfig(500.0, x), 3.0),
    "ReceiverState.clock_s": (lambda x: ReceiverState(clock_s=x), 10.0),
    "ReceiverState.dedup_window_s": (lambda x: ReceiverState(dedup_window_s=x), 0.0),
    "ScannerConfig.scan_window_ms": (lambda x: ScannerConfig(x), 1170.0),
    "ScannerConfig.scan_cycle_ms": (lambda x: ScannerConfig(1170.0, x), 2500.0),
    "PassGeometry.speed_ms": (lambda x: PassGeometry(x), 10.0),
    "PassGeometry.lateral_offset_m": (lambda x: PassGeometry(10.0, x), 0.0),
    "PassGeometry.detection_range_m": (lambda x: PassGeometry(10.0, 2.0, x), 25.0),
    "PathLossModel.rssi_ref_dbm": (lambda x: PathLossModel(rssi_ref_dbm=x), -60.0),
    "PathLossModel.exponent": (lambda x: PathLossModel(exponent=x), 2.0),
    "PathLossModel.reliability_threshold_dbm":
        (lambda x: PathLossModel(reliability_threshold_dbm=x), -90.0),
    "PathLossModel.attenuation_db": (
        lambda x: PathLossModel(attenuation_db={Material.NONE: 0.0, Material.BONNET: x}), 4.0
    ),
    "RssiSample.distance_m": (lambda x: RssiSample(x, -70.0), 1.0),
    "RssiSample.rssi_dbm": (lambda x: RssiSample(1.0, x), -70.0),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build,valid", FIELDS.values(), ids=FIELDS.keys())
def test_non_finite_float_field_refused(build, valid, x):
    build(valid)  # so that the refusal is the field's own
    with pytest.raises(ValueError):
        build(x)


def test_receiver_state_has_one_time_per_buffered_record():
    # Without its time, the record's next sighting could not be deduped.
    record = DetectionRecord("B-01", 10)
    ReceiverState(buffer=(record,), last_seen=(10.5,))
    with pytest.raises(ValueError, match="0 last-seen times for 1 buffered records"):
        ReceiverState(buffer=(record,))
