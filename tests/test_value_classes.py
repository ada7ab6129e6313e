"""What every value class promises its callers, whatever generates its
methods: it is built by keyword, and positionally in field order; equal
fields compare (and, where the fields can be hashed, hash) equal; its
fields cannot be assigned or deleted; its repr names the class and its
fields; and copy and pickle rebuild an equal value.  Every value class
of the package is held to this.  ``DetectionStore`` is the one mutable
class: it is built empty, compares by content, is never hashed, and
copies and pickles to an equal store.

``Value.__init__`` binds arguments as a call binds parameters, and
refuses a call that does not bind each field once with ``TypeError``: a
class that binds its fields that way has no field a call may leave out.

A fresh interpreter also shows that importing the command line loads no
code generation: value classes are plain classes."""

import copy
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trackside
from trackside.pathloss import FitResult, Material, PathLossModel, RssiSample
from trackside.power import GuideRow
from trackside.presets import DriveScenario, Mount, default_scanner
from trackside.protocol import (
    DecodeResult,
    DetectionEvent,
    DetectionRecord,
    DetectionStore,
    GsmDown,
    GsmUp,
    ReceiverState,
    RegistryEntry,
    Sighting,
    SmsPayload,
    StepResult,
    Tick,
)
from trackside.rendezvous import AdvertiserConfig, ScannerConfig
from trackside.roadplan import BeaconSite, DeploymentPlan, Road
from trackside.sim import (
    CalibrationResult,
    CellLabel,
    CellReport,
    CellResult,
    MatrixResult,
    TargetMatrix,
    TrialMatrixSpec,
)
from trackside.value import Value

SRC = Path(__file__).resolve().parents[1] / "src"

MODEL = PathLossModel(-70.0, 2.0, -95.0, {Material.NONE: 0.0, Material.BONNET: 2.5})
SPEC = TrialMatrixSpec((10.0, 20.0), (1000, 1500), 3, 7)
CELL = CellResult(10.0, 1000, 2, 3, CellLabel.P66, 0.5)
REPORT = CellReport(Mount.BONNET, 10.0, 1000, CellLabel.Y, 0.97, 3, 3)
ROAD = Road(((0.0, 0.0), (0.0, 0.001)), 30.0)
SITE = BeaconSite("B-01", (0.0, 0.0005), 55.6, "hm10-bt4", 1200, 225.0, 30.0, 0.99)
RECORD = DetectionRecord("B-01", 10, 2)
STATE = ReceiverState("RX2", (RECORD,), True, 12.5, 60.0, (12.0,))
PAYLOAD = SmsPayload("RX2", (RECORD,), 1, 1)
EVENT = DetectionEvent("B-01", "RX1", 2, 10, 1, 5.41, 118.03, False)

# Per class: every field in constructor order, with a valid value that
# the constructor keeps as it is, and one field with a different value.
CLASSES = {
    PathLossModel: (
        dict(rssi_ref_dbm=-70.0, exponent=2.0, reliability_threshold_dbm=-95.0,
             attenuation_db={Material.NONE: 0.0, Material.BONNET: 2.5}),
        dict(exponent=2.5),
    ),
    RssiSample: (
        dict(distance_m=5.0, rssi_dbm=-80.0, materials=frozenset({Material.WATER_LITRE})),
        dict(rssi_dbm=-81.0),
    ),
    FitResult: (dict(model=MODEL, residuals_db=(0.5, -0.5), stderr=0.01), dict(stderr=0.02)),
    AdvertiserConfig: (dict(interval_ms=500.0, event_duration_ms=3.0),
                       dict(event_duration_ms=4.0)),
    ScannerConfig: (dict(scan_window_ms=1170.0, scan_cycle_ms=2500.0),
                    dict(scan_window_ms=1000.0)),
    DriveScenario: (
        dict(path_loss=MODEL, scanner=default_scanner(), materials=frozenset({Material.BONNET})),
        dict(materials=frozenset()),
    ),
    GuideRow: (dict(max_speed_mph=30.0, interval_ms=1000, battery_days=187.5, feasible=True),
               dict(feasible=False)),
    TrialMatrixSpec: (
        dict(speeds_mph=(10.0, 20.0), intervals_ms=(1000, 1500), trials_per_cell=3, seed=7),
        dict(seed=8),
    ),
    CellResult: (
        dict(speed_mph=10.0, interval_ms=1000, detections=2, trials=3, label=CellLabel.P66,
             expected_probability=0.5),
        dict(detections=1),
    ),
    MatrixResult: (dict(spec=SPEC, cells=(CELL,)), dict(cells=())),
    TargetMatrix: (
        dict(mount=Mount.WHEEL_ARCH, speeds_mph=(10.0,), intervals_ms=(1000,),
             labels={(10.0, 1000): CellLabel.Y}),
        dict(mount=Mount.BONNET),
    ),
    CellReport: (
        dict(mount=Mount.BONNET, speed_mph=10.0, interval_ms=1000, target=CellLabel.Y,
             expected_probability=0.97, band_expected=3, band_target=3),
        dict(band_expected=2),
    ),
    CalibrationResult: (
        dict(scan_window_ms=1170.0, bonnet_attenuation_db=2.5, objective=68,
             per_cell=(REPORT,)),
        dict(objective=69),
    ),
    Road: (dict(polyline=((0.0, 0.0), (0.0, 0.001)), surface_vmax_mph=30.0),
           dict(surface_vmax_mph=45.0)),
    BeaconSite: (
        dict(beacon_id="B-01", position=(0.0, 0.0005), arc_m=55.6, beacon_preset="hm10-bt4",
             interval_ms=1200, predicted_battery_days=225.0, local_vmax_mph=30.0,
             detection_probability=0.99),
        dict(interval_ms=1100),
    ),
    DeploymentPlan: (dict(road=ROAD, sites=(SITE,), coverage_gaps=((0.0, 10.0),)),
                     dict(coverage_gaps=())),
    DetectionRecord: (dict(beacon_id="B-01", first_seen_s=10, count=2), dict(count=3)),
    Sighting: (dict(t_s=12.5, beacon_id="B-01"), dict(beacon_id="B-02")),
    GsmUp: (dict(t_s=12.5), dict(t_s=13.0)),
    GsmDown: (dict(t_s=12.5), dict(t_s=13.0)),
    Tick: (dict(t_s=12.5), dict(t_s=13.0)),
    ReceiverState: (
        dict(receiver_id="RX2", buffer=(RECORD,), gsm_available=True, clock_s=12.5,
             dedup_window_s=60.0, last_seen=(12.0,)),
        dict(gsm_available=False),
    ),
    StepResult: (dict(state=STATE, payloads=(PAYLOAD,), rejected=None),
                 dict(rejected="event at t=nan is not a finite time")),
    SmsPayload: (dict(receiver_id="RX2", records=(RECORD,), segment_index=1, segment_total=1),
                 dict(segment_total=2)),
    DecodeResult: (
        dict(receiver_id="RX2", records=(RECORD,), missing_segments=(2,),
             diagnostics=("malformed record 'x' skipped: not BEACON:COUNT:FIRST_SEEN",)),
        dict(missing_segments=()),
    ),
    RegistryEntry: (dict(beacon_id="B-01", lat=5.41, lon=118.03), dict(lon=118.04)),
    DetectionEvent: (
        dict(beacon_id="B-01", receiver_id="RX1", count=2, first_seen_s=10, received_at=1,
             lat=5.41, lon=118.03, quarantined=False),
        dict(received_at=2),
    ),
}
# Classes with a field that cannot be hashed (a dict, or a value holding one).
UNHASHABLE = {PathLossModel, FitResult, DriveScenario, TargetMatrix}
ids = lambda cls: cls.__name__  # noqa: E731


# Every class with all its fields, and the receiver state from its id
# alone, as the benchmark's receiver replay builds it.
BUILDS = [(cls, fields) for cls, (fields, _) in CLASSES.items()]
BUILDS.append((ReceiverState, dict(receiver_id="RX7")))
BUILD_IDS = [cls.__name__ for cls in CLASSES] + ["ReceiverState-id-only"]


@pytest.mark.parametrize("cls, fields", BUILDS, ids=BUILD_IDS)
def test_built_by_keyword_and_positionally(cls, fields):
    value = cls(**fields)
    assert {name: getattr(value, name) for name in fields} == fields
    assert cls(*fields.values()) == value


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_fields_compare_and_hash_equal(cls):
    fields, changed = CLASSES[cls]
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert a != cls(**{**fields, **changed})
    assert a != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_receiver_events_of_different_kinds_differ():
    assert len({GsmUp(5.0), GsmDown(5.0), Tick(5.0)}) == 3
    assert GsmUp(5.0) != Tick(5.0)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_cannot_change(cls):
    fields, changed = CLASSES[cls]
    value = cls(**fields)
    for name, other in changed.items():
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_names_class_and_fields(cls):
    fields, _ = CLASSES[cls]
    text = repr(cls(**fields))
    assert text.startswith(cls.__name__ + "(") and text.endswith(")")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text


def test_repr_matches_a_dataclass_repr():
    assert repr(GsmUp(1.5)) == "GsmUp(t_s=1.5)"
    assert repr(AdvertiserConfig(500.0)) == (
        "AdvertiserConfig(interval_ms=500.0, event_duration_ms=3.0)"
    )
    # The cached arc lengths are not a field.
    assert repr(ROAD) == "Road(polyline=((0.0, 0.0), (0.0, 0.001)), surface_vmax_mph=30.0)"


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_copy_and_pickle_rebuild_an_equal_value(cls):
    fields, _ = CLASSES[cls]
    value = cls(**fields)
    for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is cls and rebuilt == value


def test_derived_state_is_not_a_field():
    # Road's arc lengths and a scenario's detection range are worked out
    # from the fields, so they take no part in equality.
    road = Road(((0.0, 0.0), (0.0, 0.001)), 30.0)
    assert road == ROAD and hash(road) == hash(ROAD)
    fields, _ = CLASSES[DriveScenario]
    used, fresh = DriveScenario(**fields), DriveScenario(**fields)
    used.in_range_time_s(30.0)
    assert used == fresh


def test_store_is_mutable_and_compares_by_content():
    store = DetectionStore()
    assert store == DetectionStore() and store.events == []
    store.events.append(EVENT)
    assert store != DetectionStore() and store != object()
    with pytest.raises(TypeError):
        hash(store)
    assert repr(store) == f"DetectionStore(events=[{EVENT!r}])"
    for rebuilt in (copy.copy(store), copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
        assert type(rebuilt) is DetectionStore and rebuilt == store


def test_cli_import_loads_no_code_generation():
    # dataclasses compiles each class's methods when its module is
    # imported, and brings inspect, and with it ast, dis and tokenize.
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    probe = "import json, sys, trackside.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded == set()


def value_classes() -> set[type]:
    """Every subclass of ``Value`` that a module of the package defines."""
    for module in pkgutil.iter_modules(trackside.__path__):
        importlib.import_module(f"trackside.{module.name}")
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("trackside."):
                found.add(cls)
    return found


def test_every_value_class_is_checked_here():
    assert value_classes() - CLASSES.keys() == set()


# Classes that bind their fields with Value.__init__ alone.
PLAIN = [cls for cls in CLASSES if "__init__" not in vars(cls)]


@pytest.mark.parametrize("cls", PLAIN, ids=ids)
def test_a_call_gives_every_field(cls):
    fields, _ = CLASSES[cls]
    for name in fields:
        given = {other: value for other, value in fields.items() if other != name}
        with pytest.raises(TypeError, match=f"{cls.__name__} is missing field {name!r}"):
            cls(**given)


# A class with two fields and one with four; each call binds a field
# twice, names one the class lacks, or leaves one out.
BAD_CALLS = [
    (Sighting, (12.5, "B-01", 3), {}, r"Sighting takes 2 fields \('t_s', 'beacon_id'\) "
                                      r"but 3 were given"),
    (Sighting, (12.5,), {"beacon_id": "B-01", "speed": 3}, "Sighting has no field 'speed'"),
    (Sighting, (12.5,), {"t_s": 13.0, "beacon_id": "B-01"}, "Sighting got field 't_s' twice"),
    (Sighting, (), {"beacon_id": "B-01"}, "Sighting is missing field 't_s'"),
    (DecodeResult, ("RX2", (RECORD,), (), (), 1), {}, "DecodeResult takes 4 fields"),
    (DecodeResult, ("RX2", (RECORD,)), {"missing": (2,)}, "DecodeResult has no field 'missing'"),
    (DecodeResult, ("RX2", (RECORD,), (2,)), {"missing_segments": (2,)},
     "DecodeResult got field 'missing_segments' twice"),
    (DecodeResult, (), {"receiver_id": "RX2", "diagnostics": ()},
     "DecodeResult is missing field 'records'"),
]


@pytest.mark.parametrize("cls, args, kwargs, message", BAD_CALLS, ids=[
    f"{call[0].__name__}-{kind}"
    for call, kind in zip(BAD_CALLS, ["too-many", "unknown", "twice", "missing"] * 2)
])
def test_a_call_that_does_not_bind_each_field_once_is_refused(cls, args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        cls(*args, **kwargs)
