import hashlib
import io
import json
import math
import os
import random
import re

import pytest

from trackside import sim
from trackside.cli import main
from trackside.presets import read_preset_ini, write_preset_ini
from trackside.roadplan import MAX_SPACING_M

M_PER_DEG = math.pi * 6371000.0 / 180.0

# `calibrate` output for the two field anchors, in the format of releases
# that still listed a (never used) vehicle-body loss.
OLDER_PRESET_INI = """\
[pathloss]
rssi_ref_dbm = -70.0
exponent = 1.7883456975917413
reliability_threshold_dbm = -95.0

[attenuation_db]
bonnet = 2.5
cardboard_case = 1.17
none = 0.0
plastic_bag = 0.89
plastic_case = 3.01
vehicle_body = 2.5
water_litre = 5.42

[scanner]
scan_window_ms = 1170.0
scan_cycle_ms = 2500.0

"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def anchors_csv(tmp_path):
    path = tmp_path / "rssi.csv"
    path.write_text("distance_m,rssi_dbm,materials\n1,-70,\n25,-95,\n")
    return path


@pytest.fixture
def road_geojson(tmp_path):
    coords = [[i * 100.0 / M_PER_DEG, 0.0] for i in range(11)]  # 1 km straight
    path = tmp_path / "road.geojson"
    path.write_text(
        json.dumps(
            {
                "type": "Feature",
                "properties": {"surface_vmax_mph": 45},
                "geometry": {"type": "LineString", "coordinates": coords},
            }
        )
    )
    return path


@pytest.fixture
def winding_road_geojson(tmp_path):
    # 2.4 km of 20 m steps near the equator with four bends of different
    # sharpness: two slower than the cap, one at it, and a hairpin-like one.
    lat = lon = heading = 0.0
    coords = [[0.0, 0.0]]
    for i in range(120):
        if 12 <= i % 30 < 18:
            heading += (0.35, -0.2, 0.1, -0.3)[i // 30]
        lat += 20.0 * math.cos(heading) / M_PER_DEG
        lon += 20.0 * math.sin(heading) / M_PER_DEG
        coords.append([round(lon, 7), round(lat, 7)])
    path = tmp_path / "winding.geojson"
    path.write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 45},
        "geometry": {"type": "LineString", "coordinates": coords},
    }))
    return path


@pytest.fixture
def registry_csv(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "beacon_id,lat,lon,interval_ms,preset\nB-01,5.41,118.03,700,hm10-bt4\n"
    )
    return path


class TestGuide:
    def test_published_rows_exact(self, tmp_path):
        out_csv = tmp_path / "guide.csv"
        code, _ = run(["guide", "--out-csv", str(out_csv)])
        assert code == 0
        assert out_csv.read_text() == (
            "max_speed_mph,interval_ms,battery_days\n"
            "5,1400,262.50\n"
            "10,1300,243.75\n"
            "15,1300,243.75\n"
            "20,1200,225.00\n"
            "25,1200,225.00\n"
            "30,1000,187.50\n"
            "35,900,168.75\n"
            "40,700,131.25\n"
            "45,700,131.25\n"
        )

    def test_model_derived_guide(self, tmp_path):
        out_csv = tmp_path / "guide.csv"
        code, _ = run(["guide", "--reliability", "0.95", "--out-csv", str(out_csv)])
        assert code == 0
        # Pins the interval search grid and the battery coefficient.
        assert out_csv.read_text() == (
            "max_speed_mph,interval_ms,battery_days\n"
            "5,8900,1668.75\n"
            "10,4100,768.75\n"
            "15,2000,375.00\n"
            "20,1800,337.50\n"
            "25,1600,300.00\n"
            "30,1400,262.50\n"
            "35,1300,243.75\n"
            "40,1200,225.00\n"
            "45,900,168.75\n"
        )


    @pytest.mark.parametrize("speeds", ["0", "-10", "nan", "inf", "10,inf"])
    def test_bad_speed_is_usage_error(self, capsys, speeds):
        code, out = run(["guide", "--reliability", "0.95", "--speeds", speeds])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: --speeds: ") and "positive, finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [["--speeds", "10"], ["--preset", "nosuch"]])
    def test_model_flag_without_reliability_is_usage_error(self, capsys, flags):
        code, out = run(["guide", *flags])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: --speeds and --preset need --reliability: the published guide is fixed\n"
        )


class TestCalibrate:
    def test_empty_csv_usage_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("distance_m,rssi_dbm,materials\n")
        code, _ = run(
            ["calibrate", "--rssi", str(empty), "--out", str(tmp_path / "p.ini")]
        )
        assert code == 2

    def test_singular_fit_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("distance_m,rssi_dbm,materials\n10,-88,\n10,-90,\n")
        code, _ = run(["calibrate", "--rssi", str(bad), "--out", str(tmp_path / "p.ini")])
        assert code == 1

    @pytest.mark.parametrize("text,detail", [
        ("d,r\n1,-70\n", "RSSI CSV needs header distance_m,rssi_dbm[,materials]"),
        ("distance_m,rssi_dbm,materials\n1,abc,\n25,-95,\n",
         "could not convert string to float: 'abc'"),
        ("distance_m,rssi_dbm,materials\n1,-70,chassis\n25,-95,\n",
         "unknown material 'chassis'"),
        ("distance_m,rssi_dbm,materials\n1,-70,\nnan,-95,\n",
         "sample distance must be positive and finite"),
        ("distance_m,rssi_dbm,materials\n1,-70,\ninf,-95,\n",
         "sample distance must be positive and finite"),
        ("distance_m,rssi_dbm,materials\n1,nan,\n25,-95,\n", "sample RSSI must be finite"),
        ("distance_m,rssi_dbm,materials\n1,-70,\n25,-inf,\n", "sample RSSI must be finite"),
        ("distance_m,rssi_dbm,materials\n", "need at least two samples to fit an exponent"),
        ("distance_m,rssi_dbm,materials\n1,-70,\n", "need at least two samples to fit an exponent"),
    ])
    def test_bad_samples_csv_is_config_error(self, tmp_path, capsys, text, detail):
        rssi = tmp_path / "rssi.csv"
        rssi.write_text(text)
        preset = tmp_path / "p.ini"
        code, out = run(["calibrate", "--rssi", str(rssi), "--out", str(preset)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: RSSI samples {str(rssi)!r} is invalid: {detail}\n"
        )
        assert not preset.exists()

    # sha256 of the report and preset that `calibrate` writes for the two
    # field anchors, so that a change below it cannot move the calibration
    # unnoticed.
    ANCHORS_SHA256 = (
        "a1053524af71b344e276765b66280192df6207d21fc3a1b862215af1aeae93d5",
        "9fd0eda43466fe0fd0cbb36fd0f1e6b9e39e48b38961e3f1013e401aad50a8cc",
    )

    def test_anchor_calibration_pinned(self, anchors_csv, tmp_path, monkeypatch):
        # Relative paths: the report names the preset it wrote.
        monkeypatch.chdir(tmp_path)
        code, _ = run(["calibrate", "--rssi", str(anchors_csv), "--out", "preset.ini",
                       "--report", "report.txt"])
        assert code == 0
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.txt", "preset.ini")
        )
        assert digests == self.ANCHORS_SHA256

    def test_two_anchor_preset_and_determinism(self, anchors_csv, tmp_path):
        preset = tmp_path / "preset.ini"
        report = tmp_path / "report.txt"
        code, _ = run(
            ["calibrate", "--rssi", str(anchors_csv), "--out", str(preset),
             "--report", str(report)]
        )
        assert code == 0
        text = preset.read_text()
        assert "exponent = 1.788" in text
        assert "scan_window_ms = 1170.0" in text

        first = (preset.read_bytes(), report.read_bytes())
        code, _ = run(
            ["calibrate", "--rssi", str(anchors_csv), "--out", str(preset),
             "--report", str(report)]
        )
        assert code == 0
        assert (preset.read_bytes(), report.read_bytes()) == first


class TestPresetIni:
    def test_older_preset_with_vehicle_body_loads(self, tmp_path):
        older = tmp_path / "older.ini"
        older.write_text(OLDER_PRESET_INI)
        current = tmp_path / "current.ini"
        write_preset_ini(current, *read_preset_ini(older))
        assert current.read_text() == OLDER_PRESET_INI.replace("vehicle_body = 2.5\n", "")
        outputs = []
        for preset in (older, current):
            code, text = run(["guide", "--reliability", "0.95", "--preset", str(preset)])
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1]

    def test_unknown_material_rejected(self, tmp_path):
        preset = tmp_path / "bad.ini"
        preset.write_text(OLDER_PRESET_INI.replace("vehicle_body", "chassis"))
        with pytest.raises(ValueError, match="chassis"):
            read_preset_ini(preset)

    @pytest.mark.parametrize(
        "text",
        [
            OLDER_PRESET_INI.replace("vehicle_body", "chassis"),
            "chassis = 1.0\n",
            OLDER_PRESET_INI.replace("[attenuation_db]", "[losses]"),
            OLDER_PRESET_INI.replace("scan_window_ms = 1170.0", "scan_window_ms = nan"),
            OLDER_PRESET_INI.replace("scan_cycle_ms = 2500.0", "scan_cycle_ms = inf"),
            OLDER_PRESET_INI.replace("scan_cycle_ms = 2500.0", "scan_cycle_ms = nan"),
            OLDER_PRESET_INI.replace("rssi_ref_dbm = -70.0", "rssi_ref_dbm = nan"),
            OLDER_PRESET_INI.replace("rssi_ref_dbm = -70.0", "rssi_ref_dbm = inf"),
            OLDER_PRESET_INI.replace("reliability_threshold_dbm = -95.0",
                                     "reliability_threshold_dbm = nan"),
            OLDER_PRESET_INI.replace("reliability_threshold_dbm = -95.0",
                                     "reliability_threshold_dbm = -inf"),
        ],
        ids=["unknown-material", "no-section-header", "no-attenuation-section",
             "window-nan", "cycle-inf", "cycle-nan", "rssi-ref-nan",
             "rssi-ref-inf", "threshold-nan", "threshold-minus-inf"],
    )
    def test_bad_preset_is_config_error(self, tmp_path, capsys, text):
        preset = tmp_path / "bad.ini"
        preset.write_text(text)
        code, _ = run(["guide", "--reliability", "0.95", "--preset", str(preset)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(preset) in err
        assert err.count("\n") == 1

    def test_unreadable_preset_is_config_error(self, tmp_path, capsys):
        code, _ = run(["guide", "--reliability", "0.95", "--preset", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: calibration preset")


class TestMatrix:
    def test_deterministic_rerun(self, tmp_path):
        args = [
            "matrix", "--speeds", "20,45", "--intervals", "900,1200",
            "--trials", "3", "--seed", "42",
        ]
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert run(args + ["--out-csv", str(a_csv)])[0] == 0
        assert run(args + ["--out-csv", str(b_csv)])[0] == 0
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_bonnet_mount(self, tmp_path):
        out_csv = tmp_path / "m.csv"
        code, _ = run(
            ["matrix", "--mount", "bonnet", "--speeds", "45",
             "--intervals", "700,1500", "--seed", "1", "--out-csv", str(out_csv)]
        )
        assert code == 0
        assert out_csv.read_text().startswith(
            "speed_mph,interval_ms,detections,trials,label,expected_p\n"
        )

    def test_seed_printed_in_header(self):
        code, text = run(["matrix", "--speeds", "20", "--intervals", "900", "--seed", "7"])
        assert code == 0
        assert "seed=7" in text

    def test_default_seed_printed_in_header(self):
        code, text = run(["matrix", "--speeds", "20", "--intervals", "900"])
        assert code == 0
        assert f"seed={sim.DEFAULT_SEED}" in text.splitlines()[0]

    def test_non_integer_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["matrix", "--speeds", "20", "--intervals", "900", "--seed", "abc"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    def test_calibration_preset_accepted(self, anchors_csv, tmp_path):
        preset = tmp_path / "preset.ini"
        run(["calibrate", "--rssi", str(anchors_csv), "--out", str(preset)])
        code, _ = run(
            ["matrix", "--preset", str(preset), "--speeds", "20",
             "--intervals", "900", "--out-csv", str(tmp_path / "m.csv")]
        )
        assert code == 0


class TestPlan:
    def test_straight_road_single_site(self, road_geojson, tmp_path):
        out = tmp_path / "plan.geojson"
        code, text = run(
            ["plan", "--road", str(road_geojson), "--budget", "1", "--out", str(out)]
        )
        assert code == 0
        plan = json.loads(out.read_text())
        assert len(plan["features"]) == 1
        props = plan["features"][0]["properties"]
        assert props["interval_ms"] == 700
        assert props["battery_days"] == 131.25
        assert "expected detections per traverse" in text

    def test_deterministic_rerun(self, road_geojson, tmp_path):
        out_a, out_b = tmp_path / "a.geojson", tmp_path / "b.geojson"
        sum_a, sum_b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["plan", "--road", str(road_geojson), "--budget", "3"]
        assert run(args + ["--out", str(out_a), "--summary", str(sum_a)])[0] == 0
        assert run(args + ["--out", str(out_b), "--summary", str(sum_b)])[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert sum_a.read_bytes() == sum_b.read_bytes()

    def test_named_preset_labels_sites(self, road_geojson, tmp_path):
        out = tmp_path / "plan.geojson"
        code, _ = run(["plan", "--road", str(road_geojson), "--budget", "2",
                       "--reliability", "0.95", "--preset", "otsb-bt5", "--out", str(out)])
        assert code == 0
        features = json.loads(out.read_text())["features"]
        assert {f["properties"]["beacon_preset"] for f in features} == {"otsb-bt5"}

    def test_coverage_gaps_at_the_fixed_spacing(self, tmp_path):
        # One site on 2 km of straight road covers MAX_SPACING_M around it.
        coords = [[i * 100.0 / M_PER_DEG, 0.0] for i in range(21)]
        road = tmp_path / "road.geojson"
        road.write_text(json.dumps({"type": "LineString", "coordinates": coords}))
        code, text = run(["plan", "--road", str(road), "--budget", "1",
                          "--out", str(tmp_path / "p.geojson")])
        assert code == 0
        length = float(re.search(r"road_length_m=([0-9.]+)", text).group(1))
        mid = float(re.search(r"arc=([0-9.]+)m", text).group(1))
        half = MAX_SPACING_M / 2
        assert [line for line in text.splitlines() if line.startswith("coverage gap")] == [
            f"coverage gap: 0.0 - {mid - half:.1f} m",
            f"coverage gap: {mid + half:.1f} - {length:.1f} m",
        ]

    def test_ini_preset_labelled_by_file_name(self, road_geojson, tmp_path):
        preset = tmp_path / "field" / "camp.ini"
        preset.parent.mkdir()
        preset.write_text(OLDER_PRESET_INI)
        out = tmp_path / "plan.geojson"
        code, _ = run(
            ["plan", "--road", str(road_geojson), "--budget", "2",
             "--preset", str(preset), "--out", str(out)]
        )
        assert code == 0
        assert str(tmp_path) not in out.read_text()
        features = json.loads(out.read_text())["features"]
        assert {f["properties"]["beacon_preset"] for f in features} == {"camp.ini"}

    def test_unknown_preset_is_config_error(self, road_geojson, tmp_path):
        code, _ = run(
            ["plan", "--road", str(road_geojson), "--budget", "1",
             "--preset", "bogus", "--out", str(tmp_path / "p.geojson")]
        )
        assert code == 2

    # sha256 of (GeoJSON, summary) for `plan --budget 8` on the winding road:
    # minima sites, gap-filled sites and coverage gaps.
    WINDING_PLAN_SHA256 = {
        "guide": ("81c8b91f3a193476fba975d6b03bddbd9a203eaa79c634bd4f78a954de037e83",
                  "7348ed26f0b37fb355faba7624e170a037440f82e206d9e4b8cf1d574638b05a"),
        "0.95": ("dcbc438f61618dfc0903e1d8748de91e426aa0b841aa7a06621193a2cfab5a7c",
                 "1fa9e1df810481548cc5f57e2e4fee50ec6994d3cb996e60ef2cf72a7103508f"),
    }

    @pytest.mark.parametrize("reliability", sorted(WINDING_PLAN_SHA256))
    def test_winding_road_plan_pinned(self, winding_road_geojson, tmp_path, reliability):
        out, summary = tmp_path / "plan.geojson", tmp_path / "plan.txt"
        argv = ["plan", "--road", str(winding_road_geojson), "--budget", "8",
                "--out", str(out), "--summary", str(summary)]
        if reliability != "guide":
            argv += ["--reliability", reliability]
        assert run(argv) == (0, "")
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, summary))
        assert digests == self.WINDING_PLAN_SHA256[reliability]


# sha256 of the store that ingesting the dump of
# test_ingest_idempotent_and_export writes, and of its `export`.
INGEST_STORE_SHA256 = "1df0fbc49e7bf291f846998cd460dfaf725cad65d3b17385df855f31d5fd8adf"
INGEST_GEOJSON_SHA256 = "f19d03293066c04e5a894ddecce91e8fb95966f8585d5b1418ff50c8c762ff5f"


# sha256 of `export` on the 2000-event seeded_store, before and after
# one more dump is ingested, as json.dumps(..., sort_keys=True, indent=2)
# wrote the map.
SEEDED_EXPORT_SHA256 = "3b2f587adef445bbba304d294853495e8ba754b284863d8990b6a7162be96f46"
SEEDED_INGEST_GEOJSON_SHA256 = "8c98f553659cce134849502d2fb265e656b84754bf1b205ee17c94403b541fa0"


def seeded_store(path, events=2000, seed=2019):
    """A store of ``events`` seeded events: every tenth quarantined, the
    located ones with int, float and negative coordinates."""
    rng = random.Random(seed)
    lines = []
    for i in range(events):
        event = {
            "beacon_id": f"B-{rng.randrange(440):03d}",
            "receiver_id": f"RX{rng.randrange(1, 9)}",
            "count": rng.randint(1, 40),
            "first_seen_s": rng.randrange(10**6),
            "received_at": 1754650000 + i // 50 * 600,
            "lat": None,
            "lon": None,
            "quarantined": i % 10 == 0,
        }
        if i % 10 in (1, 2, 3):
            event["lat"], event["lon"] = rng.randint(-90, 90), rng.randint(-180, 180)
        elif i % 10:
            event["lat"], event["lon"] = rng.uniform(-90, 90), rng.uniform(-180, 180)
        lines.append(json.dumps(event, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


# One valid detection store line.
STORE_LINE = ('{"beacon_id": "B-01", "count": 2, "first_seen_s": 10, "lat": 5.41, '
              '"lon": 118.03, "quarantined": false, "received_at": 1, "receiver_id": "RX1"}')


class TestProtocolPipeline:
    def test_encode_decode_roundtrip(self, tmp_path):
        code, text = run(["encode", "--receiver", "RX1", "B-01:2:10", "B-07:1:55"])
        assert code == 0
        segments = tmp_path / "segments.txt"
        segments.write_text(text)
        code, decoded = run(["decode", "--segments", str(segments)])
        assert code == 0
        assert "B-01:2:10" in decoded
        assert "B-07:1:55" in decoded

    def test_decode_missing_segment_flagged(self, tmp_path):
        code, text = run(
            ["encode", "--receiver", "RX1"]
            + [f"B-{i:02d}:1:{i}" for i in range(40)]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) >= 2
        partial = tmp_path / "partial.txt"
        partial.write_text(lines[0] + "\n")
        code, text = run(["decode", "--segments", str(partial)])
        assert code == 1
        assert "missing segments" in text

    def test_decode_missing_segments_as_ranges(self, tmp_path):
        # A 27-byte dump must not print a 998-number list.
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/999|B-01:1:10\n")
        code, text = run(["decode", "--segments", str(segments)])
        assert (code, text) == (1, "receiver: RX1\nB-01:1:10\nmissing segments: 2-999\n")

    def test_ingest_reports_missing_segments_as_ranges(self, registry_csv, tmp_path):
        segments = tmp_path / "segments.txt"
        segments.write_text("".join(f"T1|RX1|{i}/9|B-01:1:{i}\n" for i in (1, 6, 8)))
        code, report = run(["ingest", "--segments", str(segments), "--registry",
                            str(registry_csv), "--store", str(tmp_path / "s.ndjson"),
                            "--received-at", "1"])
        assert code == 0
        assert report.splitlines()[1] == "RX1 (3 segments, missing 2-5, 7, 9): 3 records, 3 new"

    def test_bad_record_token_usage_error(self):
        code, _ = run(["encode", "--receiver", "RX1", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("segment,diagnostic", [
        # int() takes a sign and underscores, \d and int() other scripts' digits.
        ("T1|RX1|1/1|B-01:+1:1_0", "! malformed record 'B-01:+1:1_0' skipped: '+1' is not"),
        ("T1|RX1|1/1|B-01: 2:\u0663", "! malformed record 'B-01: 2:\u0663' skipped: ' 2' is not"),
        ("T1|RX1|1/1|B-01:2:\u0663", "! malformed record 'B-01:2:\u0663' skipped: '\u0663' is not"),
    ])
    def test_decode_numbers_are_ascii_digits(self, tmp_path, segment, diagnostic):
        segments = tmp_path / "segments.txt"
        segments.write_text(segment + "\n", encoding="utf-8")
        code, text = run(["decode", "--segments", str(segments)])
        assert code == 1
        assert text.splitlines() == ["receiver: RX1", diagnostic + " a valid int"]

    def test_decode_non_ascii_counter_is_unparseable(self, tmp_path, capsys):
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|\u0661/\u0661|B-01:1:10\n", encoding="utf-8")
        code, text = run(["decode", "--segments", str(segments)])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: bad segment counter '\u0661/\u0661'\n"

    @pytest.mark.parametrize("token,bad", [
        ("B-01:+2:\u0663", "+2"), ("B-01:2:\u0663", "\u0663"), ("B-01:1_0:5", "1_0"),
        ("B-01: 2:5", " 2"), ("B-01:2:-5", "-5"),
    ])
    def test_encode_numbers_are_ascii_digits(self, capsys, token, bad):
        code, out = run(["encode", "--receiver", "RX1", token])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: record {token!r}: {bad!r} is not a valid int\n"

    def test_ingest_idempotent_and_export(self, registry_csv, tmp_path):
        code, text = run(["encode", "--receiver", "RX1", "B-01:2:10", "B-99:1:55"])
        segments = tmp_path / "segments.txt"
        segments.write_text(text)
        store = tmp_path / "store.ndjson"
        geo = tmp_path / "detections.geojson"
        export = ["export", "--store", str(store), "--out", str(geo)]

        args = [
            "ingest", "--segments", str(segments), "--registry", str(registry_csv),
            "--store", str(store), "--received-at", "1754650000",
        ]
        code, report = run(args)
        assert code == 0
        assert "2 new" in report
        assert "(1 quarantined)" in report
        assert run(export) == (0, "")
        first_store = store.read_bytes()
        first_geo = geo.read_bytes()
        assert hashlib.sha256(first_store).hexdigest() == INGEST_STORE_SHA256
        assert hashlib.sha256(first_geo).hexdigest() == INGEST_GEOJSON_SHA256

        # A re-sent dump adds nothing, so the store is not even opened.
        os.utime(store, ns=(10**18, 10**18))
        code, report = run(args)
        assert code == 0
        assert "0 new" in report
        assert store.read_bytes() == first_store
        assert store.stat().st_mtime_ns == 10**18

        code, text = run(["export", "--store", str(store), "--out", str(tmp_path / "e.geojson")])
        assert code == 0
        assert (tmp_path / "e.geojson").read_bytes() == first_geo

    def test_seeded_store_map_pinned(self, registry_csv, tmp_path):
        store = tmp_path / "store.ndjson"
        seeded_store(store)
        geo = tmp_path / "map.geojson"
        code, _ = run(["export", "--store", str(store), "--out", str(geo)])
        assert code == 0
        assert hashlib.sha256(geo.read_bytes()).hexdigest() == SEEDED_EXPORT_SHA256

        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10;B-99:1:55\n")
        code, _ = run(["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                       "--store", str(store), "--received-at", "1754800000"])
        assert code == 0
        assert run(["export", "--store", str(store), "--out", str(geo)]) == (0, "")
        assert hashlib.sha256(geo.read_bytes()).hexdigest() == SEEDED_INGEST_GEOJSON_SHA256

    def test_export_of_missing_store_is_usage_error(self, tmp_path, capsys):
        store, geo = tmp_path / "typo.ndjson", tmp_path / "map.geojson"
        code, out = run(["export", "--store", str(store), "--out", str(geo)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: detection store {str(store)!r} is not a file\n"
        assert not geo.exists()

    def test_export_maps_the_lines_before_a_torn_one(self, tmp_path, capsys):
        # export writes the map of the complete lines, leaves the torn one
        # for the next ingest to cut, and says so with exit 1.
        lines = [STORE_LINE.replace('"received_at": 1', f'"received_at": {t}') + "\n"
                 for t in (1, 2)]
        store, geo = tmp_path / "store.ndjson", tmp_path / "map.geojson"
        store.write_text(lines[0])
        assert run(["export", "--store", str(store), "--out", str(geo)]) == (0, "")
        complete = geo.read_bytes()
        for cut in (1, 40, len(lines[1]) - 2):
            store.write_text(lines[0] + lines[1][:cut])
            torn = store.read_bytes()
            code, out = run(["export", "--store", str(store), "--out", str(geo)])
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == (
                f"error: detection store {str(store)!r} ends in an unfinished line of "
                f"{cut} bytes, left out of the map\n"
            )
            assert geo.read_bytes() == complete
            assert store.read_bytes() == torn

    @pytest.mark.parametrize("line,detail", [
        ('{"beacon_id": "B-0001", "bogus": 1}', "unexpected keyword argument 'bogus'"),
        ('{"beacon_id": "B-0001"}', "missing 4 required positional arguments"),
        ("[1,2]", "must be a mapping, not list"),
        ("{not json", "Expecting property name enclosed in double quotes"),
        # Each field has its exact JSON type, and a count is at least 1.
        (STORE_LINE.replace('"lat": 5.41', '"lat": "x"'),
         "lat 'x', lon 118.03: an event not quarantined needs numbers"),
        (STORE_LINE.replace("false", '"no"'), "quarantined 'no' is not true or false"),
        (STORE_LINE.replace('"count": 2', '"count": -4'), "count -4 is not a positive integer"),
        (STORE_LINE.replace('"count": 2', '"count": true'), "count True is not a positive"),
        (STORE_LINE.replace('"first_seen_s": 10', '"first_seen_s": "3"'),
         "first_seen_s '3' is not a non-negative integer"),
        (STORE_LINE.replace('"received_at": 1', '"received_at": 1.5'),
         "received_at 1.5 is not an integer"),
        (STORE_LINE.replace('"B-01"', '"bad id!"'), "beacon id 'bad id!' must be"),
        (STORE_LINE.replace('"RX1"', '"rx1"'), "receiver id 'rx1' must be"),
        # An event has a position on the globe, or is quarantined and has none.
        (STORE_LINE.replace('"lat": 5.41', '"lat": NaN'),
         "lat nan, lon 118.03 is not a position on the globe"),
        (STORE_LINE.replace('"lon": 118.03', '"lon": -Infinity'),
         "lat 5.41, lon -inf is not a position on the globe"),
        (STORE_LINE.replace('"lon": 118.03', '"lon": null'),
         "lat 5.41, lon None: an event not quarantined needs numbers"),
        (STORE_LINE.replace('"lat": 5.41, "lon": 118.03', '"lat": null, "lon": null'),
         "lat None, lon None: an event not quarantined needs numbers"),
        # A store is UTF-8.
        ("\udcff" + STORE_LINE, "'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    @pytest.mark.parametrize("command", ["ingest", "export"])
    def test_corrupt_store_names_file_and_line(
        self, registry_csv, tmp_path, capsys, command, line, detail
    ):
        good = STORE_LINE
        store = tmp_path / "store.ndjson"
        store.write_text(f"{good}\n\n{line}\n", errors="surrogateescape")
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        argv = {
            "ingest": ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                       "--store", str(store), "--received-at", "2"],
            "export": ["export", "--store", str(store), "--out", str(tmp_path / "e.geojson")],
        }[command]
        code, out = run(argv)
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: detection store {str(store)!r} line 3 is not a detection event: "
        )
        assert detail in err and len(err.splitlines()) == 1
        assert store.read_text(errors="surrogateescape") == f"{good}\n\n{line}\n"

    @pytest.mark.parametrize("ending", ["\n", ""])
    def test_ingest_appends_without_rewriting(self, registry_csv, tmp_path, ending):
        # A valid line that save would not write: keys reversed, no spaces.
        first = json.dumps(dict(reversed(json.loads(STORE_LINE).items())), separators=(",", ":"))
        store = tmp_path / "store.ndjson"
        store.write_text(first + ending)
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        code, _ = run(["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                       "--store", str(store), "--received-at", "2"])
        assert code == 0
        added = STORE_LINE.replace('"received_at": 1', '"received_at": 2')
        # The old line stays as it was; an unterminated one gains its "\n".
        assert store.read_text() == f"{first}\n{added}\n"

    def test_ingest_drops_a_torn_last_line(self, registry_csv, tmp_path):
        # A crash during save's append leaves the last line cut short at
        # any byte: ingest drops it, says so, cuts it from the file and
        # appends after the lines before it.
        lines = [STORE_LINE.replace('"received_at": 1', f'"received_at": {t}') + "\n"
                 for t in (1, 2, 3)]
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10;B-07:1:55\n")
        store = tmp_path / "store.ndjson"
        argv = ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                "--store", str(store), "--received-at", "4"]
        store.write_text(lines[0] + lines[1])
        assert run(argv)[0] == 0
        expected = store.read_bytes()
        assert expected.startswith((lines[0] + lines[1]).encode())
        for cut in range(1, len(lines[2]) - 1):
            torn = lines[2][:cut]
            store.write_text(lines[0] + lines[1] + torn)
            code, report = run(argv)
            assert code == 0
            assert report.splitlines()[1] == (
                f"  ! unfinished last store line dropped, {cut} bytes: {torn.encode()!r}"
            )
            assert report.splitlines()[-1] == "store: 4 events (1 quarantined), 2 new"
            assert store.read_bytes() == expected
            code, report = run(argv)
            assert code == 0 and report.splitlines()[-1].endswith(", 0 new")
            assert store.read_bytes() == expected

    @pytest.mark.parametrize("cut", [1, 40, len(STORE_LINE) - 1])
    def test_ingest_refuses_a_cut_line_before_other_lines(self, registry_csv, tmp_path, cut):
        store = tmp_path / "store.ndjson"
        text = f"{STORE_LINE}\n{STORE_LINE[:cut]}\n{STORE_LINE}\n"
        store.write_text(text)
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        code, out = run(["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                         "--store", str(store), "--received-at", "4"])
        assert (code, out) == (1, "")
        assert store.read_text() == text

    @pytest.mark.parametrize("command", ["ingest", "decode"])
    def test_non_utf8_segments_is_usage_error(self, registry_csv, tmp_path, capsys, command):
        segments = tmp_path / "segments.txt"
        segments.write_bytes(b"\xffT1|RX1|1/1|B-01:2:10\n")
        store = tmp_path / "s.ndjson"
        argv = {
            "ingest": ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                       "--store", str(store), "--received-at", "1"],
            "decode": ["decode", "--segments", str(segments)],
        }[command]
        code, out = run(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: segments {str(segments)!r} is invalid: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )
        assert not store.exists()

    @pytest.mark.parametrize("command", ["ingest", "export"])
    def test_directory_as_output_is_usage_error(self, registry_csv, tmp_path, capsys, command):
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        store = tmp_path / "store.ndjson"
        store.write_text("")
        directory = tmp_path / "dir"
        directory.mkdir()
        argv = {
            "ingest": ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                       "--store", str(directory), "--received-at", "2"],
            "export": ["export", "--store", str(store), "--out", str(directory)],
        }[command]
        code, out = run(argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(directory)!r}\n"

    @pytest.mark.parametrize("tail", ["", STORE_LINE[:40]], ids=["store", "torn-store"])
    def test_unwritable_map_leaves_the_store_as_it_was(self, tmp_path, capsys, tail):
        # export only reads the store: a map it cannot write is the one
        # error, ahead of any torn tail, and the store keeps its bytes.
        store, directory = tmp_path / "store.ndjson", tmp_path / "map"
        store.write_text(STORE_LINE + "\n" + tail)
        before = store.read_bytes()
        directory.mkdir()
        code, out = run(["export", "--store", str(store), "--out", str(directory)])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(directory)!r}\n"
        assert store.read_bytes() == before

    def test_unsaveable_store_is_usage_error(self, registry_csv, tmp_path, capsys):
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        store = tmp_path / "missing" / "store.ndjson"
        code, out = run(["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                         "--store", str(store), "--received-at", "2"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(store)!r}\n"
        assert sorted(tmp_path.iterdir()) == sorted({registry_csv, segments})

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="file permissions do not bind the superuser",
    )
    def test_unreadable_segments_is_usage_error(self, registry_csv, tmp_path, capsys):
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\n")
        segments.chmod(0)
        code, out = run(["ingest", "--segments", str(segments), "--registry", str(registry_csv),
                         "--store", str(tmp_path / "s.ndjson"), "--received-at", "1"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 13] Permission denied") and str(segments) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "s.ndjson").exists()

    def test_ingest_flags_unparseable_lines(self, registry_csv, tmp_path):
        segments = tmp_path / "segments.txt"
        segments.write_text("garbage line\n")
        code, report = run(
            ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
             "--store", str(tmp_path / "s.ndjson"), "--received-at", "1"]
        )
        assert code == 1
        assert "unparseable" in report


    def test_ingest_bad_counter_skips_only_its_line(self, registry_csv, tmp_path):
        segments = tmp_path / "segments.txt"
        segments.write_text("T1|RX1|1/1|B-01:2:10\nT1|RX2|x/1|B-01:1:5\n")
        store = tmp_path / "s.ndjson"
        code, report = run(
            ["ingest", "--segments", str(segments), "--registry", str(registry_csv),
             "--store", str(store), "--received-at", "1"]
        )
        assert code == 1
        assert "unparseable segment skipped: T1|RX2|x/1|B-01:1:5" in report
        events = [json.loads(line) for line in store.read_text().splitlines()]
        assert [(e["receiver_id"], e["beacon_id"], e["count"]) for e in events] == [
            ("RX1", "B-01", 2)
        ]


@pytest.mark.parametrize("argv,option", [
    (["--config=run.ini", "guide"], "--config"),
    (["plan", "--road", "road.geojson", "--budget", "2", "--out", "p.geojson",
      "--spacing", "300"], "--spacing"),
    (["calibrate", "--rssi", "rssi.csv", "--out", "preset.ini",
      "--targets-wheelarch", "w.csv"], "--targets-wheelarch"),
    (["calibrate", "--rssi", "rssi.csv", "--out", "preset.ini",
      "--targets-bonnet", "b.csv"], "--targets-bonnet"),
    (["ingest", "--segments", "s.txt", "--registry", "r.csv", "--store", "s.ndjson",
      "--geojson", "map.geojson"], "--geojson"),
], ids=["config", "plan-spacing", "calibrate-targets-wheelarch", "calibrate-targets-bonnet",
        "ingest-geojson"])
def test_removed_option_is_unknown(capsys, argv, option):
    # Every setting is a flag or a constant, and export writes the map;
    # these took a second way in.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option}" in err


@pytest.mark.parametrize("argv,what,bad,kind", [
    (["matrix", "--intervals", "1000,abc"], "--intervals", "abc", "int"),
    (["matrix", "--speeds", "20,x"], "--speeds", "x", "float"),
    (["guide", "--reliability", "0.95", "--speeds", "10,fast"], "--speeds", "fast", "float"),
    (["encode", "--receiver", "RX1", "B-01:x:10"], "record 'B-01:x:10'", "x", "int"),
    (["encode", "--receiver", "RX1", "B-01:1:soon"], "record 'B-01:1:soon'", "soon", "int"),
    # Only an omitted list means the default grid.
    (["guide", "--reliability", "0.9", "--speeds", ""], "--speeds", "", "float"),
    (["matrix", "--speeds", ""], "--speeds", "", "float"),
    (["matrix", "--speeds", "", "--intervals", ""], "--intervals", "", "int"),
])
def test_malformed_number_is_usage_error(capsys, argv, what, bad, kind):
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {what}: {bad!r} is not a valid {kind}\n"


# sha256 of `matrix --trials 200 --out-csv` as the per-trial generator loop
# wrote it, before run_matrix computed the trial stream in batch.
MATRIX_200_SHA256 = {
    ("wheelarch", 1): "47e688a19167c38a80627347420a42c080a84b644f7a687677b69f1a3a7a4e09",
    ("wheelarch", 42): "7956e05d21f598d2ad5f04a13bb6df402a53962392074173948b2f0584df4b10",
    ("wheelarch", 1729): "ab8f191d8a7df7dea9dc0b235619ed558374c80f59ff9ec7137ff9aa8e81abc2",
    ("bonnet", 1): "758503a7af1d32d09c8feac7b9f0a958ec29dea44185c4c7ed51e25198aaffe8",
    ("bonnet", 42): "e535c8227c47ae82ec8082ea151fe0218d0da9461a9cd5fece82394b7a1c54de",
    ("bonnet", 1729): "9e6053104f99f3f1926aed922f8abb7a8cb01a22f7e273aad2ed34a648880d56",
}


@pytest.mark.parametrize("mount,seed", sorted(MATRIX_200_SHA256))
def test_matrix_csv_pinned(tmp_path, mount, seed):
    out_csv = tmp_path / "m.csv"
    code, _ = run(["matrix", "--mount", mount, "--trials", "200", "--seed", str(seed),
                   "--out-csv", str(out_csv)])
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == MATRIX_200_SHA256[(mount, seed)]


@pytest.mark.parametrize("argv", [
    ["guide", "--reliability", "0.9", "--preset", "nosuch"],
    ["matrix", "--preset", "nosuch"],
    ["plan", "--road", "road.geojson", "--budget", "1", "--preset", "nosuch",
     "--out", "p.geojson"],
], ids=["guide", "matrix", "plan"])
def test_unknown_preset_line(road_geojson, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: unknown path-loss preset 'nosuch' (known: hm10-bt4, otsb-bt5)\n"
    )
    assert not (tmp_path / "p.geojson").exists()


@pytest.mark.parametrize("command,text,code,message", [
    ("calibrate", "distance_m,rssi_dbm,materials\n10,-88,\n10,-90,\n", 1,
     "singular fit: all samples at one distance: exponent unconstrained"),
    ("ingest", "\n", 2, "no segments to ingest"),
    ("decode", "", 2, "no segments to decode"),
], ids=["calibrate", "ingest", "decode"])
def test_command_failure_is_one_error_line(tmp_path, capsys, command, text, code, message):
    given = tmp_path / "input.txt"
    given.write_text(text)
    argv = {
        "calibrate": ["calibrate", "--rssi", str(given), "--out", str(tmp_path / "p.ini")],
        "ingest": ["ingest", "--segments", str(given), "--registry", str(given),
                   "--store", str(tmp_path / "s.ndjson")],
        "decode": ["decode", "--segments", str(given)],
    }[command]
    assert run(argv) == (code, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.txt"]


@pytest.mark.parametrize("argv,message", [
    (["matrix", "--trials", "0"], "matrix: need at least one trial per cell"),
    (["matrix", "--seed", "-1"], "matrix: seed -1 is negative"),
    (["guide", "--reliability", "1.5"], "--reliability: 1.5 is outside [0, 1]"),
    (["guide", "--reliability", "nan"], "--reliability: nan is outside [0, 1]"),
    (["encode", "--receiver", "RX1", "B-01:0:10"],
     "record 'B-01:0:10': count 0 is not a positive integer"),
    (["encode", "--receiver", "RX1", "b01:1:10"], "record 'b01:1:10': beacon id 'b01'"),
    (["encode", "--receiver", "rx1", "B-01:1:10"], "--receiver: receiver id 'rx1'"),
    (["matrix", "--intervals", "50"], "matrix: interval 50 ms outside [100, 10240]"),
    (["matrix", "--speeds", "0"], "matrix: speed must be positive"),
    (["matrix", "--speeds", "nan"], "matrix: speed must be positive"),
    (["matrix", "--speeds", "inf"], "matrix: speed must be positive and finite"),
    (["matrix", "--speeds=-inf"], "matrix: speed must be positive and finite"),
    (["matrix", "--speeds", "10,inf"], "matrix: speed must be positive and finite"),
    # The smallest positive mph is 0 m/s, the unit the chord divides by.
    (["matrix", "--speeds", "5e-324"], "matrix: speed must be positive and finite"),
    (["guide", "--reliability", "0.9", "--speeds", "5e-324"],
     "--speeds: 5e-324 is not a positive, finite speed"),
    (["guide", "--reliability", "0.9", "--speeds", "0"],
     "--speeds: 0.0 is not a positive, finite speed"),
    (["guide", "--reliability", "0.9", "--speeds", "nan"],
     "--speeds: nan is not a positive, finite speed"),
    (["guide", "--reliability", "0.9", "--speeds", "inf"],
     "--speeds: inf is not a positive, finite speed"),
    (["guide", "--reliability", "0.9", "--speeds=-inf"],
     "--speeds: -inf is not a positive, finite speed"),
])
def test_out_of_range_value_is_usage_error(capsys, argv, message):
    code, out = run(argv)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("option,value,message", [
    ("--reliability", "-0.1", "-0.1 is outside [0, 1]"),
    ("--budget", "0", "0 is below 1"),
    ("--budget", "-1", "-1 is below 1"),
], ids=["reliability", "budget-0", "budget-negative"])
def test_plan_value_out_of_range_is_usage_error(road_geojson, tmp_path, capsys,
                                                option, value, message):
    argv = ["plan", "--road", str(road_geojson), "--out", str(tmp_path / "p.geojson")]
    if option != "--budget":
        argv += ["--budget", "2"]
    code, out = run(argv + [option, value])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {option}: {message}\n"
    assert not (tmp_path / "p.geojson").exists()


@pytest.mark.parametrize("text,detail", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('{"type": "LineString", "coordinates": [[110.0, 1.0]]}',
     "road needs at least two vertices"),
    ("[]", "unsupported GeoJSON type None"),
    (None, "[Errno 21] Is a directory"),
    ('{"type": "Feature", "geometry": [1]}', "geometry must be a JSON object or null"),
    ('{"type": "Feature", "properties": 5, "geometry": '
     '{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1]]}}',
     "properties must be a JSON object or null"),
    ('{"type": "LineString", "coordinates": [null, [0, 1]]}',
     "road coordinates must be positions of at least 2 numbers"),
    ('{"type": "FeatureCollection", "features": 5}', "features must be a list"),
    ('{"type": "FeatureCollection", "features": [1]}', "each feature must be a JSON object"),
    ('{"type": "Feature", "properties": {"surface_vmax_mph": null}, "geometry": '
     '{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1]]}}',
     "surface_vmax_mph must be a number"),
    # json.loads reads NaN, Infinity and any integer: the road refuses the
    # floats that are not on the globe, the reader an integer beyond a float.
    ('{"type": "LineString", "coordinates": [[NaN, 1.0], [110.0, 1.1]]}',
     "vertex 0: lat 1.0, lon nan is not a position on the globe"),
    ('{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, -Infinity]]}',
     "vertex 1: lat -inf, lon 110.0 is not a position on the globe"),
    ('{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1], [110.0, 95.0]]}',
     "vertex 2: lat 95.0, lon 110.0 is not a position on the globe"),
    ('{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1], [110.0, 1.1]]}',
     "vertex 2: road has a zero-length segment"),
    pytest.param('{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1%s]]}'
                 % ("0" * 400), "road coordinates must be positions of at least 2 numbers",
                 id="int-beyond-float"),
    ('{"type": "Feature", "properties": {"surface_vmax_mph": NaN}, "geometry": '
     '{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1]]}}',
     "surface speed cap must be positive and finite"),
    # A positive cap that is 0 m/s, the unit a pass divides by.
    ('{"type": "Feature", "properties": {"surface_vmax_mph": 5e-324}, "geometry": '
     '{"type": "LineString", "coordinates": [[110.0, 1.0], [110.0, 1.1]]}}',
     "surface speed cap must be positive and finite"),
])
def test_bad_road_file_is_config_error(tmp_path, capsys, text, detail):
    road = tmp_path / "road.geojson"
    if text is None:
        road.mkdir()
    else:
        road.write_text(text)
    code, out = run(["plan", "--road", str(road), "--budget", "1",
                     "--out", str(tmp_path / "p.geojson")])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: road file {str(road)!r} is invalid: {detail}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "p.geojson").exists()


@pytest.mark.parametrize("text,detail", [
    ("beacon_id,lon\nB-01,118.03\n", "registry CSV needs columns beacon_id,lat,lon"),
    ("beacon_id,lat,lon\nB-01,north,118.03\n",
     "line 2, beacon 'B-01': could not convert string to float: 'north'"),
    ("beacon_id,lat,lon\nB-01\n", "line 2, beacon 'B-01': could not convert string to float: ''"),
    ("beacon_id,lat,lon\nB-01,nan,inf\n",
     "line 2, beacon 'B-01': lat nan, lon inf is not a position on the globe"),
    ("beacon_id,lat,lon\nB-01,5.41,1e400\n",
     "line 2, beacon 'B-01': lat 5.41, lon inf is not a position on the globe"),
    ("beacon_id,lat,lon\nB-01,1000,-999\n",
     "line 2, beacon 'B-01': lat 1000.0, lon -999.0 is not a position on the globe"),
    ("beacon_id,lat,lon\nB-01,5.41,118.03\nB-02,1000,-999\n",
     "line 3, beacon 'B-02': lat 1000.0, lon -999.0 is not a position on the globe"),
    ("beacon_id,lat,lon\nB-01,5.41,118.03\nB-01,5.42,118.04\n",
     "line 3, beacon 'B-01': also on line 2"),
])
def test_bad_registry_is_config_error(tmp_path, capsys, text, detail):
    registry = tmp_path / "registry.csv"
    registry.write_text(text)
    segments = tmp_path / "segments.txt"
    segments.write_text("T1|RX1|1/1|B-01:2:10\n")
    store = tmp_path / "s.ndjson"
    code, out = run(["ingest", "--segments", str(segments), "--registry", str(registry),
                     "--store", str(store), "--received-at", "1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: registry {str(registry)!r} is invalid: {detail}\n"
    assert not store.exists()


def test_model_failure_still_exits_one(tmp_path, capsys):
    # A 60 mph road is outside the published guide's 45 mph envelope.
    coords = [[i * 100.0 / M_PER_DEG, 0.0] for i in range(11)]
    road = tmp_path / "fast.geojson"
    road.write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 60},
        "geometry": {"type": "LineString", "coordinates": coords},
    }))
    code, _ = run(["plan", "--road", str(road), "--budget", "2",
                   "--out", str(tmp_path / "p.geojson")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "envelope" in err


def test_fast_road_is_priced_by_the_model_at_a_target(tmp_path, capsys):
    # The same 60 mph road, with --reliability: every site takes the
    # model-derived interval, which `guide --speeds 60` derives too.
    coords = [[i * 100.0 / M_PER_DEG, 0.0] for i in range(11)]
    road = tmp_path / "fast.geojson"
    road.write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 60},
        "geometry": {"type": "LineString", "coordinates": coords},
    }))
    code, summary = run(["plan", "--road", str(road), "--budget", "2", "--reliability", "0.95",
                         "--out", str(tmp_path / "p.geojson")])
    assert (code, capsys.readouterr().err) == (0, "")
    sites = [f["properties"] for f in json.loads((tmp_path / "p.geojson").read_text())["features"]]
    assert [s["interval_ms"] for s in sites] == [600, 600]
    assert all(s["detection_probability"] >= 0.95 for s in sites)
    _, guide = run(["guide", "--reliability", "0.95", "--speeds", "60"])
    assert guide.splitlines()[1].split() == ["60", "600", "112.50"]
