import io
import json
import math

import pytest

from trackside.cli import main
from trackside.presets import read_preset_ini, write_preset_ini

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
        ],
        ids=["unknown-material", "no-section-header", "no-attenuation-section"],
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

    def test_config_preset_labels_sites(self, road_geojson, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[plan]\npreset = otsb-bt5\n")
        via_config, via_flag = tmp_path / "config.geojson", tmp_path / "flag.geojson"
        args = ["plan", "--road", str(road_geojson), "--budget", "2", "--reliability", "0.95"]
        assert run(["--config", str(config)] + args + ["--out", str(via_config)])[0] == 0
        assert run(args + ["--preset", "otsb-bt5", "--out", str(via_flag)])[0] == 0
        assert via_config.read_bytes() == via_flag.read_bytes()
        features = json.loads(via_config.read_text())["features"]
        assert {f["properties"]["beacon_preset"] for f in features} == {"otsb-bt5"}

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

    def test_bad_record_token_usage_error(self):
        code, _ = run(["encode", "--receiver", "RX1", "nonsense"])
        assert code == 2

    def test_ingest_idempotent_and_export(self, registry_csv, tmp_path):
        code, text = run(["encode", "--receiver", "RX1", "B-01:2:10", "B-99:1:55"])
        segments = tmp_path / "segments.txt"
        segments.write_text(text)
        store = tmp_path / "store.ndjson"
        geo = tmp_path / "detections.geojson"

        args = [
            "ingest", "--segments", str(segments), "--registry", str(registry_csv),
            "--store", str(store), "--received-at", "1754650000", "--geojson", str(geo),
        ]
        code, report = run(args)
        assert code == 0
        assert "2 new" in report
        assert "(1 quarantined)" in report
        first_store = store.read_bytes()
        first_geo = geo.read_bytes()

        code, report = run(args)
        assert code == 0
        assert "0 new" in report
        assert store.read_bytes() == first_store
        assert geo.read_bytes() == first_geo

        code, text = run(["export", "--store", str(store), "--out", str(tmp_path / "e.geojson")])
        assert code == 0
        assert (tmp_path / "e.geojson").read_bytes() == first_geo

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


class TestConfigFile:
    def test_config_supplies_seed(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[matrix]\nseed = 4242\n")
        code, text = run(
            ["--config", str(config), "matrix", "--speeds", "20", "--intervals", "900"]
        )
        assert code == 0
        assert "seed=4242" in text

    def test_missing_config_rejected(self):
        code, _ = run(["--config", "/nonexistent.ini", "guide"])
        assert code == 2

    @pytest.mark.parametrize("name,text", [("run.ini", "seed = 3\n"), ("conf.d", None)])
    def test_invalid_config_is_config_error(self, tmp_path, capsys, name, text):
        config = tmp_path / name
        if text is None:
            config.mkdir()
        else:
            config.write_text(text)
        code, out = run(["--config", str(config), "guide"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {str(config)!r} is invalid")
        assert len(err.splitlines()) == 1

    def test_non_integer_seed_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[matrix]\nseed = abc\n")
        code, out = run(
            ["--config", str(config), "matrix", "--speeds", "20", "--intervals", "900"]
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: seed: 'abc' is not a valid int\n"


@pytest.mark.parametrize("argv,what,bad,kind", [
    (["matrix", "--intervals", "1000,abc"], "--intervals", "abc", "int"),
    (["matrix", "--speeds", "20,x"], "--speeds", "x", "float"),
    (["guide", "--reliability", "0.95", "--speeds", "10,fast"], "--speeds", "fast", "float"),
    (["encode", "--receiver", "RX1", "B-01:x:10"], "record 'B-01:x:10'", "x", "int"),
    (["encode", "--receiver", "RX1", "B-01:1:soon"], "record 'B-01:1:soon'", "soon", "int"),
])
def test_malformed_number_is_usage_error(capsys, argv, what, bad, kind):
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {what}: {bad!r} is not a valid {kind}\n"
