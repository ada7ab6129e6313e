"""Inputs that once made a model command grow without bound: a pass at a
speed of almost nothing, or a link margin that puts the beacon's range out
of reach, sorted one arc start or built one array entry per advertising
event.  Each command runs in a child process whose address space is
capped, with a timeout, so that a regression fails its case instead of
exhausting the machine.  Never run these inputs without such a limit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MEMORY_LIMIT = 1 << 30  # bytes of address space; numpy imports in far less
TIMEOUT_S = 60

# Sets the limit before anything else runs.
LIMIT = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
""".format(limit=MEMORY_LIMIT)
# Then runs one command.
BOUNDED = LIMIT + """\
from trackside.cli import main
sys.exit(main(sys.argv[1:]))
"""

PRESET_INI = """\
[pathloss]
rssi_ref_dbm = {rssi_ref}
exponent = 1.7883456975917413
reliability_threshold_dbm = -95.0

[attenuation_db]
bonnet = 2.5

[scanner]
scan_window_ms = 1170.0
scan_cycle_ms = {cycle}
"""


def run_bounded(argv, cwd, script=BOUNDED, timeout=TIMEOUT_S):
    """(exit code, stdout, stderr) of one command, or of another
    ``script`` that starts with ``LIMIT``, in a capped child."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def preset(tmp_path, rssi_ref="-70.0", cycle="2500.0"):
    path = tmp_path / "preset.ini"
    path.write_text(PRESET_INI.format(rssi_ref=rssi_ref, cycle=cycle))
    return str(path)


@pytest.mark.parametrize("speed", ["1e-9", "1e-300"])
def test_guide_at_almost_no_speed(tmp_path, speed):
    # Whole-ms intervals against the 2500 ms loop: at most 2500 distinct
    # arc starts, however many events the pass holds.
    code, out, err = run_bounded(["guide", "--reliability", "0.95", "--speeds", speed], tmp_path)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split() == [f"{float(speed):g}", "10200", "1912.50"]


def test_plan_on_a_road_with_almost_no_speed(tmp_path):
    road = tmp_path / "road.geojson"
    road.write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 1e-9},
        "geometry": {"type": "LineString",
                     "coordinates": [[110.0 + 0.001 * i, 1.0] for i in range(5)]},
    }))
    plan = tmp_path / "plan.geojson"
    code, out, err = run_bounded(["plan", "--road", str(road), "--budget", "2",
                                  "--reliability", "0.95", "--out", str(plan)], tmp_path)
    assert (code, err) == (0, "")
    sites = json.loads(plan.read_text())["features"]
    assert [s["properties"]["interval_ms"] for s in sites] == [10200, 10200]


def test_plan_on_a_long_straight_with_a_final_bend(tmp_path):
    # 30000 vertices at the surface cap, then one bend.  The speed minima
    # take one pass over the plateau: rescanning it from each of its
    # vertices took 47 s on a 2-vCPU Xeon, one pass about 0.5 s.
    coords = [[110.0 + 0.0001 * i, 1.0] for i in range(30000)]
    coords += [[coords[-1][0] + 0.0001, 1.0001], [coords[-1][0] + 0.0002, 1.0002]]
    road = tmp_path / "road.geojson"
    road.write_text(json.dumps({"type": "LineString", "coordinates": coords}))
    plan = tmp_path / "plan.geojson"
    code, out, err = run_bounded(["plan", "--road", str(road), "--budget", "5",
                                  "--out", str(plan)], tmp_path, timeout=10)
    assert (code, err) == (0, "")
    speeds = [s["properties"]["local_vmax_mph"] for s in json.loads(plan.read_text())["features"]]
    assert len(speeds) == 5 and min(speeds) < 45.0


def test_guide_with_a_beacon_heard_far_away(tmp_path):
    # rssi_ref_dbm = 1000 puts the detection range near 1e61 m.
    code, out, err = run_bounded(["guide", "--reliability", "0.95", "--speeds", "30",
                                  "--preset", preset(tmp_path, rssi_ref="1000")], tmp_path)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split() == ["30", "10200", "1912.50"]


@pytest.mark.parametrize("argv,detail", [
    # A non-integral scan cycle has no exact period to cap the arc starts.
    (["guide", "--reliability", "0.95", "--speeds", "1e-9", "--preset", "cycle=2500.5"],
     "more than the 65536 that can be scored"),
    # The in-range time itself overflows a float.
    (["guide", "--reliability", "0.95", "--speeds", "1e-318"],
     "a pass inf ms in range holds too many events to count"),
    (["guide", "--reliability", "0.95", "--speeds", "30", "--preset", "rssi_ref=1e6"],
     "link margin reaches beyond any distance"),
    # The Monte Carlo pass is refused before numpy allocates it (831 GiB).
    (["matrix", "--speeds", "1e-9", "--trials", "1", "--intervals", "1000"],
     "one Monte Carlo pass can hold"),
    (["matrix", "--trials", "1", "--preset", "rssi_ref=1000"],
     "one Monte Carlo pass can hold"),
], ids=["guide-fractional-cycle", "guide-overflowing-time", "guide-overflowing-range",
        "matrix-slow", "matrix-far"])
def test_unbounded_pass_is_one_error_line(tmp_path, argv, detail):
    argv = list(argv)
    if "--preset" in argv:
        i = argv.index("--preset") + 1
        key, value = argv[i].split("=")
        argv[i] = preset(tmp_path, **{key: value})
    code, out, err = run_bounded(argv, tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and detail in err
    assert len(err.splitlines()) == 1


def test_oracle_with_many_events_per_trial(tmp_path):
    # 2001 events per trial: one block of ORACLE_CHUNK trials would need
    # 305 MiB per array, so the rows per block shrink with the event count.
    script = LIMIT + """\
from trackside.presets import default_scanner
from trackside.rendezvous import AdvertiserConfig, detection_probability_oracle
print(detection_probability_oracle(
    AdvertiserConfig(interval_ms=100), default_scanner(), 200.0, trials=20000, seed=1))
"""
    code, out, err = run_bounded([], tmp_path, script=script)
    assert (code, out, err) == (0, "1.0\n", "")
