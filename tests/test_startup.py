"""Which commands import numpy.  Only ``matrix`` computes with it, in its
Monte Carlo trial stream; every other command, ``calibrate`` included, runs
on the standard library, and a fresh process for it should not pay for
numpy's import.  Each case runs in a new
interpreter, because this one has numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trackside.presets import default_scanner, path_loss_preset, write_preset_ini

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one command through cli.main and reports, on its last stdout line,
# the exit code and whether numpy's core was imported.
PROBE = """\
import json, sys
from trackside.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.write("\\n" + json.dumps([code, "numpy._core" in sys.modules]) + "\\n")
"""


def run_fresh(argv, cwd):
    """(exit code, numpy loaded) of one command in a new interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    (work / "registry.csv").write_text("beacon_id,lat,lon\nB-01,5.41,118.03\n")
    (work / "segments.txt").write_text("T1|RX1|1/1|B-01:2:10\n")
    (work / "rssi.csv").write_text("distance_m,rssi_dbm,materials\n1,-70,\n25,-95,\n")
    write_preset_ini(work / "calibrated.ini", path_loss_preset("hm10-bt4"), default_scanner())
    coords = [[i * 0.001, 0.0] for i in range(11)]
    (work / "road.geojson").write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 45},
        "geometry": {"type": "LineString", "coordinates": coords},
    }))
    assert run_fresh(["ingest", "--segments", "segments.txt", "--registry", "registry.csv",
                      "--store", "store.ndjson", "--received-at", "1"], work)[0] == 0
    return work


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["ingest", "--segments", "segments.txt", "--registry", "registry.csv",
     "--store", "store.ndjson", "--received-at", "2", "--geojson", "map.geojson"],
    ["export", "--store", "store.ndjson", "--out", "export.geojson"],
    ["encode", "--receiver", "RX1", "B-01:2:10"],
    ["decode", "--segments", "segments.txt"],
    ["plan", "--road", "road.geojson", "--budget", "3", "--reliability", "0.95",
     "--out", "plan.geojson"],
    ["guide", "--reliability", "0.95", "--speeds", "10,30"],
    ["guide", "--reliability", "0.95", "--preset", "calibrated.ini"],
    ["calibrate", "--rssi", "rssi.csv", "--out", "preset.ini", "--report", "report.txt"],
], ids=["--help", "ingest", "export", "encode", "decode", "plan", "guide", "guide-preset",
        "calibrate"])
def test_command_runs_without_numpy(inputs, argv):
    assert run_fresh(argv, inputs) == (0, False)


@pytest.mark.parametrize("argv", [
    ["matrix", "--speeds", "10", "--intervals", "1000"],
], ids=lambda argv: argv[0])
def test_array_command_loads_numpy(inputs, argv):
    assert run_fresh(argv, inputs) == (0, True)
