"""The benchmark's own tests, kept out of the repository's tier-1 run:

    python3 -m pytest -q bench/selftest.py

They run real jobs (one calibration is about 12 s), so the file takes
about a minute and a half.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

INPUTS = {
    "calibrate": workloads.calibrate_inputs,
    "deploy": workloads.deploy_inputs,
    "ingest": workloads.ingest_inputs,
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_inputs_depend_only_on_seed(name):
    make = INPUTS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """One set-up and one untraced job per workload, shared by the tests."""
    out = {}
    for name in sorted(workloads.WORKLOADS):
        workload, _ = run.set_up(name, 5, tmp_path_factory.mktemp(name))
        workload.reset()
        out[name] = (workload, workload.run_job(0, run.Runner()))
    return out


def test_calibrate_check_rejects_window_1175(jobs):
    workload, result = jobs["calibrate"]
    assert workload.check(0, result) == []
    report = result.outputs["report.txt"].decode()
    assert "scan_window_ms: 1170\n" in report
    planted = report.replace("scan_window_ms: 1170\n", "scan_window_ms: 1175\n")
    assert workloads.check_calibration_report(planted)


def test_deploy_check_rejects_flipped_cell(jobs):
    workload, result = jobs["deploy"]
    assert workload.check(0, result) == []
    lines = result.outputs["matrix-bonnet.csv"].decode().splitlines()
    # Flip the first cell whose flip leaves the bound: p far from 1/2.
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if abs(float(fields[5]) - 0.5) > 0.3:
            fields[2] = str(int(fields[3]) - int(fields[2]))
            lines[i] = ",".join(fields)
            break
    else:
        pytest.fail("no cell with p far from 1/2")
    assert workloads.check_matrix("\n".join(lines) + "\n", "bonnet")


def test_ingest_check_rejects_store_missing_one_event(jobs):
    workload, result = jobs["ingest"]
    assert workload.check(0, result) == []
    store = workload.workdir / "store.ndjson"
    lines = store.read_bytes().splitlines(keepends=True)
    store.write_bytes(b"".join(lines[:-1]))
    assert any("1 missing" in p for p in workload.check(0, result))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(name, tmp_path):
    workload, _ = run.set_up(name, 6, tmp_path / "work")
    record = {}
    metrics, loop = run.traced(workload, 1e-9, tmp_path / "work", record, f"selftest-{name}")
    assert len(loop.samples) == 2 * workload.episode
    assert record["traced_output_mismatches"] == []
    assert loop.failed == 0
    assert len(metrics) == len(json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                               ["per_layer"])


def test_self_time_excludes_child_spans():
    spans = tracer.Tracer(job=7)
    inner = spans.span("inner", lambda: time.sleep(0.02))
    outer = spans.span("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    calls, total, own, errors = spans.stats["outer"]
    assert (calls, errors) == (1, 0)
    assert own == pytest.approx(total - spans.stats["inner"][1], abs=1e-9)
    assert 0.005 < own < total
    arrays = spans.span_arrays()
    assert list(arrays["parent"]) == [-1, 0]
    assert list(arrays["job"]) == [7, 7]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
