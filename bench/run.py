"""Closed-loop benchmark of the ``trackside`` command.

    python3 bench/run.py --workload {calibrate,deploy,ingest} --seed N \\
        --seconds S --trace {0,1}

One client issues jobs back to back, each command in a fresh
``python -m trackside.cli`` process, for S seconds (runs end on an episode
boundary).  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same jobs run once untraced
and once traced, and the line carries the per-layer metrics.  See
bench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
# Set-up runs this many times; setup_s is the median.  The first pays the
# one-off byte-compilation of a fresh checkout.
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 150.0


class Runner:
    """Runs ``trackside`` commands one process at a time, and keeps the
    peak resident memory of the processes it waited for."""

    def __init__(self, trace_dir: Path | None = None):
        self.trace_dir = trace_dir
        self.job = -1
        self.peak_rss_kb = 0
        self.span_files: list[Path] = []
        self.last_stderr = b""
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def cli(self, args: list[str], cwd: Path) -> tuple[int, bytes]:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "trackside.cli", *args]
        else:
            spans = self.trace_dir / f"spans-{len(self.span_files)}.npz"
            self.span_files.append(spans)
            cmd = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
                   str(self.job), "--", *args]
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 blocks without polling and returns this child's usage.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.last_stderr = err_path.read_bytes()
        return proc.returncode, out_path.read_bytes()


def set_up(name: str, seed: int, workdir: Path) -> tuple[workloads.Workload, list[float]]:
    """Generate inputs and do the program work the first job needs, several
    times over; keep the last.  Raises if the program cannot start."""
    samples = []
    for _ in range(SETUP_REPEATS):
        workloads.clear_dir(workdir)
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, workdir)
        workloads.write_inputs(workload, workdir)
        runner = Runner()
        code, _ = runner.cli(["--help"], workdir)
        if code != 0:
            raise workloads.JobFailed(
                f"trackside --help exited {code}: {runner.last_stderr.decode()[-500:]}")
        workload.prepare(runner)
        samples.append(time.perf_counter() - start)
    return workload, samples


class Loop:
    """Jobs of one closed loop: wall times, output digests, failures, and
    the measured time (jobs plus the gaps between them)."""

    def __init__(self):
        self.samples: list[float] = []
        self.digests: list[str] = []
        self.bad: list[bool] = []
        self.measured_s = 0.0

    @property
    def failed(self) -> int:
        return sum(self.bad)


def run_episode(workload, first: int, runner: Runner, loop: Loop,
                spans: tracer.Tracer | None = None) -> None:
    """Run one episode's jobs back to back.  The episode reset and the
    output checks are the harness's own work and are not measured."""
    workload.reset()
    mark = time.perf_counter()
    for index in range(first, first + workload.episode):
        runner.job = index
        if spans is not None:
            spans.job = index
        t0 = time.perf_counter()
        try:
            result = workload.run_job(index, runner)
            problems = []
        except Exception as exc:  # a broken job must not stop the run
            result, problems = None, [f"job raised {exc!r}"]
        t1 = time.perf_counter()
        loop.samples.append(t1 - t0)
        loop.measured_s += t1 - mark
        if result is not None:
            try:
                problems = workload.check(index, result)
            except Exception as exc:  # malformed output breaks the checker
                problems = [f"check raised {exc!r}"]
        loop.digests.append(result.digest() if result is not None else "")
        loop.bad.append(bool(problems))
        if problems:
            print(f"job {index} failed: " + "; ".join(problems[:5]), file=sys.stderr)
            if runner.last_stderr:
                print(runner.last_stderr.decode(errors="replace")[-1000:], file=sys.stderr)
        mark = time.perf_counter()


def closed_loop(workload, seconds: float) -> tuple[Loop, Runner]:
    """Whole episodes until ``seconds`` of measured time have passed."""
    loop, runner = Loop(), Runner()
    first = 0
    while loop.measured_s < seconds:
        run_episode(workload, first, runner, loop)
        first += workload.episode
    return loop, runner


def p90(samples: list[float]) -> float:
    """statistics.quantiles' default (exclusive) estimate from ten jobs on;
    below that the nearest-rank 90th percentile, which is the slowest job."""
    if len(samples) < 10:
        return max(samples)
    return statistics.quantiles(samples, n=10)[-1]


def end_to_end(setup: list[float], loop: Loop, runner: Runner) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(loop.samples), "s"),
        "jobs_per_s": (len(loop.samples) / loop.measured_s, "1/s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024.0, "MB"),
    }


def write_trace(path: Path, harness: tracer.Tracer, span_files: list[Path]) -> list[dict]:
    """Merge the job processes' spans with the harness's own into one file
    (parent indices made global) and return every process's aggregates."""
    import numpy as np

    index: dict[str, int] = {}
    columns: dict[str, list] = {k: [] for k in ("name", "parent", "job", "start", "end")}
    snapshots = []
    parts = [(harness.snapshot() | {"names": harness.names}, harness.span_arrays())]
    for f in span_files:
        with np.load(f) as data:
            parts.append((json.loads(str(data["meta"])), {k: data[k] for k in columns}))
    offset = 0
    for meta, arrays in parts:
        snapshots.append(meta)
        ids = np.array([index.setdefault(n, len(index)) for n in meta["names"]], dtype=np.int32)
        columns["name"].append(ids[arrays["name"]] if ids.size else arrays["name"])
        parent = arrays["parent"]
        columns["parent"].append(np.where(parent >= 0, parent + offset, -1).astype(np.int32))
        for k in ("job", "start", "end"):
            columns[k].append(arrays[k])
        offset += len(arrays["name"])
    np.savez(path, names=np.array(list(index)), **{k: np.concatenate(v) for k, v in columns.items()})
    for f in span_files:
        f.unlink()
    return snapshots


def traced(workload, seconds: float, workdir: Path, record: dict, stem: str) -> tuple[dict, Loop]:
    """Run every episode twice, untraced then traced, for ``seconds`` of
    untraced time in all.  Interleaving keeps machine drift out of the
    overhead ratio; a traced job's outputs must match its untraced twin."""
    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    harness = tracer.Tracer()
    patches = tracer.install(harness)
    tracer.restore(patches)
    plain, loop = Loop(), Loop()
    runner, traced_runner = Runner(), Runner(trace_dir)
    first = 0
    while plain.measured_s < seconds:
        run_episode(workload, first, runner, plain)
        tracer.apply(patches)
        try:
            run_episode(workload, first, traced_runner, loop, spans=harness)
        finally:
            tracer.restore(patches)
        first += workload.episode
    mismatched = [i for i, (a, b) in enumerate(zip(plain.digests, loop.digests)) if a != b]
    for i in mismatched:
        print(f"job {i}: traced outputs differ from untraced", file=sys.stderr)
    trace_path = WORK / "records" / f"{stem}.trace.npz"
    total = tracer.merge(write_trace(trace_path, harness, traced_runner.span_files))
    overhead = loop.measured_s / plain.measured_s - 1.0
    metrics = tracer.layer_metrics(total, len(loop.samples), overhead)
    record.update(
        untraced_job_s=plain.samples, traced_job_s=loop.samples, trace_file=str(trace_path),
        spans_total=total["spans_total"], traced_output_mismatches=mismatched,
    )
    both = Loop()
    both.samples = plain.samples + loop.samples
    both.bad = plain.bad + [bad or i in mismatched for i, bad in enumerate(loop.bad)]
    return metrics, both


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "trackside" / "cli.py").is_file():
        print(f"error: no trackside program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload, setup = set_up(args.workload, args.seed, workdir)
        except (workloads.JobFailed, OSError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  **environment(args.seed), "sizes": workload.sizes(), "setup_s": setup}
        if args.trace:
            metrics, loop = traced(workload, args.seconds / 2, workdir, record, stem)
        else:
            loop, runner = closed_loop(workload, args.seconds)
            metrics = end_to_end(setup, loop, runner)
            record.update(job_s=loop.samples, job_s_p90=p90(loop.samples))
        record["metrics"] = metrics
        record["failed"] = loop.failed
        record["fail_ratio"] = loop.failed / len(loop.samples)
        (WORK / "records" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        workloads.remove_dir(workdir)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.samples),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
