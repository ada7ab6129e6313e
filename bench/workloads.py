"""The three benchmark workloads: seeded inputs, jobs and output checks.

Each workload is one closed-loop client.  ``inputs(seed)`` is a pure
function of the seed that returns every generated file as bytes; the
program sees only those files and its command-line arguments.  A job runs
one or more ``trackside`` commands, each in a fresh process, and returns
the bytes it produced so that ``check`` can verify them outside the timed
region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Calibration lands here for every RSSI set that lies on the hm10-bt4 line;
# these are the values the repository's own acceptance suite pins.
CALIBRATION_EXPECTED = {
    "scan_window_ms": "1170",
    "bonnet_attenuation_db": "2.5",
    "band mismatch objective": "68",
    "cells off": "43 of 144",
}
RSSI_SAMPLES = 40
RSSI_REF_DBM = -70.0
EXPONENT_BT4 = 1.7883456975917413
SAMPLE_ATTENUATION_DB = {
    "cardboard_case": 1.17,
    "plastic_bag": 0.89,
    "plastic_case": 3.01,
    "water_litre": 5.42,
}

ROAD_VERTICES = 3000
ROAD_BENDS = 60
BEND_BLOCK = ROAD_VERTICES // ROAD_BENDS
PLAN_BUDGET = 150
RELIABILITY = 0.95
MATRIX_TRIALS = 200
MATRIX_CELLS = {"wheelarch": 63, "bonnet": 81}
M_PER_DEG_LAT = 111194.92664455873

FLEET = 40
BEACON_UNIVERSE = 440
REGISTERED_BEACONS = 400
PASSES_PER_TRIP = 260
HISTORY_TRIPS = 38
EPISODE_JOBS = 10
EPISODE_POOL = 4
RESENDS_PER_EPISODE = 2
RECEIVED_AT_BASE = 1_760_000_000


class JobFailed(Exception):
    """A command exited with an unexpected code."""


@dataclass
class JobResult:
    """Bytes a job produced, keyed by a stable name, plus exit codes."""

    outputs: dict[str, bytes] = field(default_factory=dict)
    codes: list[int] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\0" + self.outputs[name] + b"\0")
        h.update(repr(self.codes).encode())
        return h.hexdigest()


class Workload:
    """One closed-loop client.  Runs end on an episode boundary; ``reset``
    runs, untimed, before each episode."""

    name = ""
    episode = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: JobResult | None = None

    def prepare(self, runner) -> None:
        """Program work the first job needs, run during set-up."""

    def reset(self) -> None:
        """Restore per-episode state."""


def _run(runner, args, workdir, result: JobResult, stdout_name: str) -> None:
    code, stdout = runner.cli(args, workdir)
    result.codes.append(code)
    result.outputs[stdout_name] = stdout
    if code != 0:
        raise JobFailed(f"trackside {args[0]} exited {code}")


# ---------------------------------------------------------------------------
# calibrate: the exact rendezvous path under the calibration grid search


def calibrate_inputs(seed: int) -> dict[str, bytes]:
    """40 RSSI samples on the hm10-bt4 line, mixed obstructions."""
    rnd = random.Random(f"calibrate/{seed}")
    names = sorted(SAMPLE_ATTENUATION_DB)
    lines = ["distance_m,rssi_dbm,materials"]
    for _ in range(RSSI_SAMPLES):
        distance = round(rnd.uniform(1.0, 60.0), 3)
        materials = sorted(rnd.sample(names, rnd.randint(0, 2)))
        loss = sum(SAMPLE_ATTENUATION_DB[m] for m in materials)
        rssi = RSSI_REF_DBM - 10.0 * EXPONENT_BT4 * math.log10(distance) - loss
        lines.append(f"{distance!r},{rssi!r},{'+'.join(materials)}")
    return {"rssi.csv": ("\n".join(lines) + "\n").encode()}


def check_calibration_report(text: str) -> list[str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key] = value
    return [
        f"report {key} is {fields.get(key)!r}, expected {want!r}"
        for key, want in CALIBRATION_EXPECTED.items()
        if fields.get(key) != want
    ]


def check_guide_csv(text: str) -> list[str]:
    """Intervals never grow with speed, and an infeasible row ends the table."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["guide CSV has no rows"]
    problems = []
    last = math.inf
    infeasible = False
    for row in rows:
        if row["battery_days"] == "infeasible":
            infeasible = True
            continue
        interval = int(row["interval_ms"])
        if infeasible:
            problems.append(f"feasible row at {row['max_speed_mph']} mph after an infeasible one")
        if interval > last:
            problems.append(f"interval rises to {interval} ms at {row['max_speed_mph']} mph")
        last = interval
    return problems


class Calibrate(Workload):
    name = "calibrate"

    def inputs(self) -> dict[str, bytes]:
        return calibrate_inputs(self.seed)

    def sizes(self) -> dict:
        return {"rssi_samples": RSSI_SAMPLES, "calibration_cells": 144,
                "guide_reliability": RELIABILITY}

    def run_job(self, index: int, runner) -> JobResult:
        result = JobResult()
        _run(runner, ["calibrate", "--rssi", "rssi.csv", "--out", "preset.ini",
                      "--report", "report.txt"], self.workdir, result, "calibrate.stdout")
        _run(runner, ["guide", "--reliability", str(RELIABILITY), "--preset", "preset.ini",
                      "--out-csv", "guide.csv"], self.workdir, result, "guide.stdout")
        for name in ("report.txt", "preset.ini", "guide.csv"):
            result.outputs[name] = (self.workdir / name).read_bytes()
        return result

    def check(self, index: int, result: JobResult) -> list[str]:
        problems = check_calibration_report(result.outputs["report.txt"].decode())
        problems += check_guide_csv(result.outputs["guide.csv"].decode())
        return problems + _same_as_first(self, result)


def _same_as_first(workload, result: JobResult) -> list[str]:
    """Every job of a run repeats the same inputs, so outputs must repeat."""
    if workload.first is None:
        workload.first = result
        return []
    if result.digest() != workload.first.digest():
        return ["outputs differ from the run's first job"]
    return []


# ---------------------------------------------------------------------------
# deploy: road planning plus Monte Carlo drive-by matrices


def deploy_inputs(seed: int) -> dict[str, bytes]:
    """A winding ~60 km road: one short bend of random sharpness in each
    50-vertex block, straights between.  A fixed bend count and even bend
    steps keep the planner's work nearly the same for every seed."""
    rnd = random.Random(f"deploy/{seed}")
    lat, lon = 1.5 + rnd.uniform(-0.5, 0.5), 110.3 + rnd.uniform(-0.5, 0.5)
    heading = rnd.uniform(0.0, 2.0 * math.pi)
    turns: list[float] = []
    for _ in range(ROAD_BENDS):
        length = rnd.randint(4, 8)
        start = rnd.randint(2, BEND_BLOCK - length - 2)
        turn = rnd.choice((-1.0, 1.0)) * rnd.uniform(0.1, 0.3)
        turns += [0.0] * start + [turn] * length + [0.0] * (BEND_BLOCK - start - length)
    coords = [[round(lon, 7), round(lat, 7)]]
    for turn in turns[: ROAD_VERTICES - 1]:
        if turn:
            heading += turn
            step = 20.0
        else:
            heading += rnd.gauss(0.0, 0.01)
            step = rnd.uniform(15.0, 25.0)
        lat += step * math.cos(heading) / M_PER_DEG_LAT
        lon += step * math.sin(heading) / (M_PER_DEG_LAT * math.cos(math.radians(lat)))
        coords.append([round(lon, 7), round(lat, 7)])
    road = {
        "type": "Feature",
        "properties": {"surface_vmax_mph": 45},
        "geometry": {"type": "LineString", "coordinates": coords},
    }
    return {"road.geojson": (json.dumps(road) + "\n").encode()}


def check_plan(summary: str, geojson: bytes) -> list[str]:
    """At most the budget of sites, numbered and strictly ordered by arc."""
    arcs = []
    problems = []
    for line in summary.splitlines():
        if line.startswith("B-"):
            beacon, arc = line.split()[:2]
            if beacon != f"B-{len(arcs) + 1:02d}":
                problems.append(f"site {beacon} out of sequence")
            arcs.append(float(arc.removeprefix("arc=").removesuffix("m")))
    if not arcs:
        problems.append("plan has no sites")
    if len(arcs) > PLAN_BUDGET:
        problems.append(f"plan has {len(arcs)} sites, budget {PLAN_BUDGET}")
    if any(b <= a for a, b in zip(arcs, arcs[1:])):
        problems.append("sites are not ordered by arc")
    features = json.loads(geojson)["features"]
    if len(features) != len(arcs):
        problems.append(f"plan GeoJSON has {len(features)} sites, summary {len(arcs)}")
    return problems


def check_matrix(text: str, mount: str) -> list[str]:
    """Each cell's hit rate within the oracle-vs-analytic bound of its p."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != MATRIX_CELLS[mount]:
        problems.append(f"{mount} matrix has {len(rows)} cells, expected {MATRIX_CELLS[mount]}")
    for row in rows:
        trials = int(row["trials"])
        detections = int(row["detections"])
        p = float(row["expected_p"])
        cell = f"{mount} {row['speed_mph']} mph {row['interval_ms']} ms"
        if trials != MATRIX_TRIALS or not 0 <= detections <= trials:
            problems.append(f"{cell}: {detections}/{trials} trials")
            continue
        bound = 0.02 + 4.5 * math.sqrt(p * (1.0 - p) / trials)
        if abs(detections / trials - p) > bound:
            problems.append(f"{cell}: {detections}/{trials} against expected_p {p}")
    return problems


class Deploy(Workload):
    name = "deploy"

    def inputs(self) -> dict[str, bytes]:
        return deploy_inputs(self.seed)

    def sizes(self) -> dict:
        return {"road_vertices": ROAD_VERTICES, "budget": PLAN_BUDGET,
                "reliability": RELIABILITY, "matrix_trials": MATRIX_TRIALS,
                "matrix_cells": sum(MATRIX_CELLS.values())}

    def run_job(self, index: int, runner) -> JobResult:
        result = JobResult()
        _run(runner, ["plan", "--road", "road.geojson", "--budget", str(PLAN_BUDGET),
                      "--reliability", str(RELIABILITY), "--out", "plan.geojson",
                      "--summary", "plan.txt"], self.workdir, result, "plan.stdout")
        names = ["plan.geojson", "plan.txt"]
        for mount in MATRIX_CELLS:
            _run(runner, ["matrix", "--mount", mount, "--trials", str(MATRIX_TRIALS),
                          "--seed", str(self.seed), "--out-csv", f"matrix-{mount}.csv"],
                 self.workdir, result, f"matrix-{mount}.stdout")
            names.append(f"matrix-{mount}.csv")
        for name in names:
            result.outputs[name] = (self.workdir / name).read_bytes()
        return result

    def check(self, index: int, result: JobResult) -> list[str]:
        out = result.outputs
        problems = check_plan(out["plan.txt"].decode(), out["plan.geojson"])
        for mount in MATRIX_CELLS:
            problems += check_matrix(out[f"matrix-{mount}.csv"].decode(), mount)
        return problems + _same_as_first(self, result)


# ---------------------------------------------------------------------------
# ingest: receiver replay, gateway dumps and the detection store


@dataclass(frozen=True)
class Trip:
    """One vehicle trip: the receiver and its beacon passes.

    Every beacon is passed at most once per trip and a pass's sightings lie
    within seconds of each other, so each pass is exactly one record
    (beacon, floor(first sighting), sightings) after receiver dedup.
    """

    receiver: str
    passes: tuple[tuple[str, tuple[float, ...]], ...]
    gsm_up_s: float

    def records(self) -> set[tuple[str, int, int]]:
        return {(b, math.floor(ts[0]), len(ts)) for b, ts in self.passes}

    def sightings(self) -> int:
        return sum(len(ts) for _, ts in self.passes)

    def to_json(self) -> str:
        return json.dumps({"receiver": self.receiver, "gsm_up_s": self.gsm_up_s,
                           "passes": self.passes})


def _trip(rnd: random.Random, receiver: str, beacons: list[str]) -> Trip:
    t = round(rnd.uniform(0.0, 600.0), 1)
    passes = []
    for beacon in rnd.sample(beacons, PASSES_PER_TRIP):
        count = rnd.choices((1, 2, 3), weights=(6, 3, 1))[0]
        times = [t]
        for _ in range(count - 1):
            times.append(round(times[-1] + rnd.uniform(1.0, 20.0), 1))
        passes.append((beacon, tuple(times)))
        t = round(times[-1] + rnd.uniform(30.0, 120.0), 1)
    return Trip(receiver, tuple(passes), t)


@dataclass(frozen=True)
class IngestJob:
    """One position in an episode: a new trip, a re-sent dump, or an export."""

    kind: str  # "new", "resend" or "export"
    received_at: int = 0
    trip: Trip | None = None
    dump: str = ""  # dump file name, shared by a re-send and its original


def ingest_plan(seed: int):
    """Registry rows, history trips and the pool of job episodes."""
    rnd = random.Random(f"ingest/{seed}")
    beacons = [f"B-{n:04d}" for n in range(1, BEACON_UNIVERSE + 1)]
    registered = sorted(rnd.sample(beacons, REGISTERED_BEACONS))
    lat0, lon0 = 1.5 + rnd.uniform(-0.5, 0.5), 110.3 + rnd.uniform(-0.5, 0.5)
    registry = [
        (b, round(lat0 + rnd.uniform(-0.3, 0.3), 6), round(lon0 + rnd.uniform(-0.3, 0.3), 6),
         rnd.choice((700, 900, 1000, 1200, 1300, 1400)))
        for b in registered
    ]
    receivers = [f"RX{n:02d}" for n in range(1, FLEET + 1)]
    history = [_trip(rnd, receivers[i], beacons) for i in range(HISTORY_TRIPS)]
    episodes = []
    for e in range(EPISODE_POOL):
        resend_at = set(rnd.sample(range(2, EPISODE_JOBS - 1), RESENDS_PER_EPISODE))
        jobs: list[IngestJob] = []
        for p in range(EPISODE_JOBS):
            if p == EPISODE_JOBS - 1:
                jobs.append(IngestJob("export"))
            elif p in resend_at:
                original = rnd.choice([j for j in jobs if j.kind == "new"])
                jobs.append(IngestJob("resend", original.received_at, dump=original.dump))
            else:
                jobs.append(IngestJob(
                    "new",
                    RECEIVED_AT_BASE + 3600 * (e * EPISODE_JOBS + p + 1),
                    _trip(rnd, rnd.choice(receivers), beacons),
                    f"dump-{e}-{p}.txt",
                ))
        episodes.append(tuple(jobs))
    return registry, history, episodes


def ingest_files(registry, history, episodes) -> dict[str, bytes]:
    reg = ["beacon_id,lat,lon,interval_ms,preset"]
    reg += [f"{b},{lat!r},{lon!r},{interval},hm10-bt4" for b, lat, lon, interval in registry]
    trips = [t.to_json() for t in history]
    trips += [j.trip.to_json() for ep in episodes for j in ep if j.trip]
    return {
        "registry.csv": ("\n".join(reg) + "\n").encode(),
        "trips.ndjson": ("\n".join(trips) + "\n").encode(),
    }


def ingest_inputs(seed: int) -> dict[str, bytes]:
    return ingest_files(*ingest_plan(seed))


def replay(trip: Trip) -> list[str]:
    """Drive the receiver state machine through a trip; return the flushed
    segment texts (the receiver is long-lived firmware, so this runs in the
    benchmark's own process)."""
    from trackside import protocol

    state = protocol.ReceiverState(receiver_id=trip.receiver)
    segments: list[str] = []
    events = [protocol.Sighting(t, b) for b, ts in trip.passes for t in ts]
    events.append(protocol.GsmUp(trip.gsm_up_s))
    for event in events:
        step = protocol.receiver_step(state, event)
        if step.rejected:
            raise JobFailed(f"receiver rejected an event: {step.rejected}")
        state = step.state
        segments += [p.text for p in step.payloads]
    return segments


def read_store(data: bytes) -> list[dict]:
    # One json.loads over the whole store halves the check's cost.
    return json.loads(b"[" + b",".join(line for line in data.splitlines() if line.strip()) + b"]")


def _event_key(e: dict) -> tuple:
    return (e["receiver_id"], e["beacon_id"], e["count"], e["first_seen_s"], e["received_at"])


class Ingest(Workload):
    name = "ingest"
    episode = EPISODE_JOBS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.registry, self.history, self.episodes = ingest_plan(seed)
        self.located = {b: (lat, lon) for b, lat, lon, _ in self.registry}
        self.start_keys: set[tuple] = set()

    def inputs(self) -> dict[str, bytes]:
        return ingest_files(self.registry, self.history, self.episodes)

    def _trip_keys(self, trip: Trip, received_at: int) -> set[tuple]:
        return {(trip.receiver, b, c, f, received_at) for b, f, c in trip.records()}

    def prepare(self, runner) -> None:
        """Build the starting store: encode every history trip's records as
        its receiver would flush them and ingest them as one gateway dump."""
        from trackside import protocol

        lines = []
        for trip in self.history:
            records = [protocol.DetectionRecord(b, math.floor(ts[0]), len(ts))
                       for b, ts in trip.passes]
            lines += [p.text for p in protocol.encode_sms(trip.receiver, records)]
            self.start_keys |= self._trip_keys(trip, RECEIVED_AT_BASE)
        (self.workdir / "history.txt").write_text("\n".join(lines) + "\n")
        code, _ = runner.cli(["ingest", "--segments", "history.txt", "--registry",
                              "registry.csv", "--store", "start.ndjson",
                              "--received-at", str(RECEIVED_AT_BASE)], self.workdir)
        if code != 0:
            raise JobFailed(f"building the starting store exited {code}")
        problems = self._check_store((self.workdir / "start.ndjson").read_bytes(),
                                     self.start_keys)
        if problems:
            raise JobFailed("starting store: " + "; ".join(problems[:3]))

    def sizes(self) -> dict:
        jobs = [j for ep in self.episodes for j in ep]
        return {
            "start_store_events": len(self.start_keys),
            "registry_beacons": REGISTERED_BEACONS,
            "beacon_universe": BEACON_UNIVERSE,
            "sightings_per_trip": round(
                sum(j.trip.sightings() for j in jobs if j.trip)
                / sum(1 for j in jobs if j.trip), 1),
            "dumps_per_episode": sum(1 for j in jobs if j.kind != "export") // EPISODE_POOL,
            "resends_per_episode": RESENDS_PER_EPISODE,
            "jobs_per_episode": EPISODE_JOBS,
            "episode_pool": EPISODE_POOL,
        }

    def reset(self) -> None:
        """Start an episode from the starting store, so store size stays at
        the stated input size however many jobs a run completes."""
        shutil.copyfile(self.workdir / "start.ndjson", self.workdir / "store.ndjson")

    def _episode(self, index: int) -> tuple[IngestJob, ...]:
        return self.episodes[(index // EPISODE_JOBS) % EPISODE_POOL]

    def _job(self, index: int) -> IngestJob:
        return self._episode(index)[index % EPISODE_JOBS]

    def _expected(self, index: int) -> set[tuple]:
        """Events the store must hold after job ``index``: the starting
        store plus every new trip of the episode so far."""
        keys = set(self.start_keys)
        for job in self._episode(index)[: index % EPISODE_JOBS + 1]:
            if job.kind == "new":
                keys |= self._trip_keys(job.trip, job.received_at)
        return keys

    def run_job(self, index: int, runner) -> JobResult:
        job = self._job(index)
        result = JobResult()
        if job.kind == "export":
            _run(runner, ["export", "--store", "store.ndjson", "--out", "map.geojson"],
                 self.workdir, result, "export.stdout")
            result.outputs["map.geojson"] = (self.workdir / "map.geojson").read_bytes()
            return result
        if job.kind == "new":
            segments = replay(job.trip)
            (self.workdir / job.dump).write_text("\n".join(segments) + "\n")
        _run(runner, ["ingest", "--segments", job.dump, "--registry", "registry.csv",
                      "--store", "store.ndjson", "--received-at", str(job.received_at)],
             self.workdir, result, "ingest.stdout")
        return result

    def check(self, index: int, result: JobResult) -> list[str]:
        job = self._job(index)
        store = (self.workdir / "store.ndjson").read_bytes()
        result.outputs["store.ndjson"] = store
        expected = self._expected(index)
        problems = self._check_store(store, expected)
        quarantined = sum(1 for k in expected if k[1] not in self.located)
        if job.kind == "export":
            features = json.loads(result.outputs["map.geojson"])["features"]
            located = len(expected) - quarantined
            if len(features) != located:
                problems.append(f"export has {len(features)} features, {located} located events")
        else:
            new = len(job.trip.records()) if job.kind == "new" else 0
            want = f"store: {len(expected)} events ({quarantined} quarantined), {new} new"
            if want not in result.outputs["ingest.stdout"].decode():
                problems.append(f"ingest report lacks {want!r}")
        return problems

    def _check_store(self, data: bytes, expected: set[tuple]) -> list[str]:
        """The store holds exactly the expected events, each once; unknown
        beacons are quarantined and known ones carry registry coordinates."""
        events = read_store(data)
        keys = [_event_key(e) for e in events]
        problems = []
        if len(keys) != len(set(keys)):
            problems.append("store holds a duplicate event")
        missing, extra = expected - set(keys), set(keys) - expected
        if missing or extra:
            problems.append(f"store has {len(missing)} missing and {len(extra)} unexpected events")
        for e in events:
            where = self.located.get(e["beacon_id"])
            if e["quarantined"] != (where is None) or (
                where is not None and (e["lat"], e["lon"]) != where
            ):
                problems.append(f"event for {e['beacon_id']} is mis-resolved")
                break
        return problems


WORKLOADS = {w.name: w for w in (Calibrate, Deploy, Ingest)}


def write_inputs(workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in workload.inputs().items():
        (workdir / name).write_bytes(data)


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def clear_dir(path: Path) -> None:
    remove_dir(path)
    os.makedirs(path)
