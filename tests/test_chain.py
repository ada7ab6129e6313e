"""The whole chain on one seeded road: plan -> drive -> receiver -> SMS ->
ingest -> map.

Each layer has its own tests in its own units; this one carries numbers
through all of them, so that a slip between layers (mph against m/s, ms
against s in the in-range time, a record lost between the receiver and
the store) shows.  A small winding road is planned at a reliability
target, its sites become the beacon registry, and a vehicle drives it
``TRAVERSES`` times at each site's local speed.  Whether a pass is heard
is one trial of the phase model's Monte Carlo oracle, seeded by
(seed, site, traverse); a heard pass emits sightings inside the site's
in-range window.  The receiver flushes whenever GSM comes up, every few
traverses, and each flush is ingested as its own gateway dump, with its
own receipt time: the wire format cannot tell apart two same-sized
payloads from one receiver in one dump.
"""

import hashlib
import io
import math
import random

import pytest

from trackside.cli import main
from trackside.presets import scenario_for_mount
from trackside.protocol import (
    DEFAULT_DEDUP_WINDOW_S,
    DetectionStore,
    GsmDown,
    GsmUp,
    ReceiverState,
    Sighting,
    receiver_step,
)
from trackside.rendezvous import AdvertiserConfig, detection_probability_oracle, mph_to_ms
from trackside.roadplan import Road, plan_deployment

M_PER_DEG = math.pi * 6371000.0 / 180.0
SEED = 2019
TRAVERSES = 40
FLUSH_EVERY = 4  # traverses between GSM coverage
# Traverses start this far apart, so that no sighting of one pass dedups
# into the record of the last.
TRAVERSE_SPACING_S = 2 * DEFAULT_DEDUP_WINDOW_S + 60.0
RECEIVED_AT = 1754650000
# Two-sided share of outcomes a band leaves out.
ALPHA = 1e-3

# sha256 of the seeded chain's `export`.
CHAIN_EXPORT_SHA256 = "c899e9013dace92c48e9e8489dfec78ea3656a72e49f70ed5274c2a9974a2df0"


def seeded_road(seed: int) -> Road:
    """1.2 km of 20 m steps near the equator, bending at random on a
    third of the steps."""
    rng = random.Random(seed)
    lat, lon, heading = 0.5, 110.0, 0.0
    points = [(lat, lon)]
    for _ in range(60):
        if rng.random() < 1 / 3:
            heading += rng.uniform(-0.4, 0.4)
        lat += 20.0 * math.cos(heading) / M_PER_DEG
        lon += 20.0 * math.sin(heading) / M_PER_DEG
        points.append((lat, lon))
    return Road(tuple(points), surface_vmax_mph=45.0)


def heard_count_pmf(probabilities) -> list[float]:
    """P(k passes heard), k = 0 .. len(probabilities), for independent
    passes each heard with its own probability."""
    pmf = [1.0]
    for p in probabilities:
        pmf = [a * (1 - p) + b * p for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return pmf


def central_band(pmf: list[float], alpha: float = ALPHA) -> tuple[int, int]:
    """(lo, hi) with at most alpha/2 of the probability below lo and at
    most alpha/2 above hi."""
    below, lo = 0.0, 0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    above, hi = 0.0, len(pmf) - 1
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def drive(plan, scenario):
    """Replay ``TRAVERSES`` seeded drives through the receiver.  Returns
    (the gateway dumps, one per flush, as segment texts; the sightings
    emitted per beacon; the passes heard per beacon)."""
    rng = random.Random(SEED)
    state = ReceiverState("RX1")
    dumps, sightings, heard = [], {}, {}
    for traverse in range(TRAVERSES):
        start = traverse * TRAVERSE_SPACING_S
        events = []
        for index, site in enumerate(plan.sites):
            t_in = scenario.in_range_time_s(site.local_vmax_mph)
            hit = detection_probability_oracle(
                AdvertiserConfig(site.interval_ms), scenario.scanner, t_in,
                trials=1, seed=(SEED, index, traverse),
            )
            if hit < 0.5:
                continue
            heard[site.beacon_id] = heard.get(site.beacon_id, 0) + 1
            # The vehicle reaches the site's centre at the road's cap speed;
            # every sighting falls inside the in-range window around it.
            centre = start + 10.0 + site.arc_m / mph_to_ms(plan.road.surface_vmax_mph)
            for _ in range(1 + rng.randrange(3)):
                events.append(Sighting(centre + t_in * (rng.random() - 0.5), site.beacon_id))
                sightings[site.beacon_id] = sightings.get(site.beacon_id, 0) + 1
        if traverse % FLUSH_EVERY == FLUSH_EVERY - 1:
            up = start + TRAVERSE_SPACING_S / 2
            events += [GsmUp(up), GsmDown(up + 1.0)]
        for event in sorted(events, key=lambda e: e.t_s):
            step = receiver_step(state, event)
            assert step.rejected is None
            state = step.state
            if step.payloads:
                dumps.append("".join(p.text + "\n" for p in step.payloads))
    assert state.buffer == ()
    return dumps, sightings, heard


def run(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    work = tmp_path_factory.mktemp("chain")
    scenario = scenario_for_mount()
    plan = plan_deployment(seeded_road(SEED), 4, scenario, reliability_target=0.95)
    registry = work / "registry.csv"
    registry.write_text("beacon_id,lat,lon\n" + "".join(
        f"{site.beacon_id},{site.position[0]!r},{site.position[1]!r}\n" for site in plan.sites
    ))
    dumps, sightings, heard = drive(plan, scenario)
    store = work / "store.ndjson"
    reports = []
    for k, dump in enumerate(dumps):
        segments = work / f"dump-{k}.txt"
        segments.write_text(dump)
        code, report = run(["ingest", "--segments", str(segments), "--registry", str(registry),
                            "--store", str(store), "--received-at", str(RECEIVED_AT + k)])
        assert code == 0
        reports.append(report)
    return plan, work, dumps, sightings, heard, reports


def test_plan_meets_its_target(chain):
    plan = chain[0]
    assert len(plan.sites) >= 3
    assert len({site.interval_ms for site in plan.sites}) >= 2
    assert all(site.detection_probability >= 0.95 for site in plan.sites)


def test_each_beacon_is_heard_as_its_probability_says(chain):
    plan, work, _, _, heard, _ = chain
    store = DetectionStore.load(work / "store.ndjson")
    for site in plan.sites:
        records = sum(event.beacon_id == site.beacon_id for event in store.events)
        # One record per heard pass: traverses lie beyond the dedup window.
        assert records == heard.get(site.beacon_id, 0)
        lo, hi = central_band(heard_count_pmf([site.detection_probability] * TRAVERSES))
        assert lo <= records <= hi, (site.beacon_id, records, lo, hi)


def test_records_per_traverse_match_the_plan(chain):
    plan, work, _, _, _, _ = chain
    store = DetectionStore.load(work / "store.ndjson")
    lo, hi = central_band(heard_count_pmf(
        [site.detection_probability for site in plan.sites] * TRAVERSES
    ))
    assert lo <= len(store.events) <= hi
    mean = len(store.events) / TRAVERSES
    spread = math.sqrt(sum(s.detection_probability * (1 - s.detection_probability)
                           for s in plan.sites) / TRAVERSES)
    assert mean == pytest.approx(plan.expected_detections_per_traverse, abs=4 * spread + 1e-9)


def test_sightings_are_conserved_from_receiver_to_store(chain):
    plan, work, dumps, sightings, _, reports = chain
    store = DetectionStore.load(work / "store.ndjson")
    assert len(dumps) == TRAVERSES // FLUSH_EVERY
    assert store.quarantined() == [] and store.torn == b""
    for site in plan.sites:
        counted = sum(e.count for e in store.events if e.beacon_id == site.beacon_id)
        assert counted == sightings.get(site.beacon_id, 0)
    records = sum(text.count(":") // 2 for text in dumps)
    assert records == len(store.events)
    assert sum(int(r.splitlines()[-1].rsplit(", ", 1)[1].split()[0]) for r in reports) == records


def test_a_dump_ingested_again_adds_nothing(chain):
    _, work, dumps, _, _, _ = chain
    store = work / "store.ndjson"
    before = store.read_bytes()
    code, report = run(["ingest", "--segments", str(work / "dump-0.txt"),
                        "--registry", str(work / "registry.csv"),
                        "--store", str(store), "--received-at", str(RECEIVED_AT)])
    assert code == 0 and report.splitlines()[-1].endswith(", 0 new")
    assert store.read_bytes() == before


def test_seeded_chain_map_pinned(chain):
    _, work, _, _, _, _ = chain
    geo = work / "map.geojson"
    assert run(["export", "--store", str(work / "store.ndjson"), "--out", str(geo)]) == (0, "")
    assert hashlib.sha256(geo.read_bytes()).hexdigest() == CHAIN_EXPORT_SHA256
