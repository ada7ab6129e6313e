"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Criterion 4 is implemented exactly as stated and is expected to fail
with the best possible calibration: the 3-trial field matrices contain
cells with identical expected event counts but contradictory labels
(45 mph @ 1000 ms is marked always-detected while 30 mph @ 1500 ms is
marked 66%, both 4.07 expected events; likewise 40 mph @ 1000 ms versus
25 mph @ 1600 ms), so no single-duty probability model can land within
the stated 4-cell budget -- the minimum over the full calibration space
is 13 of 63 cells, all within one band.  The failure output prints the
per-cell analysis; the README discusses the limit.
"""

import io
import json
import math
import random
import time

import numpy as np
import pytest

from trackside.cli import main as cli_main
from trackside.pathloss import predict_rssi, detection_range
from trackside.power import published_guide
from trackside.presets import (
    CALIBRATED_SCAN_WINDOW_MS,
    Mount,
    path_loss_preset,
    scenario_for_mount,
)
from trackside.protocol import (
    DetectionRecord,
    GsmDown,
    GsmUp,
    ReceiverState,
    Sighting,
    Tick,
    decode_sms,
    encode_sms,
    receiver_step,
    validate_beacon_id,
)
from trackside import gsm7
from trackside.rendezvous import (
    AdvertiserConfig,
    ScannerConfig,
    detection_probability,
    detection_probability_independent,
    detection_probability_oracle,
)
from trackside.sim import CellLabel, calibrate, load_target_matrix

M_PER_DEG = math.pi * 6371000.0 / 180.0

PUBLISHED_GUIDE = [
    (5, 1400, 262.5),
    (10, 1300, 243.75),
    (15, 1300, 243.75),
    (20, 1200, 225.0),
    (25, 1200, 225.0),
    (30, 1000, 187.5),
    (35, 900, 168.75),
    (40, 700, 131.25),
    (45, 700, 131.25),
]


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_acceptance_1_battery_guide():
    start = time.perf_counter()
    rows = published_guide()
    got = [(r.max_speed_mph, r.interval_ms, r.battery_days) for r in rows]
    ok = len(got) == 9 and all(
        g[0] == w[0] and g[1] == w[1] and abs(g[2] - w[2]) <= 0.01
        for g, w in zip(got, PUBLISHED_GUIDE)
    )
    elapsed = time.perf_counter() - start
    line = report(1, "battery guide", ok and elapsed < 1.0,
                  f"9/9 rows, {elapsed:.3f}s")
    assert ok and elapsed < 1.0, line


def test_acceptance_2_rssi_anchors():
    start = time.perf_counter()
    hm10 = path_loss_preset("hm10-bt4")
    bt5 = path_loss_preset("otsb-bt5")
    at_ref = predict_rssi(hm10, 1.0)
    r_hm10 = detection_range(hm10, -95.0)
    r_bt5 = detection_range(bt5, -95.0)
    ok = at_ref == -70.0 and abs(r_hm10 - 25.0) <= 0.5 and abs(r_bt5 - 41.0) <= 0.5
    elapsed = time.perf_counter() - start
    line = report(2, "rssi anchors", ok and elapsed < 1.0,
                  f"1m={at_ref}dBm, ranges {r_hm10:.2f}m/{r_bt5:.2f}m, {elapsed:.3f}s")
    assert ok and elapsed < 1.0, line


def test_acceptance_3_rendezvous_oracle_agreement():
    start = time.perf_counter()
    rnd = random.Random(8472)
    worst = 0.0
    worst_cfg = None
    for i in range(100):
        adv = AdvertiserConfig(
            interval_ms=rnd.uniform(150, 2200),
            event_duration_ms=rnd.uniform(1, 10),
        )
        cycle = rnd.uniform(900, 4000)
        scan = ScannerConfig(scan_window_ms=rnd.uniform(10, cycle), scan_cycle_ms=cycle)
        t_in = rnd.uniform(0.0, 5.0)
        analytic = detection_probability(adv, scan, t_in)
        mc = detection_probability_oracle(adv, scan, t_in, trials=100_000, seed=3000 + i)
        diff = abs(analytic - mc)
        if diff > worst:
            worst, worst_cfg = diff, (adv.interval_ms, scan.scan_window_ms, cycle, t_in)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 120.0
    line = report(3, "rendezvous analytic vs oracle", ok,
                  f"worst |diff|={worst:.4f} at {worst_cfg}, {elapsed:.1f}s")
    assert ok, line


def _band_position(p: float) -> float:
    """Coarse position: 0=N window, 1=percent window, 2=Y window; the
    uncovered (0.9, 0.95) gap sits halfway between percent and Y."""
    if p < 0.1:
        return 0.0
    if p <= 0.9:
        return 1.0
    if p < 0.95:
        return 1.5
    return 2.0


def test_acceptance_4_matrix_band_reproduction():
    start = time.perf_counter()
    result = calibrate()
    scanner = ScannerConfig(scan_window_ms=result.scan_window_ms)
    scenario = scenario_for_mount(Mount.WHEEL_ARCH, scanner=scanner)
    target = load_target_matrix(Mount.WHEEL_ARCH)

    target_pos = {CellLabel.Y: 2.0, CellLabel.P66: 1.0, CellLabel.P33: 1.0, CellLabel.N: 0.0}
    misses = []
    hard_misses = []
    for speed in target.speeds_mph:
        for interval in target.intervals_ms:
            p = scenario.pass_probability(speed, interval)
            label = target.label(speed, interval)
            in_window = {
                CellLabel.Y: p >= 0.95,
                CellLabel.P66: 0.1 <= p <= 0.9,
                CellLabel.P33: 0.1 <= p <= 0.9,
                CellLabel.N: p < 0.1,
            }[label]
            if not in_window:
                off = abs(target_pos[label] - _band_position(p))
                misses.append((speed, interval, label.value, round(p, 3), off))
                if label is CellLabel.Y and interval <= 1000:
                    hard_misses.append((speed, interval, round(p, 3)))

    for m in misses:
        print(f"  cell off: {m[0]:g} mph {m[1]} ms target {m[2]} got {m[3]} (bands off {m[4]})")
    one_band = all(m[4] <= 1.0 for m in misses)
    ok = not hard_misses and one_band and len(misses) <= 4
    elapsed = time.perf_counter() - start
    line = report(
        4, "field matrix band reproduction", ok and elapsed < 300,
        f"{len(misses)} of 63 cells off (allowed 4), "
        f"{len(hard_misses)} always-detected cells at <=1000 ms below 0.95, "
        f"calibrated window {result.scan_window_ms:g} ms, {elapsed:.1f}s",
    )
    assert ok and elapsed < 300, line


def test_acceptance_5_bonnet_shift():
    start = time.perf_counter()
    result = calibrate()
    scanner = ScannerConfig(scan_window_ms=result.scan_window_ms)
    grid = range(100, 1601, 100)

    def boundary(mount, speed):
        scenario = scenario_for_mount(mount, scanner=scanner)
        best = 0
        for interval in grid:
            if scenario.pass_probability(speed, interval) >= 0.95:
                best = interval
        return best

    shifts = {}
    for speed in (25.0, 30.0, 35.0, 40.0, 45.0):
        wheel = boundary(Mount.WHEEL_ARCH, speed)
        bonnet = boundary(Mount.BONNET, speed)
        shifts[speed] = wheel - bonnet
        print(f"  {speed:g} mph: wheel-arch {wheel} ms -> bonnet {bonnet} ms "
              f"(shift {wheel - bonnet} ms)")
    ok = all(300 <= s <= 500 for s in shifts.values())
    elapsed = time.perf_counter() - start
    line = report(
        5, "bonnet concealment shift", ok and elapsed < 300,
        f"shifts {sorted(shifts.values())} ms vs 400 +/- 100, "
        f"attenuation {result.bonnet_attenuation_db:g} dB, {elapsed:.1f}s",
    )
    assert ok and elapsed < 300, line


def test_acceptance_6_exponential_decay():
    scanner = ScannerConfig(scan_window_ms=CALIBRATED_SCAN_WINDOW_MS)
    scenario = scenario_for_mount(Mount.WHEEL_ARCH, scanner=scanner)
    t_in = scenario.in_range_time_s(45.0)
    intervals = list(range(200, 1601, 100))

    xs, ys = [], []
    for interval in intervals:
        adv = AdvertiserConfig(interval_ms=float(interval))
        p = detection_probability_independent(adv, scanner, t_in)
        xs.append(1.0 / interval)
        ys.append(math.log(1.0 - p))
    r = np.corrcoef(xs, ys)[0, 1]
    r2 = r * r

    # The exact phase model saturates to P=1 at short intervals; report its
    # fit over the sub-saturation range for reference.
    exact_pts = [
        (1.0 / i, math.log(1.0 - detection_probability(
            AdvertiserConfig(interval_ms=float(i)), scanner, t_in)))
        for i in intervals
        if detection_probability(AdvertiserConfig(interval_ms=float(i)), scanner, t_in) < 1.0
    ]
    r2_exact = float("nan")
    if len(exact_pts) >= 3:
        ex, ey = zip(*exact_pts)
        r2_exact = float(np.corrcoef(ex, ey)[0, 1] ** 2)

    ok = r2 >= 0.99
    line = report(
        6, "exponential decay in interval", ok,
        f"R^2={r2:.5f} over 200-1600 ms (phase-exact model over its "
        f"sub-saturation range: R^2={r2_exact:.3f})",
    )
    assert ok, line


def test_acceptance_7_codec_roundtrips():
    start = time.perf_counter()
    rnd = random.Random(1234)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
    failures = 0
    for case in range(10_000):
        receiver = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 8)))
        records = [
            DetectionRecord(
                "".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 12))),
                rnd.randint(0, 10**7),
                rnd.randint(1, 10**6),
            )
            for _ in range(rnd.randint(1, 30))
        ]
        payloads = encode_sms(receiver, records)
        for payload in payloads:
            assert gsm7.septet_length(payload.text) <= 160
            assert all(
                c in gsm7.BASIC_CHARS or c in gsm7.EXTENDED_CHARS for c in payload.text
            )
        texts = [p.text for p in payloads]
        rnd.shuffle(texts)
        texts.append(texts[0])  # duplicate segment must be idempotent
        decoded = decode_sms(texts)
        if not (
            decoded.complete
            and decoded.receiver_id == receiver
            and list(decoded.records) == records
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    line = report(7, "codec roundtrips", ok,
                  f"10000 randomized roundtrips, {failures} failures, "
                  f"out-of-order + duplicate reassembly exercised, {elapsed:.1f}s")
    assert ok, line


def test_acceptance_8_receiver_replay_equivalence():
    start = time.perf_counter()
    rnd = random.Random(777)
    beacons = ["B-01", "B-02", "B-03", "B-04", "B-05", "bad!"]
    bad_cases = 0
    for case in range(1000):
        dedup = rnd.choice([15.0, 60.0, 300.0])
        events = []
        t = 0.0
        for _ in range(rnd.randrange(1, 60)):
            if rnd.random() < 0.08:
                t_event = max(0.0, t - rnd.uniform(0.0, 20.0))
            else:
                t += rnd.uniform(0.0, 40.0)
                t_event = t
            roll = rnd.random()
            if roll < 0.7:
                events.append(Sighting(t_event, rnd.choice(beacons)))
            elif roll < 0.8:
                events.append(GsmUp(t_event))
            elif roll < 0.9:
                events.append(GsmDown(t_event))
            else:
                events.append(Tick(t_event))

        # drive the real machine
        state = ReceiverState(dedup_window_s=dedup)
        emitted = []
        for event in events:
            result = receiver_step(state, event)
            state = result.state
            for payload in result.payloads:
                emitted.extend(payload.records)

        # independent replay
        want_emitted, buffer = [], []
        last, gsm, clock = {}, False, 0.0
        accepted = 0
        for event in events:
            if isinstance(event, Sighting):
                try:
                    validate_beacon_id(event.beacon_id)
                except ValueError:
                    continue
            if event.t_s < clock:
                continue
            clock = event.t_s
            if isinstance(event, Sighting):
                accepted += 1
                prev = last.get(event.beacon_id)
                if prev is not None and event.t_s - prev <= dedup:
                    for idx in range(len(buffer) - 1, -1, -1):
                        if buffer[idx][0] == event.beacon_id:
                            b = buffer[idx]
                            buffer[idx] = (b[0], b[1], b[2] + 1)
                            break
                else:
                    buffer.append((event.beacon_id, int(math.floor(event.t_s)), 1))
                last[event.beacon_id] = event.t_s
            elif isinstance(event, GsmUp):
                gsm = True
            elif isinstance(event, GsmDown):
                gsm = False
            if gsm and buffer:
                want_emitted.extend(buffer)
                buffer, last = [], {}

        got_emitted = [(r.beacon_id, r.first_seen_s, r.count) for r in emitted]
        got_buffer = [(r.beacon_id, r.first_seen_s, r.count) for r in state.buffer]
        conserved = sum(c for _, _, c in got_emitted + got_buffer) == accepted
        if not (got_emitted == want_emitted and got_buffer == buffer and conserved):
            bad_cases += 1
    elapsed = time.perf_counter() - start
    ok = bad_cases == 0
    line = report(8, "receiver replay equivalence", ok,
                  f"1000 randomized event sequences, {bad_cases} divergences, {elapsed:.1f}s")
    assert ok, line


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_acceptance_9_determinism(tmp_path):
    start = time.perf_counter()
    road = tmp_path / "road.geojson"
    road.write_text(json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 45},
        "geometry": {
            "type": "LineString",
            "coordinates": [[i * 100.0 / M_PER_DEG, 0.0] for i in range(11)],
        },
    }))
    registry = tmp_path / "registry.csv"
    registry.write_text("beacon_id,lat,lon,interval_ms,preset\nB-01,5.41,118.03,700,hm10-bt4\n")
    rssi = tmp_path / "rssi.csv"
    rssi.write_text("distance_m,rssi_dbm,materials\n1,-70,\n25,-95,\n")
    code, segments_text = _run_cli(["encode", "--receiver", "RX1", "B-01:2:10"])
    assert code == 0
    segments = tmp_path / "segments.txt"
    segments.write_text(segments_text)

    def run_all():
        """Identical configs every time: same arguments, same output paths."""
        outputs = {}
        matrix_csv = tmp_path / "matrix.csv"
        code, text = _run_cli([
            "matrix", "--speeds", "20,35,45", "--intervals", "900,1200,1500",
            "--seed", "99", "--out-csv", str(matrix_csv)])
        assert code == 0
        outputs["matrix"] = matrix_csv.read_bytes()
        plan_out = tmp_path / "plan.geojson"
        code, text = _run_cli(["plan", "--road", str(road), "--budget", "2",
                               "--out", str(plan_out)])
        assert code == 0
        outputs["plan"] = plan_out.read_bytes() + text.encode()
        guide_csv = tmp_path / "guide.csv"
        code, _ = _run_cli(["guide", "--out-csv", str(guide_csv)])
        assert code == 0
        outputs["guide"] = guide_csv.read_bytes()
        preset = tmp_path / "preset.ini"
        report_txt = tmp_path / "report.txt"
        code, _ = _run_cli(["calibrate", "--rssi", str(rssi), "--out", str(preset),
                            "--report", str(report_txt)])
        assert code == 0
        outputs["calibrate"] = preset.read_bytes() + report_txt.read_bytes()
        store = tmp_path / "store.ndjson"
        geo = tmp_path / "geo.geojson"
        store.unlink(missing_ok=True)  # rerun from the same initial state
        code, text = _run_cli([
            "ingest", "--segments", str(segments), "--registry", str(registry),
            "--store", str(store), "--received-at", "1754650000",
            "--geojson", str(geo)])
        assert code == 0
        outputs["ingest"] = store.read_bytes() + geo.read_bytes() + text.encode()
        return outputs

    first = run_all()
    second = run_all()
    same = {k: first[k] == second[k] for k in first}
    elapsed = time.perf_counter() - start
    ok = all(same.values())
    line = report(9, "byte-identical reruns", ok,
                  f"commands {sorted(same)} all identical={ok}, {elapsed:.1f}s")
    assert ok, line
