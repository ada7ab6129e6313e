import dataclasses
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackside import gsm7
from trackside.protocol import (
    MAX_SEGMENTS,
    DecodeResult,
    DetectionEvent,
    DetectionRecord,
    DetectionStore,
    GsmDown,
    GsmUp,
    ReceiverState,
    RegistryEntry,
    Sighting,
    Tick,
    WireFormatError,
    decode_sms,
    encode_sms,
    format_ranges,
    group_segments,
    load_registry,
    merge_detections,
    parse_record_token,
    receiver_step,
    record_token,
    store_to_geojson,
    validate_beacon_id,
    validate_receiver_id,
)

beacon_ids = st.from_regex(r"[A-Z0-9-]{1,12}", fullmatch=True)
receiver_ids = st.from_regex(r"[A-Z0-9-]{1,8}", fullmatch=True)
records_strategy = st.lists(
    st.builds(
        DetectionRecord,
        beacon_id=beacon_ids,
        first_seen_s=st.integers(0, 10**7),
        count=st.integers(1, 10**6),
    ),
    min_size=1,
    max_size=50,
)


class TestGsm7:
    def test_basic_costs_one(self):
        assert gsm7.septet_length("T1 RX-01:2;/") == len("T1 RX-01:2;/")

    def test_pipe_is_extended(self):
        assert gsm7.septet_length("|") == 2
        assert gsm7.septet_length("a|b") == 4

    def test_unencodable_rejected(self):
        with pytest.raises(ValueError):
            gsm7.septet_length("中")

    def test_extended_recognised(self):
        assert gsm7.septet_length("{}[]|~^\\€") == 18


class TestValidation:
    def test_beacon_id_charset(self):
        assert validate_beacon_id("B-01") == "B-01"
        for bad in ("", "b-01", "B_01", "B" * 13, "B 1", "B-01\n"):
            with pytest.raises(ValueError):
                validate_beacon_id(bad)
        with pytest.raises(ValueError):
            validate_receiver_id("RX1\n")

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            DetectionRecord("B-01", -1, 1)
        with pytest.raises(ValueError):
            DetectionRecord("B-01", 0, 0)


class TestReceiverStep:
    def test_first_sighting_buffers(self):
        state = ReceiverState()
        result = receiver_step(state, Sighting(10.0, "B-01"))
        assert result.state.buffer == (DetectionRecord("B-01", 10, 1),)
        assert result.payloads == ()
        assert not result.state.gsm_available

    def test_repeat_within_window_dedups(self):
        state = ReceiverState()
        state = receiver_step(state, Sighting(10.0, "B-01")).state
        state = receiver_step(state, Sighting(12.0, "B-01")).state
        assert state.buffer == (DetectionRecord("B-01", 10, 2),)

    def test_repeat_after_window_opens_new_record(self):
        state = ReceiverState(dedup_window_s=30.0)
        state = receiver_step(state, Sighting(10.0, "B-01")).state
        state = receiver_step(state, Sighting(100.0, "B-01")).state
        assert state.buffer == (
            DetectionRecord("B-01", 10, 1),
            DetectionRecord("B-01", 100, 1),
        )

    def test_gsm_up_with_empty_buffer_sends_nothing(self):
        result = receiver_step(ReceiverState(), GsmUp(5.0))
        assert result.payloads == ()
        assert result.state.gsm_available

    def test_gsm_up_flushes_buffer(self):
        state = ReceiverState()
        state = receiver_step(state, Sighting(10.0, "B-01")).state
        state = receiver_step(state, Sighting(20.0, "B-02")).state
        result = receiver_step(state, GsmUp(30.0))
        assert len(result.payloads) == 1
        assert result.payloads[0].records == (
            DetectionRecord("B-01", 10, 1),
            DetectionRecord("B-02", 20, 1),
        )
        assert result.state.buffer == ()
        assert result.state.gsm_available

    def test_sighting_while_connected_flushes_immediately(self):
        state = receiver_step(ReceiverState(), GsmUp(1.0)).state
        result = receiver_step(state, Sighting(2.0, "B-09"))
        assert len(result.payloads) == 1
        assert result.state.buffer == ()

    def test_gsm_down_returns_to_scanning(self):
        state = receiver_step(ReceiverState(), GsmUp(1.0)).state
        state = receiver_step(state, GsmDown(2.0)).state
        assert not state.gsm_available

    def test_out_of_order_event_rejected(self):
        state = receiver_step(ReceiverState(), Tick(100.0)).state
        result = receiver_step(state, Sighting(50.0, "B-01"))
        assert result.rejected is not None
        assert result.state == state

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("event", [lambda t: Sighting(t, "B-01"), Tick, GsmUp, GsmDown],
                             ids=["sighting", "tick", "gsm-up", "gsm-down"])
    def test_non_finite_time_rejected(self, event, t):
        # A NaN clock would accept every later event, even one back in time.
        state = receiver_step(ReceiverState(), Sighting(10.0, "B-01")).state
        result = receiver_step(state, event(t))
        assert result.rejected == f"event at t={t} is not a finite time"
        assert result.state == state
        assert result.payloads == ()

    def test_invalid_beacon_id_rejected(self):
        result = receiver_step(ReceiverState(), Sighting(1.0, "bad id"))
        assert result.rejected is not None
        assert result.state.buffer == ()

    def test_buffer_sorted_by_first_seen(self):
        state = ReceiverState()
        for t, beacon in ((5.0, "B-03"), (9.0, "B-01"), (14.0, "B-02")):
            state = receiver_step(state, Sighting(t, beacon)).state
        seen = [r.first_seen_s for r in state.buffer]
        assert seen == sorted(seen)


def naive_replay(events, dedup_window_s):
    """Reference dedup bookkeeping, written flat for comparison."""
    emitted, buffer = [], []
    last, gsm, clock = {}, False, 0.0
    accepted_sightings = 0
    for event in events:
        if isinstance(event, Sighting):
            try:
                validate_beacon_id(event.beacon_id)
            except ValueError:
                continue  # rejected events leave all state, clock included
        if event.t_s < clock:
            continue
        clock = event.t_s
        if isinstance(event, Sighting):
            accepted_sightings += 1
            prev = last.get(event.beacon_id)
            if prev is not None and event.t_s - prev <= dedup_window_s:
                for idx in range(len(buffer) - 1, -1, -1):
                    if buffer[idx][0] == event.beacon_id:
                        beacon, first_seen, count = buffer[idx]
                        buffer[idx] = (beacon, first_seen, count + 1)
                        break
            else:
                buffer.append((event.beacon_id, int(math.floor(event.t_s)), 1))
            last[event.beacon_id] = event.t_s
        elif isinstance(event, GsmUp):
            gsm = True
        elif isinstance(event, GsmDown):
            gsm = False
        if gsm and buffer:
            emitted.extend(buffer)
            buffer, last = [], {}
    return emitted, buffer, accepted_sightings


def random_events(rnd, n):
    events = []
    t = 0.0
    beacons = ["B-01", "B-02", "B-03", "B-04", "bad!"]
    for _ in range(n):
        if rnd.random() < 0.08:
            t_event = max(0.0, t - rnd.uniform(0.0, 20.0))  # may be rejected
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
    return events


class TestReplayOracle:
    def test_no_lost_detections_over_random_sequences(self):
        rnd = random.Random(99)
        for case in range(60):
            dedup = rnd.choice([15.0, 60.0, 300.0])
            events = random_events(rnd, rnd.randrange(1, 80))
            state = ReceiverState(dedup_window_s=dedup)
            emitted_records = []
            for event in events:
                result = receiver_step(state, event)
                state = result.state
                for payload in result.payloads:
                    decoded = decode_sms([payload.text])
                    assert decoded.complete or payload.segment_total > 1
                for payload in result.payloads:
                    emitted_records.extend(payload.records)
            want_emitted, want_buffer, accepted = naive_replay(events, dedup)
            got_emitted = [(r.beacon_id, r.first_seen_s, r.count) for r in emitted_records]
            got_buffer = [(r.beacon_id, r.first_seen_s, r.count) for r in state.buffer]
            assert got_emitted == want_emitted, f"case {case}"
            assert got_buffer == want_buffer, f"case {case}"
            # conservation: every accepted sighting is counted exactly once
            assert sum(c for _, _, c in got_emitted + got_buffer) == accepted


class TestCodec:
    def test_single_record_wire_example(self):
        payloads = encode_sms("RX1", [DetectionRecord("B-01", 10, 1)])
        assert len(payloads) == 1
        assert payloads[0].text == "T1|RX1|1/1|B-01:1:10"
        decoded = decode_sms([payloads[0].text])
        assert decoded.records == (DetectionRecord("B-01", 10, 1),)
        assert decoded.receiver_id == "RX1"

    @given(receiver_ids, records_strategy)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, receiver_id, records):
        payloads = encode_sms(receiver_id, records)
        for payload in payloads:
            assert gsm7.septet_length(payload.text) <= gsm7.SEGMENT_SEPTETS
            for ch in payload.text:
                assert ch in gsm7.BASIC_CHARS or ch in gsm7.EXTENDED_CHARS
        decoded = decode_sms([p.text for p in payloads])
        assert decoded.complete
        assert decoded.receiver_id == receiver_id
        assert list(decoded.records) == records

    def test_wide_records_split_segments(self):
        records = [
            DetectionRecord("B" * 12, 10**7 + i, 10**6) for i in range(40)
        ]
        payloads = encode_sms("RX-WIDE", records)
        assert payloads[0].segment_total > 1
        for payload in payloads:
            assert gsm7.septet_length(payload.text) <= 160
        decoded = decode_sms([p.text for p in payloads])
        assert list(decoded.records) == records

    def test_out_of_order_reassembly(self):
        records = [DetectionRecord(f"B-{i:02d}", i * 7, 1) for i in range(40)]
        payloads = encode_sms("RX2", records)
        assert len(payloads) >= 2
        texts = [p.text for p in payloads]
        assert decode_sms(list(reversed(texts))) == decode_sms(texts)

    def test_duplicate_segments_idempotent(self):
        payloads = encode_sms("RX1", [DetectionRecord("B-01", 10, 1)])
        texts = [p.text for p in payloads]
        assert decode_sms(texts + texts) == decode_sms(texts)

    def test_missing_segment_partial(self):
        records = [DetectionRecord(f"B-{i:02d}", i, 1) for i in range(40)]
        payloads = encode_sms("RX1", records)
        assert payloads[0].segment_total >= 2
        decoded = decode_sms([payloads[0].text])
        assert not decoded.complete
        assert decoded.missing_segments == tuple(
            range(2, payloads[0].segment_total + 1)
        )
        assert list(decoded.records) == list(payloads[0].records)

    def test_malformed_record_skipped_with_diagnostic(self):
        decoded = decode_sms(["T1|RX1|1/1|B-01:1:10;garbage;B-02:2:20"])
        assert [r.beacon_id for r in decoded.records] == ["B-01", "B-02"]
        assert decoded.diagnostics

    def test_mixed_payloads_rejected(self):
        a = encode_sms("RX1", [DetectionRecord("B-01", 10, 1)])[0].text
        b = encode_sms("RX2", [DetectionRecord("B-02", 11, 1)])[0].text
        with pytest.raises(WireFormatError):
            decode_sms([a, b])

    def test_bad_version_rejected(self):
        with pytest.raises(WireFormatError):
            decode_sms(["T9|RX1|1/1|B-01:1:10"])

    def test_record_token_roundtrip(self):
        record = DetectionRecord("B-01", 10, 2)
        assert record_token(record) == "B-01:2:10"
        assert parse_record_token("B-01:2:10") == record

    @pytest.mark.parametrize("token", [
        "B-01:+1:10", "B-01:1:1_0", "B-01: 2:10", "B-01:2 :10", "B-01:\u0663:10",
        "B-01:2:\uff11", "B-01:-2:10", "B-01:2", "B-01:2:10:4", "B-01::10",
    ])
    def test_record_numbers_are_ascii_digits(self, token):
        with pytest.raises(ValueError):
            parse_record_token(token)
        decoded = decode_sms([f"T1|RX1|1/1|B-02:1:5;{token}"])
        assert decoded.records == (DetectionRecord("B-02", 5, 1),)
        assert decoded.diagnostics == (
            f"malformed record {token!r} skipped: {_parse_error(token)}",
        )

    @pytest.mark.parametrize("counter", ["\u0661/1", "1/\u0661", "+1/1", "1/ 1", "1_0/10"])
    def test_counter_is_ascii_digits(self, counter):
        line = f"T1|RX1|{counter}|B-01:1:10"
        with pytest.raises(WireFormatError, match="bad segment counter"):
            decode_sms([line])
        assert group_segments([line]) == ({}, [line])

    def test_bad_counter_rejected(self):
        with pytest.raises(WireFormatError):
            decode_sms(["T1|RX1|0/1|B-01:1:10"])

    def test_segment_total_bounded(self):
        decoded = decode_sms(["T1|RX1|999/999|B-01:1:10"])
        assert decoded.missing_segments == tuple(range(1, MAX_SEGMENTS))
        for line in ("T1|RX1|1/1000|B-01:1:10", "T1|RX1|1/1000000|B-01:1:10"):
            with pytest.raises(WireFormatError, match="exceeds 999"):
                decode_sms([line])
            assert group_segments([line]) == ({}, [line])

    @pytest.mark.parametrize("indices,text", [
        ((), ""), ((7,), "7"), ((2, 3), "2-3"), ((2, 3, 4, 5, 7), "2-5, 7"),
        ((1, 3, 5), "1, 3, 5"), (tuple(range(2, MAX_SEGMENTS + 1)), "2-999"),
    ])
    def test_format_ranges(self, indices, text):
        assert format_ranges(indices) == text

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sets(st.integers(1, 40)))
    def test_format_ranges_lists_exactly_the_indices(self, indices):
        listed = set()
        for run in filter(None, format_ranges(sorted(indices)).split(", ")):
            first, _, last = run.partition("-")
            listed.update(range(int(first), int(last or first) + 1))
        assert listed == indices

    def test_encoder_refuses_more_than_max_segments(self):
        # 33-septet tokens, four to a segment.
        records = [DetectionRecord(f"B-{i:010d}", 10**9 + i, 10**8) for i in range(4000)]
        assert len(encode_sms("RX1", records[:3996])) == MAX_SEGMENTS
        with pytest.raises(WireFormatError, match="1000 segments"):
            encode_sms("RX1", records)

    def test_group_segments_sets_aside_every_header_decode_rejects(self):
        good = ["T1|RX1|2/2|B-02:1:5", "T1|RX2|1/1|B-03:1:7", "T1|RX1|1/2|B-01:1:3"]
        bad = ["T1|RX2|x/1|B-01:1:5", "T1|RX2|1/x|B-01:1:5", "T1|RX3|0/1|B-01:1:5",
               "T1|rx1|1/1|B-01:1:5", "T9|RX1|1/1|B-01:1:5", "garbage"]
        groups, rejected = group_segments(good + bad)
        assert groups == {("RX1", 2): [good[0], good[2]], ("RX2", 1): [good[1]]}
        assert rejected == bad
        for line in bad:
            with pytest.raises(ValueError):
                decode_sms([line])

    def test_empty_input_rejected(self):
        with pytest.raises(WireFormatError):
            decode_sms([])
        with pytest.raises(ValueError):
            encode_sms("RX1", [])


def _parse_error(token):
    try:
        parse_record_token(token)
    except ValueError as exc:
        return str(exc)


REGISTRY = {
    "B-01": RegistryEntry("B-01", 5.41, 118.03),
    "B-02": RegistryEntry("B-02", 5.43, 118.10),
}


@pytest.fixture
def registry():
    return dict(REGISTRY)


# A gateway dump, small enough that dumps share events: (receiver,
# records, received_at), with B-99 not in the registry.
dumps = st.tuples(
    st.sampled_from(["RX1", "RX2"]),
    st.lists(
        st.builds(
            DetectionRecord,
            beacon_id=st.sampled_from(["B-01", "B-02", "B-99"]),
            first_seen_s=st.integers(0, 3),
            count=st.integers(1, 2),
        ),
        max_size=4,
    ),
    st.integers(0, 2),
)


class TestStore:
    def test_merge_resolves_coordinates(self, registry):
        store = DetectionStore()
        decoded = DecodeResult("RX1", (DetectionRecord("B-01", 10, 2),))
        added = merge_detections(store, decoded, registry, received_at=1000)
        assert added == 1
        event = store.events[0]
        assert (event.lat, event.lon) == (5.41, 118.03)
        assert not event.quarantined

    def test_merge_idempotent(self, registry):
        store = DetectionStore()
        decoded = DecodeResult("RX1", (DetectionRecord("B-01", 10, 2),))
        merge_detections(store, decoded, registry, received_at=1000)
        again = merge_detections(store, decoded, registry, received_at=1000)
        assert again == 0
        assert len(store.events) == 1

    def test_store_built_with_events_dedups_them(self, registry):
        decoded = DecodeResult("RX1", (DetectionRecord("B-01", 10, 2),))
        merged = DetectionStore()
        merge_detections(merged, decoded, registry, received_at=1000)
        event, = merged.events
        store = DetectionStore(events=[event, event])
        assert store.events == [event]
        assert merge_detections(store, decoded, registry, received_at=1000) == 0
        assert store.events == [event]

    def test_unknown_beacon_quarantined(self, registry):
        store = DetectionStore()
        decoded = DecodeResult("RX1", (DetectionRecord("B-99", 5, 1),))
        merge_detections(store, decoded, registry, received_at=1000)
        assert len(store.quarantined()) == 1
        assert store.events[0].count == 1
        assert store.events[0].lat is None

    def test_save_load_roundtrip(self, registry, tmp_path):
        path = tmp_path / "store.ndjson"
        store = DetectionStore()
        decoded = DecodeResult(
            "RX1", (DetectionRecord("B-01", 10, 2), DetectionRecord("B-99", 5, 1))
        )
        merge_detections(store, decoded, registry, received_at=1000)
        store.save(path)
        loaded = DetectionStore.load(path)
        assert loaded.events == store.events
        # idempotence survives persistence
        assert merge_detections(loaded, decoded, registry, received_at=1000) == 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pool=st.lists(dumps, min_size=1, max_size=3),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_append_matches_full_rewrite(self, pool, picks):
        """Ingesting dumps one after another, re-sends included, leaves the
        file the old whole-file rewrite wrote, and never alters bytes
        already in it."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.ndjson"
            before = b""
            for pick in picks:
                receiver, records, received_at = pool[pick % len(pool)]
                store = DetectionStore.load(path)
                merge_detections(store, DecodeResult(receiver, tuple(records)), REGISTRY,
                                 received_at)
                store.save(path)
                after = path.read_bytes()
                assert after == "".join(e.to_json() + "\n" for e in store.events).encode()
                assert after.startswith(before)
                before = after

    def test_geojson_excludes_quarantined(self, registry):
        store = DetectionStore()
        decoded = DecodeResult(
            "RX1", (DetectionRecord("B-01", 10, 2), DetectionRecord("B-99", 5, 1))
        )
        merge_detections(store, decoded, registry, received_at=1234)
        geojson = json.loads(store_to_geojson(store))
        assert len(geojson["features"]) == 1
        props = geojson["features"][0]["properties"]
        assert props == {
            "beacon_id": "B-01",
            "receiver_id": "RX1",
            "count": 2,
            "first_seen_s": 10,
            "received_at": 1234,
        }
        assert geojson["features"][0]["geometry"]["coordinates"] == [118.03, 5.41]

    @pytest.mark.parametrize("field,value", [
        ("lat", '"x"'), ("lon", "true"), ("quarantined", '"no"'), ("quarantined", "0"),
        ("count", "-4"), ("count", "0"), ("count", "true"), ("count", "2.0"),
        ("first_seen_s", '"3"'), ("first_seen_s", "-1"), ("received_at", "null"),
        ("beacon_id", '"bad id!"'), ("beacon_id", "7"), ("receiver_id", '"rx1"'),
        ("lat", "NaN"), ("lon", "-Infinity"), ("lat", "1e400"),
    ])
    def test_load_checks_json_types(self, tmp_path, field, value):
        event = DetectionEvent("B-01", "RX1", 2, 10, 1000, 5.41, 118.03, False)
        assert DetectionEvent.from_json(event.to_json()) == event
        line = event.to_json().replace(
            f'"{field}": {json.dumps(getattr(event, field))}', f'"{field}": {value}'
        )
        assert line != event.to_json()
        path = tmp_path / "store.ndjson"
        path.write_text(event.to_json() + "\n" + line + "\n")
        with pytest.raises(ValueError, match="line 2 is not a detection event"):
            DetectionStore.load(path)

    def test_registry_csv(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "beacon_id,lat,lon,interval_ms,preset\n"
            "B-01,5.41,118.03,700,hm10-bt4\n"
            "B-02,5.43,118.10,,\n"
        )
        # interval_ms and preset are accepted and ignored.
        assert load_registry(path) == {
            "B-01": RegistryEntry("B-01", 5.41, 118.03),
            "B-02": RegistryEntry("B-02", 5.43, 118.10),
        }


def reference_map(store):
    """The map as a dict: what store_to_geojson returned before it wrote
    the text itself."""
    features = []
    for event in store.events:
        if event.quarantined:
            continue
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [event.lon, event.lat],
                },
                "properties": {
                    "beacon_id": event.beacon_id,
                    "receiver_id": event.receiver_id,
                    "count": event.count,
                    "first_seen_s": event.first_seen_s,
                    "received_at": event.received_at,
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


big_ints = st.integers(-(10**30), 10**30)
# Every coordinate on the globe, JSON integers and the extreme floats too.
_tiny = [0.0, -0.0, 1e-300, -1e-300, 5e-324]
lats = st.one_of(
    st.integers(-90, 90),
    st.floats(-90, 90),
    st.sampled_from(_tiny + [5.41, 90, -90, 90.0, -90.0]),
)
lons = st.one_of(
    st.integers(-180, 180),
    st.floats(-180, 180),
    st.sampled_from(_tiny + [118.03, 180, -180, 180.0, -180.0]),
)
event_fields = dict(
    beacon_id=beacon_ids,
    receiver_id=receiver_ids,
    count=st.integers(1, 10**30),
    first_seen_s=st.integers(0, 10**30),
    received_at=big_ints,
)
# An event is located, or quarantined with no position.
map_events = st.one_of(
    st.builds(DetectionEvent, **event_fields, lat=lats, lon=lons),
    st.builds(DetectionEvent, **event_fields, quarantined=st.just(True)),
)


class TestMapText:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(events=st.lists(map_events, max_size=5))
    @example(events=[])
    @example(events=[DetectionEvent("B-99", "RX1", 1, 5, 1000, quarantined=True)] * 2)
    @example(events=[DetectionEvent("B-01", "RX1", 1, 5, 1000, -90, 180.0, False)])
    @example(events=[DetectionEvent("B-01", "RX1", 2**70, 0, -1, 5, -0.0, False)])
    def test_map_is_json_dumps_of_reference(self, events):
        store = DetectionStore(events=events)
        expected = json.dumps(reference_map(store), sort_keys=True, indent=2) + "\n"
        assert store_to_geojson(store) == expected


EVENT_FIELDS = [f.name for f in dataclasses.fields(DetectionEvent)]
REQUIRED_FIELDS = {"beacon_id", "receiver_id", "count", "first_seen_s", "received_at"}


def reference_from_json(line):
    """DetectionEvent.from_json's rules, checked on json.loads's object
    without the event's own checks.  The constructor only raises the
    TypeError for a line that is not an object with the event's keys."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or not REQUIRED_FIELDS <= obj.keys() <= set(EVENT_FIELDS):
        DetectionEvent(**obj)
    obj = {"lat": None, "lon": None, "quarantined": False, **obj}
    validate_beacon_id(obj["beacon_id"])
    count, first_seen_s, lat, lon = obj["count"], obj["first_seen_s"], obj["lat"], obj["lon"]
    if type(count) is not int or count < 1:
        raise ValueError(f"count {count!r} is not a positive integer")
    if type(first_seen_s) is not int or first_seen_s < 0:
        raise ValueError(f"first_seen_s {first_seen_s!r} is not a non-negative integer")
    validate_receiver_id(obj["receiver_id"])
    if type(obj["received_at"]) is not int:
        raise ValueError(f"received_at {obj['received_at']!r} is not an integer")
    if type(obj["quarantined"]) is not bool:
        raise ValueError(f"quarantined {obj['quarantined']!r} is not true or false")
    if obj["quarantined"]:
        if (lat, lon) != (None, None):
            raise ValueError(f"lat {lat!r}, lon {lon!r}: a quarantined event has no position")
    elif type(lat) not in (int, float) or type(lon) not in (int, float):
        raise ValueError(f"lat {lat!r}, lon {lon!r}: an event not quarantined needs numbers")
    elif not (-90 <= lat <= 90 and -180 <= lon <= 180):
        raise ValueError(f"lat {lat!r}, lon {lon!r} is not a position on the globe")
    event = object.__new__(DetectionEvent)
    event.__dict__.update((name, obj[name]) for name in EVENT_FIELDS)
    return event


def reference_load(path):
    """(events, unterminated) as DetectionStore.load read a UTF-8 store
    through reference_from_json, or (line number, detail) of the first
    line it rejects."""
    events, keys, raw = [], set(), "\n"
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                event = reference_from_json(line)
            except (TypeError, ValueError) as exc:
                return number, str(exc)
            if event.key() not in keys:
                keys.add(event.key())
                events.append(event)
    return events, not raw.endswith("\n")


# A store line's fields: a located event's lat and lon, with quarantined
# false or left out, or quarantined true, with lat and lon null or left out.
store_objects = st.builds(
    lambda fields, where: {**fields, **where},
    st.fixed_dictionaries(
        {
            "beacon_id": st.sampled_from(["B-01", "B-02", "B-99"]),
            "receiver_id": st.sampled_from(["RX1", "RX2"]),
            "count": st.integers(1, 3),
            "first_seen_s": st.integers(0, 3),
            "received_at": st.integers(-2, 2**64),
        }
    ),
    st.one_of(
        st.fixed_dictionaries({"lat": lats, "lon": lons}, optional={"quarantined": st.just(False)}),
        st.fixed_dictionaries({"quarantined": st.just(True)},
                              optional={"lat": st.none(), "lon": st.none()}),
    ),
)


@st.composite
def store_lines(draw):
    """One valid store line in any key order and spacing."""
    obj = draw(store_objects)
    keys = draw(st.permutations(sorted(obj)))
    item = draw(st.sampled_from([",", ", ", " ,  ", ",\t"]))
    pair = draw(st.sampled_from([":", ": ", " : ", ":\t"]))
    pad = draw(st.sampled_from(["", " ", "\t "]))
    text = json.dumps({k: obj[k] for k in keys}, separators=(item, pair))
    return pad + text + pad


@st.composite
def store_files(draw, bad=None):
    """Store text: valid lines, blank and whitespace-only lines, each
    ended by \\n, \\r\\n or \\r, the last one perhaps by nothing; with a
    ``bad`` strategy, one of its lines among them."""
    lines = draw(st.lists(st.one_of(store_lines(), st.sampled_from(["", " ", "\t"])),
                          max_size=8))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


GOOD_LINE = ('{"beacon_id": "B-01", "count": 2, "first_seen_s": 10, "lat": 5.41, '
             '"lon": 118.03, "quarantined": false, "received_at": 1, "receiver_id": "RX1"}')
BAD_STORE_LINES = [
    GOOD_LINE.replace('"count": 2', '"count": 2, "bogus": 1'),
    GOOD_LINE.replace('"count": 2, ', ""),
    GOOD_LINE.replace('"count": 2', '"count": true'),
    GOOD_LINE.replace('"count": 2', '"count": 2.0'),
    GOOD_LINE.replace('"lat": 5.41', '"lat": 1e400'),
    GOOD_LINE.replace('"lon": 118.03', '"lon": NaN'),
    GOOD_LINE.replace("false", "null"),
    GOOD_LINE.replace('"lon": 118.03', '"lon": null'),
    GOOD_LINE.replace('"lat": 5.41, "lon": 118.03', '"lat": null, "lon": null'),
    GOOD_LINE.replace("false", "true"),
    GOOD_LINE.replace('"lat": 5.41', '"lat": 95'),
    "\ufeff" + GOOD_LINE,
    GOOD_LINE + " 1",
    GOOD_LINE + "{}",
    GOOD_LINE[:-1],
    "[1, 2]",
    '"B-01"',
    "7",
    "{not json",
    GOOD_LINE.replace('"B-01"', '"B-\u00e91"'),
    GOOD_LINE.replace('"B-01"', '"B-\\u00e91"'),
    GOOD_LINE.replace('"RX1"', '"RX\u0661"'),
]


class TestLoadEquivalence:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(text=store_files())
    def test_valid_files_load_as_before(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.ndjson"
            path.write_bytes(text.encode("utf-8"))
            events, unterminated = reference_load(path)
            store = DetectionStore.load(path)
        assert store.events == events
        assert [type(v) for e in store.events for v in vars(e).values()] == [
            type(v) for e in events for v in vars(e).values()
        ]
        assert store._keys == {e.key() for e in events}
        assert (store._saved, store._unterminated) == (len(events), unterminated)

    @pytest.mark.parametrize("bad", BAD_STORE_LINES)
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_bad_line_fails_as_before(self, bad, data):
        text = data.draw(store_files(bad=st.just(bad)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.ndjson"
            path.write_bytes(text.encode("utf-8"))
            number, detail = reference_load(path)
            with pytest.raises(ValueError) as raised:
                DetectionStore.load(path)
        assert str(raised.value) == (
            f"detection store {str(path)!r} line {number} is not a detection event: {detail}"
        )

    @pytest.mark.parametrize("pad", [" ", "\t", "\n", " \r\n"])
    def test_from_json_reads_surrounding_whitespace(self, pad):
        assert DetectionEvent.from_json(pad + GOOD_LINE + pad) == reference_from_json(GOOD_LINE)
