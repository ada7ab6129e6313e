"""Receiver state machine, SMS exfiltration codec, and the detection store.

The receiver dedups beacon sightings while off-grid and flushes its buffer
as SMS text the moment GSM comes back.  Wire format, one segment:

    T1|<receiver_id>|<seg>/<tot>|<beacon>:<count>:<first_seen>;...

Every segment fits 160 GSM-7 septets (the '|' separator is an
extension-table character and costs two).  The server side reassembles
segments in any order, resolves beacon coordinates through the registry,
and appends events to an idempotent store; unknown beacons are
quarantined, never dropped.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from . import gsm7

VERSION_TAG = "T1"
DEFAULT_DEDUP_WINDOW_S = 300.0

_BEACON_ID_RE = re.compile(r"^[A-Z0-9-]{1,12}$")
_RECEIVER_ID_RE = re.compile(r"^[A-Z0-9-]{1,8}$")


class WireFormatError(ValueError):
    """Payload text that cannot be produced or parsed."""


def validate_beacon_id(beacon_id: str) -> str:
    if not _BEACON_ID_RE.match(beacon_id):
        raise ValueError(
            f"beacon id {beacon_id!r} must be 1-12 characters from [A-Z0-9-]"
        )
    return beacon_id


def validate_receiver_id(receiver_id: str) -> str:
    if not _RECEIVER_ID_RE.match(receiver_id):
        raise ValueError(
            f"receiver id {receiver_id!r} must be 1-8 characters from [A-Z0-9-]"
        )
    return receiver_id


@dataclass(frozen=True)
class DetectionRecord:
    """One beacon encounter: id, first sighting (s since boot), sightings."""

    beacon_id: str
    first_seen_s: int
    count: int = 1

    def __post_init__(self) -> None:
        validate_beacon_id(self.beacon_id)
        if self.first_seen_s < 0:
            raise ValueError("first_seen cannot be negative")
        if self.count < 1:
            raise ValueError("count must be at least 1")


# ---------------------------------------------------------------------------
# Receiver state machine


class Mode:
    SCANNING = "scanning"
    IDLE = "idle"


@dataclass(frozen=True)
class Sighting:
    t_s: float
    beacon_id: str
    rssi_dbm: float = 0.0


@dataclass(frozen=True)
class GsmUp:
    t_s: float


@dataclass(frozen=True)
class GsmDown:
    t_s: float


@dataclass(frozen=True)
class Tick:
    t_s: float


ReceiverEvent = Sighting | GsmUp | GsmDown | Tick


@dataclass(frozen=True)
class ReceiverState:
    receiver_id: str = "RX1"
    mode: str = Mode.SCANNING
    buffer: tuple[DetectionRecord, ...] = ()
    gsm_available: bool = False
    clock_s: float = 0.0
    dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S
    # Last counted sighting per beacon with an open record in the buffer.
    open_last_seen: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        validate_receiver_id(self.receiver_id)


@dataclass(frozen=True)
class StepResult:
    state: ReceiverState
    payloads: tuple["SmsPayload", ...] = ()
    rejected: str | None = None


def receiver_step(state: ReceiverState, event: ReceiverEvent) -> StepResult:
    """Apply one event; returns the new state plus any outgoing payloads.

    A repeat sighting of a beacon within the dedup window increments the
    open record's count; after the window a fresh record opens (a genuine
    second pass).  The buffer flushes whenever GSM is available, and only
    clears after the payloads are produced.  Events that move time
    backwards are rejected with a diagnostic, state unchanged.
    """
    if event.t_s < state.clock_s:
        return StepResult(
            state=state,
            rejected=f"event at t={event.t_s} precedes receiver clock {state.clock_s}",
        )

    buffer = state.buffer
    open_last = dict(state.open_last_seen)
    gsm = state.gsm_available

    if isinstance(event, Sighting):
        try:
            validate_beacon_id(event.beacon_id)
        except ValueError as exc:
            return StepResult(state=state, rejected=str(exc))
        last = open_last.get(event.beacon_id)
        if last is not None and event.t_s - last <= state.dedup_window_s:
            updated = []
            bumped = False
            for record in reversed(buffer):
                if not bumped and record.beacon_id == event.beacon_id:
                    updated.append(replace(record, count=record.count + 1))
                    bumped = True
                else:
                    updated.append(record)
            buffer = tuple(reversed(updated))
        else:
            buffer = buffer + (
                DetectionRecord(event.beacon_id, int(math.floor(event.t_s)), 1),
            )
        open_last[event.beacon_id] = event.t_s
    elif isinstance(event, GsmUp):
        gsm = True
    elif isinstance(event, GsmDown):
        gsm = False
    # Tick only advances the clock.

    payloads: tuple[SmsPayload, ...] = ()
    if gsm and buffer:
        payloads = tuple(encode_sms(state.receiver_id, buffer))
        buffer = ()
        open_last = {}

    mode = Mode.IDLE if gsm else Mode.SCANNING
    new_state = ReceiverState(
        receiver_id=state.receiver_id,
        mode=mode,
        buffer=buffer,
        gsm_available=gsm,
        clock_s=event.t_s,
        dedup_window_s=state.dedup_window_s,
        open_last_seen=tuple(sorted(open_last.items())),
    )
    return StepResult(state=new_state, payloads=payloads)


# ---------------------------------------------------------------------------
# SMS codec


@dataclass(frozen=True)
class SmsPayload:
    receiver_id: str
    records: tuple[DetectionRecord, ...]
    segment_index: int
    segment_total: int

    @property
    def text(self) -> str:
        body = ";".join(_record_token(r) for r in self.records)
        return (
            f"{VERSION_TAG}|{self.receiver_id}"
            f"|{self.segment_index}/{self.segment_total}|{body}"
        )


def _record_token(record: DetectionRecord) -> str:
    return f"{record.beacon_id}:{record.count}:{record.first_seen_s}"


def _header(receiver_id: str, index: int, total: int) -> str:
    return f"{VERSION_TAG}|{receiver_id}|{index}/{total}|"


def encode_sms(
    receiver_id: str, records: Sequence[DetectionRecord]
) -> list[SmsPayload]:
    """Greedy-pack records into numbered segments of <= 160 GSM-7 septets."""
    validate_receiver_id(receiver_id)
    if not records:
        raise ValueError("nothing to encode: records are empty")

    def pack(total_digits: int) -> list[list[DetectionRecord]]:
        header_cost = gsm7.septet_length(
            _header(receiver_id, 10**total_digits - 1, 10**total_digits - 1)
        )
        segments: list[list[DetectionRecord]] = [[]]
        used = header_cost
        for record in records:
            token_cost = gsm7.septet_length(_record_token(record))
            if header_cost + token_cost > gsm7.SEGMENT_SEPTETS:
                raise WireFormatError(
                    f"record {_record_token(record)!r} cannot fit one segment"
                )
            extra = token_cost + (1 if segments[-1] else 0)  # ';' separator
            if used + extra > gsm7.SEGMENT_SEPTETS:
                segments.append([record])
                used = header_cost + token_cost
            else:
                segments[-1].append(record)
                used += extra
        return segments

    digits = 1
    while True:
        segments = pack(digits)
        needed = len(str(len(segments)))
        if needed <= digits:
            break
        digits = needed

    total = len(segments)
    payloads = [
        SmsPayload(
            receiver_id=receiver_id,
            records=tuple(chunk),
            segment_index=i,
            segment_total=total,
        )
        for i, chunk in enumerate(segments, start=1)
    ]
    for payload in payloads:
        assert gsm7.fits_one_segment(payload.text)
    return payloads


def _parse_segment(raw: str) -> tuple[str, int, int, str]:
    """Split one segment text into (receiver_id, index, total, body),
    validating the header; raises ValueError on any header fault."""
    parts = raw.strip().split("|", 3)
    if len(parts) != 4:
        raise WireFormatError(f"segment {raw!r} does not have 4 '|' fields")
    tag, receiver_id, counter, body = parts
    if tag != VERSION_TAG:
        raise WireFormatError(f"unsupported version tag {tag!r}")
    validate_receiver_id(receiver_id)
    m = re.match(r"^(\d+)/(\d+)$", counter)
    if not m:
        raise WireFormatError(f"bad segment counter {counter!r}")
    index, total = int(m.group(1)), int(m.group(2))
    if not 1 <= index <= total:
        raise WireFormatError(f"segment index {index} outside 1..{total}")
    return receiver_id, index, total, body


def group_segments(
    lines: Iterable[str],
) -> tuple[dict[tuple[str, int], list[str]], list[str]]:
    """Group raw segments of a gateway dump by (receiver, total) for
    decode_sms; lines whose header does not parse come back separately.

    The wire format carries no batch reference, so two same-sized payloads
    from one receiver in a single dump cannot be told apart."""
    groups: dict[tuple[str, int], list[str]] = {}
    bad: list[str] = []
    for line in lines:
        try:
            receiver_id, _, total, _ = _parse_segment(line)
        except ValueError:
            bad.append(line)
            continue
        groups.setdefault((receiver_id, total), []).append(line)
    return groups, bad


@dataclass(frozen=True)
class DecodeResult:
    receiver_id: str
    records: tuple[DetectionRecord, ...]
    missing_segments: tuple[int, ...] = ()
    diagnostics: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing_segments


def decode_sms(segments: Iterable[str]) -> DecodeResult:
    """Reassemble raw segment texts, in any order, duplicates tolerated.

    Missing segments yield a partial result listing the missing indices;
    malformed record tokens are skipped with a diagnostic rather than
    failing the whole payload.  Exact inverse of encode_sms on complete,
    well-formed input.
    """
    parsed: dict[int, str] = {}
    diagnostics: list[str] = []
    receiver_id: str | None = None
    total: int | None = None

    any_seen = False
    for raw in segments:
        any_seen = True
        rid, index, seg_total, body = _parse_segment(raw)
        if receiver_id is None:
            receiver_id, total = rid, seg_total
        elif rid != receiver_id or seg_total != total:
            raise WireFormatError(
                "segments mix payloads: "
                f"{rid!r} {index}/{seg_total} vs {receiver_id!r} total {total}"
            )
        if index in parsed:
            if parsed[index] != body:
                diagnostics.append(
                    f"segment {index} duplicated with differing content; kept first"
                )
            continue
        parsed[index] = body

    if not any_seen:
        raise WireFormatError("no segments to decode")

    records: list[DetectionRecord] = []
    for index in sorted(parsed):
        for token in parsed[index].split(";"):
            if not token:
                continue
            fields = token.split(":")
            if len(fields) != 3:
                diagnostics.append(f"malformed record {token!r} skipped")
                continue
            beacon_id, count_s, first_seen_s = fields
            try:
                records.append(
                    DetectionRecord(beacon_id, int(first_seen_s), int(count_s))
                )
            except ValueError as exc:
                diagnostics.append(f"malformed record {token!r} skipped: {exc}")

    missing = tuple(i for i in range(1, (total or 0) + 1) if i not in parsed)
    return DecodeResult(
        receiver_id=receiver_id or "",
        records=tuple(records),
        missing_segments=missing,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Server-side store


@dataclass(frozen=True)
class RegistryEntry:
    beacon_id: str
    lat: float
    lon: float
    interval_ms: int | None = None
    preset: str | None = None


def load_registry(path) -> dict[str, RegistryEntry]:
    """Beacon registry CSV: beacon_id,lat,lon,interval_ms,preset."""
    import csv as _csv

    registry: dict[str, RegistryEntry] = {}
    with open(path, newline="") as fh:
        for row in _csv.DictReader(fh):
            beacon_id = validate_beacon_id(row["beacon_id"].strip())
            registry[beacon_id] = RegistryEntry(
                beacon_id=beacon_id,
                lat=float(row["lat"]),
                lon=float(row["lon"]),
                interval_ms=int(row["interval_ms"]) if row.get("interval_ms") else None,
                preset=(row.get("preset") or None),
            )
    return registry


@dataclass(frozen=True)
class DetectionEvent:
    beacon_id: str
    receiver_id: str
    count: int
    first_seen_s: int
    received_at: int
    lat: float | None = None
    lon: float | None = None
    quarantined: bool = False

    def key(self) -> tuple:
        return (
            self.receiver_id,
            self.received_at,
            self.beacon_id,
            self.count,
            self.first_seen_s,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "beacon_id": self.beacon_id,
                "receiver_id": self.receiver_id,
                "count": self.count,
                "first_seen_s": self.first_seen_s,
                "received_at": self.received_at,
                "lat": self.lat,
                "lon": self.lon,
                "quarantined": self.quarantined,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "DetectionEvent":
        data = json.loads(line)
        return cls(**data)


@dataclass
class DetectionStore:
    """Append-only detection log; merges are idempotent by event key."""

    events: list[DetectionEvent] = field(default_factory=list)
    _keys: set[tuple] = field(default_factory=set)

    @classmethod
    def load(cls, path) -> "DetectionStore":
        store = cls()
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        store._append(DetectionEvent.from_json(line))
        except FileNotFoundError:
            pass
        return store

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(event.to_json() + "\n")

    def _append(self, event: DetectionEvent) -> bool:
        key = event.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.events.append(event)
        return True

    def quarantined(self) -> list[DetectionEvent]:
        return [e for e in self.events if e.quarantined]


def merge_detections(
    store: DetectionStore,
    decoded: DecodeResult,
    registry: Mapping[str, RegistryEntry],
    received_at: int,
) -> int:
    """Append a decoded payload's records to the store with resolved
    coordinates.  Unknown beacons are quarantined.  Re-merging an identical
    (receiver, payload, received_at) is a no-op; returns new-event count."""
    added = 0
    for record in decoded.records:
        entry = registry.get(record.beacon_id)
        event = DetectionEvent(
            beacon_id=record.beacon_id,
            receiver_id=decoded.receiver_id,
            count=record.count,
            first_seen_s=record.first_seen_s,
            received_at=int(received_at),
            lat=entry.lat if entry else None,
            lon=entry.lon if entry else None,
            quarantined=entry is None,
        )
        added += int(store._append(event))
    return added


def store_to_geojson(store: DetectionStore) -> dict:
    """Point per located detection event; quarantined events have no
    coordinates and stay in the store only."""
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
