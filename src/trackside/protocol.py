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

import csv
import json
import math
import os
import re
from typing import Iterable, Mapping, Sequence

from . import gsm7
from .value import Value

VERSION_TAG = "T1"
# Most segments in one payload; a trip needs a few dozen.
MAX_SEGMENTS = 999
DEFAULT_DEDUP_WINDOW_S = 300.0

_BEACON_ID_RE = re.compile(r"[A-Z0-9-]{1,12}")
_RECEIVER_ID_RE = re.compile(r"[A-Z0-9-]{1,8}")
# Wire numbers are ASCII digits: \d and int() also take other scripts'
# digits, and int() a sign, spaces and underscores.
_NUMBER_RE = re.compile(r"[0-9]+")
_COUNTER_RE = re.compile(r"([0-9]+)/([0-9]+)")
# What json.loads makes of a JSON number, in a store line.
_JSON_NUMBERS = (int, float)
# json's C scanner (one JSON value at an index, no trailing-data check)
# and its C string encoder, which json.dumps uses by default.
_scan_once = json.decoder.JSONDecoder().scan_once
_quote = json.encoder.encode_basestring_ascii


class WireFormatError(ValueError):
    """Payload text that cannot be produced or parsed."""


def validate_beacon_id(beacon_id: str) -> str:
    if not _BEACON_ID_RE.fullmatch(beacon_id):
        raise ValueError(
            f"beacon id {beacon_id!r} must be 1-12 characters from [A-Z0-9-]"
        )
    return beacon_id


def validate_receiver_id(receiver_id: str) -> str:
    if not _RECEIVER_ID_RE.fullmatch(receiver_id):
        raise ValueError(
            f"receiver id {receiver_id!r} must be 1-8 characters from [A-Z0-9-]"
        )
    return receiver_id


def validate_position(lat, lon) -> None:
    """Refuse a WGS 84 (lat, lon) in degrees that is off the globe: lat
    outside [-90, 90] or lon outside [-180, 180], NaN and infinities too."""
    if not (-90 <= lat <= 90 and -180 <= lon <= 180):
        raise ValueError(f"lat {lat!r}, lon {lon!r} is not a position on the globe")


def _validate_record(beacon_id: str, count: int, first_seen_s: int) -> None:
    """The rule a wire record and a stored event share: a beacon id, and an
    integer count >= 1 and first sighting >= 0 (a bool is not an integer)."""
    validate_beacon_id(beacon_id)
    if type(count) is not int or count < 1:
        raise ValueError(f"count {count!r} is not a positive integer")
    if type(first_seen_s) is not int or first_seen_s < 0:
        raise ValueError(f"first_seen_s {first_seen_s!r} is not a non-negative integer")


class DetectionRecord(Value):
    """One beacon encounter: id, first sighting (s since boot), sightings."""

    __slots__ = ("beacon_id", "first_seen_s", "count")

    def __init__(self, beacon_id: str, first_seen_s: int, count: int = 1) -> None:
        _validate_record(beacon_id, count, first_seen_s)
        object.__setattr__(self, "beacon_id", beacon_id)
        object.__setattr__(self, "first_seen_s", first_seen_s)
        object.__setattr__(self, "count", count)


# ---------------------------------------------------------------------------
# Receiver state machine


class Sighting(Value):
    __slots__ = ("t_s", "beacon_id")


class GsmUp(Value):
    __slots__ = ("t_s",)


class GsmDown(Value):
    __slots__ = ("t_s",)


class Tick(Value):
    __slots__ = ("t_s",)


ReceiverEvent = Sighting | GsmUp | GsmDown | Tick


class ReceiverState(Value):
    """``last_seen`` holds the last sighting counted in each buffered
    record, aligned with ``buffer``.  A beacon's open record is its latest
    one in the buffer."""

    __slots__ = (
        "receiver_id", "buffer", "gsm_available", "clock_s", "dedup_window_s", "last_seen"
    )

    def __init__(
        self,
        receiver_id: str = "RX1",
        buffer: tuple[DetectionRecord, ...] = (),
        gsm_available: bool = False,
        clock_s: float = 0.0,
        dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S,
        last_seen: tuple[float, ...] = (),
    ) -> None:
        validate_receiver_id(receiver_id)
        if not math.isfinite(clock_s):
            raise ValueError(f"receiver clock {clock_s!r} is not finite")
        if not 0 <= dedup_window_s < math.inf:  # also rejects NaN
            raise ValueError(f"dedup window {dedup_window_s!r} is not finite and >= 0")
        if len(last_seen) != len(buffer):
            raise ValueError(
                f"{len(last_seen)} last-seen times for {len(buffer)} buffered records"
            )
        object.__setattr__(self, "receiver_id", receiver_id)
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "gsm_available", gsm_available)
        object.__setattr__(self, "clock_s", clock_s)
        object.__setattr__(self, "dedup_window_s", dedup_window_s)
        object.__setattr__(self, "last_seen", last_seen)


class StepResult(Value):
    __slots__ = ("state", "payloads", "rejected")


def receiver_step(state: ReceiverState, event: ReceiverEvent) -> StepResult:
    """Apply one event; returns the new state plus any outgoing payloads.

    A repeat sighting of a beacon within the dedup window increments the
    open record's count; after the window a fresh record opens (a genuine
    second pass).  The buffer flushes whenever GSM is available, and only
    clears after the payloads are produced.  Events that move time
    backwards, or whose time is not finite, are rejected with a
    diagnostic, state unchanged.
    """
    if not math.isfinite(event.t_s):
        return StepResult(state, (), f"event at t={event.t_s} is not a finite time")
    if event.t_s < state.clock_s:
        return StepResult(
            state, (), f"event at t={event.t_s} precedes receiver clock {state.clock_s}"
        )

    buffer, last_seen = state.buffer, state.last_seen
    gsm = state.gsm_available

    if isinstance(event, Sighting):
        try:
            validate_beacon_id(event.beacon_id)
        except ValueError as exc:
            return StepResult(state, (), str(exc))
        i = len(buffer) - 1
        while i >= 0 and buffer[i].beacon_id != event.beacon_id:
            i -= 1
        if i >= 0 and event.t_s - last_seen[i] <= state.dedup_window_s:
            record = buffer[i]
            record = DetectionRecord(record.beacon_id, record.first_seen_s, record.count + 1)
            buffer = buffer[:i] + (record,) + buffer[i + 1:]
            last_seen = last_seen[:i] + (event.t_s,) + last_seen[i + 1:]
        else:
            buffer += (DetectionRecord(event.beacon_id, int(math.floor(event.t_s)), 1),)
            last_seen += (event.t_s,)
    elif isinstance(event, GsmUp):
        gsm = True
    elif isinstance(event, GsmDown):
        gsm = False
    # Tick only advances the clock.

    payloads: tuple[SmsPayload, ...] = ()
    if gsm and buffer:
        payloads = tuple(encode_sms(state.receiver_id, buffer))
        buffer, last_seen = (), ()

    new_state = ReceiverState(
        state.receiver_id, buffer, gsm, event.t_s, state.dedup_window_s, last_seen
    )
    return StepResult(new_state, payloads, None)


# ---------------------------------------------------------------------------
# SMS codec


class SmsPayload(Value):
    __slots__ = ("receiver_id", "records", "segment_index", "segment_total")

    @property
    def text(self) -> str:
        body = ";".join(record_token(r) for r in self.records)
        return _header(self.receiver_id, self.segment_index, self.segment_total) + body


def record_token(record: DetectionRecord) -> str:
    """A record's wire token, ``BEACON:COUNT:FIRST_SEEN``."""
    return f"{record.beacon_id}:{record.count}:{record.first_seen_s}"


def parse_record_token(token: str) -> DetectionRecord:
    """The record a ``BEACON:COUNT:FIRST_SEEN`` token stands for; raises
    ``ValueError`` if it is not exactly that, in ASCII digits."""
    fields = token.split(":")
    if len(fields) != 3:
        raise WireFormatError("not BEACON:COUNT:FIRST_SEEN")
    beacon_id, count, first_seen = fields
    for number in (count, first_seen):
        if not _NUMBER_RE.fullmatch(number):
            raise WireFormatError(f"{number!r} is not a valid int")
    return DetectionRecord(beacon_id, int(first_seen), int(count))


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
            token_cost = gsm7.septet_length(record_token(record))
            if header_cost + token_cost > gsm7.SEGMENT_SEPTETS:
                raise WireFormatError(
                    f"record {record_token(record)!r} cannot fit one segment"
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
    if total > MAX_SEGMENTS:
        raise WireFormatError(f"records need {total} segments, more than {MAX_SEGMENTS}")
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
    m = _COUNTER_RE.fullmatch(counter)
    if not m:
        raise WireFormatError(f"bad segment counter {counter!r}")
    index, total = int(m.group(1)), int(m.group(2))
    if total > MAX_SEGMENTS:
        raise WireFormatError(f"segment total {total} exceeds {MAX_SEGMENTS}")
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


class DecodeResult(Value):
    __slots__ = ("receiver_id", "records", "missing_segments", "diagnostics")

    @property
    def complete(self) -> bool:
        return not self.missing_segments


def format_ranges(indices: Iterable[int]) -> str:
    """Ascending indices as comma-separated runs, ``"2-5, 7"``, so that a
    report of missing segments stays as short as the dump that caused it."""
    runs: list[list[int]] = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


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

    for raw in segments:
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

    if receiver_id is None:
        raise WireFormatError("no segments to decode")

    records: list[DetectionRecord] = []
    for index in sorted(parsed):
        for token in parsed[index].split(";"):
            if not token:
                continue
            try:
                records.append(parse_record_token(token))
            except ValueError as exc:
                diagnostics.append(f"malformed record {token!r} skipped: {exc}")

    missing = tuple(i for i in range(1, total + 1) if i not in parsed)
    return DecodeResult(
        receiver_id=receiver_id,
        records=tuple(records),
        missing_segments=missing,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Server-side store


class RegistryEntry(Value):
    __slots__ = ("beacon_id", "lat", "lon")

    def __init__(self, beacon_id: str, lat: float, lon: float) -> None:
        validate_beacon_id(beacon_id)
        validate_position(lat, lon)
        object.__setattr__(self, "beacon_id", beacon_id)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)


def load_registry(path) -> dict[str, RegistryEntry]:
    """Beacon registry CSV with columns beacon_id,lat,lon.  Other columns,
    such as a deployment sheet's interval_ms and preset, are ignored.  A
    beacon id on two rows is refused: it would move the beacon."""
    registry: dict[str, RegistryEntry] = {}
    lines: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if not {"beacon_id", "lat", "lon"}.issubset(reader.fieldnames or ()):
            raise ValueError("registry CSV needs columns beacon_id,lat,lon")
        for row in reader:
            beacon_id = row["beacon_id"].strip()
            where = f"line {reader.line_num}, beacon {beacon_id!r}"
            if beacon_id in lines:
                raise ValueError(f"{where}: also on line {lines[beacon_id]}")
            try:
                entry = RegistryEntry(beacon_id, float(row["lat"]), float(row["lon"]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            registry[beacon_id] = entry
            lines[beacon_id] = reader.line_num
    return registry


class DetectionEvent(Value):
    __slots__ = (
        "beacon_id", "receiver_id", "count", "first_seen_s", "received_at",
        "lat", "lon", "quarantined",
    )

    def __init__(
        self,
        beacon_id: str,
        receiver_id: str,
        count: int,
        first_seen_s: int,
        received_at: int,
        lat: float | None = None,
        lon: float | None = None,
        quarantined: bool = False,
    ) -> None:
        """Each field has its exact JSON type, as in a store line: a bool is
        not an integer, nor a string a number.  An event is quarantined and
        has no position, or has one on the globe."""
        _validate_record(beacon_id, count, first_seen_s)
        validate_receiver_id(receiver_id)
        if type(received_at) is not int:
            raise ValueError(f"received_at {received_at!r} is not an integer")
        if type(quarantined) is not bool:
            raise ValueError(f"quarantined {quarantined!r} is not true or false")
        if quarantined:
            if lat is not None or lon is not None:
                raise ValueError(f"lat {lat!r}, lon {lon!r}: a quarantined event has no position")
        elif type(lat) not in _JSON_NUMBERS or type(lon) not in _JSON_NUMBERS:
            raise ValueError(f"lat {lat!r}, lon {lon!r}: an event not quarantined needs numbers")
        else:
            validate_position(lat, lon)
        object.__setattr__(self, "beacon_id", beacon_id)
        object.__setattr__(self, "receiver_id", receiver_id)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "first_seen_s", first_seen_s)
        object.__setattr__(self, "received_at", received_at)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "quarantined", quarantined)

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
        """The event one store line holds; raises ``ValueError`` (or
        ``TypeError`` for missing or unknown keys) when the line is not one
        JSON object or the event refuses its fields."""
        try:
            obj, end = _scan_once(line, 0)
        except StopIteration:
            end = -1
        if end != len(line):
            # Not one JSON value and nothing else: json.loads reads what
            # the scan cannot (leading whitespace) or raises its own message.
            obj = json.loads(line)
        return cls(**obj)


class DetectionStore:
    """Detection log, one JSON event per line in file order; merges are
    idempotent by event key.  ``save`` appends the events added since
    ``load`` to the file and fsyncs it: complete lines already in the file
    are never rewritten.  ``torn`` holds the bytes of the unfinished last
    line, if any, that a crash during an append left and ``load`` dropped."""

    __slots__ = ("events", "torn", "_keys", "_saved", "_unterminated", "_torn_end")

    def __init__(self) -> None:
        self.events: list[DetectionEvent] = []
        self.torn = b""
        self._keys: set[tuple] = set()
        # How many of ``events`` the file already holds; None while there is
        # no file behind the store, so save writes all of them.
        self._saved: int | None = None
        # Whether the file's last line lacks its line end.
        self._unterminated = False
        # The file's size when ``load`` kept ``torn``.
        self._torn_end = 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # The keys follow from the events.
        return (self.events, self.torn, self._saved, self._unterminated) == (
            other.events, other.torn, other._saved, other._unterminated
        )

    def __repr__(self) -> str:
        return f"DetectionStore(events={self.events!r})"

    @classmethod
    def load(cls, path) -> "DetectionStore":
        """The store saved at ``path``, or an empty one if there is no such
        file.  A line that is not one UTF-8 encoded detection event raises
        ``ValueError`` naming the file and the line, unless it is the last
        line and has no line end: that is an append cut short, and it is
        kept in ``torn`` instead."""
        store = cls()
        raw = "\n"
        try:
            # Undecodable bytes become lone surrogates here, so that the
            # strict decode below can fail on the line that holds them.
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                for number, raw in enumerate(fh, 1):
                    try:
                        if not raw.isascii():
                            raw.encode("utf-8", "surrogateescape").decode("utf-8")
                        line = raw.strip()
                        if line:
                            store._append(DetectionEvent.from_json(line))
                    except (TypeError, ValueError) as exc:
                        # Only the last line can lack its line end.
                        if not raw.endswith("\n"):
                            store.torn = raw.encode("utf-8", "surrogateescape")
                            store._torn_end = os.fstat(fh.fileno()).st_size
                            break
                        raise ValueError(
                            f"detection store {str(path)!r} line {number} is not "
                            f"a detection event: {exc}"
                        ) from None
        except FileNotFoundError:
            return store
        store._saved = len(store.events)
        # Text-mode reading turns \r and \r\n line ends into \n.
        store._unterminated = not raw.endswith("\n")
        return store

    def save(self, path) -> None:
        """Append the events added since ``load`` to ``path``, the file
        the store was loaded from, in one write, and fsync it; with none
        added and no torn line to cut the file is not opened.  A torn line
        is cut back to the line end before it first, unless the file no
        longer ends in it where ``load`` saw it: another writer has cut it
        and appended since, so ``ValueError`` is raised and the file left
        as it is.  A store with no file behind it writes ``path`` whole."""
        if self._saved is None:
            mode, new = "w", self.events
        else:
            mode, new = "a+", self.events[self._saved:]
            if not new and not self.torn:
                return
        text = "".join(event.to_json() + "\n" for event in new)
        with open(path, mode) as fh:
            if self.torn:
                cut = self._torn_end - len(self.torn)
                if (os.fstat(fh.fileno()).st_size != self._torn_end
                        or os.pread(fh.fileno(), len(self.torn), cut) != self.torn):
                    raise ValueError(
                        f"detection store {str(path)!r} changed since loaded; not saved"
                    )
                fh.truncate(cut)
            elif self._unterminated:
                text = "\n" + text
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        self._saved, self._unterminated, self.torn = len(self.events), False, b""

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


# One located event's GeoJSON feature, laid out as
# json.dumps(..., sort_keys=True, indent=2) lays out a member of the
# top-level "features" list.
_FEATURE = """\
    {
      "geometry": {
        "coordinates": [
          %s,
          %s
        ],
        "type": "Point"
      },
      "properties": {
        "beacon_id": %s,
        "count": %d,
        "first_seen_s": %d,
        "received_at": %d,
        "receiver_id": %s
      },
      "type": "Feature"
    }"""


def _json_number(value: float | None) -> str:
    """``value`` as json.dumps writes it: ``null``, or the number's repr.
    Values check themselves and readers only parse: a ``DetectionEvent``
    refuses a position off the globe, so json's ``NaN`` and ``Infinity``
    never arise."""
    if value is None:
        return "null"
    if type(value) is float:
        return float.__repr__(value)
    return int.__repr__(value)


def store_to_geojson(store: DetectionStore) -> str:
    """The map text: a Point feature per located detection event, byte for
    byte what ``json.dumps(..., sort_keys=True, indent=2) + "\\n"`` writes
    for it, without the stdlib's pure-Python indenting encoder.
    Quarantined events have no coordinates and stay in the store only."""
    features = ",\n".join([
        _FEATURE % (
            _json_number(event.lon),
            _json_number(event.lat),
            _quote(event.beacon_id),
            event.count,
            event.first_seen_s,
            event.received_at,
            _quote(event.receiver_id),
        )
        for event in store.events
        if not event.quarantined
    ])
    features = "[\n" + features + "\n  ]" if features else "[]"
    return '{\n  "features": %s,\n  "type": "FeatureCollection"\n}\n' % features
