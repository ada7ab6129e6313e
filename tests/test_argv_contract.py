"""The command line's error contract, checked on generated argv.

Every command runs in process on small inputs: option values come from a
fixed pool of malformed and valid tokens, lists hold at most three items
and ``--trials`` is at most 2.  The inputs that need a memory limit live in
``test_bounded_work.py``, not here.  Whatever the argv:

- no exception escapes ``main``, and the exit code is 0, 1 or 2;
- argparse's own usage errors keep argparse's format;
- a command's exit 2 prints exactly one ``error:`` line, writes no
  output file and leaves an existing store as it was;
- exit 0 writes outputs that parse.

The same holds for files with one fault each, of every kind a command
reads: preset INI, RSSI CSV, road GeoJSON, registry CSV, segment dump and
detection store.
"""

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackside import protocol
from trackside.cli import main

M_PER_DEG = math.pi * 6371000.0 / 180.0

MALFORMED = ["0", "-1", "nan", "inf", "-inf", "", "abc", "1,"]


def values(*valid: str):
    """A malformed token or a valid one, about as often."""
    return st.one_of(st.sampled_from(MALFORMED), st.sampled_from(valid))


def number_list(*valid: str):
    return st.lists(values(*valid), min_size=1, max_size=3).map(",".join)


def options(**choices) -> st.SearchStrategy[list[str]]:
    """``--name=value`` for each option drawn, in a drawn order; a choice
    of None leaves the option out."""
    flag = {name: f"--{name.replace('_', '-')}" for name in choices}
    drawn = st.fixed_dictionaries(
        {name: st.one_of(st.none(), strategy) for name, strategy in choices.items()}
    )
    return drawn.flatmap(
        lambda picked: st.permutations(
            [f"{flag[name]}={value}" for name, value in picked.items() if value is not None]
        )
    )


# "@in/" names an input file the test writes, "@out/" an output path in
# an empty directory.
PRESETS = st.sampled_from(["hm10-bt4", "otsb-bt5", "nosuch"])
COMMANDS = st.one_of(
    options(
        mount=st.sampled_from(["wheelarch", "bonnet"]),
        speeds=number_list("5", "30", "45"),
        intervals=number_list("700", "1500"),
        trials=values("1", "2"),
        seed=values("7"),
        preset=PRESETS,
        out_csv=st.just("@out/matrix.csv"),
        out_text=st.just("@out/matrix.txt"),
    ).map(lambda argv: ["matrix", *argv]),
    options(
        reliability=values("0.5", "0.95", "1"),
        speeds=number_list("5", "30", "60"),
        preset=PRESETS,
        out_csv=st.just("@out/guide.csv"),
        out_text=st.just("@out/guide.txt"),
    ).map(lambda argv: ["guide", *argv]),
    st.tuples(
        st.sampled_from(["@in/road.geojson", "@in/missing.geojson"]),
        values("1", "3"),
        options(
            reliability=values("0.5", "0.95", "1"),
            preset=PRESETS,
            summary=st.just("@out/plan.txt"),
        ),
    ).map(lambda t: ["plan", f"--road={t[0]}", f"--budget={t[1]}",
                     "--out=@out/plan.geojson", *t[2]]),
    st.tuples(
        st.sampled_from(["RX1", "RX2", "rx1"]),
        st.lists(
            st.one_of(
                st.sampled_from(["B-01:2:10", "B-07:1:55"]),
                st.tuples(st.sampled_from(["B-01", "b01"]), values("2"), values("10")).map(
                    ":".join
                ),
            ),
            min_size=1, max_size=3,
        ),
    ).map(lambda t: ["encode", f"--receiver={t[0]}", *t[1]]),
    st.sampled_from(["dump", "partial", "garbage", "empty"]).map(
        lambda name: ["decode", f"--segments=@in/{name}.txt"]
    ),
    st.tuples(
        st.sampled_from(["dump", "partial", "garbage", "empty"]),
        options(received_at=values("1754650000")),
    ).map(lambda t: ["ingest", f"--segments=@in/{t[0]}.txt", "--registry=@in/registry.csv",
                     "--store=@out/store.ndjson", *t[1]]),
    st.tuples(
        st.sampled_from(["@in/store.ndjson", "@in/missing.ndjson"]),
        options(out=st.just("@out/map.geojson")),
    ).map(lambda t: ["export", f"--store={t[0]}", *t[1]]),
)


@pytest.fixture(scope="module")
def folders(tmp_path_factory):
    """(inputs, outputs): the input files, and an empty output directory."""
    inputs, outputs = tmp_path_factory.mktemp("in"), tmp_path_factory.mktemp("out")
    write_inputs(inputs)
    return inputs, outputs


def write_inputs(folder: Path) -> None:
    coords = [[i * 100.0 / M_PER_DEG, 0.0] for i in range(11)]  # 1 km straight
    (folder / "road.geojson").write_text(json.dumps({"type": "LineString",
                                                     "coordinates": coords}))
    (folder / "registry.csv").write_text("beacon_id,lat,lon\nB-01,5.41,118.03\n")
    records = [protocol.DetectionRecord(f"B-{i:02d}", 10 * i, 1 + i % 3) for i in range(40)]
    dump = [p.text for p in protocol.encode_sms("RX1", records)]
    (folder / "dump.txt").write_text("\n".join(dump) + "\n")
    (folder / "partial.txt").write_text(dump[0] + "\n")
    (folder / "garbage.txt").write_text("hello\nT1|RX1|x/1|B-01:1:5\n")
    (folder / "empty.txt").write_text("")
    (folder / "store.ndjson").write_text(
        '{"beacon_id": "B-01", "count": 2, "first_seen_s": 10, "lat": 5.41, "lon": 118.03, '
        '"quarantined": false, "received_at": 1, "receiver_id": "RX1"}\n'
    )


def check_parses(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
    elif path.suffix == ".geojson":
        assert json.loads(text)["type"] == "FeatureCollection"
    elif path.suffix == ".ndjson":
        assert all(protocol.DetectionEvent.from_json(line) for line in text.splitlines())
    else:
        assert text.endswith("\n")


def check_contract(argv, inputs: Path, outputs: Path, kept: bytes | None = None) -> None:
    """Run ``argv`` through ``main`` and check the contract, then empty
    ``outputs``.  ``kept`` is the text of an existing store the test wrote
    to ``@out/store.ndjson``, which an exit 2 must leave as it was."""
    argv = [a.replace("@in/", f"{inputs}/").replace("@out/", f"{outputs}/") for a in argv]
    store = outputs / "store.ndjson"
    before = [store] if kept is not None else []
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
    except SystemExit as exc:
        # argparse refused the argv before any command ran.
        assert exc.code == 2
        assert err.getvalue().startswith("usage: trackside")
        assert err.getvalue().splitlines()[-1].startswith("trackside ")
        assert sorted(outputs.iterdir()) == before
        return
    written = sorted(outputs.iterdir())
    try:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert code in (0, 1, 2)
        assert len(errors) <= 1
        if code == 2:
            assert errors == err.getvalue().splitlines() and len(errors) == 1
            assert (out.getvalue(), written) == ("", before)
            if kept is not None:
                assert store.read_bytes() == kept
        if code == 0:
            assert errors == []
            # A store the command only read parses too: export of a store
            # whose last line was cut short exits 1.
            for path in written:
                check_parses(path)
            if argv[0] == "encode":
                assert protocol.decode_sms(out.getvalue().splitlines()).complete
            elif argv[0] == "export" and not written:
                assert json.loads(out.getvalue())["type"] == "FeatureCollection"
    finally:
        for path in written:
            path.unlink()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=COMMANDS)
def test_generated_argv_keep_the_error_contract(folders, argv):
    check_contract(argv, *folders)


# The file half: each command reads a file of one kind, drawn as a valid
# file with one fault.  The faults come from a fixed pool, and no number
# in it is a tiny positive speed or a large link margin, so every case
# stays small (test_bounded_work.py runs those under a memory limit).
VALID_FILES = {
    "preset": "[pathloss]\nrssi_ref_dbm = -70.0\nexponent = 1.7883456975917413\n"
              "reliability_threshold_dbm = -95.0\n\n[attenuation_db]\nbonnet = 2.5\n"
              "none = 0.0\n\n[scanner]\nscan_window_ms = 1170.0\nscan_cycle_ms = 2500.0\n",
    "rssi": "distance_m,rssi_dbm,materials\n1,-70,\n25,-95,\n10,-90.9,plastic_case\n",
    "road": json.dumps({
        "type": "Feature",
        "properties": {"surface_vmax_mph": 45},
        "geometry": {"type": "LineString",
                     "coordinates": [[i * 100.0 / M_PER_DEG, 0.5] for i in range(6)]},
    }),
    "registry": "beacon_id,lat,lon\nB-01,5.41,118.03\nB-07,5.42,118.04\n",
    "segments": "T1|RX1|1/2|B-01:2:10;B-07:1:55\nT1|RX1|2/2|B-99:3:70\n",
    "store": '{"beacon_id": "B-01", "count": 2, "first_seen_s": 10, "lat": 5.41, '
             '"lon": 118.03, "quarantined": false, "received_at": 1, "receiver_id": "RX1"}\n'
             '{"beacon_id": "B-99", "count": 1, "first_seen_s": 55, "lat": null, '
             '"lon": null, "quarantined": true, "received_at": 1, "receiver_id": "RX1"}\n',
}
# "@file" is the drawn file; a store is drawn into the output directory.
FILE_COMMANDS = {
    "preset": [["guide", "--reliability=0.95", "--speeds=10,45", "--preset=@file",
                "--out-csv=@out/guide.csv"]],
    "rssi": [["calibrate", "--rssi=@file", "--out=@out/preset.ini",
              "--report=@out/report.txt"]],
    "road": [["plan", "--road=@file", "--budget=3", "--reliability=0.95",
              "--out=@out/plan.geojson", "--summary=@out/plan.txt"]],
    "registry": [["ingest", "--segments=@in/dump.txt", "--registry=@file",
                  "--store=@out/store.ndjson", "--received-at=2"]],
    "segments": [
        ["ingest", "--segments=@file", "--registry=@in/registry.csv",
         "--store=@out/store.ndjson", "--received-at=2"],
        ["decode", "--segments=@file"],
    ],
    "store": [
        ["ingest", "--segments=@in/dump.txt", "--registry=@in/registry.csv",
         "--store=@out/store.ndjson", "--received-at=2"],
        ["export", "--store=@out/store.ndjson", "--out=@out/map.geojson"],
    ],
}
NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
FAULTY_NUMBERS = [*MALFORMED, "NaN", "Infinity", "null", "true", '"x"', "1e400"]


@st.composite
def faulty(draw, text: str) -> bytes:
    """``text`` with one fault: a number replaced, a cut, a line dropped
    or repeated, or a byte that is not UTF-8."""
    fault = draw(st.sampled_from(["number", "cut", "drop", "repeat", "byte"]))
    if fault == "number":
        spans = [m.span() for m in NUMBER.finditer(text)]
        start, end = draw(st.sampled_from(spans))
        text = text[:start] + draw(st.sampled_from(FAULTY_NUMBERS)) + text[end:]
    elif fault == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif fault in ("drop", "repeat"):
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if fault == "drop" else [lines[i]] * 2
        text = "".join(lines)
    data = text.encode("utf-8")
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.parametrize("kind, examples", [
    ("preset", 50), ("rssi", 20), ("road", 50), ("registry", 40), ("segments", 50),
    ("store", 50),
])
def test_faulty_files_keep_the_error_contract(folders, kind, examples):
    inputs, outputs = folders

    @settings(derandomize=True, max_examples=examples, deadline=None)
    @given(data=faulty(VALID_FILES[kind]), argv=st.sampled_from(FILE_COMMANDS[kind]))
    def case(data, argv):
        if kind == "store":
            path, kept = outputs / "store.ndjson", data
        else:
            path, kept = inputs / f"faulty-{kind}", None
        path.write_bytes(data)
        check_contract([a.replace("@file", str(path)) for a in argv], inputs, outputs, kept)

    case()
