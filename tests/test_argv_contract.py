"""The command line's error contract, checked on generated argv.

Every command runs in process on small inputs: option values come from a
fixed pool of malformed and valid tokens, lists hold at most three items
and ``--trials`` is at most 2.  The inputs that need a memory limit live in
``test_bounded_work.py``, not here.  Whatever the argv:

- no exception escapes ``main``, and the exit code is 0, 1 or 2;
- argparse's own usage errors keep argparse's format;
- a command's exit 2 prints exactly one ``error:`` line and writes no
  output file;
- exit 0 writes outputs that parse.
"""

import contextlib
import csv
import io
import json
import math
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
        options(received_at=values("1754650000"), geojson=st.just("@out/map.geojson")),
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=COMMANDS)
def test_generated_argv_keep_the_error_contract(folders, argv):
    inputs, outputs = folders
    argv = [a.replace("@in/", f"{inputs}/").replace("@out/", f"{outputs}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
    except SystemExit as exc:
        # argparse refused the argv before any command ran.
        assert exc.code == 2
        assert err.getvalue().startswith("usage: trackside")
        assert err.getvalue().splitlines()[-1].startswith("trackside ")
        assert not any(outputs.iterdir())
        return
    written = sorted(outputs.iterdir())
    try:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert code in (0, 1, 2)
        assert len(errors) <= 1
        if code == 2:
            assert errors == err.getvalue().splitlines() and len(errors) == 1
            assert (out.getvalue(), written) == ("", [])
        if code == 0:
            assert errors == []
            for path in written:
                check_parses(path)
            if argv[0] == "encode":
                assert protocol.decode_sms(out.getvalue().splitlines()).complete
            elif argv[0] == "export" and not written:
                assert json.loads(out.getvalue())["type"] == "FeatureCollection"
    finally:
        for path in written:
            path.unlink()
