"""Spans around calls into each ``trackside`` module, installed from outside.

``install`` replaces module attributes and class methods of the imported
program with wrappers; nothing in ``src/`` knows about tracing.  Each
wrapper records a span (name, start, end, parent, job) and keeps exact
per-name aggregates: calls, total time, self time (span time minus child
spans) and exceptions raised out of the call.  A few hot helpers only
count calls.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# Spans beyond this many per process are aggregated but not kept, which
# bounds memory and trace size; a calibration makes about 1.8M of them.
SPAN_CAP = 200_000

# (module, attribute, span name).  A dotted attribute is a class method.
SPANS = [
    ("cli", "main", "cli.main"),
    *[("cli", f"cmd_{c}", f"cli.{c}")
      for c in ("calibrate", "guide", "plan", "matrix", "ingest", "export")],
    ("sim", "calibrate", "sim.calibrate"),
    ("sim", "run_matrix", "sim.run_matrix"),
    ("sim", "simulate_pass", "sim.simulate_pass"),
    ("presets", "DriveScenario.pass_probability", "presets.pass_probability"),
    ("pathloss", "detection_range", "pathloss.detection_range"),
    ("rendezvous", "detection_probability", "rendezvous.detection_probability"),
    ("rendezvous", "detection_probability_oracle", "rendezvous.oracle"),
    ("power", "derive_guide", "power.derive_guide"),
    ("roadplan", "road_from_geojson", "roadplan.road_from_geojson"),
    ("roadplan", "plan_deployment", "roadplan.plan_deployment"),
    ("roadplan", "select_sites", "roadplan.select_sites"),
    ("roadplan", "speed_profile", "roadplan.speed_profile"),
    ("protocol", "receiver_step", "protocol.receiver_step"),
    ("protocol", "encode_sms", "protocol.encode_sms"),
    ("protocol", "decode_sms", "protocol.decode_sms"),
    ("protocol", "merge_detections", "protocol.merge_detections"),
    ("protocol", "DetectionStore.load", "protocol.DetectionStore.load"),
    ("protocol", "DetectionStore.save", "protocol.DetectionStore.save"),
    ("protocol", "store_to_geojson", "protocol.store_to_geojson"),
    ("gsm7", "septet_length", "gsm7.septet_length"),
]
COUNTS = [
    ("presets", "DriveScenario.in_range_time_s", "presets.in_range_time_s"),
    ("roadplan", "Road.arc_lengths", "roadplan.Road.arc_lengths"),
    ("roadplan", "haversine_m", "roadplan.haversine_m"),
    # One call per calibration grid point, plus one final report.
    ("sim", "_mismatch_report", "sim._mismatch_report"),
]
LAYERS = ("cli", "sim", "presets", "pathloss", "rendezvous", "power", "roadplan",
          "protocol", "gsm7")


class Tracer:
    def __init__(self, job: int = -1):
        self.job = job
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Kept spans, one entry per column.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        # name -> [calls, total_s, self_s, errors]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        # Open spans: [kept index or -1, child time so far].
        self._stack: list[list] = [[-1, 0.0]]

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span.  ``before(args, kwargs)``
        returns a token handed to ``after(token, args, kwargs, result)``."""
        stat = self._stat(name)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            parent = stack[-1]
            index = -1
            if self.spans_total < SPAN_CAP:
                index = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(parent[0])
                self.span_job.append(self.job)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            self.spans_total += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[1]
                parent[1] += took
                if index >= 0:
                    self.span_start[index] = start
                    self.span_end[index] = end
            if after:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` so calls and exceptions are counted, without a span."""
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise

        return wrapper

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans_total": self.spans_total,
        }

    def span_arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "job": np.frombuffer(self.span_job, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        import numpy as np

        meta = dict(self.snapshot(), names=self.names, pid=os.getpid())
        np.savez(path, meta=np.array(json.dumps(meta)), **self.span_arrays())


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observers(tracer: Tracer) -> dict:
    """Counts that need a call's arguments or result, by span name."""
    pass_probability = tracer._stat("presets.pass_probability")
    mismatch = tracer._stat("sim._mismatch_report")
    ranges = tracer.distinct.setdefault("pathloss.detection_range", set())

    def range_input(token, args, kwargs, result):
        model = args[0]
        ranges.add((
            model.rssi_ref_dbm, model.exponent, model.reliability_threshold_dbm,
            frozenset(model.attenuation_db.items()),
            _arg(args, kwargs, 1, "threshold_dbm"),
            frozenset(_arg(args, kwargs, 2, "materials", ())),
        ))

    def oracle_trials(token, args, kwargs, result):
        tracer.add("rendezvous.oracle.trials", _arg(args, kwargs, 3, "trials"))

    def guide_probes(token, args, kwargs, result):
        tracer.add("power.derive_guide.probes", pass_probability[0] - token)
        tracer.add("power.derive_guide.rows", len(result))

    def grid_points(token, args, kwargs, result):
        tracer.add("sim.calibrate.grid_points", mismatch[0] - token - 1)

    def segments(token, args, kwargs, result):
        tracer.add("protocol.encode_sms.segments", len(result))

    def merged(token, args, kwargs, result):
        tracer.add("protocol.merge.new", result)
        tracer.add("protocol.merge.offered", len(_arg(args, kwargs, 1, "decoded").records))

    def bytes_read(token, args, kwargs, result):
        tracer.add("protocol.store.bytes_read", token)

    def bytes_written(token, args, kwargs, result):
        tracer.add("protocol.store.bytes_written", _file_size(_arg(args, kwargs, 1, "path")))

    return {
        "pathloss.detection_range": (None, range_input),
        "rendezvous.oracle": (None, oracle_trials),
        "power.derive_guide": (lambda a, k: pass_probability[0], guide_probes),
        "sim.calibrate": (lambda a, k: mismatch[0], grid_points),
        "protocol.encode_sms": (None, segments),
        "protocol.merge_detections": (None, merged),
        # load is a classmethod: args[0] is the class, args[1] the path.
        "protocol.DetectionStore.load": (
            lambda a, k: _file_size(_arg(a, k, 1, "path")), bytes_read),
        "protocol.DetectionStore.save": (None, bytes_written),
    }


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function of the imported ``trackside`` package and
    return the patches as (owner, attribute, original, wrapper).

    A function imported by name into other modules (``from .rendezvous
    import detection_probability``) is replaced there too, so every caller
    goes through the wrapper."""
    import trackside.cli  # noqa: F401  (imports every traced module)

    observers = _observers(tracer)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "trackside" or n.startswith("trackside."))]
    patches: list[tuple] = []

    def patch(module_name: str, attr: str, make) -> None:
        module = sys.modules[f"trackside.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                patches.append((cls, method, raw, classmethod(make(raw.__func__))))
            else:
                patches.append((cls, method, raw, make(raw)))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for m in modules:
            for key, value in vars(m).items():
                if value is original:
                    patches.append((m, key, original, wrapped))

    for module_name, attr, name in SPANS:
        before, after = observers.get(name, (None, None))
        patch(module_name, attr,
              functools.partial(tracer.span, name, before=before, after=after))
    for module_name, attr, name in COUNTS:
        patch(module_name, attr, functools.partial(tracer.count, name))
    apply(patches)
    return patches


def apply(patches: list[tuple]) -> None:
    for owner, attr, _, wrapped in patches:
        setattr(owner, attr, wrapped)


def restore(patches: list[tuple]) -> None:
    for owner, attr, original, _ in patches:
        setattr(owner, attr, original)


def merge(snapshots: list[dict]) -> dict:
    """Sum per-process snapshots."""
    total = {"stats": {}, "counters": {}, "distinct": {}, "spans_total": 0}
    for snap in snapshots:
        for name, (calls, took, own, errors) in snap["stats"].items():
            s = total["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += calls
            s[1] += took
            s[2] += own
            s[3] += errors
        for key in ("counters", "distinct"):
            for name, value in snap[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["spans_total"] += snap["spans_total"]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict, jobs: int, overhead_ratio: float) -> dict[str, tuple]:
    """Per-layer metrics as (value, unit); everything but ratios is per job."""
    stats, counters = total["stats"], total["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0, 0])[0] / jobs

    def took(name):
        return stats.get(name, [0, 0.0, 0.0, 0])[1] / jobs

    def own(name):
        return stats.get(name, [0, 0.0, 0.0, 0])[2] / jobs

    def counter(name):
        return counters.get(name, 0) / jobs

    m: dict[str, tuple] = {"cli.import_s": (counter("cli.import_s"), "s/job")}
    commands = ("calibrate", "guide", "plan", "matrix", "ingest", "export")
    for c in commands:
        m[f"cli.{c}.s"] = (took(f"cli.{c}"), "s/job")
    m["cli.self_s"] = (own("cli.main") + sum(own(f"cli.{c}") for c in commands), "s/job")
    m["sim.calibrate.self_s"] = (own("sim.calibrate"), "s/job")
    m["sim.calibrate.grid_points"] = (counter("sim.calibrate.grid_points"), "count/job")
    m["sim.run_matrix.self_s"] = (own("sim.run_matrix"), "s/job")
    m["sim.simulate_pass.calls"] = (calls("sim.simulate_pass"), "count/job")
    m["sim.simulate_pass.self_s"] = (own("sim.simulate_pass"), "s/job")
    m["presets.pass_probability.calls"] = (calls("presets.pass_probability"), "count/job")
    m["presets.pass_probability.self_s"] = (own("presets.pass_probability"), "s/job")
    m["presets.in_range_time_s.calls"] = (calls("presets.in_range_time_s"), "count/job")
    m["pathloss.detection_range.calls"] = (calls("pathloss.detection_range"), "count/job")
    m["pathloss.detection_range.self_s"] = (own("pathloss.detection_range"), "s/job")
    m["pathloss.detection_range.distinct_ratio"] = (_ratio(
        total["distinct"].get("pathloss.detection_range", 0),
        stats.get("pathloss.detection_range", [0])[0]), "ratio")
    for name in ("rendezvous.detection_probability", "rendezvous.oracle"):
        m[f"{name}.calls"] = (calls(name), "count/job")
        m[f"{name}.self_s"] = (own(name), "s/job")
    m["rendezvous.oracle.trials"] = (counter("rendezvous.oracle.trials"), "count/job")
    m["power.derive_guide.calls"] = (calls("power.derive_guide"), "count/job")
    m["power.derive_guide.self_s"] = (own("power.derive_guide"), "s/job")
    m["power.derive_guide.probes_per_row"] = (_ratio(
        counters.get("power.derive_guide.probes", 0),
        counters.get("power.derive_guide.rows", 0)), "probes/row")
    m["roadplan.road_from_geojson.s"] = (took("roadplan.road_from_geojson"), "s/job")
    m["roadplan.plan_deployment.s"] = (took("roadplan.plan_deployment"), "s/job")
    m["roadplan.select_sites.self_s"] = (own("roadplan.select_sites"), "s/job")
    m["roadplan.speed_profile.self_s"] = (own("roadplan.speed_profile"), "s/job")
    m["roadplan.Road.arc_lengths.calls"] = (calls("roadplan.Road.arc_lengths"), "count/job")
    m["roadplan.haversine_m.calls"] = (calls("roadplan.haversine_m"), "count/job")
    m["protocol.receiver_step.calls"] = (calls("protocol.receiver_step"), "count/job")
    m["protocol.receiver_step.self_s"] = (own("protocol.receiver_step"), "s/job")
    m["protocol.encode_sms.self_s"] = (own("protocol.encode_sms"), "s/job")
    m["protocol.encode_sms.segments"] = (counter("protocol.encode_sms.segments"), "count/job")
    m["protocol.decode_sms.self_s"] = (own("protocol.decode_sms"), "s/job")
    m["protocol.merge_detections.self_s"] = (own("protocol.merge_detections"), "s/job")
    m["protocol.merge.new_ratio"] = (_ratio(
        counters.get("protocol.merge.new", 0),
        counters.get("protocol.merge.offered", 0)), "ratio")
    m["protocol.DetectionStore.load.self_s"] = (own("protocol.DetectionStore.load"), "s/job")
    m["protocol.DetectionStore.save.self_s"] = (own("protocol.DetectionStore.save"), "s/job")
    m["protocol.store.bytes_written"] = (counter("protocol.store.bytes_written"), "B/job")
    m["protocol.store.bytes_read"] = (counter("protocol.store.bytes_read"), "B/job")
    m["protocol.store_to_geojson.self_s"] = (own("protocol.store_to_geojson"), "s/job")
    m["gsm7.septet_length.calls"] = (calls("gsm7.septet_length"), "count/job")
    m["gsm7.septet_length.self_s"] = (own("gsm7.septet_length"), "s/job")
    for layer in LAYERS:
        errors = sum(s[3] for n, s in stats.items() if n.split(".")[0] == layer)
        m[f"{layer}.errors"] = (errors / jobs, "count/job")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
