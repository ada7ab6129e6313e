"""Command-line entry point: calibration, simulation, planning, protocol.

Every subcommand is deterministic for fixed inputs and seed; randomized
commands print the effective seed in their report header.  Exit codes:
0 success, 1 model or feasibility failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

from . import power, protocol, roadplan, sim
from .pathloss import SingularFitError, fit_exponent, load_samples_csv
from .presets import (
    DEFAULT_PATH_LOSS_PRESET,
    DriveScenario,
    Mount,
    pass_speed_ms,
    path_loss_preset,
    read_preset_ini,
    scenario_for_mount,
    write_preset_ini,
)

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    """A usage or config error: exit 2 with one ``error:`` line."""


def _invalid_file(kind: str, path: str, exc: Exception) -> ConfigError:
    detail = str(exc).splitlines()[0]
    return ConfigError(f"{kind} {path!r} is invalid: {detail}")


def _number(token: str, convert, what: str):
    """``convert(token)``, or a usage error naming ``what`` and the token."""
    try:
        return convert(token)
    except ValueError:
        raise ConfigError(f"{what}: {token!r} is not a valid {convert.__name__}") from None


def _checked(build, what: str, *args, **kwargs):
    """``build(*args, **kwargs)`` on command-line values; a ``ValueError``
    it raises is a usage error naming ``what``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _reliability(value: float | None) -> float | None:
    """A reliability target from the command line: a share in [0, 1]."""
    if value is not None and not 0.0 <= value <= 1.0:
        raise ConfigError(f"--reliability: {value!r} is outside [0, 1]")
    return value


def _numbers(text: str | None, convert, what: str, default) -> list:
    """A comma-separated list flag; ``default`` only when it is omitted,
    so an empty list is a malformed number like any other."""
    if text is None:
        return list(default)
    return [_number(x, convert, what) for x in text.split(",")]


def _resolve_preset(value: str | None, mount: Mount = Mount.WHEEL_ARCH) -> DriveScenario:
    """The command's one drive-by scenario, from a preset name or a
    calibration INI written by `calibrate`."""
    name = value or DEFAULT_PATH_LOSS_PRESET
    if not os.path.exists(name):
        try:
            return scenario_for_mount(mount, path_loss_preset(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    try:
        return scenario_for_mount(mount, *read_preset_ini(name))
    except KeyError as exc:
        raise ConfigError(
            f"calibration preset {name!r} has no [{exc.args[0]}] section"
        ) from None
    except (OSError, ValueError, configparser.Error) as exc:
        raise _invalid_file("calibration preset", name, exc) from None


def _write(path: str | None, text: str, out) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        out.write(text)


def cmd_calibrate(args, out) -> int:
    try:
        samples = load_samples_csv(args.rssi)
    except (OSError, ValueError) as exc:
        raise _invalid_file("RSSI samples", args.rssi, exc) from None
    try:
        fit = fit_exponent(samples)
    except SingularFitError as exc:
        raise SingularFitError(f"singular fit: {exc}") from None
    except ValueError as exc:
        raise _invalid_file("RSSI samples", args.rssi, exc) from None

    result = sim.calibrate(path_loss=fit.model)
    calibrated = scenario_for_mount(
        Mount.BONNET, fit.model, result.scanner(), result.bonnet_attenuation_db
    )
    write_preset_ini(args.out, calibrated.path_loss, calibrated.scanner)

    lines = ["# calibration report"]
    lines.append(f"exponent: {fit.model.exponent:.6f}")
    lines.append(f"fit stderr: {fit.stderr:.6f}")
    lines.append(
        "fit residuals_db: " + " ".join(f"{r:.4f}" for r in fit.residuals_db)
    )
    lines.append(f"scan_window_ms: {result.scan_window_ms:g}")
    lines.append(f"bonnet_attenuation_db: {result.bonnet_attenuation_db:g}")
    lines.append(f"band mismatch objective: {result.objective}")
    mismatched = result.mismatches()
    lines.append(f"cells off: {len(mismatched)} of {len(result.per_cell)}")
    for r in mismatched:
        lines.append(
            f"  {r.mount.value} {r.speed_mph:g} mph {r.interval_ms} ms: "
            f"target {r.target.value} expected_p {r.expected_probability:.3f}"
        )
    lines.append(f"preset written: {args.out}")
    _write(args.report, "\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_matrix(args, out) -> int:
    mount = Mount(args.mount)
    scenario = _resolve_preset(args.preset, mount)
    # By default, the grid of the mount's field trials.
    field = sim.load_target_matrix(mount)
    intervals = _numbers(args.intervals, int, "--intervals", field.intervals_ms)
    speeds = _numbers(args.speeds, float, "--speeds", field.speeds_mph)
    seed = args.seed if args.seed is not None else sim.DEFAULT_SEED
    spec = _checked(
        sim.TrialMatrixSpec, "matrix",
        speeds_mph=tuple(speeds),
        intervals_ms=tuple(intervals),
        trials_per_cell=args.trials,
        seed=seed,
    )
    result = sim.run_matrix(spec, scenario)
    header = f"# drive-by matrix  mount={mount.value}  trials={args.trials}  seed={seed}\n"
    if args.out_csv:
        _write(args.out_csv, result.to_csv(), out)
    if args.out_text or not args.out_csv:
        _write(args.out_text, header + result.to_text(), out)
    return EXIT_OK


def cmd_plan(args, out) -> int:
    if args.budget < 1:
        raise ConfigError(f"--budget: {args.budget} is below 1")
    try:
        with open(args.road) as fh:
            road = roadplan.road_from_geojson(fh.read())
    except (OSError, ValueError) as exc:
        raise _invalid_file("road file", args.road, exc) from None
    preset = args.preset or DEFAULT_PATH_LOSS_PRESET
    plan = roadplan.plan_deployment(
        road,
        budget=args.budget,
        scenario=_resolve_preset(preset),
        # A calibration INI is labelled by its file name, never its directory.
        beacon_preset=os.path.basename(preset),
        reliability_target=_reliability(args.reliability),
    )
    geojson = roadplan.plan_to_geojson(plan)
    _write(args.out, json.dumps(geojson, sort_keys=True, indent=2) + "\n", out)

    lines = [f"# deployment plan  road_length_m={plan.road.length_m:.1f}  budget={args.budget}"]
    for site in plan.sites:
        lines.append(
            f"{site.beacon_id}  arc={site.arc_m:.1f}m  vmax={site.local_vmax_mph:.1f}mph  "
            f"interval={site.interval_ms}ms  battery={site.predicted_battery_days:.2f}d  "
            f"p_detect={site.detection_probability:.3f}"
        )
    lines.append(
        f"expected detections per traverse: {plan.expected_detections_per_traverse:.3f}"
    )
    if plan.coverage_gaps:
        for start, end in plan.coverage_gaps:
            lines.append(f"coverage gap: {start:.1f} - {end:.1f} m")
    else:
        lines.append("no coverage gaps")
    _write(args.summary, "\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_guide(args, out) -> int:
    if args.reliability is None:
        if args.speeds is not None or args.preset is not None:
            raise ConfigError(
                "--speeds and --preset need --reliability: the published guide is fixed"
            )
        rows = power.published_guide()
    else:
        scenario = _resolve_preset(args.preset)
        speeds = _numbers(args.speeds, float, "--speeds", map(float, power.GUIDE_INTERVALS_MS))
        for speed in speeds:
            try:
                pass_speed_ms(speed)
            except ValueError:
                raise ConfigError(f"--speeds: {speed!r} is not a positive, finite speed") from None
        rows = power.derive_guide(_reliability(args.reliability), speeds, scenario)

    csv_lines = ["max_speed_mph,interval_ms,battery_days"]
    for row in rows:
        interval = row.interval_ms if row.feasible else ""
        days = f"{row.battery_days:.2f}" if row.feasible else "infeasible"
        csv_lines.append(f"{row.max_speed_mph:g},{interval},{days}")
    csv_text = "\n".join(csv_lines) + "\n"
    if args.out_csv:
        _write(args.out_csv, csv_text, out)

    width = 16
    lines = [
        "max speed (mph)".ljust(width)
        + "interval (ms)".rjust(width)
        + "battery (days)".rjust(width)
    ]
    for row in rows:
        if row.feasible:
            lines.append(
                f"{row.max_speed_mph:g}".ljust(width)
                + f"{row.interval_ms}".rjust(width)
                + f"{row.battery_days:.2f}".rjust(width)
            )
        else:
            lines.append(f"{row.max_speed_mph:g}".ljust(width) + "infeasible".rjust(2 * width))
    _write(args.out_text, "\n".join(lines) + "\n", out)
    return EXIT_OK


def _read_segment_lines(source: str) -> list[str]:
    try:
        if source == "-":
            return [line.strip() for line in sys.stdin if line.strip()]
        with open(source, encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise _invalid_file("segments", source, exc) from None


def cmd_ingest(args, out) -> int:
    lines = _read_segment_lines(args.segments)
    if not lines:
        raise ConfigError("no segments to ingest")
    try:
        registry = protocol.load_registry(args.registry)
    except (OSError, ValueError) as exc:
        raise _invalid_file("registry", args.registry, exc) from None
    store = protocol.DetectionStore.load(args.store)
    received_at = args.received_at if args.received_at is not None else int(time.time())

    groups, bad = protocol.group_segments(lines)
    report = [f"# ingest  received_at={received_at}"]
    if store.torn:
        report.append(
            f"  ! unfinished last store line dropped, {len(store.torn)} bytes: {store.torn!r}"
        )
    added_total = 0
    for (receiver, total), segs in sorted(groups.items()):
        decoded = protocol.decode_sms(segs)
        added = protocol.merge_detections(store, decoded, registry, received_at)
        added_total += added
        missing = protocol.format_ranges(decoded.missing_segments)
        status = f"missing {missing}" if missing else "complete"
        report.append(
            f"{receiver} ({len(segs)} segments, {status}): "
            f"{len(decoded.records)} records, {added} new"
        )
        for diag in decoded.diagnostics:
            report.append(f"  ! {diag}")
    for line in bad:
        report.append(f"  ! unparseable segment skipped: {line}")

    store.save(args.store)
    quarantined = len(store.quarantined())
    report.append(
        f"store: {len(store.events)} events ({quarantined} quarantined), {added_total} new"
    )
    _write(None, "\n".join(report) + "\n", out)
    return EXIT_OK if not bad else EXIT_MODEL


def cmd_encode(args, out) -> int:
    _checked(protocol.validate_receiver_id, "--receiver", args.receiver)
    records = [
        _checked(protocol.parse_record_token, f"record {token!r}", token) for token in args.records
    ]
    for payload in protocol.encode_sms(args.receiver, records):
        out.write(payload.text + "\n")
    return EXIT_OK


def cmd_decode(args, out) -> int:
    lines = _read_segment_lines(args.segments)
    if not lines:
        raise ConfigError("no segments to decode")
    decoded = protocol.decode_sms(lines)
    out.write(f"receiver: {decoded.receiver_id}\n")
    for record in decoded.records:
        out.write(protocol.record_token(record) + "\n")
    if decoded.missing_segments:
        out.write(f"missing segments: {protocol.format_ranges(decoded.missing_segments)}\n")
    for diag in decoded.diagnostics:
        out.write(f"! {diag}\n")
    return EXIT_OK if decoded.complete and not decoded.diagnostics else EXIT_MODEL


def cmd_export(args, out) -> int:
    # ingest starts a store where there is none; export would only write
    # an empty map.
    if not os.path.isfile(args.store):
        raise ConfigError(f"detection store {args.store!r} is not a file")
    store = protocol.DetectionStore.load(args.store)
    _write(args.out, protocol.store_to_geojson(store), out)
    # The map holds the complete lines; the next ingest cuts the torn one.
    if store.torn:
        raise ValueError(
            f"detection store {args.store!r} ends in an unfinished line of "
            f"{len(store.torn)} bytes, left out of the map"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackside",
        description="BLE checkpoint-tracking simulator and deployment planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the radio model and scanner duty")
    p.add_argument("--rssi", required=True, help="RSSI samples CSV")
    p.add_argument("--out", required=True, help="preset INI to write")
    p.add_argument("--report", help="write report here instead of stdout")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("matrix", help="simulate a speed x interval detection matrix")
    p.add_argument("--mount", choices=[m.value for m in Mount], default=Mount.WHEEL_ARCH.value)
    p.add_argument("--speeds", help="comma-separated mph list")
    p.add_argument("--intervals", help="comma-separated ms list")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--preset", help="preset name or calibration INI path")
    p.add_argument("--out-csv", help="write CSV here")
    p.add_argument("--out-text", help="write aligned table here")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("plan", help="plan a beacon deployment along a road")
    p.add_argument("--road", required=True, help="road GeoJSON (LineString)")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--preset", help="preset name or calibration INI path")
    p.add_argument("--reliability", type=float, help="derive intervals from the model")
    p.add_argument("--out", required=True, help="plan GeoJSON path")
    p.add_argument("--summary", help="write the text summary here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("guide", help="broadcast-interval guide by max road speed")
    p.add_argument("--reliability", type=float, help="regenerate from the model")
    p.add_argument("--speeds", help="comma-separated mph list")
    p.add_argument("--preset", help="preset name or calibration INI path")
    p.add_argument("--out-csv", help="write CSV here")
    p.add_argument("--out-text", help="write aligned table here")
    p.set_defaults(func=cmd_guide)

    p = sub.add_parser("ingest", help="ingest SMS segments into the detection store")
    p.add_argument("--segments", required=True, help="segment file, or - for stdin")
    p.add_argument("--registry", required=True, help="beacon registry CSV")
    p.add_argument("--store", required=True, help="detection store NDJSON path")
    p.add_argument("--received-at", type=int, help="wall-clock receipt time (epoch s)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("encode", help="encode detection records into SMS segments")
    p.add_argument("--receiver", required=True)
    p.add_argument("records", nargs="+", help="BEACON:COUNT:FIRST_SEEN tokens")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode SMS segments")
    p.add_argument("--segments", required=True, help="segment file, or - for stdin")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("export", help="export the detection store as GeoJSON")
    p.add_argument("--store", required=True)
    p.add_argument("--out", help="GeoJSON path (stdout if omitted)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (ConfigError, OSError) as exc:
        # An OSError comes from opening a path given on the command line
        # (missing, a directory, unreadable); its message names the file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # Values check themselves and readers only parse; a refused
        # command-line value or preset, RSSI samples, road or registry
        # file fails as ConfigError above, where it is read.  What is left is
        # a model, feasibility or wire-format failure, or a bad store file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
