"""Command-line entry point: calibration, simulation, planning, protocol.

Every subcommand is deterministic for a fixed config and seed; randomized
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
    Mount,
    default_scanner,
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


def _load_config(path: str | None) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    if path:
        try:
            with open(path) as fh:
                config.read_file(fh)
        except (OSError, ValueError, configparser.Error) as exc:
            raise _invalid_file("config file", path, exc) from None
    return config


def _number(token: str, convert, what: str):
    """``convert(token)``, or a usage error naming ``what`` and the token."""
    try:
        return convert(token)
    except ValueError:
        raise ConfigError(f"{what}: {token!r} is not a valid {convert.__name__}") from None

def _setting(config, section: str, key: str, override, fallback=None):
    if override is not None:
        return override
    if config.has_option(section, key):
        return config.get(section, key)
    if config.has_option("common", key):
        return config.get("common", key)
    return fallback


def _resolve_preset(value: str | None):
    """A preset name, or a calibration INI written by `calibrate`."""
    name = value or DEFAULT_PATH_LOSS_PRESET
    if os.path.exists(name):
        try:
            return read_preset_ini(name)
        except KeyError as exc:
            raise ConfigError(
                f"calibration preset {name!r} has no [{exc.args[0]}] section"
            ) from None
        except (OSError, ValueError, configparser.Error) as exc:
            raise _invalid_file("calibration preset", name, exc) from None
    return path_loss_preset(name), default_scanner()


def _write(path: str | None, text: str, out) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        out.write(text)


def cmd_calibrate(args, config, out) -> int:
    samples = load_samples_csv(args.rssi)
    if not samples:
        print("error: RSSI CSV has no samples", file=sys.stderr)
        return EXIT_USAGE
    try:
        fit = fit_exponent(samples)
    except SingularFitError as exc:
        print(f"error: singular fit: {exc}", file=sys.stderr)
        return EXIT_MODEL

    targets = (
        sim.load_target_matrix(Mount.WHEEL_ARCH, args.targets_wheelarch),
        sim.load_target_matrix(Mount.BONNET, args.targets_bonnet),
    )
    result = sim.calibrate(targets=targets, rf_preset=fit.model)
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


def cmd_matrix(args, config, out) -> int:
    model, scanner = _resolve_preset(_setting(config, "matrix", "preset", args.preset))
    mount = Mount(args.mount)
    if args.intervals:
        intervals = [_number(x, int, "--intervals") for x in args.intervals.split(",")]
    else:
        intervals = (
            list(range(1000, 1601, 100))
            if mount is Mount.WHEEL_ARCH
            else list(range(700, 1501, 100))
        )
    speeds = (
        [_number(x, float, "--speeds") for x in args.speeds.split(",")]
        if args.speeds
        else [float(s) for s in range(5, 46, 5)]
    )
    seed_raw = _setting(config, "matrix", "seed", args.seed)
    seed = _number(seed_raw, int, "seed") if seed_raw is not None else sim.DEFAULT_SEED
    spec = sim.TrialMatrixSpec(
        speeds_mph=tuple(speeds),
        intervals_ms=tuple(intervals),
        trials_per_cell=args.trials,
        mount=mount,
        seed=seed,
    )
    result = sim.run_matrix(spec, rf_preset=model, scanner=scanner)
    header = f"# drive-by matrix  mount={mount.value}  trials={args.trials}  seed={seed}\n"
    if args.out_csv:
        _write(args.out_csv, result.to_csv(), out)
    if args.out_text or not args.out_csv:
        _write(args.out_text, header + result.to_text(), out)
    return EXIT_OK


def cmd_plan(args, config, out) -> int:
    with open(args.road) as fh:
        road = roadplan.road_from_geojson(fh.read())
    preset = _setting(config, "plan", "preset", args.preset) or DEFAULT_PATH_LOSS_PRESET
    model, scanner = _resolve_preset(preset)
    plan = roadplan.plan_deployment(
        road,
        budget=args.budget,
        # A calibration INI is labelled by its file name, never its directory.
        beacon_preset=os.path.basename(preset),
        max_spacing_m=args.spacing,
        reliability_target=args.reliability,
        scenario=scenario_for_mount(Mount.WHEEL_ARCH, model, scanner),
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


def cmd_guide(args, config, out) -> int:
    if args.reliability is None:
        rows = power.published_guide()
    else:
        model, scanner = _resolve_preset(_setting(config, "guide", "preset", args.preset))
        scenario = scenario_for_mount(Mount.WHEEL_ARCH, model, scanner)
        speeds = (
            [_number(x, float, "--speeds") for x in args.speeds.split(",")]
            if args.speeds
            else [float(s) for s in range(5, 46, 5)]
        )
        rows = power.derive_guide(args.reliability, speeds, scenario)

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
    if source == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    with open(source) as fh:
        return [line.strip() for line in fh if line.strip()]


def cmd_ingest(args, config, out) -> int:
    lines = _read_segment_lines(args.segments)
    if not lines:
        print("error: no segments to ingest", file=sys.stderr)
        return EXIT_USAGE
    registry = protocol.load_registry(args.registry)
    store = protocol.DetectionStore.load(args.store)
    received_at = args.received_at if args.received_at is not None else int(time.time())

    groups, bad = protocol.group_segments(lines)
    report = [f"# ingest  received_at={received_at}"]
    added_total = 0
    for (receiver, total), segs in sorted(groups.items()):
        decoded = protocol.decode_sms(segs)
        added = protocol.merge_detections(store, decoded, registry, received_at)
        added_total += added
        status = "complete" if decoded.complete else f"missing {list(decoded.missing_segments)}"
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
    if args.geojson:
        _write(
            args.geojson,
            json.dumps(protocol.store_to_geojson(store), sort_keys=True, indent=2) + "\n",
            out,
        )
    _write(None, "\n".join(report) + "\n", out)
    return EXIT_OK if not bad else EXIT_MODEL


def cmd_encode(args, config, out) -> int:
    records = []
    for token in args.records:
        fields = token.split(":")
        if len(fields) != 3:
            print(f"error: record {token!r} must be BEACON:COUNT:FIRST_SEEN", file=sys.stderr)
            return EXIT_USAGE
        beacon, count, first_seen = fields
        what = f"record {token!r}"
        records.append(protocol.DetectionRecord(
            beacon, count=_number(count, int, what), first_seen_s=_number(first_seen, int, what)
        ))
    for payload in protocol.encode_sms(args.receiver, records):
        out.write(payload.text + "\n")
    return EXIT_OK


def cmd_decode(args, config, out) -> int:
    lines = _read_segment_lines(args.segments)
    if not lines:
        print("error: no segments to decode", file=sys.stderr)
        return EXIT_USAGE
    decoded = protocol.decode_sms(lines)
    out.write(f"receiver: {decoded.receiver_id}\n")
    for record in decoded.records:
        out.write(f"{record.beacon_id}:{record.count}:{record.first_seen_s}\n")
    if decoded.missing_segments:
        out.write(f"missing segments: {list(decoded.missing_segments)}\n")
    for diag in decoded.diagnostics:
        out.write(f"! {diag}\n")
    return EXIT_OK if decoded.complete and not decoded.diagnostics else EXIT_MODEL


def cmd_export(args, config, out) -> int:
    store = protocol.DetectionStore.load(args.store)
    _write(
        args.out,
        json.dumps(protocol.store_to_geojson(store), sort_keys=True, indent=2) + "\n",
        out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackside",
        description="BLE checkpoint-tracking simulator and deployment planner",
    )
    parser.add_argument("--config", help="INI config with [common] and per-command sections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the radio model and scanner duty")
    p.add_argument("--rssi", required=True, help="RSSI samples CSV")
    p.add_argument("--targets-wheelarch", help="wheel-arch target matrix CSV")
    p.add_argument("--targets-bonnet", help="bonnet target matrix CSV")
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
    p.add_argument("--spacing", type=float, default=roadplan.DEFAULT_MAX_SPACING_M)
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
    p.add_argument("--geojson", help="also export the store as GeoJSON")
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
        config = _load_config(args.config)
        return args.func(args, config, out)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (protocol.WireFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
