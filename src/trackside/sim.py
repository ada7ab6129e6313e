"""Deterministic Monte Carlo drive-by engine.

Reproduces the speed x interval detection matrices recorded in the field
trials (shipped under data/), and calibrates the two parameters the trials
leave free: the scanner's effective listening window and the extra
attenuation of a bonnet-concealed receiver.

Per-trial randomness derives from (seed, cell_index, trial_index): trial t
of a cell is ``simulate_pass((seed, cell_index, t), ...)``, whose generator
is ``Generator(PCG64(SeedSequence((seed, cell_index, t))))``.  A matrix run
is byte-identical however trials are scheduled.  ``run_matrix`` does not
build those generators one by one: ``montecarlo.cell_detections``
evaluates numpy's SeedSequence hash and PCG64 in uint64 arrays for a block
of trials at once, bit for bit, and decides the block with the oracle's own
arithmetic.  Seeds are non-negative integers, as SeedSequence requires.
Only the trial paths import ``montecarlo``, and with it numpy, inside the
function: the calibration grid reads the ``rendezvous.coverage_table``
behind ``pass_probability``, bisecting for each cell's band edges.
"""

from __future__ import annotations

import bisect
import csv
import enum
import itertools
from pathlib import Path
from typing import Iterable, Sequence

from .pathloss import PathLossModel
from .presets import DEFAULT_PATH_LOSS, DriveScenario, Mount, pass_speed_ms, scenario_for_mount
from .rendezvous import (
    MIN_INTERVAL_MS,
    AdvertiserConfig,
    ScannerConfig,
    _arc_length_ms,
    coverage_table,
    detection_probability,
    detection_probability_oracle,
)
from .value import Value

DEFAULT_SEED = 1729

# Expected-probability bands: Y >= 0.95, 66% in [0.4, 0.95), 33% in
# [0.1, 0.4), N below 0.1.  Total and mutually exclusive over [0, 1].
BAND_THRESHOLDS = (0.95, 0.4, 0.1)
_RISING_THRESHOLDS = sorted(BAND_THRESHOLDS)

# The calibration's coarse grid, ascending: scanner listening window and
# bonnet loss.
SCAN_WINDOW_GRID_MS = tuple(float(w) for w in range(100, 2501, 25))
BONNET_GRID_DB = tuple(round(0.25 * i, 2) for i in range(41))


class CellLabel(enum.Enum):
    Y = "Y"
    P66 = "66%"
    P33 = "33%"
    N = "N"


_LABEL_BAND = {CellLabel.Y: 3, CellLabel.P66: 2, CellLabel.P33: 1, CellLabel.N: 0}


def band_of_probability(p: float) -> int:
    """Band index 3..0 (Y..N) for an expected probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability outside [0, 1]")
    y, p66, p33 = BAND_THRESHOLDS
    return 3 if p >= y else 2 if p >= p66 else 1 if p >= p33 else 0


def band_of_label(label: CellLabel) -> int:
    return _LABEL_BAND[label]


def _label_from_counts(detections: int, trials: int) -> CellLabel:
    if detections == trials:
        return CellLabel.Y
    if detections == 0:
        return CellLabel.N
    return CellLabel.P66 if detections / trials >= 0.5 else CellLabel.P33


class TrialMatrixSpec(Value):
    __slots__ = ("speeds_mph", "intervals_ms", "trials_per_cell", "seed")

    def __init__(
        self,
        speeds_mph: Iterable[float],
        intervals_ms: Iterable[int],
        trials_per_cell: int = 3,
        seed: int = DEFAULT_SEED,
    ) -> None:
        speeds_mph, intervals_ms = tuple(speeds_mph), tuple(intervals_ms)
        if not speeds_mph or not intervals_ms:
            raise ValueError("speeds and intervals must be nonempty")
        # The radio model's own range checks, run here so that a bad value
        # fails when the spec is built rather than partway through a run.
        for interval in intervals_ms:
            AdvertiserConfig(interval_ms=interval)
            if interval != int(interval):
                raise ValueError(f"interval {interval!r} ms is not a whole number of ms")
        for speed in speeds_mph:
            pass_speed_ms(speed)
        if trials_per_cell < 1:
            raise ValueError("need at least one trial per cell")
        if seed < 0:
            raise ValueError(f"seed {seed} is negative; seeds are non-negative integers")
        Value.__init__(self, speeds_mph, tuple(int(i) for i in intervals_ms), trials_per_cell, seed)


class CellResult(Value):
    __slots__ = (
        "speed_mph", "interval_ms", "detections", "trials", "label", "expected_probability"
    )


class MatrixResult(Value):
    __slots__ = ("spec", "cells")

    def to_csv(self) -> str:
        lines = ["speed_mph,interval_ms,detections,trials,label,expected_p"]
        for c in self.cells:
            lines.append(
                f"{c.speed_mph:g},{c.interval_ms},{c.detections},{c.trials},"
                f"{c.label.value},{c.expected_probability:.4f}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table, rows by speed, columns by interval."""
        intervals = self.spec.intervals_ms
        width = 2 + max(6, *(len(f"{i}ms") for i in intervals))
        head = "speed".ljust(8) + "".join(f"{i}ms".rjust(width) for i in intervals)
        lines = [head, "-" * len(head)]
        # A repeated speed or interval shows its first cell.
        labels = {(c.speed_mph, c.interval_ms): c.label.value for c in reversed(self.cells)}
        for speed in self.spec.speeds_mph:
            row = f"{speed:g} mph".ljust(8)
            for interval in intervals:
                row += labels[speed, interval].rjust(width)
            lines.append(row)
        lines.append("")
        lines.append("Y: every pass detected; 66%/33%: that share of passes; N: none.")
        return "\n".join(lines) + "\n"


def simulate_pass(
    seed: int | Sequence[int], speed_mph: float, interval_ms: float, scenario: DriveScenario
) -> bool:
    """One simulated drive-by: detection range -> in-range time -> one
    phase-sampled trial.  Deterministic in the seed."""
    t_in = scenario.in_range_time_s(speed_mph)
    hit = detection_probability_oracle(
        AdvertiserConfig(interval_ms=interval_ms), scenario.scanner, t_in, trials=1, seed=seed
    )
    return hit >= 0.5


def run_matrix(spec: TrialMatrixSpec, scenario: DriveScenario) -> MatrixResult:
    """Simulate every (speed, interval) cell of the spec under ``scenario``."""
    from . import montecarlo

    cells = []
    for row, speed in enumerate(spec.speeds_mph):
        t_in = scenario.in_range_time_s(speed)
        for col, interval in enumerate(spec.intervals_ms):
            cell_index = row * len(spec.intervals_ms) + col
            adv = AdvertiserConfig(interval_ms=interval)
            detections = montecarlo.cell_detections(
                spec.seed, cell_index, spec.trials_per_cell, adv, scenario.scanner, t_in
            )
            expected = detection_probability(adv, scenario.scanner, t_in)
            cells.append(
                CellResult(
                    speed_mph=speed,
                    interval_ms=interval,
                    detections=detections,
                    trials=spec.trials_per_cell,
                    label=_label_from_counts(detections, spec.trials_per_cell),
                    expected_probability=expected,
                )
            )
    return MatrixResult(spec=spec, cells=tuple(cells))


class TargetMatrix(Value):
    """A published detection matrix used as a calibration target."""

    __slots__ = ("mount", "speeds_mph", "intervals_ms", "labels")

    def label(self, speed_mph: float, interval_ms: int) -> CellLabel:
        return self.labels[(speed_mph, interval_ms)]


def load_target_matrix(mount: Mount) -> TargetMatrix:
    """The field trials' detection matrix for a mount, from the packaged CSV."""
    path = Path(__file__).with_name("data") / f"drive_matrix_{mount.value}.csv"
    labels: dict[tuple[float, int], CellLabel] = {}
    speeds: list[float] = []
    intervals: list[int] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            speed = float(row["speed_mph"])
            interval = int(row["interval_ms"])
            labels[(speed, interval)] = CellLabel(row["label"])
            if speed not in speeds:
                speeds.append(speed)
            if interval not in intervals:
                intervals.append(interval)
    if len(labels) != len(speeds) * len(intervals):
        raise ValueError("target matrix is not a full speed x interval grid")
    return TargetMatrix(
        mount=mount,
        speeds_mph=tuple(speeds),
        intervals_ms=tuple(intervals),
        labels=labels,
    )


class CellReport(Value):
    __slots__ = (
        "mount", "speed_mph", "interval_ms", "target", "expected_probability",
        "band_expected", "band_target",
    )

    @property
    def off_by(self) -> int:
        return abs(self.band_expected - self.band_target)


class CalibrationResult(Value):
    __slots__ = ("scan_window_ms", "bonnet_attenuation_db", "objective", "per_cell")

    def mismatches(self) -> tuple[CellReport, ...]:
        return tuple(r for r in self.per_cell if r.off_by)

    def scanner(self) -> ScannerConfig:
        return ScannerConfig(scan_window_ms=self.scan_window_ms)


def _mismatch_report(
    targets: Iterable[TargetMatrix],
    scan_window_ms: float,
    bonnet_attenuation_db: float,
    path_loss: PathLossModel,
) -> tuple[CellReport, ...]:
    """Every target cell's band against the model's; the objective is the
    sum of their ``off_by``."""
    scanner = ScannerConfig(scan_window_ms=scan_window_ms)
    reports = []
    for target in targets:
        scenario = scenario_for_mount(target.mount, path_loss, scanner, bonnet_attenuation_db)
        for speed in target.speeds_mph:
            for interval in target.intervals_ms:
                p = scenario.pass_probability(speed, interval)
                reports.append(
                    CellReport(
                        mount=target.mount,
                        speed_mph=speed,
                        interval_ms=interval,
                        target=target.label(speed, interval),
                        expected_probability=p,
                        band_expected=band_of_probability(p),
                        band_target=band_of_label(target.label(speed, interval)),
                    )
                )
    return tuple(reports)


def _objective_grid(
    targets: Iterable[TargetMatrix],
    windows: Sequence[float],
    bonnets: Sequence[float],
    path_loss: PathLossModel,
) -> list[list[int]]:
    """The objective of ``_mismatch_report`` at every grid point, for
    ascending ``windows``: entry [i][j] is the objective at (windows[i],
    bonnets[j]).

    Every scanner has one scan cycle and every beacon one event duration,
    so each window has one arc length, and one ``coverage_table`` over
    those arcs scores every cell of every target and bonnet loss.  A
    cell's probability never decreases along the windows, exactly in
    floating point (see ``_union_share``), so its band steps up at most
    three times: the steps are found by bisection and its mismatch added
    over whole runs of windows.  Cells that see the same detection range
    under two bonnet losses, as every wheel-arch cell does, are shared."""
    scanners = [ScannerConfig(scan_window_ms=w) for w in windows]
    beacon = AdvertiserConfig(interval_ms=MIN_INTERVAL_MS)
    arcs = [_arc_length_ms(beacon, scanner) for scanner in scanners]
    table = coverage_table(scanners[0].scan_cycle_ms, arcs)
    axis = range(len(windows))

    def target_mismatch(target: TargetMatrix, scenario: DriveScenario) -> list[int]:
        """The target's band mismatch under ``scenario``, one per window."""
        steps = [0] * (len(axis) + 1)
        for speed in target.speeds_mph:
            span_ms = scenario.in_range_time_s(speed) * 1000.0
            for interval in target.intervals_ms:
                p = table(span_ms, interval)
                # In [0, 1] at both ends of the axis, so everywhere between.
                first = band_of_probability(p(axis[0]))
                last = band_of_probability(p(axis[-1]))
                # edges[b]: the first window whose band is b or more.
                edges = [0] * (first + 1)
                for tau in _RISING_THRESHOLDS[first:last]:
                    edges.append(bisect.bisect_left(axis, tau, lo=edges[-1], key=p))
                edges += [len(axis)] * (len(_RISING_THRESHOLDS) + 2 - len(edges))
                target_band = band_of_label(target.label(speed, interval))
                for band, (lo, hi) in enumerate(zip(edges, edges[1:])):
                    steps[lo] += abs(band - target_band)
                    steps[hi] -= abs(band - target_band)
        return list(itertools.accumulate(steps[:-1]))

    total = [[0] * len(bonnets) for _ in windows]
    for target in targets:
        by_range: dict[float, list[int]] = {}
        for j, bonnet in enumerate(bonnets):
            scenario = scenario_for_mount(target.mount, path_loss, bonnet_attenuation_db=bonnet)
            detection_range = scenario.detection_range_m
            if detection_range not in by_range:
                by_range[detection_range] = target_mismatch(target, scenario)
            for i, mismatch in enumerate(by_range[detection_range]):
                total[i][j] += mismatch
    return total


def calibrate(path_loss: PathLossModel = DEFAULT_PATH_LOSS) -> CalibrationResult:
    """Grid-search (scan_window, bonnet_attenuation) minimising the total
    band mismatch against the two packaged target matrices.  Ties break
    toward the smaller scan window, then the smaller attenuation.  After
    the coarse grid a 13 x 13 refinement at 5 ms / 0.05 dB resolution
    polishes the argmin; it holds the coarse argmin, so it never does
    worse."""
    targets = (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))

    def argmin(windows, bonnets):
        grid = _objective_grid(targets, windows, bonnets, path_loss)
        return min((obj, w, b) for w, row in zip(windows, grid) for b, obj in zip(bonnets, row))

    _, w0, b0 = argmin(SCAN_WINDOW_GRID_MS, BONNET_GRID_DB)
    windows = sorted({round(min(w0 + 5.0 * i, 2500.0), 1) for i in range(-6, 7)})
    bonnets = sorted({round(max(b0 + 0.05 * i, 0.0), 2) for i in range(-6, 7)})
    objective, window, bonnet = argmin(windows, bonnets)
    return CalibrationResult(
        scan_window_ms=window,
        bonnet_attenuation_db=bonnet,
        objective=objective,
        per_cell=_mismatch_report(targets, window, bonnet, path_loss),
    )
