"""Deterministic Monte Carlo drive-by engine.

Reproduces the speed x interval detection matrices recorded in the field
trials (shipped under data/), and calibrates the two parameters the trials
leave free: the scanner's effective listening window and the extra
attenuation of a bonnet-concealed receiver.

Per-trial randomness derives from (seed, cell_index, trial_index), so a
matrix run is byte-identical however trials are scheduled.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pathloss import PathLossModel
from .presets import DEFAULT_PATH_LOSS_PRESET, DriveScenario, Mount, scenario_for_mount
from .rendezvous import (
    ScannerConfig,
    _arc_length_ms,
    _coverage_exact,
    _expected_coverage,
    detection_probability_oracle,
)

__all__ = [
    "Mount",
    "CellLabel",
    "TrialMatrixSpec",
    "CellResult",
    "MatrixResult",
    "TargetMatrix",
    "CalibrationResult",
    "BAND_THRESHOLDS",
    "band_of_probability",
    "band_of_label",
    "simulate_pass",
    "run_matrix",
    "calibrate",
    "load_target_matrix",
]

DEFAULT_SEED = 1729

# Expected-probability bands: Y >= 0.95, 66% in [0.4, 0.95), 33% in
# [0.1, 0.4), N below 0.1.  Total and mutually exclusive over [0, 1].
BAND_THRESHOLDS = (0.95, 0.4, 0.1)


class CellLabel(enum.Enum):
    Y = "Y"
    P66 = "66%"
    P33 = "33%"
    N = "N"


_LABEL_BAND = {CellLabel.Y: 3, CellLabel.P66: 2, CellLabel.P33: 1, CellLabel.N: 0}


def band_of_probability(p: float | np.ndarray) -> int | np.ndarray:
    """Band index 3..0 (Y..N) for an expected probability, or an int array
    of band indices for an array of probabilities."""
    p = np.asarray(p)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("probability outside [0, 1]")
    y, p66, p33 = BAND_THRESHOLDS
    bands = np.select([p >= y, p >= p66, p >= p33], [3, 2, 1], 0)
    return int(bands) if bands.ndim == 0 else bands


def band_of_label(label: CellLabel) -> int:
    return _LABEL_BAND[label]


def _label_from_counts(detections: int, trials: int) -> CellLabel:
    if detections == trials:
        return CellLabel.Y
    if detections == 0:
        return CellLabel.N
    return CellLabel.P66 if detections / trials >= 0.5 else CellLabel.P33


@dataclass(frozen=True)
class TrialMatrixSpec:
    speeds_mph: tuple[float, ...]
    intervals_ms: tuple[int, ...]
    trials_per_cell: int = 3
    mount: Mount = Mount.WHEEL_ARCH
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "speeds_mph", tuple(self.speeds_mph))
        object.__setattr__(self, "intervals_ms", tuple(self.intervals_ms))
        if not self.speeds_mph or not self.intervals_ms:
            raise ValueError("speeds and intervals must be nonempty")
        if self.trials_per_cell < 1:
            raise ValueError("need at least one trial per cell")


@dataclass(frozen=True)
class CellResult:
    speed_mph: float
    interval_ms: int
    detections: int
    trials: int
    label: CellLabel
    expected_probability: float


@dataclass(frozen=True)
class MatrixResult:
    spec: TrialMatrixSpec
    cells: tuple[CellResult, ...]

    def cell(self, speed_mph: float, interval_ms: int) -> CellResult:
        for c in self.cells:
            if c.speed_mph == speed_mph and c.interval_ms == interval_ms:
                return c
        raise KeyError((speed_mph, interval_ms))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["speed_mph", "interval_ms", "detections", "trials", "label", "expected_p"]
        )
        for c in self.cells:
            writer.writerow(
                [
                    f"{c.speed_mph:g}",
                    c.interval_ms,
                    c.detections,
                    c.trials,
                    c.label.value,
                    f"{c.expected_probability:.4f}",
                ]
            )
        return out.getvalue()

    def to_text(self) -> str:
        """Aligned table, rows by speed, columns by interval."""
        intervals = self.spec.intervals_ms
        width = 2 + max(6, *(len(f"{i}ms") for i in intervals))
        head = "speed".ljust(8) + "".join(f"{i}ms".rjust(width) for i in intervals)
        lines = [head, "-" * len(head)]
        for speed in self.spec.speeds_mph:
            row = f"{speed:g} mph".ljust(8)
            for interval in intervals:
                row += self.cell(speed, interval).label.value.rjust(width)
            lines.append(row)
        lines.append("")
        lines.append("Y: every pass detected; 66%/33%: that share of passes; N: none.")
        return "\n".join(lines) + "\n"


def simulate_pass(
    seed: int | Sequence[int],
    speed_mph: float,
    interval_ms: float,
    mount: Mount = Mount.WHEEL_ARCH,
    rf_preset: str | PathLossModel = DEFAULT_PATH_LOSS_PRESET,
    scanner: ScannerConfig | None = None,
) -> bool:
    """One simulated drive-by: detection range -> in-range time -> one
    phase-sampled trial.  Deterministic in the seed."""
    if speed_mph <= 0:
        raise ValueError("speed must be positive")
    scenario = scenario_for_mount(mount, rf_preset, scanner)
    t_in = scenario.in_range_time_s(speed_mph)
    if t_in == 0.0:
        return False
    hit = detection_probability_oracle(
        scenario.advertiser(interval_ms), scenario.scanner, t_in, trials=1, seed=seed
    )
    return hit >= 0.5


def run_matrix(
    spec: TrialMatrixSpec,
    rf_preset: str | PathLossModel = DEFAULT_PATH_LOSS_PRESET,
    scanner: ScannerConfig | None = None,
) -> MatrixResult:
    """Simulate every (speed, interval) cell of the spec."""
    scenario = scenario_for_mount(spec.mount, rf_preset, scanner)
    cells = []
    for row, speed in enumerate(spec.speeds_mph):
        t_in = scenario.in_range_time_s(speed)
        for col, interval in enumerate(spec.intervals_ms):
            cell_index = row * len(spec.intervals_ms) + col
            adv = scenario.advertiser(interval)
            # Each trial is simulate_pass((seed, cell_index, trial), ...) with
            # the cell's in-range time and advertiser computed once.
            detections = 0
            if t_in > 0:
                detections = sum(
                    detection_probability_oracle(
                        adv, scenario.scanner, t_in, trials=1,
                        seed=(spec.seed, cell_index, trial),
                    ) >= 0.5
                    for trial in range(spec.trials_per_cell)
                )
            expected = (
                scenario.pass_probability(speed, interval) if t_in > 0 else 0.0
            )
            cells.append(
                CellResult(
                    speed_mph=speed,
                    interval_ms=int(interval),
                    detections=detections,
                    trials=spec.trials_per_cell,
                    label=_label_from_counts(detections, spec.trials_per_cell),
                    expected_probability=expected,
                )
            )
    return MatrixResult(spec=spec, cells=tuple(cells))


@dataclass(frozen=True)
class TargetMatrix:
    """A published detection matrix used as a calibration target."""

    mount: Mount
    speeds_mph: tuple[float, ...]
    intervals_ms: tuple[int, ...]
    labels: Mapping[tuple[float, int], CellLabel]

    def label(self, speed_mph: float, interval_ms: int) -> CellLabel:
        return self.labels[(speed_mph, interval_ms)]


def load_target_matrix(mount: Mount, path=None) -> TargetMatrix:
    """Load a target matrix from a CSV (packaged field-trial data by default)."""
    if path is None:
        resource = (
            resources.files("trackside") / "data" / f"drive_matrix_{mount.value}.csv"
        )
        text = resource.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    labels: dict[tuple[float, int], CellLabel] = {}
    speeds: list[float] = []
    intervals: list[int] = []
    for row in csv.DictReader(io.StringIO(text)):
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


@dataclass(frozen=True)
class CellReport:
    mount: Mount
    speed_mph: float
    interval_ms: int
    target: CellLabel
    expected_probability: float
    band_expected: int
    band_target: int

    @property
    def off_by(self) -> int:
        return abs(self.band_expected - self.band_target)


@dataclass(frozen=True)
class CalibrationResult:
    scan_window_ms: float
    bonnet_attenuation_db: float
    objective: int
    per_cell: tuple[CellReport, ...]

    def mismatches(self) -> tuple[CellReport, ...]:
        return tuple(r for r in self.per_cell if r.off_by)

    def scanner(self) -> ScannerConfig:
        return ScannerConfig(scan_window_ms=self.scan_window_ms)


def _mismatch_report(
    targets: Iterable[TargetMatrix],
    scan_window_ms: float,
    bonnet_attenuation_db: float,
    rf_preset: str | PathLossModel,
) -> tuple[int, tuple[CellReport, ...]]:
    scanner = ScannerConfig(scan_window_ms=scan_window_ms)
    reports = []
    total = 0
    for target in targets:
        scenario = scenario_for_mount(target.mount, rf_preset, scanner, bonnet_attenuation_db)
        for speed in target.speeds_mph:
            for interval in target.intervals_ms:
                p = scenario.pass_probability(speed, interval)
                band_e = band_of_probability(p)
                band_t = band_of_label(target.label(speed, interval))
                total += abs(band_e - band_t)
                reports.append(
                    CellReport(
                        mount=target.mount,
                        speed_mph=speed,
                        interval_ms=interval,
                        target=target.label(speed, interval),
                        expected_probability=p,
                        band_expected=band_e,
                        band_target=band_t,
                    )
                )
    return total, tuple(reports)


def _target_mismatch(
    target: TargetMatrix,
    scenario: DriveScenario,
    scanners: Sequence[ScannerConfig],
) -> np.ndarray:
    """Band mismatch of one target under ``scenario``, one entry per scanner.

    Equal, scanner by scanner, to the target's share of ``_mismatch_report``:
    the scanners share one scan cycle, a scenario's advertiser has no
    jitter, so its coverage is exact, and the hearable arc depends on the
    advertiser only through the event duration, which is the same for
    every interval.
    """
    cycle = scanners[0].scan_cycle_ms
    first = scenario.advertiser(target.intervals_ms[0])
    arcs = np.array([_arc_length_ms(first, s) for s in scanners])
    probabilities, bands_target = [], []
    for speed in target.speeds_mph:
        span_ms = scenario.in_range_time_s(speed) * 1000.0
        for interval in target.intervals_ms:
            adv = scenario.advertiser(interval)
            probabilities.append(_expected_coverage(
                span_ms,
                adv.interval_ms,
                lambda k: _coverage_exact(k, adv.interval_ms, cycle, arcs),
            ))
            bands_target.append(band_of_label(target.label(speed, interval)))
    bands = band_of_probability(np.array(probabilities))
    return np.abs(bands - np.array(bands_target)[:, None]).sum(axis=0)


def _objective_grid(
    targets: Iterable[TargetMatrix],
    windows: Sequence[float],
    bonnets: Sequence[float],
    rf_preset: str | PathLossModel,
) -> np.ndarray:
    """The ``_mismatch_report`` objective at every grid point, as an int
    array: entry [i, j] is the objective at (windows[i], bonnets[j]).

    Each cell sorts its arc gaps once and scores every window at once.
    Cells that see the same detection range under two bonnet losses, as
    every wheel-arch cell does, are scored once and shared."""
    scanners = [ScannerConfig(scan_window_ms=w) for w in windows]
    total = np.zeros((len(windows), len(bonnets)), dtype=int)
    for target in targets:
        by_range: dict[float, np.ndarray] = {}
        for j, bonnet in enumerate(bonnets):
            scenario = scenario_for_mount(target.mount, rf_preset, bonnet_attenuation_db=bonnet)
            detection_range = scenario.detection_range_m()
            if detection_range not in by_range:
                by_range[detection_range] = _target_mismatch(target, scenario, scanners)
            total[:, j] += by_range[detection_range]
    return total


def calibrate(
    targets: Sequence[TargetMatrix] | None = None,
    scan_window_grid_ms: Sequence[float] | None = None,
    bonnet_grid_db: Sequence[float] | None = None,
    rf_preset: str | PathLossModel = DEFAULT_PATH_LOSS_PRESET,
    refine: bool = True,
) -> CalibrationResult:
    """Grid-search (scan_window, bonnet_attenuation) minimising the total
    band mismatch against the target matrices.  Ties break toward the
    smaller scan window, then the smaller attenuation.  After the coarse
    pass a local refinement at 5 ms / 0.05 dB resolution polishes the
    argmin (disable with ``refine=False``)."""
    if targets is None:
        targets = (
            load_target_matrix(Mount.WHEEL_ARCH),
            load_target_matrix(Mount.BONNET),
        )
    if scan_window_grid_ms is None:
        scan_window_grid_ms = [float(w) for w in range(100, 2501, 25)]
    if bonnet_grid_db is None:
        bonnet_grid_db = [round(0.25 * i, 2) for i in range(0, 41)]
    if not scan_window_grid_ms or not bonnet_grid_db:
        raise ValueError("calibration search grid must be nonempty")

    def argmin(windows, bonnets, seed=None):
        windows, bonnets = sorted(windows), sorted(bonnets)
        grid = _objective_grid(targets, windows, bonnets, rf_preset)
        # The first minimum in row-major order is the smallest
        # (objective, window, bonnet) key.
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        best = (int(grid[i, j]), windows[i], bonnets[j])
        return best if seed is None else min(seed, best)

    best = argmin(scan_window_grid_ms, bonnet_grid_db)
    if refine:
        _, w0, b0 = best
        windows = [
            round(min(max(w0 + 5.0 * i, 5.0), 2500.0), 1) for i in range(-6, 7)
        ]
        bonnets = [round(max(b0 + 0.05 * i, 0.0), 2) for i in range(-6, 7)]
        best = argmin(sorted(set(windows)), sorted(set(bonnets)), seed=best)

    objective, window, bonnet = best
    _, reports = _mismatch_report(targets, window, bonnet, rf_preset)
    return CalibrationResult(
        scan_window_ms=window,
        bonnet_attenuation_db=bonnet,
        objective=objective,
        per_cell=reports,
    )
