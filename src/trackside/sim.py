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
function: the calibration grid runs on the scalar kernel behind
``pass_probability``, bisecting for each cell's band edges.
"""

from __future__ import annotations

import bisect
import csv
import enum
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .pathloss import PathLossModel
from .presets import DEFAULT_PATH_LOSS, DriveScenario, Mount, scenario_for_mount
from .rendezvous import (
    AdvertiserConfig,
    PassGeometry,
    ScannerConfig,
    _arc_gaps,
    _arc_length_ms,
    _event_split,
    _union_share,
    detection_probability,
    detection_probability_oracle,
    mph_to_ms,
)

DEFAULT_SEED = 1729

# Expected-probability bands: Y >= 0.95, 66% in [0.4, 0.95), 33% in
# [0.1, 0.4), N below 0.1.  Total and mutually exclusive over [0, 1].
BAND_THRESHOLDS = (0.95, 0.4, 0.1)
_RISING_THRESHOLDS = sorted(BAND_THRESHOLDS)


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


@dataclass(frozen=True)
class TrialMatrixSpec:
    speeds_mph: tuple[float, ...]
    intervals_ms: tuple[int, ...]
    trials_per_cell: int = 3
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "speeds_mph", tuple(self.speeds_mph))
        object.__setattr__(self, "intervals_ms", tuple(self.intervals_ms))
        if not self.speeds_mph or not self.intervals_ms:
            raise ValueError("speeds and intervals must be nonempty")
        # The radio model's own range checks, run here so that a bad value
        # fails when the spec is built rather than partway through a run.
        for interval in self.intervals_ms:
            AdvertiserConfig(interval_ms=interval)
            if interval != int(interval):
                raise ValueError(f"interval {interval!r} ms is not a whole number of ms")
        object.__setattr__(self, "intervals_ms", tuple(int(i) for i in self.intervals_ms))
        for speed in self.speeds_mph:
            PassGeometry(speed_ms=mph_to_ms(speed))
        if self.trials_per_cell < 1:
            raise ValueError("need at least one trial per cell")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative; seeds are non-negative integers")


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
        # A repeated speed or interval shows its first cell, as cell() finds.
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
    if t_in == 0.0:
        return False
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


@dataclass(frozen=True)
class TargetMatrix:
    """A published detection matrix used as a calibration target."""

    mount: Mount
    speeds_mph: tuple[float, ...]
    intervals_ms: tuple[int, ...]
    labels: Mapping[tuple[float, int], CellLabel]

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
    path_loss: PathLossModel,
) -> tuple[int, tuple[CellReport, ...]]:
    scanner = ScannerConfig(scan_window_ms=scan_window_ms)
    reports = []
    total = 0
    for target in targets:
        scenario = scenario_for_mount(target.mount, path_loss, scanner, bonnet_attenuation_db)
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


def _objective_grid(
    targets: Iterable[TargetMatrix],
    windows: Sequence[float],
    bonnets: Sequence[float],
    path_loss: PathLossModel,
) -> list[list[int]]:
    """The ``_mismatch_report`` objective at every grid point, for ascending
    ``windows``: entry [i][j] is the objective at (windows[i], bonnets[j]).

    Every scanner has one scan cycle and every beacon one event duration,
    so the coverage of k events at one interval and window does not depend
    on the target, bonnet loss or speed.  Each (k, interval) has one row:
    its arc gaps, sorted once, and its coverage at each window, computed
    the first time a probe reads it.  A cell's probability never decreases
    along the windows, exactly in floating point (see ``_union_share``), so
    its band steps up at most three times: the steps are found by bisection
    and its mismatch added over whole runs of windows.  Cells that see the
    same detection range under two bonnet losses, as every wheel-arch cell
    does, are shared."""
    scanners = [ScannerConfig(scan_window_ms=w) for w in windows]
    cycle = scanners[0].scan_cycle_ms
    axis = range(len(windows))
    rows: dict[tuple[int, float], tuple[list[float], list[float | None]]] = {}

    def row(k: int, interval: float) -> tuple[list[float], list[float | None]]:
        found = rows.get((k, interval))
        if found is None:
            found = rows[(k, interval)] = (_arc_gaps(k, interval, cycle), [None] * len(axis))
        return found

    def target_mismatch(
        target: TargetMatrix, scenario: DriveScenario, arcs: dict[int, list[float]]
    ) -> list[int]:
        """The target's band mismatch under ``scenario``, one per window;
        ``arcs[interval][i]`` is the arc length at window i."""
        steps = [0] * (len(axis) + 1)
        for speed in target.speeds_mph:
            span_ms = scenario.in_range_time_s(speed) * 1000.0
            for interval in target.intervals_ms:
                arc = arcs[interval]
                n, frac = _event_split(span_ms, interval)
                gaps_n, cover_n = row(n, interval)
                gaps_n1, cover_n1 = row(n + 1, interval) if frac != 0.0 else (gaps_n, cover_n)

                # _expected_coverage's mix, read from the two rows.
                def p(i: int) -> float:
                    a = cover_n[i]
                    if a is None:
                        a = cover_n[i] = _union_share(gaps_n, cycle, arc[i])
                    if frac == 0.0:
                        return a
                    b = cover_n1[i]
                    if b is None:
                        b = cover_n1[i] = _union_share(gaps_n1, cycle, arc[i])
                    return (1.0 - frac) * a + frac * b

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
        arcs = {}
        for interval in target.intervals_ms:
            adv = AdvertiserConfig(interval_ms=interval)
            arcs[interval] = [_arc_length_ms(adv, scanner) for scanner in scanners]
        by_range: dict[float, list[int]] = {}
        for j, bonnet in enumerate(bonnets):
            scenario = scenario_for_mount(target.mount, path_loss, bonnet_attenuation_db=bonnet)
            detection_range = scenario.detection_range_m
            if detection_range not in by_range:
                by_range[detection_range] = target_mismatch(target, scenario, arcs)
            for i, mismatch in enumerate(by_range[detection_range]):
                total[i][j] += mismatch
    return total


def calibrate(
    targets: Sequence[TargetMatrix] | None = None,
    scan_window_grid_ms: Sequence[float] | None = None,
    bonnet_grid_db: Sequence[float] | None = None,
    path_loss: PathLossModel = DEFAULT_PATH_LOSS,
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
        grid = _objective_grid(targets, windows, bonnets, path_loss)
        best = min((obj, w, b) for w, row in zip(windows, grid) for b, obj in zip(bonnets, row))
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
    _, reports = _mismatch_report(targets, window, bonnet, path_loss)
    return CalibrationResult(
        scan_window_ms=window,
        bonnet_attenuation_db=bonnet,
        objective=objective,
        per_cell=reports,
    )
