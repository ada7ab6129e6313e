import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trackside import sim
from trackside.pathloss import PathLossModel
from trackside.presets import (
    CALIBRATED_SCAN_WINDOW_MS,
    Mount,
    default_scanner,
    scenario_for_mount,
)
from trackside.rendezvous import ScannerConfig
from trackside.sim import (
    BAND_THRESHOLDS,
    CellLabel,
    TargetMatrix,
    TrialMatrixSpec,
    _label_from_counts,
    _mismatch_report,
    _objective_grid,
    band_of_label,
    band_of_probability,
    calibrate,
    load_target_matrix,
    run_matrix,
    simulate_pass,
)

BAND_LABELS = [CellLabel.N, CellLabel.P33, CellLabel.P66, CellLabel.Y]


class TestSimulatePass:
    def test_deterministic(self):
        for seed in range(6):
            a = simulate_pass(seed, 45.0, 1400, Mount.WHEEL_ARCH)
            b = simulate_pass(seed, 45.0, 1400, Mount.WHEEL_ARCH)
            assert a == b

    def test_short_interval_always_detected_at_20mph(self):
        for seed in range(10):
            for interval in (200, 700, 1200, 1600):
                assert simulate_pass(seed, 20.0, interval, Mount.WHEEL_ARCH)

    def test_out_of_range_never_detected(self):
        # Reliability threshold a hair under the reference: range ~1 m,
        # less than the 2 m lateral offset, so the pass never connects.
        model = PathLossModel(reliability_threshold_dbm=-70.5)
        for seed in range(5):
            assert not simulate_pass(seed, 20.0, 200, rf_preset=model)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError):
            simulate_pass(1, 0.0, 700)


class TestBands:
    @given(st.floats(0.0, 1.0))
    def test_total_and_exclusive(self, p):
        band = band_of_probability(p)
        assert band in (0, 1, 2, 3)

    def test_threshold_edges(self):
        y, p66, p33 = BAND_THRESHOLDS
        assert band_of_probability(y) == 3
        assert band_of_probability(y - 1e-12) == 2
        assert band_of_probability(p66) == 2
        assert band_of_probability(p33) == 1
        assert band_of_probability(0.0) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            band_of_probability(1.5)
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                band_of_probability(np.array([0.5, bad]))

    def test_array_matches_scalar(self):
        y, p66, p33 = BAND_THRESHOLDS
        ps = [0.0, p33 - 1e-12, p33, p66, y - 1e-12, y, 1.0]
        assert band_of_probability(np.array(ps)).tolist() == [
            band_of_probability(p) for p in ps
        ]

    def test_label_bands(self):
        assert [band_of_label(l) for l in BAND_LABELS] == [0, 1, 2, 3]

    def test_label_from_counts(self):
        assert _label_from_counts(3, 3) is CellLabel.Y
        assert _label_from_counts(2, 3) is CellLabel.P66
        assert _label_from_counts(1, 3) is CellLabel.P33
        assert _label_from_counts(0, 3) is CellLabel.N


@pytest.fixture(scope="module")
def small_spec():
    return TrialMatrixSpec(
        speeds_mph=(20.0, 35.0, 45.0),
        intervals_ms=(900, 1200, 1500),
        trials_per_cell=3,
        mount=Mount.WHEEL_ARCH,
        seed=77,
    )


class TestRunMatrix:
    def test_grid_dimensions(self, small_spec):
        result = run_matrix(small_spec)
        assert len(result.cells) == 9
        assert {c.speed_mph for c in result.cells} == set(small_spec.speeds_mph)
        assert {c.interval_ms for c in result.cells} == set(small_spec.intervals_ms)

    def test_deterministic_output(self, small_spec):
        a = run_matrix(small_spec)
        b = run_matrix(small_spec)
        assert a.to_csv() == b.to_csv()
        assert a.to_text() == b.to_text()

    def test_schedule_independent_trials(self, small_spec):
        # Re-deriving each trial from (seed, cell_index, trial_index) in a
        # scrambled order must reproduce the matrix exactly.
        result = run_matrix(small_spec)
        order = [(r, c, t) for t in range(3) for c in range(3) for r in range(3)]
        counts = {}
        for r, c, t in reversed(order):
            cell_index = r * 3 + c
            hit = simulate_pass(
                (small_spec.seed, cell_index, t),
                small_spec.speeds_mph[r],
                small_spec.intervals_ms[c],
                mount=small_spec.mount,
            )
            key = (small_spec.speeds_mph[r], small_spec.intervals_ms[c])
            counts[key] = counts.get(key, 0) + int(hit)
        for cell in result.cells:
            assert counts[(cell.speed_mph, cell.interval_ms)] == cell.detections

    def test_certain_cell_always_y(self):
        spec = TrialMatrixSpec(
            speeds_mph=(20.0,), intervals_ms=(200,), trials_per_cell=3, seed=3
        )
        result = run_matrix(spec)
        cell = result.cells[0]
        assert cell.expected_probability == 1.0
        assert cell.label is CellLabel.Y

    def test_expected_probability_nonincreasing_in_speed(self):
        spec = TrialMatrixSpec(
            speeds_mph=tuple(float(s) for s in range(5, 46, 5)),
            intervals_ms=tuple(range(700, 1601, 100)),
            seed=5,
        )
        result = run_matrix(spec)
        for interval in spec.intervals_ms:
            col = [
                result.cell(speed, interval).expected_probability
                for speed in spec.speeds_mph
            ]
            assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrialMatrixSpec(speeds_mph=(), intervals_ms=(700,))
        with pytest.raises(ValueError):
            TrialMatrixSpec(speeds_mph=(20.0,), intervals_ms=(700,), trials_per_cell=0)


class TestTargets:
    def test_published_grids_load(self):
        wheel = load_target_matrix(Mount.WHEEL_ARCH)
        bonnet = load_target_matrix(Mount.BONNET)
        assert (len(wheel.speeds_mph), len(wheel.intervals_ms)) == (9, 7)
        assert (len(bonnet.speeds_mph), len(bonnet.intervals_ms)) == (9, 9)
        assert wheel.label(45.0, 1200) is CellLabel.P66
        assert bonnet.label(45.0, 700) is CellLabel.Y

    def test_partial_grid_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("speed_mph,interval_ms,label\n5,700,Y\n5,800,Y\n10,700,Y\n")
        with pytest.raises(ValueError):
            load_target_matrix(Mount.WHEEL_ARCH, path)


def synthetic_targets(window_ms: float, bonnet_db: float):
    """Targets generated by the model itself at a known parameter point."""
    out = []
    for mount, intervals in (
        (Mount.WHEEL_ARCH, tuple(range(1000, 1601, 100))),
        (Mount.BONNET, tuple(range(700, 1501, 100))),
    ):
        scanner = ScannerConfig(scan_window_ms=window_ms)
        scenario = scenario_for_mount(mount, scanner=scanner, bonnet_attenuation_db=bonnet_db)
        speeds = tuple(float(s) for s in range(5, 46, 5))
        labels = {}
        for speed in speeds:
            for interval in intervals:
                p = scenario.pass_probability(speed, interval)
                labels[(speed, interval)] = BAND_LABELS[band_of_probability(p)]
        out.append(
            TargetMatrix(mount=mount, speeds_mph=speeds, intervals_ms=intervals, labels=labels)
        )
    return tuple(out)


class TestCalibrate:
    def test_recovers_generating_parameters(self):
        targets = synthetic_targets(800.0, 1.5)
        result = calibrate(
            targets=targets,
            scan_window_grid_ms=[600.0, 800.0, 1000.0, 1200.0],
            bonnet_grid_db=[0.5, 1.5, 2.5],
        )
        assert result.objective == 0
        assert all(r.off_by == 0 for r in result.per_cell)

    def test_argmin_beats_other_grid_points(self):
        targets = (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))
        grid_w = [900.0, 1175.0, 1400.0]
        grid_b = [1.0, 2.75]
        result = calibrate(targets, grid_w, grid_b)
        from trackside.sim import _mismatch_report

        for w in grid_w:
            for b in grid_b:
                other, _ = _mismatch_report(targets, w, b, "hm10-bt4")
                assert result.objective <= other

    def test_tie_breaks_toward_smaller_window_then_bonnet(self):
        targets = synthetic_targets(800.0, 1.5)
        windows = [850.0, 775.0, 800.0, 825.0, 750.0]
        bonnets = [1.75, 1.25, 1.5, 1.0]
        scalar = [
            (_mismatch_report(targets, w, b, "hm10-bt4")[0], w, b)
            for w in windows
            for b in bonnets
        ]
        assert sum(key[0] == 0 for key in scalar) >= 2
        result = calibrate(targets, windows, bonnets, refine=False)
        assert (result.objective, result.scan_window_ms, result.bonnet_attenuation_db) == min(
            scalar
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            calibrate(scan_window_grid_ms=[], bonnet_grid_db=[1.0])

    def test_shipped_preset_matches_full_search(self):
        # The frozen scanner preset is the argmin of the default search.
        result = calibrate()
        assert result.scan_window_ms == CALIBRATED_SCAN_WINDOW_MS
        assert result.bonnet_attenuation_db == 2.5

    def test_bad_probability_rejected(self, monkeypatch):
        monkeypatch.setattr(sim, "_coverage_exact", lambda k, i, c, arcs: np.full(arcs.shape, 1.5))
        with pytest.raises(ValueError, match="outside"):
            calibrate(scan_window_grid_ms=[1000.0], bonnet_grid_db=[1.0])

    def test_bonnet_shift_at_45mph(self):
        # Concealing the receiver behaves like dialling the interval down
        # by roughly 400 ms at the top speed.
        scanner = default_scanner()
        grid = range(100, 1601, 100)

        def boundary(mount):
            scenario = scenario_for_mount(mount, scanner=scanner)
            best = 0
            for interval in grid:
                if scenario.pass_probability(45.0, interval) >= BAND_THRESHOLDS[0]:
                    best = interval
            return best

        shift = boundary(Mount.WHEEL_ARCH) - boundary(Mount.BONNET)
        assert 300 <= shift <= 500


class TestPublishedMatrixExamples:
    """Single cells restated from the field-trial matrix.

    The trials' sharp 3-of-3 to 0-of-3 transitions around 45 mph cannot be
    reproduced jointly by any single-duty probability model (two cells with
    identical expected event counts carry different labels), so the shipped
    calibration leaves these two checks just outside their bands.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="joint fit places the 45 mph / 1200 ms cell at ~0.94, above the "
        "66% band; see the matrix-reproduction analysis in the README",
    )
    def test_45mph_1200ms_in_66_band(self):
        scenario = scenario_for_mount(Mount.WHEEL_ARCH)
        p = scenario.pass_probability(45.0, 1200)
        assert 0.4 <= p < 0.9

    @pytest.mark.xfail(
        strict=True,
        reason="joint fit places the 45 mph / 1000 ms cell at ~0.93, below the "
        "always-detected band; see the matrix-reproduction analysis in the README",
    )
    def test_all_speeds_at_1000ms_in_y_band(self):
        scenario = scenario_for_mount(Mount.WHEEL_ARCH)
        for speed in range(5, 46, 5):
            assert scenario.pass_probability(float(speed), 1000) >= 0.95


class TestObjectiveGrid:
    """The array objective against the scalar per-point report."""

    @pytest.fixture(scope="class")
    def targets(self):
        return (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))

    def assert_matches_report(self, targets, windows, bonnets, points):
        grid = _objective_grid(targets, windows, bonnets, "hm10-bt4")
        assert grid.shape == (len(windows), len(bonnets))
        for i, j in points:
            objective, _ = _mismatch_report(targets, windows[i], bonnets[j], "hm10-bt4")
            assert grid[i, j] == objective

    def test_random_points_of_the_coarse_grid(self, targets):
        windows = [float(w) for w in range(100, 2501, 25)]
        bonnets = [round(0.25 * i, 2) for i in range(0, 41)]
        rnd = random.Random(40)
        points = [(rnd.randrange(len(windows)), rnd.randrange(len(bonnets))) for _ in range(40)]
        self.assert_matches_report(targets, windows, bonnets, points)

    def test_whole_refinement_grid(self, targets):
        windows = [1175.0 + 5.0 * i for i in range(-6, 7)]
        bonnets = [round(2.75 + 0.05 * i, 2) for i in range(-6, 7)]
        points = [(i, j) for i in range(13) for j in range(13)]
        self.assert_matches_report(targets, windows, bonnets, points)
