import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackside import montecarlo, rendezvous, sim
from trackside.pathloss import PathLossModel
from trackside.presets import (
    CALIBRATED_SCAN_WINDOW_MS,
    DEFAULT_PATH_LOSS,
    Mount,
    default_scanner,
    scenario_for_mount,
)
from trackside.rendezvous import AdvertiserConfig, ScannerConfig, detection_probability_oracle
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
WHEEL_ARCH = scenario_for_mount(Mount.WHEEL_ARCH)
# Range ~1.07 m, under the 2 m lateral offset: no pass is ever in range.
NEVER_IN_RANGE = scenario_for_mount(path_loss=PathLossModel(reliability_threshold_dbm=-70.5))


class TestSimulatePass:
    def test_deterministic(self):
        for seed in range(6):
            a = simulate_pass(seed, 45.0, 1400, WHEEL_ARCH)
            b = simulate_pass(seed, 45.0, 1400, WHEEL_ARCH)
            assert a == b

    def test_short_interval_always_detected_at_20mph(self):
        for seed in range(10):
            for interval in (200, 700, 1200, 1600):
                assert simulate_pass(seed, 20.0, interval, WHEEL_ARCH)

    def test_out_of_range_never_detected(self):
        # Reliability threshold a hair under the reference, so the pass
        # never connects.
        for seed in range(5):
            assert not simulate_pass(seed, 20.0, 200, NEVER_IN_RANGE)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError, match="speed must be positive"):
            simulate_pass(1, 0.0, 700, WHEEL_ARCH)


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
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                band_of_probability(bad)

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
        seed=77,
    )


class TestRunMatrix:
    def test_grid_dimensions(self, small_spec):
        result = run_matrix(small_spec, WHEEL_ARCH)
        assert len(result.cells) == 9
        assert {c.speed_mph for c in result.cells} == set(small_spec.speeds_mph)
        assert {c.interval_ms for c in result.cells} == set(small_spec.intervals_ms)

    def test_deterministic_output(self, small_spec):
        a = run_matrix(small_spec, WHEEL_ARCH)
        b = run_matrix(small_spec, WHEEL_ARCH)
        assert a.to_csv() == b.to_csv()
        assert a.to_text() == b.to_text()

    def test_text_of_repeated_values_shows_the_first_cell(self):
        # The third row's own cells are all Y; the table shows the first
        # cell of each (speed, interval).
        spec = TrialMatrixSpec(
            speeds_mph=(30.0, 45.0, 30.0), intervals_ms=(1300, 1500, 1300), seed=4
        )
        result = run_matrix(spec, WHEEL_ARCH)
        assert [c.label.value for c in result.cells[6:]] == ["Y", "Y", "Y"]
        assert result.to_text() == (
            "speed     1300ms  1500ms  1300ms\n"
            "--------------------------------\n"
            "30 mph       66%       Y     66%\n"
            "45 mph         Y     66%       Y\n"
            "30 mph       66%       Y     66%\n"
            "\n"
            "Y: every pass detected; 66%/33%: that share of passes; N: none.\n"
        )

    def test_schedule_independent_trials(self, small_spec):
        # Re-deriving each trial from (seed, cell_index, trial_index) in a
        # scrambled order must reproduce the matrix exactly: for the small
        # spec, and for 200 trials of cells whose expected probability sits
        # near each band edge (0.949, 0.394 and 0.105 among them).
        edges = TrialMatrixSpec(
            speeds_mph=(30.0, 60.0, 90.0),
            intervals_ms=(1100, 1600, 4000),
            trials_per_cell=200,
            seed=2024,
        )
        for spec, scenario in ((small_spec, WHEEL_ARCH), (edges, scenario_for_mount(Mount.BONNET))):
            result = run_matrix(spec, scenario)
            n_rows, n_cols = len(spec.speeds_mph), len(spec.intervals_ms)
            order = [
                (r, c, t)
                for t in range(spec.trials_per_cell)
                for c in range(n_cols)
                for r in range(n_rows)
            ]
            random.Random(spec.seed).shuffle(order)
            counts = {}
            for r, c, t in order:
                hit = simulate_pass(
                    (spec.seed, r * n_cols + c, t),
                    spec.speeds_mph[r],
                    spec.intervals_ms[c],
                    scenario,
                )
                key = (spec.speeds_mph[r], spec.intervals_ms[c])
                counts[key] = counts.get(key, 0) + int(hit)
            for cell in result.cells:
                assert counts[(cell.speed_mph, cell.interval_ms)] == cell.detections
            if spec is edges:
                assert {c.label for c in result.cells} >= {CellLabel.P66, CellLabel.P33}

    def test_blocks_beyond_the_oracle_chunk(self, monkeypatch):
        # More trials than one block: the counts equal one trials=1 oracle
        # call per trial, with the oracle's real chunk and with tiny trial
        # or entry limits that split a cell into many uneven blocks.
        scenario = WHEEL_ARCH
        t_in = scenario.in_range_time_s(45.0)
        adv = AdvertiserConfig(interval_ms=1300)
        spec = TrialMatrixSpec(
            speeds_mph=(45.0,), intervals_ms=(1300,),
            trials_per_cell=montecarlo.ORACLE_CHUNK + 3, seed=31,
        )
        hits = [
            detection_probability_oracle(
                adv, scenario.scanner, t_in, trials=1, seed=(31, 0, t)
            ) >= 0.5
            for t in range(spec.trials_per_cell)
        ]
        assert 0 < sum(hits) < len(hits)
        assert run_matrix(spec, scenario).cells[0].detections == sum(hits)
        for chunk, entries in ((7, montecarlo._BLOCK_EVENTS), (montecarlo.ORACLE_CHUNK, 10)):
            monkeypatch.setattr(montecarlo, "ORACLE_CHUNK", chunk)
            monkeypatch.setattr(montecarlo, "_BLOCK_EVENTS", entries)
            for trials in (1, 7, 50):
                small = TrialMatrixSpec(
                    speeds_mph=(45.0,), intervals_ms=(1300,), trials_per_cell=trials, seed=31
                )
                assert run_matrix(small, scenario).cells[0].detections == sum(hits[:trials])

    def test_pass_beyond_one_block_refused(self):
        # A pass with more events than one block holds is refused before any
        # array is built; a pass that fills one block is still simulated.
        adv = AdvertiserConfig(interval_ms=1000)
        scanner = default_scanner()
        limit = montecarlo._BLOCK_EVENTS
        # span // interval + 1 events: the limit at (limit - 1) s in range.
        assert montecarlo.cell_detections(1, 0, 1, adv, scanner, float(limit - 1)) == 1
        with pytest.raises(ValueError, match="one Monte Carlo pass can hold"):
            montecarlo.cell_detections(1, 0, 1, adv, scanner, float(limit))
        with pytest.raises(ValueError, match="one Monte Carlo pass can hold"):
            detection_probability_oracle(adv, scanner, float(limit), trials=1, seed=1)

    def test_certain_cell_always_y(self):
        spec = TrialMatrixSpec(
            speeds_mph=(20.0,), intervals_ms=(200,), trials_per_cell=3, seed=3
        )
        result = run_matrix(spec, WHEEL_ARCH)
        cell = result.cells[0]
        assert cell.expected_probability == 1.0
        assert cell.label is CellLabel.Y

    def test_never_in_range_matrix_is_all_n(self, small_spec):
        result = run_matrix(small_spec, NEVER_IN_RANGE)
        assert {(c.detections, c.label, c.expected_probability) for c in result.cells} == {
            (0, CellLabel.N, 0.0)
        }

    def test_expected_probability_nonincreasing_in_speed(self):
        spec = TrialMatrixSpec(
            speeds_mph=tuple(float(s) for s in range(5, 46, 5)),
            intervals_ms=tuple(range(700, 1601, 100)),
            seed=5,
        )
        result = run_matrix(spec, WHEEL_ARCH)
        cells = {(c.speed_mph, c.interval_ms): c for c in result.cells}
        for interval in spec.intervals_ms:
            col = [cells[speed, interval].expected_probability for speed in spec.speeds_mph]
            assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrialMatrixSpec(speeds_mph=(), intervals_ms=(700,))
        with pytest.raises(ValueError):
            TrialMatrixSpec(speeds_mph=(20.0,), intervals_ms=(700,), trials_per_cell=0)
        with pytest.raises(ValueError, match="negative"):
            TrialMatrixSpec(speeds_mph=(20.0,), intervals_ms=(700,), seed=-1)
        with pytest.raises(ValueError, match=r"interval 1000\.5 ms is not a whole number"):
            TrialMatrixSpec(speeds_mph=(20.0,), intervals_ms=(1000.5,), trials_per_cell=5, seed=1)
        spec = TrialMatrixSpec(speeds_mph=(20.0,), intervals_ms=(1000.0,))
        assert spec.intervals_ms == (1000,) and type(spec.intervals_ms[0]) is int

    def test_expected_probability_is_pass_probability(self, small_spec):
        for cell in run_matrix(small_spec, WHEEL_ARCH).cells:
            assert cell.expected_probability == WHEEL_ARCH.pass_probability(
                cell.speed_mph, cell.interval_ms
            )


class TestTrialStream:
    """``_trial_uniforms`` against numpy's own SeedSequence -> PCG64 stream."""

    SEEDS = [0, 1, 42, 1729, 2**32 - 1, 2**32, 2**64 + 5, 2**100]
    INDICES = [0, 1, 2, 199, 2**31, 2**32 - 2, 2**32 - 1]

    @staticmethod
    def numpy_pair(seed, cell, trial):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, cell, trial))))
        return (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_equal_to_numpy(self, seed):
        # 2**64 + 5 and 2**100 give more entropy words than the pool holds;
        # 2**32 and beyond as a cell or trial index take two words.
        trials = self.INDICES + [2**32, 2**40 + 3]
        for cell in self.INDICES + [2**32]:
            u = montecarlo._trial_uniforms(seed, cell, trials)
            assert u.shape == (2, len(trials))
            for j, t in enumerate(trials):
                assert (u[0, j], u[1, j]) == self.numpy_pair(seed, cell, t)

    def test_block_equals_per_trial_calls(self):
        u = montecarlo._trial_uniforms(7, 3, np.arange(500))
        for t in (0, 1, 250, 499):
            assert tuple(u[:, t]) == self.numpy_pair(7, 3, t)
        assert montecarlo._trial_uniforms(7, 3, np.arange(0)).shape == (2, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            montecarlo._trial_uniforms(-1, 0, [0])


class TestTargets:
    def test_published_grids_load(self):
        wheel = load_target_matrix(Mount.WHEEL_ARCH)
        bonnet = load_target_matrix(Mount.BONNET)
        assert (len(wheel.speeds_mph), len(wheel.intervals_ms)) == (9, 7)
        assert (len(bonnet.speeds_mph), len(bonnet.intervals_ms)) == (9, 9)
        assert wheel.label(45.0, 1200) is CellLabel.P66
        assert bonnet.label(45.0, 700) is CellLabel.Y

    def test_partial_grid_rejected(self, tmp_path, monkeypatch):
        # The loader reads data/ beside the module: point it at a copy.
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "drive_matrix_wheelarch.csv").write_text(
            "speed_mph,interval_ms,label\n5,700,Y\n5,800,Y\n10,700,Y\n"
        )
        monkeypatch.setattr(sim, "__file__", str(tmp_path / "sim.py"))
        with pytest.raises(ValueError, match="not a full speed x interval grid"):
            load_target_matrix(Mount.WHEEL_ARCH)


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


def report_objective(targets, window_ms: float, bonnet_db: float) -> int:
    """The calibration objective at one point, from the per-cell report."""
    return sum(r.off_by for r in _mismatch_report(targets, window_ms, bonnet_db, DEFAULT_PATH_LOSS))


def use_targets(monkeypatch, targets):
    """Point ``calibrate``'s loader at ``targets``, one per mount."""
    by_mount = {target.mount: target for target in targets}
    monkeypatch.setattr(sim, "load_target_matrix", by_mount.__getitem__)


class TestCalibrate:
    def test_recovers_generating_parameters(self, monkeypatch):
        use_targets(monkeypatch, synthetic_targets(800.0, 1.5))
        result = calibrate()
        assert result.objective == 0
        assert all(r.off_by == 0 for r in result.per_cell)

    def test_argmin_beats_other_grid_points(self):
        targets = (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))
        result = calibrate()
        for w in [900.0, 1175.0, 1400.0]:
            for b in [1.0, 2.75]:
                assert result.objective <= report_objective(targets, w, b)

    def test_tie_breaks_toward_smaller_window_then_bonnet(self, monkeypatch):
        targets = synthetic_targets(800.0, 1.5)
        windows = (750.0, 775.0, 800.0, 825.0, 850.0)
        bonnets = (1.0, 1.25, 1.5, 1.75)
        use_targets(monkeypatch, targets)
        monkeypatch.setattr(sim, "SCAN_WINDOW_GRID_MS", windows)
        monkeypatch.setattr(sim, "BONNET_GRID_DB", bonnets)
        scalar = [(report_objective(targets, w, b), w, b) for w in windows for b in bonnets]
        assert sum(key[0] == 0 for key in scalar) >= 2
        # The 13 x 13 refinement around the coarse argmin.
        _, w0, b0 = min(scalar)
        scalar += [
            (report_objective(targets, w, b), w, b)
            for w in {round(min(w0 + 5.0 * i, 2500.0), 1) for i in range(-6, 7)}
            for b in {round(max(b0 + 0.05 * i, 0.0), 2) for i in range(-6, 7)}
        ]
        result = calibrate()
        assert (result.objective, result.scan_window_ms, result.bonnet_attenuation_db) == min(
            scalar
        )

    def test_shipped_preset_matches_full_search(self):
        # The frozen scanner preset is the argmin of the default search.
        result = calibrate()
        assert result.scan_window_ms == CALIBRATED_SCAN_WINDOW_MS
        assert result.bonnet_attenuation_db == 2.5

    def test_bad_probability_rejected(self, monkeypatch):
        # The grid range-checks each cell at both ends of its window axis.
        targets = (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))
        windows = [500.0, 1000.0, 1500.0]
        for coverage in (
            lambda gaps, cycle, arc: -0.5 if arc < 600.0 else 0.5,  # smallest arc only
            lambda gaps, cycle, arc: 1.5 if arc > 1400.0 else 0.5,  # largest arc only
        ):
            monkeypatch.setattr(rendezvous, "_union_share", coverage)
            with pytest.raises(ValueError, match="outside"):
                _objective_grid(targets, windows, [1.0], DEFAULT_PATH_LOSS)

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
    """The band-edge objective grid against the per-point report."""

    @pytest.fixture(scope="class")
    def targets(self):
        return (load_target_matrix(Mount.WHEEL_ARCH), load_target_matrix(Mount.BONNET))

    def assert_matches_report(self, targets, windows, bonnets, points):
        grid = np.array(_objective_grid(targets, windows, bonnets, DEFAULT_PATH_LOSS), dtype="<i8")
        assert grid.shape == (len(windows), len(bonnets))
        for i, j in points:
            assert grid[i, j] == report_objective(targets, windows[i], bonnets[j])

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

    @pytest.mark.parametrize("windows,bonnets,digest", [
        # The default coarse search.
        ([float(w) for w in range(100, 2501, 25)], [round(0.25 * i, 2) for i in range(41)],
         "e7e96eebc55cf44e24aeb682452dbae445951f80402a46c43877698116306483"),
        # Its refinement around the coarse argmin (1175 ms, 2.75 dB).
        ([1175.0 + 5.0 * i for i in range(-6, 7)], [round(2.75 + 0.05 * i, 2) for i in range(-6, 7)],
         "b5b79d65b72f1bfc6d43792952ea54e5cb27ca76d03cad3f1a5c770483b3c0e6"),
    ], ids=["coarse", "refinement"])
    def test_whole_grid_pinned(self, targets, windows, bonnets, digest):
        # Every objective of the grid, as computed before the coverage of
        # each (event count, interval) was shared across the grid.
        grid = np.array(_objective_grid(targets, windows, bonnets, DEFAULT_PATH_LOSS), dtype="<i8")
        assert hashlib.sha256(grid.tobytes()).hexdigest() == digest

    def test_each_coverage_computed_once(self, targets, monkeypatch):
        # The grid sorts the arc starts of each (k, interval) once, and
        # scores each of them at a window at most once.
        real_gaps, real_share = rendezvous._arc_gaps, rendezvous._union_share
        sorts, owner, shares = [], {}, []

        def gaps(k, interval, cycle):
            found = real_gaps(k, interval, cycle)
            sorts.append((k, interval))
            owner[id(found)] = (k, interval)
            return found

        def share(found, cycle, arc):
            shares.append((owner[id(found)], arc))
            return real_share(found, cycle, arc)

        monkeypatch.setattr(rendezvous, "_arc_gaps", gaps)
        monkeypatch.setattr(rendezvous, "_union_share", share)
        windows = [float(w) for w in range(100, 2501, 25)]
        _objective_grid(targets, windows, [round(0.25 * i, 2) for i in range(41)], DEFAULT_PATH_LOSS)
        assert sorts and shares
        assert len(sorts) == len(set(sorts))
        assert len(shares) == len(set(shares))
        assert {key for key, _ in shares} <= set(sorts)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        step=st.sampled_from([5, 25]),
        ticks=st.sets(st.integers(0, 480), min_size=1, max_size=6),
        bonnets=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=3, unique=True),
    )
    def test_random_grid_matches_report(self, targets, step, ticks, bonnets):
        # Ascending windows on a 5 or 25 ms lattice from 100 to 2500 ms and
        # arbitrary bonnet losses, every point against the per-point report.
        windows = sorted({100.0 + step * (5 * n // step) for n in ticks})
        points = [(i, j) for i in range(len(windows)) for j in range(len(bonnets))]
        self.assert_matches_report(targets, windows, bonnets, points)
