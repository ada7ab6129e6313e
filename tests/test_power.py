import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trackside import pathloss
from trackside.pathloss import PathLossModel
from trackside.power import (
    GUIDE_INTERVAL_STEP_MS,
    GUIDE_MAX_INTERVAL_MS,
    GuideRow,
    SpeedEnvelopeError,
    battery_life,
    derive_guide,
    published_guide,
    recommend_interval,
)
from trackside.presets import DriveScenario, Mount, scenario_for_mount

PUBLISHED = [
    (5, 1400, 262.5),
    (10, 1300, 243.75),
    (15, 1300, 243.75),
    (20, 1200, 225.0),
    (25, 1200, 225.0),
    (30, 1000, 187.5),
    (35, 900, 168.75),
    (40, 700, 131.25),
    (45, 700, 131.25),
]


class TestBatteryLife:
    @pytest.mark.parametrize("interval,days", [(700, 131.25), (1400, 262.5), (1000, 187.5)])
    def test_published_values(self, interval, days):
        assert battery_life(interval) == days

    @given(st.floats(1, 5000), st.floats(1, 5000))
    def test_exactly_linear(self, a, b):
        total = battery_life(a + b)
        assert total == pytest.approx(battery_life(a) + battery_life(b))

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            battery_life(0)


class TestRecommendInterval:
    @pytest.mark.parametrize("speed,interval,days", PUBLISHED)
    def test_every_published_row(self, speed, interval, days):
        assert recommend_interval(speed) == (interval, days)

    def test_bucketing_rounds_up(self):
        assert recommend_interval(27.0) == recommend_interval(30)
        assert recommend_interval(5.1) == recommend_interval(10)

    def test_outside_envelope(self):
        with pytest.raises(SpeedEnvelopeError):
            recommend_interval(46.0)

    def test_nonpositive_speed(self):
        with pytest.raises(ValueError):
            recommend_interval(0.0)

    def test_monotone_nonincreasing_in_speed(self):
        speeds = [s / 2 for s in range(1, 91)]
        intervals = [recommend_interval(s)[0] for s in speeds]
        assert all(a >= b for a, b in zip(intervals, intervals[1:]))

    def test_published_guide_matches(self):
        rows = published_guide()
        assert [(r.max_speed_mph, r.interval_ms, r.battery_days) for r in rows] == PUBLISHED


@pytest.fixture(scope="module")
def scenario():
    return scenario_for_mount()


class TestDeriveGuide:
    def test_vacuous_target_gives_max_interval(self, scenario):
        rows = derive_guide(0.0, [5, 25, 45], scenario)
        assert all(r.interval_ms == 10200 for r in rows)

    def test_near_certain_target_at_45(self, scenario):
        rows = derive_guide(1.0 - 1e-9, [45], scenario)
        assert rows[0].feasible
        assert abs(rows[0].interval_ms - 700) <= 100

    def test_monotone_by_construction(self, scenario):
        rows = derive_guide(0.95, [5, 15, 25, 35, 45], scenario)
        intervals = [r.interval_ms for r in rows]
        assert all(a >= b for a, b in zip(intervals, intervals[1:]))

    def test_battery_consistent(self, scenario):
        for row in derive_guide(0.9, [10, 30, 45], scenario):
            assert row.battery_days == battery_life(row.interval_ms)

    def test_infeasible_rows_flagged(self, scenario):
        # A pass that never enters range cannot meet any positive target:
        # a threshold a hair under the reference gives a ~1.07 m range,
        # less than the 2 m lateral offset.
        blind = scenario_for_mount(
            path_loss=PathLossModel(reliability_threshold_dbm=-70.5), scanner=scenario.scanner
        )
        rows = derive_guide(0.5, [30], blind)
        assert not rows[0].feasible

    def test_bad_target_rejected(self, scenario):
        with pytest.raises(ValueError):
            derive_guide(1.5, [30], scenario)

    def test_detection_range_computed_once_per_scenario(self, monkeypatch):
        # Every probe of a guide search shares one detection range.
        calls = []
        real = pathloss.detection_range
        monkeypatch.setattr(
            pathloss, "detection_range", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        fresh = scenario_for_mount()
        derive_guide(0.95, [5, 25, 45], fresh)
        assert len(calls) == 1
        assert fresh.detection_range_m == real(fresh.path_loss, materials=fresh.materials)


def brute_force_guide(target, speeds, scenario):
    """The guide search that probes every interval from the ceiling down."""
    rows, ceiling = [], GUIDE_MAX_INTERVAL_MS
    for speed in sorted(speeds):
        best = next(
            (interval
             for interval in range(ceiling, GUIDE_INTERVAL_STEP_MS - 1, -GUIDE_INTERVAL_STEP_MS)
             if scenario.pass_probability(speed, interval) >= target),
            None,
        )
        if best is None:
            rows.append(GuideRow(speed, 0, 0.0, feasible=False))
        else:
            rows.append(GuideRow(speed, best, battery_life(best)))
            ceiling = best
    return rows


class TestPrunedSearch:
    """derive_guide skips intervals whose coverage bound misses the target."""

    TARGETS = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9, 1.0]

    @pytest.fixture(scope="class", params=list(Mount), ids=lambda m: m.value)
    def mounted(self, request):
        return scenario_for_mount(request.param)

    @pytest.fixture(scope="class")
    def speeds(self):
        rnd = random.Random(10)
        return [45.0] + [45.0 - rnd.uniform(0.0, 45.0) for _ in range(24)]

    def probed(self, monkeypatch, scenario):
        probes = []
        real = DriveScenario.pass_probability
        monkeypatch.setattr(
            DriveScenario, "pass_probability",
            lambda self, speed, interval: probes.append((speed, interval)) or real(
                self, speed, interval
            ),
        )
        return probes

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_brute_force(self, mounted, speeds, target):
        assert derive_guide(target, speeds, mounted) == brute_force_guide(target, speeds, mounted)
        for speed in speeds:
            assert derive_guide(target, [speed], mounted) == brute_force_guide(
                target, [speed], mounted
            )

    @pytest.mark.parametrize("target", TARGETS)
    def test_skipped_intervals_fail(self, mounted, speeds, target, monkeypatch):
        probes = self.probed(monkeypatch, mounted)
        for speed in speeds:
            probes.clear()
            row, = derive_guide(target, [speed], mounted)
            probed = {interval for _, interval in probes}
            lowest = row.interval_ms if row.feasible else GUIDE_INTERVAL_STEP_MS
            skipped = [
                interval
                for interval in range(GUIDE_MAX_INTERVAL_MS, lowest - 1, -GUIDE_INTERVAL_STEP_MS)
                if interval not in probed
            ]
            assert all(mounted.pass_probability(speed, i) < target for i in skipped)

    def test_few_probes_at_45mph(self, scenario, monkeypatch):
        probes = self.probed(monkeypatch, scenario)
        row, = derive_guide(0.95, [45], scenario)
        assert row.feasible
        assert len(probes) <= 10
