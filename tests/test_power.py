import random

import pytest
from hypothesis import example, given, settings
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
from trackside.presets import Mount, scenario_for_mount

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
    """One full search per speed: every interval from the longest down."""
    rows = []
    for speed in sorted(speeds):
        best = next(
            (interval
             for interval in range(GUIDE_MAX_INTERVAL_MS, 0, -GUIDE_INTERVAL_STEP_MS)
             if scenario.pass_probability(speed, interval) >= target),
            None,
        )
        if best is None:
            rows.append(GuideRow(speed, 0, 0.0, feasible=False))
        else:
            rows.append(GuideRow(speed, best, battery_life(best)))
    return rows


_rnd = random.Random(10)
MIXED_SPEEDS = [45.0] + [45.0 - _rnd.uniform(0.0, 45.0) for _ in range(24)]


class TestPrunedSearch:
    """derive_guide searches each speed from the interval the previous,
    slower speed got, and never probes a longer one."""

    TARGETS = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9, 1.0]

    @pytest.fixture(scope="class", params=list(Mount), ids=lambda m: m.value)
    def mounted(self, request):
        return scenario_for_mount(request.param)

    @pytest.mark.parametrize("target", TARGETS)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(speeds=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=12))
    @example(speeds=MIXED_SPEEDS)
    def test_matches_brute_force(self, mounted, target, speeds):
        # One pass over the list gives the rows of one full search per speed.
        assert derive_guide(target, speeds, mounted) == brute_force_guide(target, speeds, mounted)
