import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackside import montecarlo, rendezvous
from trackside.rendezvous import (
    AdvertiserConfig,
    PassGeometry,
    ScannerConfig,
    _arc_length_ms,
    _coverage_exact,
    _expected_coverage,
    detection_probability,
    detection_probability_oracle,
    in_range_time,
    mph_to_ms,
)


def detection_probability_independent(
    adv: AdvertiserConfig, scan: ScannerConfig, t_in_s: float
) -> float:
    """Independent-events approximation: P = 1 - (1-q)^N * (1 - q*frac).

    q is the per-event hit chance (scan_window + event_duration)/scan_cycle
    and N the whole number of events fitting in the pass; the fractional
    remainder contributes one extra event with matching probability, which
    removes staircase artifacts at band edges.  Exact when at most one
    event fits; ignores the phase coupling between events beyond that.
    """
    if t_in_s < 0:
        raise ValueError("in-range time cannot be negative")
    q = _arc_length_ms(adv, scan) / scan.scan_cycle_ms
    events = t_in_s * 1000.0 / adv.interval_ms
    n = int(events)
    frac = events - n
    return 1.0 - (1.0 - q) ** n * (1.0 - q * frac)


def random_config(rnd):
    adv = AdvertiserConfig(
        interval_ms=rnd.uniform(150, 2200), event_duration_ms=rnd.uniform(1, 10)
    )
    cycle = rnd.uniform(900, 4000)
    scan = ScannerConfig(scan_window_ms=rnd.uniform(10, cycle), scan_cycle_ms=cycle)
    return adv, scan, rnd.uniform(0.0, 5.0)


class TestInRangeTime:
    def test_diameter_over_speed(self):
        assert in_range_time(PassGeometry(10.0, 0.0, 10.0)) == 2.0

    def test_chord_at_45mph(self):
        # oracle: 2*sqrt(R^2 - o^2)/v computed directly
        g = PassGeometry(20.1, 2.0, 25.0)
        expected = 2.0 * math.sqrt(25.0**2 - 2.0**2) / 20.1
        assert in_range_time(g) == expected
        assert in_range_time(g) == pytest.approx(2.48, abs=0.01)

    def test_never_in_range(self):
        assert in_range_time(PassGeometry(13.0, 30.0, 25.0)) == 0.0

    def test_inverse_speed_scaling(self):
        slow = in_range_time(PassGeometry(7.0, 1.0, 30.0))
        fast = in_range_time(PassGeometry(14.0, 1.0, 30.0))
        assert slow == pytest.approx(2.0 * fast, rel=1e-12)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            PassGeometry(0.0, 1.0, 10.0)

    @pytest.mark.parametrize("speed", [math.inf, -math.inf, math.nan])
    def test_nonfinite_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="positive and finite"):
            PassGeometry(speed, 1.0, 10.0)

    def test_mph_conversion(self):
        assert mph_to_ms(45.0) == pytest.approx(20.1168)


def loop_coverage(k, interval, cycle, arc):
    """Reference union measure: one arc length, sorted starts, gaps summed
    left to right in plain Python floats."""
    if k <= 0:
        return 0.0
    if arc >= cycle:
        return 1.0
    positions = sorted((i * interval) % cycle for i in range(k))
    covered = 0.0
    for i, p in enumerate(positions):
        nxt = positions[i + 1] if i + 1 < k else positions[0] + cycle
        covered += min(nxt - p, arc)
    return min(covered / cycle, 1.0)


class TestCoverageKernel:
    def test_array_of_arcs_equals_one_call_per_arc(self):
        rnd = random.Random(4)
        for case in range(300):
            k = 0 if case % 10 == 0 else rnd.randrange(1, 40)
            interval = rnd.choice([rnd.uniform(100, 3000), float(rnd.randrange(100, 3001, 100))])
            cycle = rnd.choice([2500.0, rnd.uniform(500, 4000)])
            gaps = np.diff(sorted((i * interval) % cycle for i in range(max(k, 1))))
            arcs = [rnd.uniform(1.0, cycle) for _ in range(6)]
            arcs += [cycle, cycle * 1.1]  # at and past the whole cycle
            # Arcs straddling a gap between two arc starts.
            arcs += [g + d for g in gaps[:3] for d in (-1e-9, 0.0, 1e-9) if g + d > 0]
            expected = [loop_coverage(k, interval, cycle, a) for a in arcs]
            assert [_coverage_exact(k, interval, cycle, a) for a in arcs] == expected

    def test_scalar_arc_returns_float(self):
        assert type(_coverage_exact(5, 700.0, 2500.0, 1173.0)) is float
        assert type(_coverage_exact(0, 700.0, 2500.0, 1173.0)) is float
        assert type(_coverage_exact(5, 700.0, 2500.0, np.float64(1173.0))) is float

    def test_window_axis_agrees_with_oracle(self):
        # The calibration scores a cell along an axis of scan windows, one
        # window at a time; each entry is the scalar probability and agrees
        # with the oracle.
        windows = [150.0, 600.0, 1170.0, 1800.0, 2400.0]
        for i, (interval, t) in enumerate(((700.0, 2.5), (1200.0, 4.1), (1600.0, 9.0))):
            for j, window in enumerate(windows):
                p = _expected_coverage(
                    t * 1000.0, interval,
                    lambda k: _coverage_exact(k, interval, 2500.0, window + 3.0),
                )
                adv = AdvertiserConfig(interval_ms=interval)
                scan = ScannerConfig(scan_window_ms=window)
                assert p == detection_probability(adv, scan, t)
                mc = detection_probability_oracle(adv, scan, t, trials=20000, seed=(i, j))
                assert abs(p - mc) < 0.02


_INTERVALS = st.one_of(st.integers(100, 3000).map(float), st.floats(100.0, 3000.0))


class TestMonotoneInWindow:
    """The premise of the calibration's bisection along the window axis:
    exactly in floating point, nothing decreases as the arc grows."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        k=st.integers(0, 40),
        interval=_INTERVALS,
        cycle=st.one_of(st.just(2500.0), st.floats(500.0, 4000.0)),
        arcs=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=6),
    )
    def test_coverage_non_decreasing_in_arc(self, k, interval, cycle, arcs):
        gaps = rendezvous._arc_gaps(k, interval, cycle) if k > 0 else []
        arcs = arcs + [math.nextafter(cycle, 0.0), cycle]
        arcs += [g + d for g in gaps for d in (-1e-9, 0.0, 1e-9) if g + d > 0]
        values = [_coverage_exact(k, interval, cycle, a) for a in sorted(arcs)]
        assert values == sorted(values)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        interval=_INTERVALS,
        t_in=st.floats(0.0, 12.0),
        windows=st.lists(st.floats(1.0, 2500.0), min_size=2, max_size=12),
    )
    def test_probability_non_decreasing_in_window(self, interval, t_in, windows):
        adv = AdvertiserConfig(interval_ms=interval)
        ps = [
            detection_probability(adv, ScannerConfig(scan_window_ms=w), t_in)
            for w in sorted(windows)
        ]
        assert ps == sorted(ps)


class TestBoundedKernel:
    """With a whole-millisecond interval and cycle the arc starts repeat
    exactly with period P = cycle / gcd(interval, cycle), so the kernel
    sorts at most P of them; any other pass is bounded by a refusal."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        interval=st.integers(100, 10240),
        cycle=st.one_of(st.just(2500), st.integers(500, 4000)),
        as_float=st.booleans(),
        data=st.data(),
    )
    def test_capped_sums_bit_equal_uncapped(self, interval, cycle, as_float, data):
        period = cycle // math.gcd(interval, cycle)
        k = data.draw(st.integers(1, 3 * period), label="k")
        arcs = data.draw(st.lists(st.floats(1.0, 1.1 * cycle), min_size=1, max_size=4))
        interval = float(interval) if as_float else interval
        gaps = rendezvous._arc_gaps(k, interval, float(cycle))
        assert len(gaps) == min(k, period)
        arcs += [g + d for g in gaps[:3] for d in (-1e-9, 0.0, 1e-9) if g + d > 0]
        for arc in arcs:
            # loop_coverage sorts all k starts, duplicates included.
            assert _coverage_exact(k, interval, float(cycle), arc) == loop_coverage(
                k, interval, float(cycle), arc
            )

    def test_whole_ms_events_beyond_the_bound_are_scored(self):
        # Only 5 distinct starts at 1000 ms.  Far longer passes run in
        # tests/test_bounded_work.py, under a memory limit.
        k = 3 * rendezvous.MAX_ARC_STARTS
        assert _coverage_exact(k, 1000, 2500.0, 1173.0) == _coverage_exact(5, 1000, 2500.0, 1173.0)

    @pytest.mark.parametrize("interval,cycle", [
        (1000.5, 2500.0),  # no exact period
        (1000, 2500.5),
        (101, 1e7),  # a whole-ms period beyond the bound
    ])
    def test_too_many_starts_refused(self, interval, cycle):
        limit = rendezvous.MAX_ARC_STARTS
        assert 0.0 < _coverage_exact(limit, interval, cycle, 1173.0) <= 1.0
        with pytest.raises(ValueError, match="can be scored"):
            _coverage_exact(limit + 1, interval, cycle, 1173.0)

    def test_uncountable_pass_refused(self):
        adv = AdvertiserConfig(interval_ms=1000)
        with pytest.raises(ValueError, match="too many events to count"):
            detection_probability(adv, ScannerConfig(scan_window_ms=1170.0), math.inf)


class TestDetectionProbability:
    def test_always_listening_is_certain(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=2500.0, scan_cycle_ms=2500.0)
        assert detection_probability(adv, scan, 1.0) == 1.0
        assert detection_probability_independent(adv, scan, 1.0) == 1.0

    def test_zero_time_zero_probability(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=100.0)
        assert detection_probability(adv, scan, 0.0) == 0.0

    def test_fractional_single_event(self):
        # t_in shorter than the interval: the event fits with probability
        # frac and is heard with chance q; both models agree exactly here.
        adv = AdvertiserConfig(interval_ms=1000.0, event_duration_ms=5.0)
        scan = ScannerConfig(scan_window_ms=495.0, scan_cycle_ms=2500.0)
        q = (495.0 + 5.0) / 2500.0
        p = detection_probability(adv, scan, 0.5)
        assert p == pytest.approx(0.5 * q, rel=1e-12)
        assert detection_probability_independent(adv, scan, 0.5) == pytest.approx(p)

    def test_negative_time_rejected(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=100.0)
        with pytest.raises(ValueError):
            detection_probability(adv, scan, -0.1)

    def test_monotone_in_time_window_duration(self):
        rnd = random.Random(11)
        for _ in range(40):
            adv, scan, t = random_config(rnd)
            p = detection_probability(adv, scan, t)
            assert detection_probability(adv, scan, t + rnd.uniform(0.05, 2)) >= p - 1e-12
            wider = ScannerConfig(
                scan_window_ms=min(scan.scan_window_ms * 1.3, scan.scan_cycle_ms),
                scan_cycle_ms=scan.scan_cycle_ms,
            )
            assert detection_probability(adv, wider, t) >= p - 1e-9
            longer = AdvertiserConfig(adv.interval_ms, adv.event_duration_ms + 5.0)
            assert detection_probability(longer, scan, t) >= p - 1e-9

    def test_independent_monotone_in_interval(self):
        rnd = random.Random(13)
        for _ in range(40):
            adv, scan, t = random_config(rnd)
            slower = AdvertiserConfig(adv.interval_ms * 1.5, adv.event_duration_ms)
            assert (
                detection_probability_independent(slower, scan, t)
                <= detection_probability_independent(adv, scan, t) + 1e-12
            )

    def test_phase_coupling_at_resonance(self):
        # Interval at half the scan cycle locks events onto two phase
        # slots; the true probability sits far below the independence
        # approximation, and the oracle sides with the exact model.
        adv = AdvertiserConfig(interval_ms=1250.0, event_duration_ms=3.0)
        scan = ScannerConfig(scan_window_ms=400.0, scan_cycle_ms=2500.0)
        t = 8.0
        exact = detection_probability(adv, scan, t)
        indep = detection_probability_independent(adv, scan, t)
        mc = detection_probability_oracle(adv, scan, t, trials=60000, seed=5)
        assert indep - exact > 0.25
        assert abs(exact - mc) < 0.02

    def test_halving_formula_doubling_interval(self):
        # For the independence model with fixed q, log(1-P) is
        # proportional to the expected event count t/interval.
        adv = AdvertiserConfig(interval_ms=400.0)
        scan = ScannerConfig(scan_window_ms=250.0, scan_cycle_ms=2500.0)
        doubled = AdvertiserConfig(interval_ms=800.0)
        t = 8.0
        log_p = math.log(1.0 - detection_probability_independent(adv, scan, t))
        log_p2 = math.log(1.0 - detection_probability_independent(doubled, scan, t))
        assert log_p == pytest.approx(2.0 * log_p2, rel=1e-6)


class TestOracle:
    def test_certain_configuration(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=2500.0, scan_cycle_ms=2500.0)
        for seed in (0, 1, 99):
            assert detection_probability_oracle(adv, scan, 1.1, 500, seed) == 1.0

    def test_zero_time(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=100.0)
        assert detection_probability_oracle(adv, scan, 0.0, 100, 7) == 0.0

    def test_deterministic_in_seed(self):
        adv = AdvertiserConfig(interval_ms=730.0)
        scan = ScannerConfig(scan_window_ms=300.0, scan_cycle_ms=2100.0)
        a = detection_probability_oracle(adv, scan, 2.3, 5000, 42)
        b = detection_probability_oracle(adv, scan, 2.3, 5000, 42)
        assert a == b

    def test_chunking_does_not_change_result(self, monkeypatch):
        adv = AdvertiserConfig(interval_ms=730.0)
        scan = ScannerConfig(scan_window_ms=300.0, scan_cycle_ms=2100.0)
        results = []
        for chunk in (100, 4096):
            monkeypatch.setattr(montecarlo, "ORACLE_CHUNK", chunk)
            results.append(detection_probability_oracle(adv, scan, 2.3, 5000, 42))
        assert results[0] == results[1]

    def test_zero_trials_rejected(self):
        adv = AdvertiserConfig(interval_ms=500.0)
        scan = ScannerConfig(scan_window_ms=100.0)
        with pytest.raises(ValueError):
            detection_probability_oracle(adv, scan, 1.0, 0, 1)

    def test_agrees_with_analytic_on_random_grid(self):
        # Unit-scale version of the acceptance check (fewer points/trials).
        rnd = random.Random(2024)
        worst = 0.0
        for i in range(25):
            adv, scan, t = random_config(rnd)
            analytic = detection_probability(adv, scan, t)
            mc = detection_probability_oracle(adv, scan, t, trials=20000, seed=900 + i)
            worst = max(worst, abs(analytic - mc))
        assert worst < 0.02


class TestConfigValidation:
    def test_interval_bounds(self):
        with pytest.raises(ValueError):
            AdvertiserConfig(interval_ms=50.0)
        with pytest.raises(ValueError):
            AdvertiserConfig(interval_ms=20000.0)

    def test_event_duration(self):
        with pytest.raises(ValueError):
            AdvertiserConfig(interval_ms=500.0, event_duration_ms=0.0)
        with pytest.raises(ValueError):
            AdvertiserConfig(interval_ms=100.0, event_duration_ms=200.0)

    def test_scan_window_bounds(self):
        with pytest.raises(ValueError):
            ScannerConfig(scan_window_ms=0.0)
        with pytest.raises(ValueError):
            ScannerConfig(scan_window_ms=3000.0, scan_cycle_ms=2500.0)
