"""Advertiser/scanner rendezvous probability for a single drive-by.

The scanner listens for ``scan_window`` ms out of every ``scan_cycle`` ms;
the beacon advertises every ``interval`` ms.  While the vehicle is inside
the detection disc for ``t_in`` seconds, an advertising event is heard iff
its hearable window overlaps a listening window.  Over uniform advertiser
and scanner phases this has an exact closed computation:

With k event starts in range, the set of scanner phases that hear at least
one event is a union of k arcs of length ``scan_window + event_duration``
on the scan-cycle circle, spaced ``interval`` apart.  The event count is
floor(t_in/interval) plus one more with probability equal to the
fractional remainder, so

    P = (1 - frac) * coverage(N) + frac * coverage(N + 1)

The beacon is the field unit: 3 ms events with no random per-event delay
(BLE advDelay), so event starts lie exactly ``interval`` apart and
``detection_probability`` evaluates that union measure exactly.  Note the
phase coupling between events makes P genuinely non-monotone in the
interval near interval/cycle resonances; that is physics, not a bug.
``detection_probability_independent`` is the textbook approximation that
treats events as independent Bernoulli trials: smooth and monotone, exact
for at most one event, and off by up to ~0.2 at moderate duty cycles.
``detection_probability_oracle`` brute-forces the same process by Monte
Carlo and is the reference the analytic path is tested against; its array
arithmetic lives in ``montecarlo``, the one module that imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MPH_TO_MS = 0.44704

MIN_INTERVAL_MS = 100.0
MAX_INTERVAL_MS = 10240.0
DEFAULT_SCAN_CYCLE_MS = 2500.0


def mph_to_ms(mph: float) -> float:
    return mph * MPH_TO_MS


def ms_to_mph(ms: float) -> float:
    return ms / MPH_TO_MS


@dataclass(frozen=True)
class AdvertiserConfig:
    """Beacon-side timing; the field beacon's events last 3 ms."""

    interval_ms: float
    event_duration_ms: float = 3.0

    def __post_init__(self) -> None:
        if not MIN_INTERVAL_MS <= self.interval_ms <= MAX_INTERVAL_MS:
            raise ValueError(
                f"interval {self.interval_ms} ms outside "
                f"[{MIN_INTERVAL_MS:.0f}, {MAX_INTERVAL_MS:.0f}]"
            )
        if not 0 < self.event_duration_ms < math.inf:  # also rejects NaN
            raise ValueError("event duration must be positive and finite")
        if self.interval_ms < self.event_duration_ms:
            raise ValueError("interval must cover one advertising event")


@dataclass(frozen=True)
class ScannerConfig:
    """Receiver-side timing; the loop cycle is 2500 ms on the field unit."""

    scan_window_ms: float
    scan_cycle_ms: float = DEFAULT_SCAN_CYCLE_MS

    def __post_init__(self) -> None:
        if not 0 < self.scan_window_ms < math.inf:  # also rejects NaN
            raise ValueError("scan window must be positive and finite")
        if not self.scan_window_ms <= self.scan_cycle_ms < math.inf:
            raise ValueError("scan cycle must be finite and no shorter than the scan window")


@dataclass(frozen=True)
class PassGeometry:
    """One straight drive past a roadside beacon, 2 m off the road by default."""

    speed_ms: float
    lateral_offset_m: float = 2.0
    detection_range_m: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.speed_ms < math.inf:  # also rejects NaN
            raise ValueError("speed must be positive and finite")
        if not 0 <= self.lateral_offset_m < math.inf:  # also rejects NaN
            raise ValueError("lateral offset must be finite and >= 0")
        if not 0 <= self.detection_range_m < math.inf:
            raise ValueError("detection range must be finite and >= 0")


def in_range_time(geometry: PassGeometry) -> float:
    """Seconds spent inside the detection disc: chord length over speed."""
    r = geometry.detection_range_m
    o = geometry.lateral_offset_m
    if o >= r:
        return 0.0
    return 2.0 * math.sqrt(r * r - o * o) / geometry.speed_ms


def _arc_length_ms(adv: AdvertiserConfig, scan: ScannerConfig) -> float:
    return min(scan.scan_window_ms + adv.event_duration_ms, scan.scan_cycle_ms)


# Arc starts sorted at most per union measure, which bounds its memory and
# time however long a pass is in range.
MAX_ARC_STARTS = 1 << 16


def _arc_gaps(k: int, interval: float, cycle: float) -> list[float]:
    """Gaps between the k sorted arc starts, around the circle; none for
    k <= 0.

    With a whole-millisecond interval and cycle, ``i * interval`` and ``%``
    are exact, so the starts repeat exactly with period
    P = cycle / gcd(interval, cycle) (at most 2500 on the field unit's
    loop).  Starts past the first P only add gaps of 0.0, which leave
    every sum over the gaps bit for bit as it was, so they are dropped.
    Any other pass that needs more than ``MAX_ARC_STARTS`` starts is
    refused."""
    if k <= 0:
        return []
    if float(interval).is_integer() and float(cycle).is_integer():
        k = min(k, int(cycle) // math.gcd(int(interval), int(cycle)))
    if k > MAX_ARC_STARTS:
        raise ValueError(
            f"{k} advertising events in range at a {interval:g} ms interval and "
            f"a {cycle:g} ms scan cycle: more than the {MAX_ARC_STARTS} that can be scored"
        )
    starts = sorted((i * interval) % cycle for i in range(k))
    return [b - a for a, b in zip(starts, starts[1:] + [starts[0] + cycle])]


def _union_share(gaps: list[float], cycle: float, arc: float) -> float:
    """Share of the cycle covered by one arc of length ``arc`` at each of
    the starts whose ``_arc_gaps`` are ``gaps``: the one union measure.

    Each min(gap, arc) is exact and the sum runs left to right, so under
    round-to-nearest the result never decreases as ``arc`` grows; the
    calibration bisects along ascending scan windows on that order."""
    if not gaps:
        return 0.0
    if arc >= cycle:
        return 1.0
    covered = 0.0
    for gap in gaps:
        covered += min(gap, arc)
    return float(min(covered / cycle, 1.0))


def _coverage_exact(k: int, interval: float, cycle: float, arc: float) -> float:
    """Union measure of k same-length arcs spaced ``interval`` apart, / cycle."""
    return _union_share(_arc_gaps(k, interval, cycle), cycle, arc)


def detection_probability(
    adv: AdvertiserConfig, scan: ScannerConfig, t_in_s: float
) -> float:
    """Probability the scanner hears at least one event during the pass."""
    if t_in_s < 0:
        raise ValueError("in-range time cannot be negative")
    if t_in_s == 0:
        return 0.0
    arc = _arc_length_ms(adv, scan)
    return _expected_coverage(
        t_in_s * 1000.0,
        adv.interval_ms,
        lambda k: _coverage_exact(k, adv.interval_ms, scan.scan_cycle_ms, arc),
    )


def _event_split(span_ms: float, interval: float) -> tuple[int, float]:
    """(n, frac): floor(span/interval) event starts fit in range, plus one
    more with probability equal to the fractional remainder ``frac``."""
    events = span_ms / interval
    if events == math.inf:  # a pass at a speed of almost nothing
        raise ValueError(f"a pass {span_ms!r} ms in range holds too many events to count")
    n = int(events)
    return n, events - n


def _expected_coverage(span_ms: float, interval: float, coverage):
    """The ``_event_split`` mix of ``coverage(k)``, the chance k events are
    heard.  Both weights are fixed and non-negative, so the mix never
    decreases where both coverages grow."""
    n, frac = _event_split(span_ms, interval)
    if frac == 0.0:
        return coverage(n)
    return (1.0 - frac) * coverage(n) + frac * coverage(n + 1)


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


def detection_probability_oracle(
    adv: AdvertiserConfig,
    scan: ScannerConfig,
    t_in_s: float,
    trials: int,
    seed: int | tuple,
) -> float:
    """Brute-force reference: sample uniform advertiser and scanner phases
    and check any event against any scan window.

    Unbiased, deterministic in the seed, standard error <= 0.5/sqrt(trials).
    The trials run in ``montecarlo.oracle_hits``, imported here so that
    only a process that calls the oracle imports numpy.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if t_in_s < 0:
        raise ValueError("in-range time cannot be negative")
    if t_in_s == 0:
        return 0.0

    from . import montecarlo

    return montecarlo.oracle_hits(adv, scan, t_in_s * 1000.0, trials, seed) / trials
