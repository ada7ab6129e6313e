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
The textbook approximation that treats events as independent Bernoulli
trials is smooth and monotone, exact for at most one event, and off by up
to ~0.2 at moderate duty cycles; ``tests/test_rendezvous.py`` keeps it
as ``detection_probability_independent`` to show that gap.
``detection_probability_oracle`` brute-forces the same process by Monte
Carlo and is the reference the analytic path is tested against; its array
arithmetic lives in ``montecarlo``, the one module that imports numpy.
"""

from __future__ import annotations

import math

from .value import Value

MPH_TO_MS = 0.44704

MIN_INTERVAL_MS = 100.0
MAX_INTERVAL_MS = 10240.0
DEFAULT_SCAN_CYCLE_MS = 2500.0


def mph_to_ms(mph: float) -> float:
    return mph * MPH_TO_MS


def ms_to_mph(ms: float) -> float:
    return ms / MPH_TO_MS


class AdvertiserConfig(Value):
    """Beacon-side timing; the field beacon's events last 3 ms."""

    __slots__ = ("interval_ms", "event_duration_ms")

    def __init__(self, interval_ms: float, event_duration_ms: float = 3.0) -> None:
        if not MIN_INTERVAL_MS <= interval_ms <= MAX_INTERVAL_MS:
            raise ValueError(
                f"interval {interval_ms} ms outside "
                f"[{MIN_INTERVAL_MS:.0f}, {MAX_INTERVAL_MS:.0f}]"
            )
        if not 0 < event_duration_ms < math.inf:  # also rejects NaN
            raise ValueError("event duration must be positive and finite")
        if interval_ms < event_duration_ms:
            raise ValueError("interval must cover one advertising event")
        object.__setattr__(self, "interval_ms", interval_ms)
        object.__setattr__(self, "event_duration_ms", event_duration_ms)


class ScannerConfig(Value):
    """Receiver-side timing; the loop cycle is 2500 ms on the field unit."""

    __slots__ = ("scan_window_ms", "scan_cycle_ms")

    def __init__(self, scan_window_ms: float, scan_cycle_ms: float = DEFAULT_SCAN_CYCLE_MS) -> None:
        if not 0 < scan_window_ms < math.inf:  # also rejects NaN
            raise ValueError("scan window must be positive and finite")
        if not scan_window_ms <= scan_cycle_ms < math.inf:
            raise ValueError("scan cycle must be finite and no shorter than the scan window")
        object.__setattr__(self, "scan_window_ms", scan_window_ms)
        object.__setattr__(self, "scan_cycle_ms", scan_cycle_ms)


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


def detection_probability(
    adv: AdvertiserConfig, scan: ScannerConfig, t_in_s: float
) -> float:
    """Probability the scanner hears at least one event during the pass."""
    if t_in_s < 0:
        raise ValueError("in-range time cannot be negative")
    table = coverage_table(scan.scan_cycle_ms, [_arc_length_ms(adv, scan)])
    return table(t_in_s * 1000.0, adv.interval_ms)(0)


def _event_split(span_ms: float, interval: float) -> tuple[int, float]:
    """(n, frac): floor(span/interval) event starts fit in range, plus one
    more with probability equal to the fractional remainder ``frac``."""
    events = span_ms / interval
    if events == math.inf:  # a pass at a speed of almost nothing
        raise ValueError(f"a pass {span_ms!r} ms in range holds too many events to count")
    n = int(events)
    return n, events - n


def coverage_table(cycle: float, arcs: list[float]):
    """``coverage_table(cycle, arcs)(span_ms, interval)`` is a pass's
    ``p``: ``p(i)`` is its exact detection probability at ``arcs[i]``.

    No coverage depends on how long a pass is in range, so the table keeps
    one row per (k, interval) for every pass it scores: the arc gaps,
    sorted once, and the coverage at each arc, computed the first time a
    probe reads it.  ``p`` mixes the rows of n and n + 1 events with the
    ``_event_split`` weights, which are fixed and non-negative, so ``p``
    never decreases along ascending ``arcs`` (see ``_union_share``)."""
    rows: dict[tuple[int, float], tuple[list[float], list[float | None]]] = {}

    def row(k: int, interval: float) -> tuple[list[float], list[float | None]]:
        found = rows.get((k, interval))
        if found is None:
            found = rows[(k, interval)] = (_arc_gaps(k, interval, cycle), [None] * len(arcs))
        return found

    def probability(span_ms: float, interval: float):
        n, frac = _event_split(span_ms, interval)
        gaps_n, cover_n = row(n, interval)
        gaps_n1, cover_n1 = row(n + 1, interval) if frac != 0.0 else (gaps_n, cover_n)

        def p(i: int) -> float:
            a = cover_n[i]
            if a is None:
                a = cover_n[i] = _union_share(gaps_n, cycle, arcs[i])
            if frac == 0.0:
                return a
            b = cover_n1[i]
            if b is None:
                b = cover_n1[i] = _union_share(gaps_n1, cycle, arcs[i])
            return (1.0 - frac) * a + frac * b

        return p

    return probability


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
