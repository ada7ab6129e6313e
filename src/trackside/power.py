"""Beacon battery life versus broadcast interval, and the speed guide.

Every published guide row fits days = 0.1875 * interval_ms exactly, so the
battery model is that single linear coefficient, DAYS_PER_MS; no capacity
or per-event charge model is attempted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .value import Value

if TYPE_CHECKING:
    from .presets import DriveScenario

DAYS_PER_MS = 0.1875

# derive_guide's search grid: broadcast intervals in 100 ms steps up to
# 10.2 s, tried longest first.
GUIDE_INTERVAL_STEP_MS = 100
GUIDE_MAX_INTERVAL_MS = 10200

# Deployment guide: max road speed (mph) -> broadcast interval (ms).
# Speeds between rows round up to the next listed speed (conservative
# for detection).  Above 45 mph is outside the validated envelope.
GUIDE_INTERVALS_MS: dict[int, int] = {
    5: 1400,
    10: 1300,
    15: 1300,
    20: 1200,
    25: 1200,
    30: 1000,
    35: 900,
    40: 700,
    45: 700,
}
MAX_GUIDE_SPEED_MPH = max(GUIDE_INTERVALS_MS)


class SpeedEnvelopeError(ValueError):
    """Requested speed exceeds the validated 45 mph envelope."""


class GuideRow(Value):
    __slots__ = ("max_speed_mph", "interval_ms", "battery_days", "feasible")


def battery_life(interval_ms: float) -> float:
    """Estimated battery life in days; linear in the broadcast interval."""
    if interval_ms <= 0:
        raise ValueError("interval must be positive")
    return DAYS_PER_MS * interval_ms


def recommend_interval(max_speed_mph: float) -> tuple[int, float]:
    """Guide row (interval_ms, battery_days) for the given max road speed."""
    if max_speed_mph <= 0:
        raise ValueError("speed must be positive")
    if max_speed_mph > MAX_GUIDE_SPEED_MPH:
        raise SpeedEnvelopeError(
            f"{max_speed_mph} mph is outside the validated envelope "
            f"(max {MAX_GUIDE_SPEED_MPH} mph)"
        )
    bucket = min(s for s in GUIDE_INTERVALS_MS if s >= max_speed_mph)
    interval = GUIDE_INTERVALS_MS[bucket]
    return interval, battery_life(interval)


def published_guide() -> list[GuideRow]:
    """The shipped nine-row guide, verbatim."""
    return [
        GuideRow(speed, interval, battery_life(interval), True)
        for speed, interval in sorted(GUIDE_INTERVALS_MS.items())
    ]


def derive_guide(
    reliability_target: float,
    speeds_mph: Sequence[float],
    scenario: "DriveScenario",
) -> list[GuideRow]:
    """Regenerate the guide from the calibrated model instead of the table.

    For each speed, picks the largest interval on the guide's search grid
    whose single-pass detection probability meets the target.  A speed
    with no feasible interval yields a row flagged infeasible.

    The speeds are searched slowest first, each from the interval the
    previous feasible speed got: a faster vehicle spends less time in
    range, so it never meets the target at a longer interval.  One call
    over many speeds therefore probes far fewer intervals than one call
    per speed.
    """
    if not 0.0 <= reliability_target <= 1.0:
        raise ValueError("reliability target must lie in [0, 1]")
    rows = []
    ceiling = GUIDE_MAX_INTERVAL_MS
    for speed in sorted(speeds_mph):
        best = None
        for interval in range(ceiling, GUIDE_INTERVAL_STEP_MS - 1, -GUIDE_INTERVAL_STEP_MS):
            if scenario.pass_probability(speed, interval) >= reliability_target:
                best = interval
                break
        if best is None:
            rows.append(GuideRow(speed, 0, 0.0, False))
        else:
            rows.append(GuideRow(speed, best, battery_life(best), True))
            ceiling = best
    return rows
