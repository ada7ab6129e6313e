"""Road geometry, curvature-based speed estimation and beacon siting.

Beacons go where vehicles must slow down, so the planner estimates a
per-vertex speed profile from polyline curvature (lateral-acceleration
comfort model), places sites greedily at the slow points, fills spacing
gaps, and prices each site's broadcast interval and battery life.

Distances are great-circle on a spherical earth; centimetre geodesy is
irrelevant at 25-66 m radio ranges.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import power
from .presets import (
    DEFAULT_PATH_LOSS_PRESET,
    DriveScenario,
    Mount,
    scenario_for_mount,
)
from .rendezvous import ms_to_mph

EARTH_RADIUS_M = 6371000.0
DEFAULT_SURFACE_VMAX_MPH = 45.0
DEFAULT_LATERAL_ACCEL_MS2 = 2.0  # rough dirt-road comfort limit
DEFAULT_MAX_SPACING_M = 400.0
MIN_SITE_SEPARATION_M = 50.0


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class Road:
    """Ordered polyline of (lat, lon) vertices with a surface speed cap."""

    polyline: tuple[tuple[float, float], ...]
    surface_vmax_mph: float = DEFAULT_SURFACE_VMAX_MPH
    _arcs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple((float(lat), float(lon)) for lat, lon in self.polyline)
        if len(points) < 2:
            raise ValueError("road needs at least two vertices")
        arcs = [0.0]
        for prev, cur in zip(points, points[1:]):
            step = haversine_m(prev, cur)
            if step == 0.0:
                raise ValueError("road has a zero-length segment")
            arcs.append(arcs[-1] + step)
        if self.surface_vmax_mph <= 0:
            raise ValueError("surface speed cap must be positive")
        object.__setattr__(self, "polyline", points)
        object.__setattr__(self, "_arcs", tuple(arcs))

    def arc_lengths(self) -> tuple[float, ...]:
        """Cumulative arc length at each vertex, starting at 0."""
        return self._arcs

    @property
    def length_m(self) -> float:
        return self._arcs[-1]

    def _locate(self, arc_m: float) -> tuple[int, float]:
        """(i, t): an arc position, clamped to the road, lies the fraction
        t of the way from vertex i to vertex i + 1."""
        arcs = self._arcs
        arc_m = min(max(arc_m, 0.0), arcs[-1])
        i = max(bisect_left(arcs, arc_m), 1) - 1
        seg = arcs[i + 1] - arcs[i]
        return i, (arc_m - arcs[i]) / seg if seg > 0 else 0.0

    def point_at(self, arc_m: float) -> tuple[float, float]:
        """Linear interpolation along the polyline at an arc position."""
        i, t = self._locate(arc_m)
        (lat1, lon1), (lat2, lon2) = self.polyline[i], self.polyline[i + 1]
        return (lat1 + t * (lat2 - lat1), lon1 + t * (lon2 - lon1))

    def project(self, point: tuple[float, float]) -> tuple[float, float]:
        """(arc_m, offset_m) of the closest polyline position to ``point``.

        Uses a local equirectangular projection per segment; good to far
        better than a meter at road scales.
        """
        best_arc, best_off = 0.0, float("inf")
        arcs = self.arc_lengths()
        for i in range(len(self.polyline) - 1):
            a, b = self.polyline[i], self.polyline[i + 1]
            ref_lat = math.radians(a[0])
            scale = math.cos(ref_lat)

            def xy(p):
                return (
                    math.radians(p[1]) * scale * EARTH_RADIUS_M,
                    math.radians(p[0]) * EARTH_RADIUS_M,
                )

            ax, ay = xy(a)
            bx, by = xy(b)
            px, py = xy(point)
            dx, dy = bx - ax, by - ay
            seg2 = dx * dx + dy * dy
            t = 0.0 if seg2 == 0 else ((px - ax) * dx + (py - ay) * dy) / seg2
            t = min(max(t, 0.0), 1.0)
            cx, cy = ax + t * dx, ay + t * dy
            off = math.hypot(px - cx, py - cy)
            if off < best_off:
                best_off = off
                best_arc = arcs[i] + t * (arcs[i + 1] - arcs[i])
        return best_arc, best_off


def _circumradius_m(a, b, c) -> float:
    """Circumradius of three (lat, lon) points; inf when collinear."""
    ab = haversine_m(a, b)
    bc = haversine_m(b, c)
    ca = haversine_m(c, a)
    s = 0.5 * (ab + bc + ca)
    area2 = s * (s - ab) * (s - bc) * (s - ca)
    if area2 <= 0:
        return math.inf
    area = math.sqrt(area2)
    if area < 1e-9:
        return math.inf
    return ab * bc * ca / (4.0 * area)


def speed_profile(
    road: Road, lateral_accel_ms2: float = DEFAULT_LATERAL_ACCEL_MS2
) -> tuple[float, ...]:
    """Per-vertex achievable speed in mph: v = sqrt(a_lat * radius), capped.

    Curvature comes from the circumradius of consecutive vertex triples;
    endpoint vertices copy their neighbour.  Two-vertex roads are flat at
    the surface cap.
    """
    if lateral_accel_ms2 <= 0:
        raise ValueError("lateral acceleration limit must be positive")
    points = road.polyline
    vmax = road.surface_vmax_mph
    if len(points) == 2:
        return (vmax, vmax)
    speeds = [vmax] * len(points)
    for i in range(1, len(points) - 1):
        radius = _circumradius_m(points[i - 1], points[i], points[i + 1])
        if math.isinf(radius):
            continue
        speeds[i] = min(vmax, ms_to_mph(math.sqrt(lateral_accel_ms2 * radius)))
    speeds[0] = speeds[1]
    speeds[-1] = speeds[-2]
    return tuple(speeds)


@dataclass(frozen=True)
class BeaconSite:
    beacon_id: str
    position: tuple[float, float]
    arc_m: float
    beacon_preset: str
    interval_ms: int
    predicted_battery_days: float
    local_vmax_mph: float
    detection_probability: float = 0.0


@dataclass(frozen=True)
class DeploymentPlan:
    road: Road
    sites: tuple[BeaconSite, ...]
    coverage_gaps: tuple[tuple[float, float], ...] = ()
    max_spacing_m: float = DEFAULT_MAX_SPACING_M

    @property
    def expected_detections_per_traverse(self) -> float:
        return sum(s.detection_probability for s in self.sites)


def _local_minima(speeds: Sequence[float]) -> list[int]:
    """Indices of interior speed minima, slowest first; plateaus collapse
    to their first vertex."""
    n = len(speeds)
    candidates = []
    for i in range(1, n - 1):
        left = speeds[i - 1]
        j = i
        while j + 1 < n and speeds[j + 1] == speeds[i]:
            j += 1
        if j >= n - 1:
            break
        right = speeds[j + 1]
        if speeds[i] < left and speeds[i] < right:
            candidates.append(i)
    candidates.sort(key=lambda i: (speeds[i], i))
    return candidates


def _coverage_gaps(
    length_m: float, site_arcs: Sequence[float], max_spacing_m: float
) -> tuple[tuple[float, float], ...]:
    """Road stretches farther than max_spacing/2 from every site."""
    if not site_arcs:
        return ((0.0, length_m),) if length_m > max_spacing_m else ()
    reach = max_spacing_m / 2.0
    gaps = []
    arcs = sorted(site_arcs)
    if arcs[0] - reach > 0.0:
        gaps.append((0.0, arcs[0] - reach))
    for a, b in zip(arcs, arcs[1:]):
        if b - a > max_spacing_m:
            gaps.append((a + reach, b - reach))
    if arcs[-1] + reach < length_m:
        gaps.append((arcs[-1] + reach, length_m))
    return tuple(gaps)


def select_sites(
    road: Road,
    max_spacing_m: float = DEFAULT_MAX_SPACING_M,
    count_budget: int = 1,
    beacon_preset: str = DEFAULT_PATH_LOSS_PRESET,
    lateral_accel_ms2: float = DEFAULT_LATERAL_ACCEL_MS2,
) -> list[BeaconSite]:
    """Greedy siting: slowest local minima first, then gap filling.

    Runs out of budget gracefully; plan_deployment reports what is left
    uncovered.  Each site's interval follows the deployment guide for its
    local speed.
    """
    if count_budget < 1:
        raise ValueError("count budget must be at least one beacon")
    if max_spacing_m <= 0:
        raise ValueError("max spacing must be positive")

    speeds = speed_profile(road, lateral_accel_ms2)
    arcs = road.arc_lengths()
    chosen: list[float] = []
    chosen_speed: list[float] = []

    for idx in _local_minima(speeds):
        if len(chosen) >= count_budget:
            break
        arc = arcs[idx]
        if any(abs(arc - c) < MIN_SITE_SEPARATION_M for c in chosen):
            continue
        chosen.append(arc)
        chosen_speed.append(speeds[idx])

    if not chosen and count_budget >= 1:
        # Uniform speed profile: start from the road midpoint.
        mid = road.length_m / 2.0
        chosen.append(mid)
        chosen_speed.append(_speed_at(road, speeds, mid))

    while len(chosen) < count_budget:
        gaps = _coverage_gaps(road.length_m, chosen, max_spacing_m)
        if not gaps:
            break
        start, end = max(gaps, key=lambda g: g[1] - g[0])
        arc = (start + end) / 2.0
        if any(abs(arc - c) < MIN_SITE_SEPARATION_M for c in chosen):
            break
        chosen.append(arc)
        chosen_speed.append(_speed_at(road, speeds, arc))

    sites = []
    order = sorted(range(len(chosen)), key=lambda i: chosen[i])
    for rank, i in enumerate(order, start=1):
        local_vmax = chosen_speed[i]
        interval, days = power.recommend_interval(local_vmax)
        sites.append(
            BeaconSite(
                beacon_id=f"B-{rank:02d}",
                position=road.point_at(chosen[i]),
                arc_m=chosen[i],
                beacon_preset=beacon_preset,
                interval_ms=interval,
                predicted_battery_days=days,
                local_vmax_mph=local_vmax,
            )
        )
    return sites


def _speed_at(road: Road, speeds: Sequence[float], arc_m: float) -> float:
    i, t = road._locate(arc_m)
    return speeds[i] + t * (speeds[i + 1] - speeds[i])


def plan_deployment(
    road: Road,
    budget: int,
    beacon_preset: str = DEFAULT_PATH_LOSS_PRESET,
    max_spacing_m: float = DEFAULT_MAX_SPACING_M,
    reliability_target: float | None = None,
    scenario: DriveScenario | None = None,
    lateral_accel_ms2: float = DEFAULT_LATERAL_ACCEL_MS2,
) -> DeploymentPlan:
    """Assemble sites, intervals, battery life and pass probabilities.

    Intervals default to the published speed guide; with a
    ``reliability_target`` they come from the calibrated model instead
    (largest 100 ms interval meeting the target at the site's speed).
    """
    if scenario is None:
        scenario = scenario_for_mount(Mount.WHEEL_ARCH, rf_preset=beacon_preset)
    sites = select_sites(
        road,
        max_spacing_m=max_spacing_m,
        count_budget=budget,
        beacon_preset=beacon_preset,
        lateral_accel_ms2=lateral_accel_ms2,
    )
    priced = []
    # Sites on one straight share a speed; each speed is searched once.
    guide_rows: dict[float, power.GuideRow] = {}
    for site in sites:
        interval, days = site.interval_ms, site.predicted_battery_days
        if reliability_target is not None:
            speed = site.local_vmax_mph
            if speed not in guide_rows:
                guide_rows[speed] = power.derive_guide(reliability_target, [speed], scenario)[0]
            row = guide_rows[speed]
            if row.feasible:
                interval, days = row.interval_ms, row.battery_days
        p = scenario.pass_probability(site.local_vmax_mph, interval)
        priced.append(
            replace(
                site, interval_ms=interval, predicted_battery_days=days, detection_probability=p
            )
        )
    gaps = _coverage_gaps(road.length_m, [s.arc_m for s in priced], max_spacing_m)
    return DeploymentPlan(
        road=road, sites=tuple(priced), coverage_gaps=gaps, max_spacing_m=max_spacing_m
    )


def road_from_geojson(obj) -> Road:
    """Accepts a LineString geometry, Feature, or FeatureCollection."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("type")
    if kind == "FeatureCollection":
        for feature in obj.get("features", []):
            if feature.get("geometry", {}).get("type") == "LineString":
                return road_from_geojson(feature)
        raise ValueError("no LineString feature in collection")
    if kind == "Feature":
        vmax = (obj.get("properties") or {}).get(
            "surface_vmax_mph", DEFAULT_SURFACE_VMAX_MPH
        )
        geometry = obj.get("geometry") or {}
        return _road_from_linestring(geometry, vmax)
    if kind == "LineString":
        return _road_from_linestring(obj, DEFAULT_SURFACE_VMAX_MPH)
    raise ValueError(f"unsupported GeoJSON type {kind!r}")


def _road_from_linestring(geometry, vmax) -> Road:
    if geometry.get("type") != "LineString":
        raise ValueError("road geometry must be a LineString")
    coords = geometry.get("coordinates") or []
    # GeoJSON positions are [lon, lat].
    return Road(
        polyline=tuple((lat, lon) for lon, lat in coords), surface_vmax_mph=float(vmax)
    )


def plan_to_geojson(plan: DeploymentPlan) -> dict:
    """Site points as a FeatureCollection, ordered along the road."""
    features = []
    for site in plan.sites:
        lat, lon = site.position
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [round(lon, 7), round(lat, 7)]},
                "properties": {
                    "beacon_id": site.beacon_id,
                    "interval_ms": site.interval_ms,
                    "battery_days": round(site.predicted_battery_days, 2),
                    "local_vmax_mph": round(site.local_vmax_mph, 1),
                    "beacon_preset": site.beacon_preset,
                    "detection_probability": round(site.detection_probability, 4),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
