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
import sys
from bisect import bisect_left
from typing import Sequence

from . import power
from .presets import DEFAULT_PATH_LOSS_PRESET, DriveScenario, pass_speed_ms
from .protocol import validate_position
from .rendezvous import ms_to_mph
from .value import Value

EARTH_RADIUS_M = 6371000.0
DEFAULT_SURFACE_VMAX_MPH = 45.0
LATERAL_ACCEL_MS2 = 2.0  # rough dirt-road comfort limit
MAX_SPACING_M = 400.0  # sites farther apart than this leave a coverage gap
MIN_SITE_SEPARATION_M = 50.0


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class Road(Value):
    """Ordered polyline of (lat, lon) vertices with a surface speed cap."""

    __slots__ = ("polyline", "surface_vmax_mph", "_arcs")

    def __init__(
        self,
        polyline: Sequence[tuple[float, float]],
        surface_vmax_mph: float = DEFAULT_SURFACE_VMAX_MPH,
    ) -> None:
        points = tuple((float(lat), float(lon)) for lat, lon in polyline)
        for index, (lat, lon) in enumerate(points):
            try:
                validate_position(lat, lon)
            except ValueError as exc:
                raise ValueError(f"vertex {index}: {exc}") from None
        if len(points) < 2:
            raise ValueError("road needs at least two vertices")
        arcs = [0.0]
        for index, (prev, cur) in enumerate(zip(points, points[1:]), start=1):
            step = haversine_m(prev, cur)
            if step == 0.0:
                raise ValueError(f"vertex {index}: road has a zero-length segment")
            arcs.append(arcs[-1] + step)
        try:
            pass_speed_ms(surface_vmax_mph)
        except ValueError:
            raise ValueError("surface speed cap must be positive and finite") from None
        Value.__init__(self, points, surface_vmax_mph)
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
        return i, (arc_m - arcs[i]) / seg

    def point_at(self, arc_m: float) -> tuple[float, float]:
        """Linear interpolation along the polyline at an arc position."""
        i, t = self._locate(arc_m)
        (lat1, lon1), (lat2, lon2) = self.polyline[i], self.polyline[i + 1]
        return (lat1 + t * (lat2 - lat1), lon1 + t * (lon2 - lon1))


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


def speed_profile(road: Road) -> tuple[float, ...]:
    """Per-vertex achievable speed in mph: v = sqrt(a_lat * radius), capped,
    with a_lat = ``LATERAL_ACCEL_MS2``.

    Curvature comes from the circumradius of consecutive vertex triples;
    endpoint vertices copy their neighbour, so two-vertex roads are flat
    at the surface cap.
    """
    points = road.polyline
    vmax = road.surface_vmax_mph
    speeds = [vmax] * len(points)
    for i in range(1, len(points) - 1):
        radius = _circumradius_m(points[i - 1], points[i], points[i + 1])
        if math.isinf(radius):
            continue
        speeds[i] = min(vmax, ms_to_mph(math.sqrt(LATERAL_ACCEL_MS2 * radius)))
    speeds[0] = speeds[1]
    speeds[-1] = speeds[-2]
    return tuple(speeds)


class BeaconSite(Value):
    __slots__ = (
        "beacon_id", "position", "arc_m", "beacon_preset", "interval_ms",
        "predicted_battery_days", "local_vmax_mph", "detection_probability",
    )


class DeploymentPlan(Value):
    __slots__ = ("road", "sites", "coverage_gaps")

    @property
    def expected_detections_per_traverse(self) -> float:
        return sum(s.detection_probability for s in self.sites)


def _local_minima(speeds: Sequence[float]) -> list[int]:
    """Indices of interior speed minima, slowest first; plateaus collapse
    to their first vertex."""
    n = len(speeds)
    candidates = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and speeds[j + 1] == speeds[i]:
            j += 1
        if j >= n - 1:
            break
        if speeds[i] < speeds[i - 1] and speeds[i] < speeds[j + 1]:
            candidates.append(i)
        # The rest of the plateau i..j has an equal left neighbour.
        i = j + 1
    candidates.sort(key=lambda i: (speeds[i], i))
    return candidates


def _coverage_gaps(
    length_m: float, site_arcs: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Road stretches farther than MAX_SPACING_M/2 from every site, of
    which there is at least one."""
    reach = MAX_SPACING_M / 2.0
    gaps = []
    arcs = sorted(site_arcs)
    if arcs[0] - reach > 0.0:
        gaps.append((0.0, arcs[0] - reach))
    for a, b in zip(arcs, arcs[1:]):
        if b - a > MAX_SPACING_M:
            gaps.append((a + reach, b - reach))
    if arcs[-1] + reach < length_m:
        gaps.append((arcs[-1] + reach, length_m))
    return tuple(gaps)


def select_sites(road: Road, count_budget: int = 1) -> list[tuple[float, float]]:
    """Greedy siting: slowest local minima first, then gap filling.

    Returns (arc_m, local_vmax_mph) per site, in road order.  Runs out of
    budget gracefully; plan_deployment reports what is left uncovered and
    prices each site.
    """
    if count_budget < 1:
        raise ValueError("count budget must be at least one beacon")

    speeds = speed_profile(road)
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

    if not chosen:
        # Uniform speed profile: start from the road midpoint.
        mid = road.length_m / 2.0
        chosen.append(mid)
        chosen_speed.append(_speed_at(road, speeds, mid))

    while len(chosen) < count_budget:
        gaps = _coverage_gaps(road.length_m, chosen)
        if not gaps:
            break
        start, end = max(gaps, key=lambda g: g[1] - g[0])
        arc = (start + end) / 2.0  # over MAX_SPACING_M / 2 from every site
        chosen.append(arc)
        chosen_speed.append(_speed_at(road, speeds, arc))

    return sorted(zip(chosen, chosen_speed))


def _speed_at(road: Road, speeds: Sequence[float], arc_m: float) -> float:
    i, t = road._locate(arc_m)
    return speeds[i] + t * (speeds[i + 1] - speeds[i])


def plan_deployment(
    road: Road,
    budget: int,
    scenario: DriveScenario,
    beacon_preset: str = DEFAULT_PATH_LOSS_PRESET,
    reliability_target: float | None = None,
) -> DeploymentPlan:
    """Assemble sites, intervals, battery life and pass probabilities.

    With a ``reliability_target``, a site's interval comes from the
    calibrated ``scenario`` (largest 100 ms interval meeting the target at
    the site's speed); without one, or where no interval meets it, from
    the published speed guide.  ``beacon_preset`` only labels the sites.
    """
    chosen = select_sites(road, budget)
    guide_rows: dict[float, power.GuideRow] = {}
    if reliability_target is not None:
        # One search prices every distinct site speed, slowest first.
        speeds = sorted({speed for _, speed in chosen})
        guide_rows = dict(zip(speeds, power.derive_guide(reliability_target, speeds, scenario)))
    sites = []
    for rank, (arc, speed) in enumerate(chosen, start=1):
        row = guide_rows.get(speed)
        if row is not None and row.feasible:
            interval, days = row.interval_ms, row.battery_days
        else:
            interval, days = power.recommend_interval(speed)
        sites.append(
            BeaconSite(
                beacon_id=f"B-{rank:02d}",
                position=road.point_at(arc),
                arc_m=arc,
                beacon_preset=beacon_preset,
                interval_ms=interval,
                predicted_battery_days=days,
                local_vmax_mph=speed,
                detection_probability=scenario.pass_probability(speed, interval),
            )
        )
    gaps = _coverage_gaps(road.length_m, [s.arc_m for s in sites])
    return DeploymentPlan(road=road, sites=tuple(sites), coverage_gaps=gaps)


def road_from_geojson(obj) -> Road:
    """Accepts a LineString geometry, Feature, or FeatureCollection."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "FeatureCollection":
        features = obj.get("features", [])
        if not isinstance(features, list):
            raise ValueError("features must be a list")
        for feature in features:
            if not isinstance(feature, dict):
                raise ValueError("each feature must be a JSON object")
            if _object(feature.get("geometry"), "geometry").get("type") == "LineString":
                return road_from_geojson(feature)
        raise ValueError("no LineString feature in collection")
    if kind == "Feature":
        vmax = _object(obj.get("properties"), "properties").get(
            "surface_vmax_mph", DEFAULT_SURFACE_VMAX_MPH
        )
        return _road_from_linestring(_object(obj.get("geometry"), "geometry"), vmax)
    if kind == "LineString":
        return _road_from_linestring(obj, DEFAULT_SURFACE_VMAX_MPH)
    raise ValueError(f"unsupported GeoJSON type {kind!r}")


def _object(value, what: str) -> dict:
    """A JSON object member, with null read as an empty object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object or null")
    return value


def _is_number(value) -> bool:
    """A JSON number that converts to a float: not a bool, nor an integer
    too large for one (``json.loads`` reads any).  NaN and the infinities
    are floats, which ``Road`` refuses itself."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_position(value) -> bool:
    return isinstance(value, list) and len(value) >= 2 and all(map(_is_number, value))


def _road_from_linestring(geometry: dict, vmax) -> Road:
    if geometry.get("type") != "LineString":
        raise ValueError("road geometry must be a LineString")
    coords = geometry.get("coordinates") or []
    if not isinstance(coords, list) or not all(_is_position(p) for p in coords):
        raise ValueError("road coordinates must be positions of at least 2 numbers")
    if not _is_number(vmax):
        raise ValueError("surface_vmax_mph must be a number")
    # GeoJSON positions are [lon, lat] with an optional altitude.
    return Road(polyline=tuple((p[1], p[0]) for p in coords), surface_vmax_mph=float(vmax))


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
