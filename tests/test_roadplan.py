import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackside.pathloss import PathLossModel
from trackside import power
from trackside.power import recommend_interval
from trackside.presets import Mount, path_loss_preset, scenario_for_mount
from trackside.rendezvous import AdvertiserConfig, detection_probability_oracle, mph_to_ms
from trackside.roadplan import (
    MAX_SPACING_M,
    Road,
    _local_minima,
    _speed_at,
    haversine_m,
    plan_deployment,
    plan_to_geojson,
    road_from_geojson,
    select_sites,
    speed_profile,
)

M_PER_DEG = math.pi * 6371000.0 / 180.0
SCENARIO = scenario_for_mount()


def road_from_meters(points_m, vmax=45.0):
    """Local (x, y) meters near the equator -> Road."""
    return Road(
        polyline=tuple((y / M_PER_DEG, x / M_PER_DEG) for x, y in points_m),
        surface_vmax_mph=vmax,
    )


def straight_road(length_m=1000.0, step_m=100.0, vmax=45.0):
    n = int(length_m / step_m)
    return road_from_meters([(i * step_m, 0.0) for i in range(n + 1)], vmax)


def winding_road():
    """2.4 km of 20 m steps with four bends of different sharpness."""
    x = y = heading = 0.0
    points = [(x, y)]
    for i in range(120):
        if 12 <= i % 30 < 18:
            heading += (0.35, -0.2, 0.1, -0.3)[i // 30]
        x, y = x + 20.0 * math.cos(heading), y + 20.0 * math.sin(heading)
        points.append((x, y))
    return road_from_meters(points)


def hairpin_road():
    pts = [(0, 0), (90, 0), (100, 2), (90, 4), (0, 4)]
    return road_from_meters(pts)


class TestGeometry:
    def test_haversine_one_degree_lat(self):
        assert haversine_m((0.0, 0.0), (1.0, 0.0)) == pytest.approx(M_PER_DEG, rel=1e-9)

    def test_road_needs_two_points(self):
        with pytest.raises(ValueError):
            Road(polyline=((0.0, 0.0),))

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            Road(polyline=((0.0, 0.0), (0.0, 0.0), (0.1, 0.0)))

    def test_length_and_interpolation(self):
        road = straight_road(1000.0)
        assert road.length_m == pytest.approx(1000.0, rel=1e-6)
        lat, lon = road.point_at(500.0)
        assert haversine_m((lat, lon), road.polyline[0]) == pytest.approx(500.0, rel=1e-6)

    def test_cached_arcs_and_locate_match_linear_scan(self):
        road = road_from_meters([(0, 0), (90, 0), (100, 2), (90, 4), (0, 4), (0, 50)])
        arcs = [0.0]
        for prev, cur in zip(road.polyline, road.polyline[1:]):
            arcs.append(arcs[-1] + haversine_m(prev, cur))
        assert road.arc_lengths() == tuple(arcs)
        speeds = speed_profile(road)

        def scan(values, arc_m, lerp):
            # Reference: the linear scan the bisect-based locate replaced.
            for i in range(len(arcs) - 1):
                if arc_m <= arcs[i + 1]:
                    t = (arc_m - arcs[i]) / (arcs[i + 1] - arcs[i])
                    return lerp(values[i], values[i + 1], t)
            return values[-1]

        def lerp_point(a, b, t):
            return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

        probes = [0.0, *arcs, arcs[-1] / 3.0, 95.0, 190.0, 250.0]
        for arc_m in probes + [0.5 * (a + b) for a, b in zip(arcs, arcs[1:])]:
            assert road.point_at(arc_m) == scan(road.polyline, arc_m, lerp_point)
            assert _speed_at(road, speeds, arc_m) == scan(
                speeds, arc_m, lambda a, b, t: a + t * (b - a)
            )

    def test_absorbed_step_is_never_located(self):
        # Each step is a positive haversine, but the ones at the equator
        # vanish in the running sum: two segments have zero length.
        tiny = 1e-100
        road = Road(((0.0, 0.0), (0.0, 0.5), (tiny, 0.5), (math.nextafter(tiny, 1.0), 0.5),
                     (0.0, 1.0)), 30.0)
        arcs = road.arc_lengths()
        assert arcs[1] == arcs[2] == arcs[3]
        for k in range(1001):
            i, t = road._locate(arcs[-1] * k / 1000.0)
            assert arcs[i + 1] > arcs[i] and 0.0 <= t <= 1.0
        assert road.point_at(arcs[1] / 2.0) == (0.0, 0.25)
        assert road.point_at(arcs[1]) == (0.0, 0.5)
        assert road.point_at(arcs[-1]) == (0.0, 1.0)
        assert speed_profile(road) == (30.0,) * 5


class TestSpeedProfile:
    def test_straight_road_at_cap(self):
        road = road_from_meters([(0, 0), (50, 0), (100, 0)])
        assert speed_profile(road) == (45.0, 45.0, 45.0)

    def test_two_point_road_uniform(self):
        for vmax in (45.0, 12.0):
            road = road_from_meters([(0, 0), (100, 0)], vmax)
            assert speed_profile(road) == (vmax, vmax)

    def test_ten_meter_bend_apex_speed(self):
        # oracle: v = sqrt(a_lat * radius) = sqrt(2 * 10) = 4.47 m/s ~ 10 mph
        pts = [(-10, 0), (0, 10), (10, 0)]
        road = road_from_meters(pts)
        speeds = speed_profile(road)
        expected_mph = math.sqrt(2.0 * 10.0) / mph_to_ms(1.0)
        assert speeds[1] == pytest.approx(expected_mph, abs=0.1)
        assert speeds[1] == pytest.approx(10.0, abs=0.1)

    def test_never_exceeds_cap(self):
        road = road_from_meters([(0, 0), (80, 1), (163, 0), (240, 4), (330, 0)], vmax=30.0)
        assert all(v <= 30.0 for v in speed_profile(road))



class TestSelectSites:
    def test_straight_road_budget_one_midpoint(self):
        road = straight_road(1000.0)
        sites = select_sites(road, count_budget=1)
        assert len(sites) == 1
        assert sites[0][0] == pytest.approx(500.0, rel=1e-6)
        site = plan_deployment(road, 1, SCENARIO).sites[0]
        assert site.interval_ms == 700  # 45 mph guide row
        assert site.predicted_battery_days == 131.25

    def test_hairpin_budget_one_at_apex(self):
        road = hairpin_road()
        sites = select_sites(road, count_budget=1)
        apex_arc = road.arc_lengths()[2]  # vertex (100, 2) m
        assert len(sites) == 1
        arc, local_vmax = sites[0]
        assert arc == pytest.approx(apex_arc, abs=1.0)
        # apex speed is well under the cap, so the interval is longer
        assert local_vmax < 15.0
        assert plan_deployment(road, 1, SCENARIO).sites[0].interval_ms >= 1200

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            select_sites(straight_road(), count_budget=0)

    def test_sites_sorted_and_unique_ids(self):
        arcs = [arc for arc, _ in select_sites(straight_road(2000.0), count_budget=4)]
        assert len(arcs) == 4 and arcs == sorted(arcs)
        sites = plan_deployment(straight_road(2000.0), 4, SCENARIO).sites
        assert [s.arc_m for s in sites] == arcs
        assert len({s.beacon_id for s in sites}) == len(sites)


def local_minima_by_definition(speeds):
    """Each interior vertex rescans its plateau: the quadratic reference."""
    n = len(speeds)
    candidates = []
    for i in range(1, n - 1):
        j = i
        while j + 1 < n and speeds[j + 1] == speeds[i]:
            j += 1
        if j >= n - 1:
            break
        if speeds[i] < speeds[i - 1] and speeds[i] < speeds[j + 1]:
            candidates.append(i)
    candidates.sort(key=lambda i: (speeds[i], i))
    return candidates


class CountedReads(list):
    """Speeds that count how often they are read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


# Few distinct values, so that plateaus are common, some reaching the last
# vertex.  Each speed is read a bounded number of times, however long its
# plateau.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([5.0, 10.0, 20.0]), max_size=24))
@example([20.0, 5.0, 5.0, 5.0])
@example([20.0, 5.0, 5.0, 10.0, 10.0])
@example([20.0, 10.0, 10.0, 5.0, 20.0, 5.0, 5.0])
@example([20.0] * 20 + [5.0, 20.0])
def test_local_minima_match_the_definition(speeds):
    counted = CountedReads(speeds)
    assert _local_minima(counted) == local_minima_by_definition(speeds)
    assert counted.reads <= 8 * len(speeds)


class TestPlanDeployment:
    def test_straight_km_three_sites_no_gaps(self):
        plan = plan_deployment(straight_road(1000.0), 3, SCENARIO)
        assert len(plan.sites) == 3
        assert plan.coverage_gaps == ()

    def test_underbudget_reports_gaps(self):
        plan = plan_deployment(straight_road(2000.0), 1, SCENARIO)
        assert len(plan.sites) == 1
        mid = plan.sites[0].arc_m
        assert plan.coverage_gaps == (
            (0.0, mid - MAX_SPACING_M / 2), (mid + MAX_SPACING_M / 2, plan.road.length_m)
        )

    def test_two_point_road_plans(self):
        plan = plan_deployment(road_from_meters([(0, 0), (300, 0)]), 1, SCENARIO)
        assert len(plan.sites) == 1
        assert plan.sites[0].arc_m == pytest.approx(150.0, rel=1e-6)

    def test_sites_on_polyline(self):
        plan = plan_deployment(hairpin_road(), 2, SCENARIO)
        for site in plan.sites:
            assert site.position == plan.road.point_at(site.arc_m)

    def test_guide_consistency(self):
        plan = plan_deployment(straight_road(1500.0), 3, SCENARIO)
        for site in plan.sites:
            interval, days = recommend_interval(site.local_vmax_mph)
            assert site.interval_ms == interval
            assert site.predicted_battery_days == days

    def test_reliability_target_met_and_oracle_checked(self):
        plan = plan_deployment(straight_road(1000.0), 2, SCENARIO, reliability_target=0.95)
        for site in plan.sites:
            assert site.detection_probability >= 0.95
            mc = detection_probability_oracle(
                AdvertiserConfig(interval_ms=site.interval_ms),
                SCENARIO.scanner,
                SCENARIO.in_range_time_s(site.local_vmax_mph),
                trials=20000,
                seed=17,
            )
            assert abs(mc - site.detection_probability) < 0.02

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("mount", list(Mount), ids=lambda m: m.value)
    def test_one_guide_search_prices_every_site(self, monkeypatch, mount, target):
        # Each site gets the row a search of its speed alone gives.
        scenario = scenario_for_mount(mount)
        searched = []
        real = power.derive_guide
        monkeypatch.setattr(
            power, "derive_guide", lambda target, speeds, scenario: searched.append(speeds)
            or real(target, speeds, scenario)
        )
        plan = plan_deployment(winding_road(), 8, scenario, reliability_target=target)
        speeds = sorted({site.local_vmax_mph for site in plan.sites})
        assert len(speeds) > 2
        assert searched == [speeds]
        for site in plan.sites:
            row, = real(target, [site.local_vmax_mph], scenario)
            assert (site.interval_ms, site.predicted_battery_days) == (
                row.interval_ms, row.battery_days
            )
        plan_deployment(winding_road(), 8, scenario)
        assert len(searched) == 1

    def test_expected_detections_sum(self):
        plan = plan_deployment(straight_road(1000.0), 2, SCENARIO)
        assert plan.expected_detections_per_traverse == pytest.approx(
            sum(s.detection_probability for s in plan.sites)
        )

    def test_unknown_preset_rejected(self):
        # Names are resolved where the command line reads them; below it,
        # ``beacon_preset`` is only a label.
        with pytest.raises(ValueError, match="nope"):
            path_loss_preset("nope")
        plan = plan_deployment(straight_road(), 1, SCENARIO, beacon_preset="nope")
        assert plan.sites[0].beacon_preset == "nope"

    def test_infeasible_target_falls_back_to_the_guide(self):
        # A ~1 m range never reaches a beacon 2 m off the road, so no
        # interval meets the target; the guide prices the site.
        blind = scenario_for_mount(path_loss=PathLossModel(reliability_threshold_dbm=-70.5))
        site, = plan_deployment(straight_road(1000.0), 1, blind, reliability_target=0.5).sites
        assert (site.interval_ms, site.predicted_battery_days) == (700, 131.25)
        assert site.detection_probability == 0.0


class TestGeoJson:
    def test_linestring_roundtrip(self):
        road = straight_road(500.0)
        coords = [[lon, lat] for lat, lon in road.polyline]
        parsed = road_from_geojson({"type": "LineString", "coordinates": coords})
        assert parsed.polyline == road.polyline

    def test_feature_with_speed_cap(self):
        obj = {
            "type": "Feature",
            "properties": {"surface_vmax_mph": 30},
            "geometry": {"type": "LineString", "coordinates": [[0, 0], [0.001, 0]]},
        }
        road = road_from_geojson(json.dumps(obj))
        assert road.surface_vmax_mph == 30.0

    def test_feature_collection(self):
        obj = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "properties": {},
                 "geometry": {"type": "Point", "coordinates": [0, 0]}},
                {"type": "Feature", "properties": {},
                 "geometry": {"type": "LineString", "coordinates": [[0, 0], [0.001, 0]]}},
            ],
        }
        assert len(road_from_geojson(obj).polyline) == 2

    def test_rejects_non_linestring(self):
        with pytest.raises(ValueError):
            road_from_geojson({"type": "Point", "coordinates": [0, 0]})

    def test_plan_export_points(self):
        plan = plan_deployment(straight_road(1000.0), 2, SCENARIO)
        geojson = plan_to_geojson(plan)
        assert geojson["type"] == "FeatureCollection"
        assert len(geojson["features"]) == 2
        for feature, site in zip(geojson["features"], plan.sites):
            lon, lat = feature["geometry"]["coordinates"]
            assert (lat, lon) == (
                pytest.approx(site.position[0], abs=1e-6),
                pytest.approx(site.position[1], abs=1e-6),
            )
            props = feature["properties"]
            assert props["beacon_id"] == site.beacon_id
            assert props["interval_ms"] == site.interval_ms
            assert props["battery_days"] == pytest.approx(site.predicted_battery_days)
            assert props["local_vmax_mph"] == pytest.approx(site.local_vmax_mph, abs=0.1)
