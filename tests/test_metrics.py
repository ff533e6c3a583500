import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gstbn.errors import ParameterError, StructuralError
from gstbn.field import FieldSnapshot, ObservationKind
from gstbn.geo import GeoCoord
from gstbn.metrics import (
    average_temporal_coverage,
    coverage_report,
    coverage_sum,
    degree_centrality,
    evaluate_robustness,
    static_coverage,
    total_temporal_coverage,
)
from gstbn.network import (
    GstbnSnapshot,
    TemporalGstbn,
    add_sensor,
    build_temporal_gstbn,
)
from gstbn.synth import Hotspot, ScenarioSpec, scenario_sensor_nodes
from conftest import make_grid, random_scenario, scenario_network
from oracles import sequential_sum

# signed zeros, subnormals and magnitudes far apart, where the order and
# the method of a float sum show in the result
_summands = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16]),
    st.floats(-1e300, 1e300),
    st.floats(-1.0, 1.0),
)


def same_float(a, b):
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


class TestCoverage:
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
                  elements=_summands))
    @example(np.zeros(0))
    @example(np.zeros((3, 0)))
    @example(np.array([-0.0]))
    @example(np.array([-0.0, -0.0]))
    @example(np.array([[1e16, 1.0, -1e16], [5e-324, -0.0, 5e-324]]))
    def test_coverage_sum_adds_left_to_right(self, values):
        got = coverage_sum(values)
        if values.ndim == 1:
            assert same_float(got, sequential_sum(values.tolist()))
        else:
            assert len(got) == len(values)
            for total, row in zip(got, values.tolist()):
                assert same_float(total, sequential_sum(row))

    def test_static_coverage_sums_edge_weights(self, small_network):
        for snap in small_network.snapshots:
            assert static_coverage(snap) == sequential_sum(e.weight_km for e in snap.edges)

    def test_empty_snapshot_scores_zero(self, small_network):
        snap = GstbnSnapshot(small_network.snapshots[0].timestamp, (), (), ())
        assert static_coverage(snap) == 0.0

    def test_total_is_sum_of_statics(self, small_network):
        total = total_temporal_coverage(small_network)
        assert total == sequential_sum(static_coverage(s) for s in small_network.snapshots)

    def test_average_times_count_equals_total(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net = scenario_network(random_scenario(rng))
            total = total_temporal_coverage(net)
            avg = average_temporal_coverage(net)
            n = len(net.snapshots)
            assert abs(avg * n - total) <= math.ulp(total)

    def test_empty_network_raises(self, small_network):
        empty = TemporalGstbn(
            snapshots=(),
            sensor_catalog=small_network.sensor_catalog,
            roi_table=small_network.roi_table,
        )
        with pytest.raises(StructuralError):
            total_temporal_coverage(empty)

    def test_report_fields(self, small_network):
        rep = coverage_report(small_network)
        assert rep.n_timesteps == len(small_network.snapshots)
        assert [ts for ts, _ in rep.per_snapshot] == [
            s.timestamp for s in small_network.snapshots
        ]
        assert rep.total_km == total_temporal_coverage(small_network)
        assert rep.average_km == average_temporal_coverage(small_network)


class TestDegreeCentrality:
    def test_degrees_match_edge_tallies(self, small_network):
        rep = degree_centrality(small_network)
        for snap in small_network.snapshots:
            manual = {s.id: 0 for s in small_network.active_sensors}
            for e in snap.edges:
                manual[e.sensor_id] += 1
            assert rep.static_per_snapshot[snap.timestamp] == manual

    def test_degree_conservation(self):
        # sensor degrees in a snapshot sum to its RoI count (each RoI has one edge)
        rng = np.random.default_rng(23)
        for _ in range(15):
            net = scenario_network(random_scenario(rng))
            rep = degree_centrality(net)
            for snap in net.snapshots:
                assert sum(rep.static_per_snapshot[snap.timestamp].values()) == len(
                    snap.roi_ids
                )

    def test_overall_is_sum_across_snapshots(self, small_network):
        rep = degree_centrality(small_network)
        for sid, total in rep.overall.items():
            assert total == sum(
                rep.static_per_snapshot[s.timestamp][sid] for s in small_network.snapshots
            )

    def test_zero_degree_sensors_included(self, small_scenario):
        far = replace(
            small_scenario,
            sensors=small_scenario.sensors + (GeoCoord(100.0, -60.0),),
        )
        net = scenario_network(far)
        rep = degree_centrality(net)
        far_id = net.sensor_catalog[-1].id
        assert rep.overall[far_id] == 0

    def test_distribution_counts_sensors_per_degree(self, small_network):
        rep = degree_centrality(small_network)
        for degree, count in rep.distribution.items():
            assert count == sum(1 for d in rep.overall.values() if d == degree)
        assert sum(rep.distribution.values()) == len(rep.overall)


def lone_hotspot_spec(sensor_coords, hotspot_cell=(2, 2)):
    grid = make_grid()
    i, j = hotspot_cell
    return ScenarioSpec(
        grid=grid,
        timestamps=(0, 3600, 7200),
        hotspots=(
            Hotspot(
                center=GeoCoord(grid.lon_at(j), grid.lat_at(i)),
                amplitude=2.0,
                radius_deg=0.25,
                active_intervals=frozenset({0, 1}),
            ),
        ),
        sensors=tuple(sensor_coords),
        background=20.0,
        seed=3,
    )


class TestRobustness:
    def test_removing_dominant_sensor_increases_coverage(self):
        # one sensor sits on the hotspot, the other far away
        spec = lone_hotspot_spec([GeoCoord(-91.0, 25.0), GeoCoord(-78.0, 29.0)])
        net = scenario_network(spec)
        rep = evaluate_robustness(net, k=1)
        assert rep.relative_increase > 0.0
        assert rep.coverage_after_km > rep.coverage_before_km
        assert len(rep.removed_sensor_ids) == 1

    def test_co_located_spare_gives_zero_increase(self):
        spec = lone_hotspot_spec([GeoCoord(-91.0, 25.0), GeoCoord(-91.0, 25.0)])
        net = scenario_network(spec)
        rep = evaluate_robustness(net, k=1)
        assert rep.relative_increase == 0.0
        assert rep.coverage_after_km == rep.coverage_before_km

    def test_no_rois_means_zero_relative_increase(self):
        grid = make_grid(n_lat=3, n_lon=3)
        series = {
            ObservationKind.TEMPERATURE: [
                FieldSnapshot(
                    timestamp=t,
                    variable=ObservationKind.TEMPERATURE,
                    grid=grid,
                    values=np.zeros(grid.shape),
                )
                for t in (0, 10, 20)
            ]
        }
        spec_sensors = lone_hotspot_spec([GeoCoord(-91.0, 25.0), GeoCoord(-78.0, 29.0)])
        net = build_temporal_gstbn(series, scenario_sensor_nodes(spec_sensors))
        rep = evaluate_robustness(net, k=1)
        assert rep.coverage_before_km == 0.0
        assert rep.coverage_after_km == 0.0
        assert rep.relative_increase == 0.0

    def test_victim_is_highest_degree_lowest_id(self, small_network):
        rep = evaluate_robustness(small_network, k=1)
        overall = degree_centrality(small_network).overall
        expected = min(overall.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert rep.removed_sensor_ids == (expected,)

    def test_sequential_removal_recomputes_degrees(self):
        rng = np.random.default_rng(31)
        spec = random_scenario(rng)
        while len(spec.sensors) < 3:
            spec = random_scenario(rng)
        net = scenario_network(spec)
        rep = evaluate_robustness(net, k=2)
        assert len(set(rep.removed_sensor_ids)) == 2
        # second victim must be picked from the already-degraded network
        from gstbn.network import remove_sensor

        after_first = remove_sensor(net, rep.removed_sensor_ids[0])
        overall = degree_centrality(after_first).overall
        expected_second = min(overall.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert rep.removed_sensor_ids[1] == expected_second

    def test_relative_increase_never_negative(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 10:
            spec = random_scenario(rng)
            net = scenario_network(spec)
            if len(net.active_sensors) < 2:
                continue
            rep = evaluate_robustness(net, k=1)
            assert rep.relative_increase >= 0.0
            assert rep.coverage_after_km >= rep.coverage_before_km
            checked += 1

    def test_k_out_of_range_raises(self, small_network):
        n = len(small_network.active_sensors)
        with pytest.raises(ParameterError):
            evaluate_robustness(small_network, k=0)
        with pytest.raises(ParameterError):
            evaluate_robustness(small_network, k=n)

    def test_add_sensor_coverage_monotone_through_metrics(self, small_network):
        rng = np.random.default_rng(61)
        for _ in range(5):
            c = GeoCoord(float(rng.uniform(-92, -88)), float(rng.uniform(24, 27)))
            assert average_temporal_coverage(
                add_sensor(small_network, c)
            ) <= average_temporal_coverage(small_network)
