from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbn.errors import (
    NoObserversError,
    NotFoundError,
    OrderingError,
    ParameterError,
    StructuralError,
)
from gstbn.field import FieldSnapshot, ObservationKind, compute_residual_field, extract_roi_events
from gstbn import network
from gstbn.geo import EARTH, GeoCoord, great_circle_distance, haversine_km, lonlat_arrays
from gstbn.network import (
    GstbnSnapshot,
    Membership,
    Mobility,
    OperationalStatus,
    RoITable,
    SensorNode,
    TemporalGstbn,
    add_sensor,
    build_edges,
    build_temporal_gstbn,
    remove_sensor,
)
from conftest import make_grid, random_scenario, scenario_network
from gstbn.metrics import average_temporal_coverage
from gstbn.placement import candidate_score
from gstbn.synth import scenario_field_series, scenario_sensor_nodes
from oracles import brute_force_edges, dense_relaxed, edge_rows, payloads, roi_coords


def sensor(sid, lon, lat, status=OperationalStatus.ACTIVE,
           observations=frozenset(ObservationKind), membership=Membership.FEDERAL):
    return SensorNode(
        id=sid,
        membership=membership,
        data_source="test",
        platform=f"platform-{sid}",
        mobility=Mobility.STATIONARY,
        geolocation=GeoCoord(lon, lat),
        operational_status=status,
        observations=observations,
    )


def fired_mask(kind_sets):
    """The `fired` argument of `build_edges`: one row of kinds per point."""
    rows = [[kind in kinds for kind in ObservationKind] for kinds in kind_sets]
    return np.array(rows, dtype=bool).reshape(-1, len(ObservationKind))


def links(arrays):
    """(sensor id, weight km) pairs of `build_edges` arrays."""
    return list(zip(*(a.tolist() for a in arrays)))


def temperature_only(n):
    """The `residual` of `n` snapshot rows where only temperature fired, at 1.0."""
    return np.tile([1.0] + [np.nan] * (len(ObservationKind) - 1), (n, 1))


class TestSensorNode:
    def test_id_must_fit_int64(self):
        assert sensor(2**63 - 1, 0.0, 0.0).id == 2**63 - 1
        for bad in (-1, 2**63):
            with pytest.raises(ParameterError):
                sensor(bad, 0.0, 0.0)

    def test_active_sensor_needs_observations(self):
        with pytest.raises(ParameterError):
            sensor(1, 0.0, 0.0, observations=frozenset())

    def test_inactive_sensor_may_observe_nothing(self):
        s = sensor(1, 0.0, 0.0, status=OperationalStatus.INACTIVE, observations=frozenset())
        assert not s.is_active

    def test_enum_round_trips(self):
        assert Membership("federal") is Membership.FEDERAL
        assert Mobility("mobile") is Mobility.MOBILE
        assert OperationalStatus("inactive") is OperationalStatus.INACTIVE


class TestBuildEdges:
    def test_empty_sensor_list_raises(self):
        with pytest.raises(NoObserversError):
            build_edges([0.0], [0.0], [])

    def test_empty_sensor_list_raises_even_without_rois(self):
        with pytest.raises(NoObserversError):
            build_edges([], [], [])

    def test_no_rois_gives_no_edges(self):
        assert links(build_edges([], [], [sensor(1, 0.0, 0.0)])) == []

    def test_single_pair(self):
        edges = build_edges([-90.07], [29.95], [sensor(5, -82.46, 27.95)])
        assert links(edges) == [
            (5, great_circle_distance(GeoCoord(-90.07, 29.95), GeoCoord(-82.46, 27.95)))
        ]

    def test_tie_breaks_to_lowest_sensor_id(self):
        # sensors at (0,1) and (1,0) are equidistant from (0,0) by symmetry
        sensor_id, _ = build_edges([0.0], [0.0], [sensor(7, 0.0, 1.0), sensor(3, 1.0, 0.0)])
        assert sensor_id.tolist() == [3]

    def test_co_located_sensors_tie_break(self):
        sensor_id, _ = build_edges(
            [10.0], [10.0], [sensor(9, 11.0, 11.0), sensor(4, 11.0, 11.0)]
        )
        assert sensor_id.tolist() == [4]

    def test_matches_brute_force_small_and_large_sensor_sets(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n_sensors = int(rng.integers(1, 21))
            n_rois = int(rng.integers(0, 50))
            sensors = [
                sensor(int(sid), float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)))
                for sid in rng.choice(1000, size=n_sensors, replace=False)
            ]
            points = [
                GeoCoord(float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)))
                for _ in range(n_rois)
            ]
            # engineered exact ties: duplicate an existing sensor position
            if n_sensors >= 2 and trial % 3 == 0:
                dupe = sensors[0].geolocation
                sensors.append(sensor(1001, dupe.lon, dupe.lat))
            got = links(build_edges(*lonlat_arrays(points), sensors))
            want = brute_force_edges(points, sensors, EARTH)
            assert got == want

    def test_strict_matching_restricts_eligible_sensors(self):
        temp_only = sensor(1, 0.1, 0.0, observations=frozenset({ObservationKind.TEMPERATURE}))
        salt_only = sensor(2, 5.0, 0.0, observations=frozenset({ObservationKind.SALINITY}))
        fired = fired_mask([{ObservationKind.SALINITY}])
        sensor_id, _ = build_edges([0.0], [0.0], [temp_only, salt_only], fired=fired)
        # the nearer sensor does not observe salinity, so the far one wins
        assert sensor_id.tolist() == [2]

    def test_strict_matching_with_no_eligible_sensor_raises(self):
        temp_only = sensor(1, 0.1, 0.0, observations=frozenset({ObservationKind.TEMPERATURE}))
        fired = fired_mask([{ObservationKind.CURRENT_U}])
        with pytest.raises(NoObserversError):
            build_edges([0.0], [0.0], [temp_only], fired=fired)

    @pytest.mark.parametrize("strict", [False, True])
    def test_rows_come_back_in_the_order_given(self, strict):
        rng = np.random.default_rng(3)
        kinds = (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)
        sensors = [sensor(1, 0.0, 0.0), sensor(2, 5.0, 5.0, observations=frozenset(kinds[:1])),
                   sensor(3, -5.0, 5.0, observations=frozenset(kinds[1:]))]
        lon, lat = rng.uniform(-10, 10, size=30), rng.uniform(-10, 10, size=30)
        fired = fired_mask([{kinds[k]} for k in rng.integers(0, 2, size=30)])
        order = rng.permutation(30)
        got = build_edges(lon[order], lat[order], sensors, fired=fired[order] if strict else None)
        # row k is the point given k-th, whatever group its kinds put it in
        points = [GeoCoord(lon[k], lat[k]) for k in order.tolist()]
        eligible = [
            [s for s in sensors if not strict or s.observations & {kinds[int(fired[k, 1])]}]
            for k in order.tolist()
        ]
        want = [brute_force_edges([p], e, EARTH)[0] for p, e in zip(points, eligible)]
        assert links(got) == want


class TestGstbnSnapshot:
    @pytest.mark.parametrize(
        "roi_id, sensor_id, weight_km",
        [
            pytest.param([1, 2], [1], [10.0, 10.0], id="mismatched-lengths"),
            pytest.param([2, 1], [1, 1], [10.0, 10.0], id="unsorted-roi-id"),
            pytest.param([1, 1], [1, 1], [10.0, 10.0], id="duplicate-roi-id"),
            pytest.param([1], [1], [-1.0], id="negative-weight"),
            pytest.param([1], [1], [float("nan")], id="nan-weight"),
        ],
    )
    def test_rejects_malformed_rows(self, roi_id, sensor_id, weight_km):
        with pytest.raises(StructuralError):
            GstbnSnapshot(0, roi_id, sensor_id, weight_km, temperature_only(len(roi_id)))

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (2, len(ObservationKind))])
    def test_rejects_a_residual_not_one_row_per_edge(self, shape):
        with pytest.raises(StructuralError):
            GstbnSnapshot(0, [1], [1], [10.0], np.ones(shape))

    def test_arrays_are_read_only_copies(self):
        weights = np.array([10.0, 20.0])
        residual = temperature_only(2)
        snap = GstbnSnapshot(0, [3, 5], [2, 1], weights, residual)
        weights[0] = -1.0
        residual[0, 0] = 2.0
        assert snap.weight_km.tolist() == [10.0, 20.0]
        assert snap.roi_value.tolist() == [1.0, 1.0]
        for a in (snap.roi_id, snap.sensor_id, snap.weight_km, snap.residual, snap.roi_value):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_residual_is_required_and_roi_value_is_not_an_argument(self):
        with pytest.raises(TypeError):
            GstbnSnapshot(0, [1], [1], [10.0])
        with pytest.raises(TypeError):
            GstbnSnapshot(0, [1], [1], [10.0], temperature_only(1), [1.0])
        with pytest.raises(TypeError):
            GstbnSnapshot(0, [1], [1], [10.0], temperature_only(1), roi_value=[1.0])

    def test_roi_value_adds_the_fired_residuals_left_to_right_in_kind_order(self):
        nan = np.nan
        residual = [[0.1, nan, 0.2, 0.3], [nan, 1e16, nan, 1.0], [0.0, nan, nan, 5e-324]]
        snap = GstbnSnapshot(0, [1, 2, 3], [1, 1, 1], [1.0, 1.0, 1.0], residual)
        # from +0.0: (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3), and 1e16 + 1.0 rounds back
        assert snap.roi_value.tolist() == [(0.1 + 0.2) + 0.3, 1e16, 5e-324]

    @pytest.mark.parametrize(
        "fired",
        [
            pytest.param([np.nan] * 4, id="nothing-fired"),
            pytest.param([0.0, 0.0, np.nan, np.nan], id="only-zeros-fired"),
            pytest.param([1e308] * 4, id="sum-is-inf"),
        ],
    )
    def test_rejects_a_row_whose_value_is_not_finite_and_positive(self, fired):
        # an RoI is an event because its value is positive
        residual = np.vstack([temperature_only(1), fired])
        with pytest.raises(StructuralError, match="roi 4 .* not finite and positive"):
            GstbnSnapshot(0, [3, 4], [1, 1], [1.0, 1.0], residual)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, -np.inf])
    def test_rejects_a_residual_that_is_not_a_distance(self, bad):
        residual = temperature_only(1)
        residual[0, 1] = bad
        with pytest.raises(StructuralError, match="is not a distance"):
            GstbnSnapshot(0, [1], [1], [1.0], residual)


def one_snapshot_network(n_rois, roi_id, sensor_id):
    """A network with one snapshot at t=0 linking `roi_id` to `sensor_id`,
    over a table of `n_rois` RoIs. Sensor 1 is active, sensor 2 inactive."""
    snap = GstbnSnapshot(0, roi_id, sensor_id, [1.0] * len(roi_id), temperature_only(len(roi_id)))
    rois = RoITable([0.0] * n_rois, [0.0] * n_rois, range(n_rois))
    catalog = (sensor(1, 0.0, 0.0), sensor(2, 1.0, 0.0, status=OperationalStatus.INACTIVE))
    return TemporalGstbn((snap,), catalog, rois)


class TestTemporalGstbn:
    @pytest.mark.parametrize(
        "n_rois, roi_id",
        [
            pytest.param(2, [0, 1], id="id-zero"),
            pytest.param(2, [-1, 2], id="negative-id"),
            pytest.param(2, [2, 3], id="past-largest-id"),
            pytest.param(0, [1], id="empty-registry"),
        ],
    )
    def test_rejects_rois_outside_the_registry(self, n_rois, roi_id):
        # the RoI with id k is table row k - 1, so ids run from 1 to len(table)
        with pytest.raises(StructuralError, match="not in the registry"):
            one_snapshot_network(n_rois, roi_id, [1] * len(roi_id))

    @pytest.mark.parametrize("sensor_id", [2, 7], ids=["inactive-sensor", "unknown-sensor"])
    def test_rejects_edges_to_sensors_not_active(self, sensor_id):
        with pytest.raises(StructuralError):
            one_snapshot_network(1, [1], [sensor_id])

    def test_accepts_a_consistent_network(self):
        net = one_snapshot_network(3, [1, 3], [1, 1])
        assert net.snapshots[0].roi_id.tolist() == [1, 3]
        assert len(net.roi_table) == 3


def zero_field_series(grid, timestamps):
    return {
        ObservationKind.TEMPERATURE: [
            FieldSnapshot(
                timestamp=t,
                variable=ObservationKind.TEMPERATURE,
                grid=grid,
                values=np.zeros(grid.shape),
            )
            for t in timestamps
        ]
    }


class TestBuildTemporalGstbn:
    def test_zero_fields_give_empty_snapshots(self):
        grid = make_grid(n_lat=3, n_lon=3)
        net = build_temporal_gstbn(
            zero_field_series(grid, [0, 10, 20]), [sensor(1, -91.0, 25.0)]
        )
        assert [s.timestamp for s in net.snapshots] == [10, 20]
        for snap in net.snapshots:
            assert edge_rows(snap) == []
            assert snap.residual.shape == (0, len(ObservationKind))
        assert len(net.roi_table) == 0

    def test_roi_node_reused_across_intervals(self, small_scenario):
        net = scenario_network(small_scenario)
        # hotspot 1 fires in intervals 0 and 2; its centre cell must be one node
        grid = small_scenario.grid
        centre_cell_coord = grid.cell_coord(grid.cell_index(2, 2))
        ids = [rid for rid, c in enumerate(roi_coords(net), start=1) if c == centre_cell_coord]
        assert len(ids) == 1
        assert {s.timestamp for s in net.snapshots if ids[0] in s.roi_id} == {3600, 10800}

    def test_roi_ids_start_at_one_in_first_seen_order(self, small_network):
        seen = [rid for snap in small_network.snapshots for rid in snap.roi_id.tolist()]
        first_seen = list(dict.fromkeys(seen))
        assert first_seen == list(range(1, len(small_network.roi_table) + 1))

    def test_bipartite_edges_and_roi_degree_one(self, small_network):
        active = {s.id for s in small_network.active_sensors}
        for snap in small_network.snapshots:
            rois = snap.roi_id.tolist()
            assert len(set(rois)) == len(rois) == len(snap.sensor_id)
            assert set(snap.sensor_id.tolist()) <= active

    def test_edge_weights_recomputable(self, small_network):
        net = small_network
        coords = roi_coords(net)
        for snap in net.snapshots:
            for roi_id, sensor_id, weight in edge_rows(snap):
                want = great_circle_distance(
                    coords[roi_id - 1], net.sensors_by_id[sensor_id].geolocation
                )
                assert weight == want

    def test_nearest_assignment_holds_everywhere(self, small_network):
        net = small_network
        coords = roi_coords(net)
        for snap in net.snapshots:
            for roi_id, _, weight in edge_rows(snap):
                best = min(
                    great_circle_distance(coords[roi_id - 1], s.geolocation)
                    for s in net.active_sensors
                )
                assert weight == best

    def test_deterministic_rebuild(self, small_scenario):
        a = scenario_network(small_scenario)
        b = scenario_network(small_scenario)
        assert_same_network(a, b)

    @pytest.mark.parametrize("strict", [False, True])
    def test_roi_values_are_the_extracted_values_bit_for_bit(self, small_scenario, strict):
        rng = np.random.default_rng(99)
        for spec in [small_scenario] + [random_scenario(rng) for _ in range(10)]:
            series = scenario_field_series(spec)
            catalog = scenario_sensor_nodes(spec)
            net = build_temporal_gstbn(series, catalog, strict_observations=strict)
            for k, snap in enumerate(net.snapshots):
                fields = [compute_residual_field(s[k], s[k + 1]) for s in series.values()]
                events = extract_roi_events(fields)
                # the snapshot's rows in the events' (cell) order
                cells = net.roi_table.cell[snap.roi_id - 1]
                order = np.argsort(cells)
                assert cells[order].tolist() == events.cell.tolist()
                got = snap.roi_value[order]
                assert got.view(np.uint64).tolist() == events.value.view(np.uint64).tolist()

    def test_inactive_sensors_get_no_edges(self, small_scenario):
        catalog = scenario_sensor_nodes(small_scenario)
        from dataclasses import replace

        catalog[1] = replace(catalog[1], operational_status=OperationalStatus.INACTIVE)
        net = build_temporal_gstbn(scenario_field_series(small_scenario), catalog)
        sid = catalog[1].id
        assert sid not in {s.id for s in net.active_sensors}
        for snap in net.snapshots:
            assert (snap.sensor_id != sid).all()
        # still in the catalog for reporting
        assert net.sensors_by_id[sid].operational_status is OperationalStatus.INACTIVE

    def test_no_active_sensors_raises(self, small_scenario):
        catalog = [
            sensor(1, 0.0, 0.0, status=OperationalStatus.INACTIVE, observations=frozenset())
        ]
        with pytest.raises(NoObserversError):
            build_temporal_gstbn(scenario_field_series(small_scenario), catalog)

    def test_empty_catalog_raises(self, small_scenario):
        with pytest.raises(NoObserversError):
            build_temporal_gstbn(scenario_field_series(small_scenario), [])

    def test_single_snapshot_series_rejected(self):
        grid = make_grid(n_lat=3, n_lon=3)
        with pytest.raises(StructuralError):
            build_temporal_gstbn(zero_field_series(grid, [0]), [sensor(1, -91.0, 25.0)])

    def test_mismatched_timestamp_sets_rejected(self):
        grid = make_grid(n_lat=3, n_lon=3)
        series = zero_field_series(grid, [0, 10, 20])
        series[ObservationKind.SALINITY] = [
            FieldSnapshot(
                timestamp=t, variable=ObservationKind.SALINITY, grid=grid,
                values=np.zeros(grid.shape),
            )
            for t in [0, 10]
        ]
        with pytest.raises(StructuralError):
            build_temporal_gstbn(series, [sensor(1, -91.0, 25.0)])

    def test_duplicate_timestamps_rejected(self):
        grid = make_grid(n_lat=3, n_lon=3)
        series = zero_field_series(grid, [0, 10])
        series[ObservationKind.TEMPERATURE].append(
            FieldSnapshot(
                timestamp=10, variable=ObservationKind.TEMPERATURE, grid=grid,
                values=np.zeros(grid.shape),
            )
        )
        with pytest.raises(OrderingError):
            build_temporal_gstbn(series, [sensor(1, -91.0, 25.0)])

    def test_strict_mode_links_only_relevant_sensors(self, small_scenario):
        # sensor 1 observes only salinity; temperature RoIs must avoid it
        catalog = scenario_sensor_nodes(small_scenario)
        from dataclasses import replace

        catalog[0] = replace(
            catalog[0], observations=frozenset({ObservationKind.SALINITY})
        )
        net = scenario_network_from(catalog, small_scenario, strict=True)
        for snap in net.snapshots:
            for sensor_id, fired in zip(snap.sensor_id.tolist(), payloads(snap)):
                assert net.sensors_by_id[sensor_id].observations & fired.keys()

    def test_mobile_sensor_treated_as_stationary(self, small_scenario):
        catalog = scenario_sensor_nodes(small_scenario)
        from dataclasses import replace

        catalog[0] = replace(catalog[0], mobility=Mobility.MOBILE)
        net = build_temporal_gstbn(scenario_field_series(small_scenario), catalog)
        ref = build_temporal_gstbn(
            scenario_field_series(small_scenario), scenario_sensor_nodes(small_scenario)
        )
        assert net.snapshots == ref.snapshots


def scenario_network_from(catalog, spec, strict=False):
    return build_temporal_gstbn(
        scenario_field_series(spec), catalog, strict_observations=strict
    )


class TestAddRemoveSensor:
    def test_add_sensor_gets_fresh_id_and_all_observations(self, small_network):
        net2 = add_sensor(small_network, GeoCoord(-90.0, 26.0))
        new = net2.sensor_catalog[-1]
        assert new.id == max(s.id for s in small_network.sensor_catalog) + 1
        assert new.observations == frozenset(ObservationKind)
        assert new.is_active
        assert len(net2.sensor_catalog) == len(small_network.sensor_catalog) + 1

    def test_add_sensor_never_increases_static_coverage(self, small_network):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = GeoCoord(float(rng.uniform(-92, -88)), float(rng.uniform(24, 28)))
            net2 = add_sensor(small_network, c)
            for before, after in zip(small_network.snapshots, net2.snapshots):
                w_before = sum(before.weight_km.tolist())
                w_after = sum(after.weight_km.tolist())
                assert w_after <= w_before

    def test_add_sensor_keeps_original_untouched(self, small_network):
        before = [edge_rows(s) for s in small_network.snapshots]
        add_sensor(small_network, GeoCoord(-90.0, 26.0))
        assert [edge_rows(s) for s in small_network.snapshots] == before

    def test_remove_sensor_never_decreases_coverage(self, small_network):
        victim = small_network.active_sensors[0].id
        net2 = remove_sensor(small_network, victim)
        for before, after in zip(small_network.snapshots, net2.snapshots):
            w_before = sum(before.weight_km.tolist())
            w_after = sum(after.weight_km.tolist())
            assert w_after >= w_before

    def test_remove_sensor_deactivates_but_keeps_catalog_row(self, small_network):
        victim = small_network.active_sensors[0].id
        net2 = remove_sensor(small_network, victim)
        assert net2.sensors_by_id[victim].operational_status is OperationalStatus.INACTIVE
        assert len(net2.sensor_catalog) == len(small_network.sensor_catalog)
        for snap in net2.snapshots:
            assert (snap.sensor_id != victim).all()

    def test_fresh_id_past_int64_raises(self, small_network):
        from dataclasses import replace

        top = sensor(2**63 - 1, 0.0, 0.0, status=OperationalStatus.INACTIVE)
        net = replace(small_network, sensor_catalog=small_network.sensor_catalog + (top,))
        with pytest.raises(ParameterError):
            add_sensor(net, GeoCoord(-90.0, 26.0))

    def test_remove_unknown_sensor_raises(self, small_network):
        with pytest.raises(NotFoundError):
            remove_sensor(small_network, 999)

    def test_remove_inactive_sensor_raises(self, small_network):
        victim = small_network.active_sensors[0].id
        net2 = remove_sensor(small_network, victim)
        with pytest.raises(ParameterError):
            remove_sensor(net2, victim)

    def test_remove_last_sensor_raises(self, small_scenario):
        from dataclasses import replace

        spec = replace(small_scenario, sensors=(GeoCoord(-90.0, 25.0),))
        net = scenario_network(spec)
        with pytest.raises(NoObserversError):
            remove_sensor(net, net.active_sensors[0].id)

    def test_add_then_remove_round_trips_edges(self, small_network):
        c = GeoCoord(-90.5, 25.5)
        net2 = add_sensor(small_network, c)
        new_id = net2.sensor_catalog[-1].id
        net3 = remove_sensor(net2, new_id)
        before = [edge_rows(s) for s in small_network.snapshots]
        assert [edge_rows(s) for s in net3.snapshots] == before

    def test_edits_share_the_parents_unchanged_columns(self, small_network):
        added = add_sensor(small_network, GeoCoord(-90.0, 26.0))
        removed = remove_sensor(added, added.sensor_catalog[-1].id)
        for edited, parent in ((added, small_network), (removed, added)):
            assert edited.roi_table is parent.roi_table
            for snap in edited.snapshots:
                for name in ("sensor_id", "weight_km"):
                    assert not getattr(snap, name).flags.writeable

    def test_every_network_is_on_the_one_earth(self, small_network):
        added = add_sensor(small_network, GeoCoord(-90.0, 26.0))
        assert small_network.earth is added.earth is EARTH
        with pytest.raises(TypeError):
            TemporalGstbn(small_network.snapshots, small_network.sensor_catalog,
                          small_network.roi_table, earth=EARTH)

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_relinked_weight_must_be_a_distance(self, small_network, weight):
        sid = small_network.active_sensors[0].id
        changes = [([0], sid, weight)] + [([], sid, 0.0)] * (len(small_network.snapshots) - 1)
        with pytest.raises(StructuralError, match="is not a distance"):
            network._relinked(small_network, small_network.sensor_catalog, changes)

    def test_random_networks_keep_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec = random_scenario(rng)
            net = scenario_network(spec)
            coords = roi_coords(net)
            for snap in net.snapshots:
                got = list(zip(snap.sensor_id.tolist(), snap.weight_km.tolist()))
                points = [coords[r - 1] for r in snap.roi_id.tolist()]
                assert got == brute_force_edges(points, net.active_sensors, net.earth)


def rebuild(net, series):
    """The network `build_temporal_gstbn` makes from `net`'s current catalog."""
    return build_temporal_gstbn(series, net.sensor_catalog, strict_observations=net.strict_observations)


def assert_same_network(got, want):
    assert got.sensor_catalog == want.sensor_catalog
    for name in ("lon", "lat", "cell"):
        assert getattr(got.roi_table, name).tolist() == getattr(want.roi_table, name).tolist()
    # snapshot equality compares weight_km and residual with float ==; roi_value follows from residual
    assert got.snapshots == want.snapshots


class TestIncrementalEditsMatchRebuild:
    """add_sensor and remove_sensor edit only what changed; the result must
    be the network a full rebuild on the edited catalog gives, edge for edge."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_random_edit_sequences(self, strict):
        rng = np.random.default_rng(2024 + strict)
        # a separate stream for the scoring probes keeps the edit sequence fixed
        probes = np.random.default_rng(7 + strict)
        from dataclasses import replace

        def random_coord(gen, grid):
            return GeoCoord(
                float(gen.uniform(grid.lon0, grid.lon_at(grid.n_lon - 1))),
                float(gen.uniform(grid.lat0, grid.lat_at(grid.n_lat - 1))),
            )

        done = {"add": 0, "remove": 0}
        for _ in range(12):
            spec = random_scenario(rng)
            series = scenario_field_series(spec)
            catalog = scenario_sensor_nodes(spec)
            if strict:
                # give some sensors a single variable so eligibility matters;
                # the first keeps both, so the initial build has observers
                catalog = [
                    replace(s, observations=frozenset({spec.variables[k % 2]}))
                    if k and rng.random() < 0.6 else s
                    for k, s in enumerate(catalog)
                ]
            net = build_temporal_gstbn(series, catalog, strict_observations=strict)
            grid = spec.grid
            for _ in range(6):
                # fills the cached arrays of `net`; the edit must not reuse them
                candidate_score(net, random_coord(probes, grid))
                active = net.active_sensors
                if len(active) >= 2 and rng.random() < 0.4:
                    victim = active[int(rng.integers(0, len(active)))].id
                    try:
                        edited = remove_sensor(net, victim)
                    except NoObserversError:
                        # strict matching left some RoI without an observer
                        catalog = tuple(
                            replace(s, operational_status=OperationalStatus.INACTIVE)
                            if s.id == victim else s
                            for s in net.sensor_catalog
                        )
                        with pytest.raises(NoObserversError):
                            build_temporal_gstbn(series, catalog, strict_observations=strict)
                        continue
                    done["remove"] += 1
                else:
                    edited = add_sensor(net, random_coord(rng, grid))
                    done["add"] += 1
                assert_same_network(edited, rebuild(edited, series))
                c = random_coord(probes, grid)
                assert candidate_score(edited, c) == average_temporal_coverage(add_sensor(edited, c))
                net = edited
        assert done["add"] >= 30 and done["remove"] >= 10

    @pytest.mark.parametrize("strict", [False, True])
    def test_sensor_added_on_an_existing_one_takes_no_roi(self, small_scenario, strict):
        series = scenario_field_series(small_scenario)
        net = build_temporal_gstbn(
            series, scenario_sensor_nodes(small_scenario), strict_observations=strict
        )
        for existing in net.active_sensors:
            grown = add_sensor(net, existing.geolocation)
            new_id = grown.sensor_catalog[-1].id
            # every tie stays with the lower, existing id
            assert all((s.sensor_id != new_id).all() for s in grown.snapshots)
            assert [edge_rows(s) for s in grown.snapshots] == [edge_rows(s) for s in net.snapshots]
            assert_same_network(grown, rebuild(grown, series))

    @pytest.mark.parametrize("edit", ["add", "remove"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_edited_caches_equal_those_of_a_fresh_network(self, small_scenario, edit, strict):
        net = scenario_network(small_scenario, strict=strict)
        net._tiles  # the parent's filled caches must not reach the edit
        if edit == "add":
            edited = add_sensor(net, GeoCoord(-90.2, 25.3))
        else:
            edited = remove_sensor(net, net.active_sensors[0].id)
        # the edit shares the parent's table
        assert edited.roi_table is net.roi_table
        fresh = rebuild(edited, scenario_field_series(small_scenario))
        assert fresh.roi_table is not net.roi_table
        for got, want in zip(edited._tiles, fresh._tiles):
            assert got.tolist() == want.tolist()
        for got, want in zip(edited._edge_rows, fresh._edge_rows):
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_removal_relinks_only_the_orphaned_rois(self, small_network):
        net = small_network
        victim = net.active_sensors[0].id
        shrunk = remove_sensor(net, victim)
        for before, after in zip(net.snapshots, shrunk.snapshots):
            moved = {rid for rid, sid, _ in edge_rows(before) if sid == victim}
            kept_before = [row for row in edge_rows(before) if row[0] not in moved]
            kept_after = [row for row in edge_rows(after) if row[0] not in moved]
            assert kept_before == kept_after


lons = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0, -179.99, 179.99]))
lats = st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 90.0, -89.99, 89.99]))
KINDS = (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)


@st.composite
def near(draw, centres):
    """A point at one of `centres`, or scattered around it at one of a few
    spreads, so tiles hold several RoIs, one, or coincident ones."""
    lon, lat = draw(st.sampled_from(centres))
    spread = draw(st.sampled_from([0.0, 0.01, 0.5, 5.0]))
    dlon, dlat = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return min(180.0, max(-180.0, lon + spread * dlon)), min(90.0, max(-90.0, lat + spread * dlat))


@st.composite
def networks(draw):
    """Networks with RoIs clustered around a few centres (the poles and the
    antimeridian among them), 1-4 sensors, 0-3 snapshots that may be empty,
    plain or strict matching."""
    centres = draw(st.lists(st.tuples(lons, lats), min_size=1, max_size=4))
    strict = draw(st.booleans())
    coords = draw(st.lists(near(centres), max_size=40))
    sensors = [sensor(1, *draw(near(centres)))]  # observes every kind, so strict links all
    for sid in range(2, draw(st.integers(1, 4)) + 1):
        kinds = draw(st.sets(st.sampled_from(KINDS), min_size=1))
        sensors.append(sensor(sid, *draw(near(centres)), observations=frozenset(kinds)))
    times = range(100, 100 * (draw(st.integers(0, 3)) + 1), 100)
    lon, lat = [p[0] for p in coords], [p[1] for p in coords]
    table = RoITable(lon, lat, cell=range(len(coords)))
    snapshots = []
    for t in times:
        fired = fired_mask([draw(st.sets(st.sampled_from(KINDS))) for _ in coords])
        rows = np.flatnonzero(fired.any(axis=1))
        fired = fired[rows]
        edges = build_edges(table.lon[rows], table.lat[rows], sensors,
                            fired=fired if strict else None)
        snapshots.append(GstbnSnapshot(t, rows + 1, *edges, np.where(fired, 1.0, np.nan)))
    net = TemporalGstbn(tuple(snapshots), tuple(sensors), table, strict_observations=strict)
    return net, centres


class TestSparseRelaxStep:
    """`_relaxed` computes distances only where its tile bound cannot rule a
    change out; expanded to full rows it must equal the unpruned oracle
    bit for bit, and name exactly the edges a candidate brings strictly
    closer."""

    @given(data=st.data(), tile_rois=st.sampled_from([1, 2, 16]))
    @settings(max_examples=150, deadline=None)
    def test_expanded_rows_equal_the_dense_oracle(self, data, tile_rois):
        with mock.patch.object(network, "_TILE_ROIS", tile_rois):
            net, centres = data.draw(networks())
            # candidates anywhere, on an RoI (d == 0) and on a sensor (d == w ties)
            on_nodes = roi_coords(net)
            on_nodes += [s.geolocation for s in net.sensor_catalog]
            candidates = data.draw(st.lists(
                st.one_of(
                    st.builds(GeoCoord, lons, lats),
                    near(centres).map(lambda p: GeoCoord(*p)),
                    st.sampled_from(on_nodes),
                ),
                min_size=1,
                max_size=8,
            ))
            lon, lat = lonlat_arrays(candidates)
            sparse = list(network._relaxed(net, lon, lat))
        want = dense_relaxed(net, candidates)
        assert len(sparse) == len(want) == len(net.snapshots)
        for snap, (trial, pos, dist), rows in zip(net.snapshots, sparse, want):
            got = np.repeat(snap.weight_km[None], len(candidates), axis=0)
            got[trial, pos] = dist
            assert got.tolist() == rows
            closer = {(t, k) for t, row in enumerate(rows) for k, w in enumerate(row)
                      if w < snap.weight_km[k]}
            assert set(zip(trial.tolist(), pos.tolist())) == closer
            assert len(trial) == len(closer) and (np.diff(trial) >= 0).all()

    @given(data=st.data(), tile_rois=st.sampled_from([1, 2, 16]))
    @settings(max_examples=150, deadline=None)
    def test_tiles_partition_the_registry_within_their_radius(self, data, tile_rois):
        with mock.patch.object(network, "_TILE_ROIS", tile_rois):
            net, _ = data.draw(networks())
            tiles = net._tiles
        assert sorted(tiles.order.tolist()) == list(range(len(net.roi_table)))
        r_lon, r_lat = net.roi_table.lon, net.roi_table.lat
        largest = {}
        for roi_id, _, weight in (row for snap in net.snapshots for row in edge_rows(snap)):
            largest[roi_id] = max(largest.get(roi_id, -np.inf), weight)
        for k, (start, count) in enumerate(zip(tiles.start, tiles.count)):
            rows = tiles.order[start : start + count]
            d = haversine_km(tiles.lon[k], tiles.lat[k], r_lon[rows], r_lat[rows])
            assert (d <= tiles.radius[k] + 1e-6).all()  # 1 mm for rounding
            heaviest = max(largest.get(r + 1, -np.inf) for r in rows.tolist())
            assert tiles.reach[k] >= tiles.radius[k] + heaviest
