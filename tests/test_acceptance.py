"""Acceptance suite: one test per shipping criterion, run with
`pytest tests/test_acceptance.py -v -s` for the per-criterion PASS lines.

Each test states its tolerance inline and checks its own runtime budget.
The two optimizer scenarios (06, 07) were pinned against a 161x161
grid-scan oracle; the scan's global optimum sits on the hotspot with
score 0.0, and the frozen seed reproduces the recorded winners.
"""

import json
import math
import time

import numpy as np

from gstbn.field import (
    FieldSnapshot,
    GridSpec,
    ObservationKind,
    RoIThreshold,
    compute_residual_field,
    extract_roi_events,
)
from gstbn.geo import EARTH, GeoCoord, great_circle_distance, lonlat_arrays
from gstbn.ingest import (
    export_geojson,
    format_grid_snapshot,
    format_sensor_catalog,
    parse_grid_snapshot,
    parse_sensor_catalog,
)
from gstbn.metrics import coverage_report, degree_centrality, evaluate_robustness
from gstbn.network import (
    Membership,
    Mobility,
    OperationalStatus,
    SensorNode,
    add_sensor,
    build_edges,
    build_temporal_gstbn,
    remove_sensor,
)
from gstbn.placement import SearchDomain, candidate_score, monte_carlo_place, place_sequential
from gstbn.synth import Hotspot, ScenarioSpec, scenario_field_series, scenario_sensor_nodes

from conftest import make_grid, random_scenario, scenario_network
from oracles import brute_force_edges, naive_interval_analysis, reference_distance_km, roi_coords


def ok(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


GRID = GridSpec(n_lat=8, n_lon=8, lat0=24.0, d_lat=0.5, lon0=-92.0, d_lon=0.5)
FAR_SENSOR = GeoCoord(-60.0, 40.0)


def build_scenario(spec):
    return build_temporal_gstbn(
        scenario_field_series(spec),
        scenario_sensor_nodes(spec),
        threshold=RoIThreshold(spec.threshold),
    )


def test_criterion_01_geodesy_precision():
    rng = np.random.default_rng(123)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        a = GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
        b = GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
        got = great_circle_distance(a, b)
        want = reference_distance_km(a.lon, a.lat, b.lon, b.lat)
        if want:
            worst = max(worst, abs(got - want) / want)
            assert abs(got - want) <= 1e-6 * want
    p = GeoCoord(-90.07, 29.95)
    assert great_circle_distance(p, p) == 0.0
    anti = GeoCoord(p.lon + 180.0 if p.lon <= 0.0 else p.lon - 180.0, -p.lat)
    assert great_circle_distance(p, anti) == math.pi * EARTH.radius_km
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"1000 pairs within 1e-6 rel (worst {worst:.2e}), "
          f"identity/antipodal exact, {elapsed:.2f}s")


def test_criterion_02_field_oracle_equivalence():
    rng = np.random.default_rng(456)
    start = time.monotonic()
    kinds = (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)
    for _ in range(200):
        grid = make_grid(
            n_lat=int(rng.integers(1, 11)), n_lon=int(rng.integers(1, 11))
        )
        pairs = []
        for kind in kinds:
            fields = []
            for ts in (0, 3600):
                values = rng.normal(0.0, 1.2, grid.shape)
                values[rng.random(grid.shape) < 0.15] = np.nan
                fields.append(
                    FieldSnapshot(timestamp=ts, variable=kind, grid=grid, values=values)
                )
            pairs.append((fields[0], fields[1]))
        residual_grids, roi_map = naive_interval_analysis(pairs, threshold=0.5)

        residual_fields = [compute_residual_field(a, b) for a, b in pairs]
        for rf in residual_fields:
            naive = residual_grids[rf.variable]
            for i in range(grid.n_lat):
                for j in range(grid.n_lon):
                    if naive[i][j] is None:
                        assert not rf.valid[i, j]
                    else:
                        assert rf.valid[i, j]
                        assert float(rf.residuals[i, j]) == naive[i][j]

        events = extract_roi_events(residual_fields, RoIThreshold(0.5))
        assert events.cell.tolist() == sorted(roi_map)
        columns = zip(events.cell.tolist(), events.value.tolist(), events.residual.tolist())
        for cell, value, row in columns:
            assert value == roi_map[cell][0]
            # NaN marks a variable that did not count
            fired = {kind: r for kind, r in zip(ObservationKind, row) if not math.isnan(r)}
            assert fired == roi_map[cell][1]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(2, f"200 randomized grids bit-equal to the per-cell script, {elapsed:.2f}s")


def test_criterion_03_edge_oracle_equivalence():
    rng = np.random.default_rng(789)
    start = time.monotonic()
    for trial in range(100):
        n_sensors = int(rng.integers(1, 21))
        n_rois = int(rng.integers(0, 201))
        ids = rng.choice(1000, size=n_sensors, replace=False)
        sensors = [
            SensorNode(
                id=int(sid),
                membership=Membership.FEDERAL,
                data_source="t",
                platform="t",
                mobility=Mobility.STATIONARY,
                geolocation=GeoCoord(
                    float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))
                ),
                operational_status=OperationalStatus.ACTIVE,
                observations=frozenset({ObservationKind.TEMPERATURE}),
            )
            for sid in ids
        ]
        if trial % 3 == 0:
            # duplicated position forces the tie-break path
            sensors.append(
                SensorNode(
                    id=1001,
                    membership=Membership.LDN,
                    data_source="t",
                    platform="t",
                    mobility=Mobility.STATIONARY,
                    geolocation=sensors[0].geolocation,
                    operational_status=OperationalStatus.ACTIVE,
                    observations=frozenset({ObservationKind.TEMPERATURE}),
                )
            )
        points = [
            GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            for _ in range(n_rois)
        ]
        got = zip(*(a.tolist() for a in build_edges(*lonlat_arrays(points), sensors)))
        want = brute_force_edges(points, sensors, EARTH)
        assert list(got) == want
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(3, f"100 instances: accelerated edges == brute force incl. ties, {elapsed:.2f}s")


def test_criterion_04_metric_identities():
    rng = np.random.default_rng(321)
    nets = 0
    removes = 0
    while nets < 30:
        net = scenario_network(random_scenario(rng))
        nets += 1
        rep = coverage_report(net)
        assert abs(rep.average_km * rep.n_timesteps - rep.total_km) <= math.ulp(
            rep.total_km
        )
        cent = degree_centrality(net)
        for snap in net.snapshots:
            degs = cent.static_per_snapshot[snap.timestamp]
            assert sum(degs.values()) == len(snap.roi_id)

        coord = GeoCoord(float(rng.uniform(-95, -85)), float(rng.uniform(20, 30)))
        grown = add_sensor(net, coord)
        assert coverage_report(grown).average_km <= rep.average_km

        if len(net.active_sensors) >= 2:
            victim = net.active_sensors[int(rng.integers(0, len(net.active_sensors)))]
            shrunk = remove_sensor(net, victim.id)
            assert coverage_report(shrunk).average_km >= rep.average_km
            removes += 1
    assert removes >= 10
    ok(4, f"30 random networks: avg*n==total (1 ulp), degree conservation, "
          f"add<=/remove>= exact ({removes} removals)")


def test_criterion_05_incremental_trial_correctness():
    spec = ScenarioSpec(
        grid=GRID,
        timestamps=(0, 3600, 7200, 10800),
        hotspots=(
            Hotspot(center=GRID.cell_coord(GRID.cell_index(2, 2)), amplitude=2.0,
                    radius_deg=0.4, active_intervals=frozenset({0, 2})),
            Hotspot(center=GRID.cell_coord(GRID.cell_index(6, 5)), amplitude=1.5,
                    radius_deg=0.3, active_intervals=frozenset({1}),
                    variable=ObservationKind.SALINITY),
        ),
        sensors=(GeoCoord(-91.0, 24.5), GeoCoord(-89.5, 26.0)),
        variables=(ObservationKind.TEMPERATURE, ObservationKind.SALINITY),
        background=20.0,
        background_noise_amplitude=0.25,
        threshold=0.5,
        seed=7,
    )
    net = build_scenario(spec)
    rng = np.random.default_rng(654)
    for _ in range(100):
        c = GeoCoord(float(rng.uniform(-94, -86)), float(rng.uniform(22, 29)))
        fast = candidate_score(net, c)
        slow = coverage_report(add_sensor(net, c)).average_km
        assert fast == slow
    ok(5, "100 candidates: fast trial score == full rebuild, exact equality")


def test_criterion_06_optimizer_ground_truth():
    p = GRID.cell_coord(GRID.cell_index(3, 4))
    spec = ScenarioSpec(
        grid=GRID,
        timestamps=(0, 3600, 7200, 10800),
        hotspots=(
            Hotspot(center=p, amplitude=2.0, radius_deg=0.2,
                    active_intervals=frozenset({0, 1, 2})),
        ),
        sensors=(FAR_SENSOR,),
        background=15.0,
        background_noise_amplitude=0.0,
        threshold=0.5,
        seed=0,
    )
    net = build_scenario(spec)
    # scenario sanity: one RoI, at p, in every snapshot; sensor far away
    assert len(net.snapshots) == 3
    for snap in net.snapshots:
        assert len(snap.roi_id) == 1
    assert roi_coords(net)[0] == p
    assert great_circle_distance(FAR_SENSOR, p) >= 1000.0

    baseline = coverage_report(net).average_km
    start = time.monotonic()
    winner, score = monte_carlo_place(net, SearchDomain.from_grid(GRID),
                                      trials=10_000, seed=42)
    elapsed = time.monotonic() - start
    dist = great_circle_distance(winner, p)
    reduction = 1.0 - score / baseline
    # grid-scan oracle: optimum at p itself with score 0.0; the frozen
    # seed lands 1.918 km out with a 99.94% reduction
    assert dist <= 50.0
    assert reduction >= 0.95
    assert elapsed < 60.0
    ok(6, f"winner {dist:.3f} km from hotspot (<=50), reduction "
          f"{reduction:.4%} (>=95%), {elapsed:.1f}s")


def test_criterion_07_sequential_placement():
    p = GRID.cell_coord(GRID.cell_index(1, 1))
    q = GRID.cell_coord(GRID.cell_index(6, 6))
    spec = ScenarioSpec(
        grid=GRID,
        timestamps=(0, 3600, 7200, 10800, 14400),
        hotspots=(
            Hotspot(center=p, amplitude=2.0, radius_deg=0.2,
                    active_intervals=frozenset({0, 1, 2, 3})),
            Hotspot(center=q, amplitude=2.0, radius_deg=0.2,
                    active_intervals=frozenset({1, 2})),
        ),
        sensors=(FAR_SENSOR,),
        background=15.0,
        background_noise_amplitude=0.0,
        threshold=0.5,
        seed=0,
    )
    net = build_scenario(spec)
    assert great_circle_distance(p, q) > 100.0

    start = time.monotonic()
    result = place_sequential(net, SearchDomain.from_grid(GRID),
                              n_sensors=2, trials=10_000, seed=42)
    elapsed = time.monotonic() - start
    (c1, c2) = (s.coord for s in result.placed)
    d1p, d1q = great_circle_distance(c1, p), great_circle_distance(c1, q)
    d2p, d2q = great_circle_distance(c2, p), great_circle_distance(c2, q)
    # order-insensitive: each placement near its own hotspot
    matched = (d1p <= 50.0 and d2q <= 50.0) or (d1q <= 50.0 and d2p <= 50.0)
    assert matched
    assert elapsed < 120.0
    pair = sorted([min(d1p, d1q), min(d2p, d2q)])
    ok(7, f"two placements {pair[0]:.3f} / {pair[1]:.3f} km from distinct "
          f"hotspots (<=50 each), {elapsed:.1f}s")


def robustness_scenario(co_located):
    a = GRID.cell_coord(GRID.cell_index(2, 2))
    b = GRID.cell_coord(GRID.cell_index(7, 7))
    sensors = (a, b, a) if co_located else (a, b)
    spec = ScenarioSpec(
        grid=GRID,
        timestamps=(0, 3600),
        hotspots=(
            Hotspot(center=a, amplitude=3.0, radius_deg=0.8,
                    active_intervals=frozenset({0})),
            Hotspot(center=b, amplitude=2.0, radius_deg=0.2,
                    active_intervals=frozenset({0})),
        ),
        sensors=sensors,
        background=15.0,
        background_noise_amplitude=0.0,
        threshold=0.5,
        seed=0,
    )
    return build_scenario(spec)


def test_criterion_08_robustness_direction():
    net = robustness_scenario(co_located=False)
    cent = degree_centrality(net)
    total_edges = sum(len(s.roi_id) for s in net.snapshots)
    share = cent.overall[1] / total_edges
    assert share >= 0.90
    rep = evaluate_robustness(net, k=1)
    assert rep.removed_sensor_ids == (1,)
    assert rep.relative_increase > 0.0

    twin = robustness_scenario(co_located=True)
    rep2 = evaluate_robustness(twin, k=1)
    assert rep2.removed_sensor_ids == (1,)
    assert rep2.relative_increase == 0.0
    ok(8, f"dominant sensor ({share:.0%} of edges) removal raises coverage "
          f"(+{rep.relative_increase:.2f} rel); co-located spare keeps it at exactly 0")


def cli_scenario(tmp_path):
    from gstbn.synth import generate_scenario

    grid = make_grid(n_lat=6, n_lon=6)
    spec = ScenarioSpec(
        grid=grid,
        timestamps=(0, 100, 200),
        hotspots=(
            Hotspot(center=grid.cell_coord(grid.cell_index(2, 3)), amplitude=2.0,
                    radius_deg=0.3, active_intervals=frozenset({0, 1})),
        ),
        sensors=(GeoCoord(-91.5, 24.2), GeoCoord(-89.3, 26.4)),
        background=10.0,
        background_noise_amplitude=0.2,
        threshold=0.5,
        seed=5,
    )
    return generate_scenario(spec, tmp_path / "scenario"), spec


def test_criterion_09_cli_determinism(tmp_path):
    from gstbn.cli import main
    from gstbn.synth import scenario_spec_to_dict

    files, spec = cli_scenario(tmp_path)
    base = ["--sensors", str(files.catalog_path), "--grids"] + [
        str(p) for p in files.grid_paths
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scenario_spec_to_dict(spec)))

    def tree(d):
        return {p.name: p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    runs = {
        "build": lambda out: main(["build", *base, "--out", str(out)]),
        "score": lambda out: main(["score", *base, "--out", str(out / "report.json")]),
        "robustness": lambda out: main(
            ["robustness", *base, "--remove", "1", "--out", str(out / "report.json")]
        ),
        "optimize": lambda out: main(
            ["optimize", *base, "--trials", "200", "--new-sensors", "2",
             "--threads", "4", "--trace", str(out / "trace.csv"),
             "--out", str(out / "run.json")]
        ),
        "synth": lambda out: main(["synth", "--spec", str(spec_path), "--out", str(out)]),
    }
    for name, run in runs.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        out1.mkdir()
        out2.mkdir()
        assert run(out1) == 0
        assert run(out2) == 0
        assert tree(out1) == tree(out2), name
    ok(9, "all five subcommands byte-identical across reruns "
          "(optimize with 4 threads)")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(987)
    for trial in range(30):
        sensors = []
        for sid in range(1, int(rng.integers(2, 30))):
            n_obs = int(rng.integers(0, 5))
            kinds = frozenset(
                rng.choice(list(ObservationKind), size=n_obs, replace=False)
            ) if n_obs else frozenset()
            status = (
                OperationalStatus.ACTIVE
                if kinds and rng.random() < 0.8
                else OperationalStatus.INACTIVE
            )
            sensors.append(
                SensorNode(
                    id=sid,
                    membership=list(Membership)[int(rng.integers(0, 2))],
                    data_source=f"s{sid}",
                    platform=f"p {sid}",
                    mobility=list(Mobility)[int(rng.integers(0, 2))],
                    geolocation=GeoCoord(
                        float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))
                    ),
                    operational_status=status,
                    observations=kinds,
                )
            )
        path = tmp_path / f"cat-{trial}.csv"
        path.write_text(format_sensor_catalog(sensors))
        assert parse_sensor_catalog(path) == sensors

        grid = make_grid(
            n_lat=int(rng.integers(1, 9)), n_lon=int(rng.integers(1, 9))
        )
        values = rng.normal(0.0, 40.0, grid.shape)
        values[rng.random(grid.shape) < 0.2] = np.nan
        snap = FieldSnapshot(
            timestamp=int(rng.integers(0, 2**31)),
            variable=list(ObservationKind)[int(rng.integers(0, 4))],
            grid=grid,
            values=values,
        )
        gpath = tmp_path / f"grid-{trial}.grid"
        gpath.write_text(format_grid_snapshot(snap))
        assert parse_grid_snapshot(gpath) == snap

    net = scenario_network(random_scenario(np.random.default_rng(11)))
    for snap in net.snapshots:
        doc = export_geojson(net, snap.timestamp)
        assert doc["type"] == "FeatureCollection"
        sensor_ids = set()
        roi_ids = set()
        for feature in doc["features"]:
            assert feature["type"] == "Feature"
            geom = feature["geometry"]
            props = feature["properties"]
            if geom["type"] == "Point":
                lon, lat = geom["coordinates"]
                assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
                if props["node_type"] == "sensor":
                    sensor_ids.add(props["id"])
                else:
                    assert props["node_type"] == "roi"
                    assert props["roi_value"] > 0.0
                    roi_ids.add(props["id"])
            else:
                assert geom["type"] == "LineString"
                assert len(geom["coordinates"]) == 2
                assert props["roi_id"] in roi_ids
                assert props["sensor_id"] in sensor_ids
                assert props["weight_km"] >= 0.0
        json.dumps(doc)
    ok(10, "30 randomized catalog+grid round-trips exact; GeoJSON structure valid")
