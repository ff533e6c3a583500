import json

import pytest

from gstbn.errors import ParameterError
from gstbn.field import ObservationKind, RoIThreshold, extract_roi_events, compute_residual_field
from gstbn.geo import GeoCoord
from gstbn.ingest import parse_grid_series, parse_sensor_catalog
from gstbn.network import build_temporal_gstbn
from gstbn.synth import (
    Hotspot,
    ScenarioSpec,
    generate_scenario,
    scenario_field_series,
    scenario_sensor_nodes,
    scenario_spec_to_dict,
    scenario_spec_from_dict,
)
from conftest import make_grid


def basic_spec(**overrides):
    grid = make_grid(n_lat=6, n_lon=6)
    kwargs = dict(
        grid=grid,
        timestamps=(0, 100, 200, 300),
        hotspots=(
            Hotspot(
                center=grid.cell_coord(grid.cell_index(1, 1)),
                amplitude=2.0,
                radius_deg=0.3,
                active_intervals=frozenset({0, 2}),
            ),
        ),
        sensors=(GeoCoord(-91.0, 24.5), GeoCoord(-89.5, 26.0)),
        background=15.0,
        background_noise_amplitude=0.2,
        threshold=0.5,
        seed=11,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestScenarioSpecValidation:
    def test_amplitude_must_clear_threshold(self):
        # amplitude^2 < 2 * threshold is too weak to survive noise
        with pytest.raises(ParameterError, match="amplitude"):
            basic_spec(
                hotspots=(
                    Hotspot(
                        center=GeoCoord(-91.0, 24.5),
                        amplitude=0.9,
                        radius_deg=0.3,
                        active_intervals=frozenset({0}),
                    ),
                ),
            )

    def test_noise_bounded_by_threshold(self):
        with pytest.raises(ParameterError, match="noise"):
            basic_spec(background_noise_amplitude=0.5)

    def test_overflowing_amplitudes_rejected(self):
        kinds = (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)

        def hotspots(amplitude, variables):
            return tuple(
                Hotspot(
                    center=GeoCoord(-91.0, 24.5),
                    amplitude=amplitude,
                    radius_deg=0.3,
                    active_intervals=frozenset({0}),
                    variable=kind,
                )
                for kind in variables
            )

        with pytest.raises(ParameterError, match="temperature hotspot amplitudes too large"):
            basic_spec(hotspots=hotspots(1e200, kinds[:1]))
        # 1e154 squared is finite; two such squares summed across variables are not
        basic_spec(hotspots=hotspots(1e154, kinds[:1]), variables=kinds)
        with pytest.raises(ParameterError, match="salinity hotspot amplitudes too large"):
            basic_spec(hotspots=hotspots(1e154, kinds), variables=kinds)

    def test_zero_noise_allowed(self):
        basic_spec(background_noise_amplitude=0.0)

    def test_interval_out_of_range(self):
        with pytest.raises(ParameterError, match="interval"):
            basic_spec(
                hotspots=(
                    Hotspot(
                        center=GeoCoord(-91.0, 24.5),
                        amplitude=2.0,
                        radius_deg=0.3,
                        active_intervals=frozenset({3}),
                    ),
                ),
            )

    def test_hotspot_variable_must_be_generated(self):
        with pytest.raises(ParameterError, match="variable"):
            basic_spec(
                hotspots=(
                    Hotspot(
                        center=GeoCoord(-91.0, 24.5),
                        amplitude=2.0,
                        radius_deg=0.3,
                        active_intervals=frozenset({0}),
                        variable=ObservationKind.SALINITY,
                    ),
                ),
            )

    def test_needs_sensor(self):
        with pytest.raises(ParameterError, match="sensor"):
            basic_spec(sensors=())

    def test_needs_two_timestamps(self):
        with pytest.raises(ParameterError, match="timestamps"):
            basic_spec(timestamps=(0,))

    def test_timestamps_must_increase(self):
        with pytest.raises(ParameterError, match="increas"):
            basic_spec(timestamps=(0, 100, 100, 300))


class TestToggleSemantics:
    def test_hotspot_cell_fires_exactly_in_listed_intervals(self):
        spec = basic_spec()
        series = scenario_field_series(spec)
        snaps = series[ObservationKind.TEMPERATURE]
        hot_cell = spec.grid.cell_index(1, 1)
        threshold = RoIThreshold(spec.threshold)
        for interval in range(len(spec.timestamps) - 1):
            rf = compute_residual_field(snaps[interval], snaps[interval + 1])
            events = extract_roi_events([rf], threshold)
            cells = set(events.cell.tolist())
            if interval in {0, 2}:
                assert hot_cell in cells
            else:
                assert hot_cell not in cells

    def test_quiet_scenario_has_no_events(self):
        spec = basic_spec(hotspots=(), background_noise_amplitude=0.2)
        series = scenario_field_series(spec)
        snaps = series[ObservationKind.TEMPERATURE]
        threshold = RoIThreshold(spec.threshold)
        for a, b in zip(snaps, snaps[1:]):
            events = extract_roi_events([compute_residual_field(a, b)], threshold)
            assert not events

    def test_hotspot_center_residual_dominated_by_amplitude(self):
        spec = basic_spec(background_noise_amplitude=0.0)
        series = scenario_field_series(spec)
        snaps = series[ObservationKind.TEMPERATURE]
        hot_cell = spec.grid.cell_index(1, 1)
        rf = compute_residual_field(snaps[0], snaps[1])
        r, c = divmod(hot_cell, spec.grid.n_lon)
        assert rf.residuals[r, c] == pytest.approx(4.0)


class TestDeterminism:
    def test_files_byte_identical_across_runs(self, tmp_path):
        spec = basic_spec()
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        files1 = generate_scenario(spec, out1)
        files2 = generate_scenario(spec, out2)
        for p1, p2 in zip(files1.grid_paths, files2.grid_paths):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()
        assert files1.catalog_path.read_bytes() == files2.catalog_path.read_bytes()
        assert files1.manifest_path.read_bytes() == files2.manifest_path.read_bytes()

    def test_seed_changes_fields(self, tmp_path):
        a = generate_scenario(basic_spec(seed=1), tmp_path / "a")
        b = generate_scenario(basic_spec(seed=2), tmp_path / "b")
        assert a.grid_paths[0].read_bytes() != b.grid_paths[0].read_bytes()

    def test_spec_dict_round_trip(self):
        spec = basic_spec()
        doc = scenario_spec_to_dict(spec)
        # must survive a json round trip, which is how the CLI receives it
        assert scenario_spec_from_dict(json.loads(json.dumps(doc))) == spec

    def test_spec_from_dict_rejects_garbage(self):
        with pytest.raises(ParameterError):
            scenario_spec_from_dict({"grid": "no"})


class TestManifestAgreement:
    def load_network(self, files, spec):
        sensors = parse_sensor_catalog(files.catalog_path)
        series = parse_grid_series(files.grid_paths)
        return build_temporal_gstbn(
            series, sensors, threshold=RoIThreshold(spec.threshold)
        )

    def assert_matches_manifest(self, files, spec):
        net = self.load_network(files, spec)
        manifest = json.loads(files.manifest_path.read_text())
        intervals = manifest["intervals"]
        assert len(intervals) == len(net.snapshots)
        for entry, snap in zip(intervals, net.snapshots):
            assert entry["end"] == snap.timestamp
            expected = {
                spec.grid.cell_coord(cell): value
                for cell, value in zip(entry["cells"], entry["roi_values"])
            }
            got = {
                net.roi_registry[rid - 1].geolocation: value
                for rid, value in zip(snap.roi_id.tolist(), snap.roi_value.tolist())
            }
            assert set(got) == set(expected)
            for coord, value in expected.items():
                # manifest values come from an independent per-cell loop
                assert got[coord] == value

    def test_pipeline_reproduces_manifest(self, tmp_path):
        spec = basic_spec()
        files = generate_scenario(spec, tmp_path / "sc")
        self.assert_matches_manifest(files, spec)

    def test_pipeline_reproduces_manifest_multivariable(self, tmp_path):
        grid = make_grid(n_lat=7, n_lon=9)
        spec = ScenarioSpec(
            grid=grid,
            timestamps=(0, 60, 120, 180, 240),
            hotspots=(
                Hotspot(
                    center=grid.cell_coord(grid.cell_index(2, 3)),
                    amplitude=1.8,
                    radius_deg=0.4,
                    active_intervals=frozenset({0, 3}),
                    variable=ObservationKind.TEMPERATURE,
                ),
                Hotspot(
                    center=grid.cell_coord(grid.cell_index(5, 6)),
                    amplitude=2.5,
                    radius_deg=0.6,
                    active_intervals=frozenset({1, 2}),
                    variable=ObservationKind.SALINITY,
                ),
            ),
            sensors=(GeoCoord(-91.5, 24.2), GeoCoord(-89.0, 26.5), GeoCoord(-90.0, 25.0)),
            variables=(ObservationKind.TEMPERATURE, ObservationKind.SALINITY),
            background=12.0,
            background_noise_amplitude=0.3,
            threshold=0.5,
            seed=99,
        )
        files = generate_scenario(spec, tmp_path / "sc")
        self.assert_matches_manifest(files, spec)

    def test_manifest_nonempty_for_active_hotspot(self, tmp_path):
        spec = basic_spec()
        files = generate_scenario(spec, tmp_path / "sc")
        manifest = json.loads(files.manifest_path.read_text())
        by_interval = [len(e["cells"]) for e in manifest["intervals"]]
        assert by_interval[0] > 0
        assert by_interval[1] == 0
        assert by_interval[2] > 0

    def test_manifest_echoes_spec(self, tmp_path):
        spec = basic_spec()
        files = generate_scenario(spec, tmp_path / "sc")
        manifest = json.loads(files.manifest_path.read_text())
        assert scenario_spec_from_dict(manifest["scenario"]) == spec
        assert manifest["threshold"] == spec.threshold
        assert manifest["files"]["catalog"] == files.catalog_path.name
        assert manifest["files"]["grids"] == [p.name for p in files.grid_paths]


class TestSensorNodes:
    def test_nodes_cover_scenario_variables(self):
        spec = basic_spec()
        nodes = scenario_sensor_nodes(spec)
        assert [n.id for n in nodes] == [1, 2]
        for node, coord in zip(nodes, spec.sensors):
            assert node.geolocation == coord
            assert node.observations == frozenset(spec.variables)
            assert node.is_active
