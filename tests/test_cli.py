import hashlib
import importlib
import json
import subprocess
from collections import Counter
from dataclasses import replace
import sys
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

import gstbn
from gstbn import network, placement
from gstbn.cli import main
from gstbn.geo import GeoCoord, haversine_km
from gstbn.field import FieldSnapshot, GridSpec, ObservationKind
from gstbn.ingest import (
    dump_json,
    export_geojson,
    parse_grid_series,
    parse_sensor_catalog,
    write_grid_snapshot,
    write_sensor_catalog,
)
from gstbn.network import build_temporal_gstbn
from gstbn.placement import SearchDomain, place_sequential
from gstbn.synth import (
    Hotspot,
    ScenarioSpec,
    generate_scenario,
    scenario_field_series,
    scenario_sensor_nodes,
    scenario_spec_to_dict,
)
from conftest import make_grid


def cli_spec():
    grid = make_grid(n_lat=6, n_lon=6)
    return ScenarioSpec(
        grid=grid,
        timestamps=(0, 100, 200),
        hotspots=(
            Hotspot(
                center=grid.cell_coord(grid.cell_index(2, 3)),
                amplitude=2.0,
                radius_deg=0.3,
                active_intervals=frozenset({0, 1}),
            ),
        ),
        sensors=(GeoCoord(-91.5, 24.2), GeoCoord(-89.3, 26.4)),
        background=10.0,
        background_noise_amplitude=0.2,
        threshold=0.5,
        seed=5,
    )


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    files = generate_scenario(cli_spec(), out)
    return files


def network_args(files):
    return ["--sensors", str(files.catalog_path), "--grids"] + [
        str(p) for p in files.grid_paths
    ]


def run_fresh(args, **env):
    """The CLI in a fresh process, so a warning printed under the default
    filters shows on stderr; `env` adds environment variables."""
    return subprocess.run(
        [sys.executable, "-m", "gstbn.cli", *args],
        env={"PYTHONPATH": str(Path(gstbn.__file__).resolve().parents[1]), **env},
        capture_output=True,
        text=True,
        timeout=60,
    )


def two_cell_inputs(directory, before, after):
    """A 1x2 grid pair going from `before` to `after`, one sensor per cell centre."""
    grid = GridSpec(n_lat=1, n_lon=2, lat0=25.0, d_lat=0.1, lon0=-90.0, d_lon=0.1)
    directory.mkdir()
    for t, values in ((0, before), (10, after)):
        write_grid_snapshot(
            FieldSnapshot(t, ObservationKind.TEMPERATURE, grid, np.array([values])),
            directory / f"temperature-{t}.grid",
        )
    spec = ScenarioSpec(grid=grid, timestamps=(0, 10), sensors=(grid.cell_coord(0), grid.cell_coord(1)))
    write_sensor_catalog(scenario_sensor_nodes(spec), directory / "sensors.csv")
    return ["--sensors", str(directory / "sensors.csv"), "--grids", str(directory)]


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestBuild:
    def test_writes_geojson_per_interval(self, scenario_dir, tmp_path):
        out = tmp_path / "net"
        assert main(["build", *network_args(scenario_dir), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["gstbn-100.geojson", "gstbn-200.geojson"]
        for name in names:
            doc = json.loads((out / name).read_text())
            assert doc["type"] == "FeatureCollection"
            assert doc["features"]

    def test_reruns_byte_identical(self, scenario_dir, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["build", *network_args(scenario_dir), "--out", str(out1)])
        main(["build", *network_args(scenario_dir), "--out", str(out2)])
        assert read_all(out1) == read_all(out2)

    def test_grids_accepts_directory(self, scenario_dir, tmp_path):
        out = tmp_path / "net"
        args = [
            "build",
            "--sensors", str(scenario_dir.catalog_path),
            "--grids", str(scenario_dir.grid_paths[0].parent),
            "--out", str(out),
        ]
        assert main(args) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "gstbn-100.geojson",
            "gstbn-200.geojson",
        ]


class TestScore:
    def test_report_contents(self, scenario_dir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["score", *network_args(scenario_dir), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"coverage", "centrality", "meta"}
        assert doc["meta"]["tool"] == "gstbn"
        assert doc["meta"]["seed"] == 42
        inputs = doc["meta"]["inputs"]
        assert str(scenario_dir.catalog_path) in inputs
        assert len(inputs) == 1 + len(scenario_dir.grid_paths)
        cov = doc["coverage"]
        assert cov["n_timesteps"] == 2
        assert len(cov["per_snapshot"]) == 2
        assert cov["total_temporal_coverage_km"] > 0.0

    def test_rerun_byte_identical(self, scenario_dir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["score", *network_args(scenario_dir), "--out", str(a)])
        main(["score", *network_args(scenario_dir), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threshold_flag_changes_report(self, scenario_dir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["score", *network_args(scenario_dir), "--out", str(a)])
        main([
            "score", *network_args(scenario_dir), "--threshold", "1000000",
            "--out", str(b),
        ])
        doc = json.loads(b.read_text())
        assert doc["coverage"]["total_temporal_coverage_km"] == 0.0
        assert a.read_bytes() != b.read_bytes()


class TestRobustness:
    def test_report_contents(self, scenario_dir, tmp_path):
        out = tmp_path / "rob.json"
        args = ["robustness", *network_args(scenario_dir), "--remove", "1", "--out", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        rob = doc["robustness"]
        assert len(rob["removed_sensor_ids"]) == 1
        assert rob["removed_sensor_ids"][0] in (1, 2)
        assert rob["coverage_after_km"] >= rob["coverage_before_km"]
        assert rob["relative_increase"] >= 0.0

    def test_cannot_remove_all(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "rob.json"
        args = ["robustness", *network_args(scenario_dir), "--remove", "2", "--out", str(out)]
        assert main(args) == 1
        assert "gstbn: error:" in capsys.readouterr().err


class TestOptimize:
    def run(self, scenario_dir, out, extra=()):
        args = [
            "optimize", *network_args(scenario_dir),
            "--trials", "40", "--new-sensors", "1", "--threads", "1",
            "--out", str(out), *extra,
        ]
        return main(args)

    def test_writes_report_and_final_network(self, scenario_dir, tmp_path):
        out = tmp_path / "run.json"
        assert self.run(scenario_dir, out) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run-gstbn-100.geojson", "run-gstbn-200.geojson", "run.json"]
        doc = json.loads(out.read_text())
        placement = doc["placement"]
        assert len(placement["placed"]) == 1
        placed = placement["placed"][0]
        assert set(placed) == {"lon", "lat", "coverage_after_km"}
        assert placed["coverage_after_km"] <= placement["baseline_coverage_km"]
        assert placement["trials_per_sensor"] == 40
        assert placement["seed"] == 42
        # coverage section reflects the network after placement
        assert doc["coverage"]["average_temporal_coverage_km"] == pytest.approx(
            placed["coverage_after_km"]
        )
        # final network geojson contains the new sensor (id 3)
        net_doc = json.loads((tmp_path / "run-gstbn-100.geojson").read_text())
        ids = {
            f["properties"]["id"]
            for f in net_doc["features"]
            if f["properties"].get("node_type") == "sensor"
        }
        assert 3 in ids

    def test_spec_style_invocation(self, scenario_dir, tmp_path):
        # optimize --trials 1000 --seed 42 --new-sensors 2 --out run.json
        out = tmp_path / "run.json"
        args = [
            "optimize", *network_args(scenario_dir),
            "--trials", "1000", "--seed", "42", "--new-sensors", "2",
            "--threads", "1", "--out", str(out),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        placed = doc["placement"]["placed"]
        assert len(placed) == 2
        scores = [doc["placement"]["baseline_coverage_km"]] + [
            p["coverage_after_km"] for p in placed
        ]
        assert scores == sorted(scores, reverse=True)

    def test_trace_csv(self, scenario_dir, tmp_path):
        out = tmp_path / "run.json"
        trace = tmp_path / "trace.csv"
        assert self.run(scenario_dir, out, ("--trace", str(trace))) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "placement,trial_index,lon,lat,score"
        assert len(lines) == 1 + 40
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1"] * 40
        assert [int(r[1]) for r in rows] == list(range(40))
        doc = json.loads(out.read_text())
        best = min(rows, key=lambda r: (float(r[4]), int(r[1])))
        assert float(best[2]) == doc["placement"]["placed"][0]["lon"]
        assert float(best[3]) == doc["placement"]["placed"][0]["lat"]

    def test_threads_do_not_change_bytes(self, scenario_dir, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        out1.mkdir()
        out2.mkdir()
        trace1 = tmp_path / "t1.csv"
        trace2 = tmp_path / "t2.csv"
        self.run(scenario_dir, out1 / "run.json", ("--trace", str(trace1)))
        args = [
            "optimize", *network_args(scenario_dir),
            "--trials", "40", "--new-sensors", "1", "--threads", "4",
            "--out", str(out2 / "run.json"), "--trace", str(trace2),
        ]
        assert main(args) == 0
        assert read_all(out1) == read_all(out2)
        assert trace1.read_bytes() == trace2.read_bytes()

    def test_bbox_override(self, scenario_dir, tmp_path):
        out = tmp_path / "run.json"
        extra = ("--bbox", "-91.0", "-90.0", "24.5", "25.5")
        assert self.run(scenario_dir, out, extra) == 0
        doc = json.loads(out.read_text())
        placed = doc["placement"]["placed"][0]
        assert -91.0 <= placed["lon"] <= -90.0
        assert 24.5 <= placed["lat"] <= 25.5

    def test_bad_bbox_is_domain_error(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "run.json"
        extra = ("--bbox", "-91.0", "-90.0", "80.0", "95.0")
        assert self.run(scenario_dir, out, extra) == 1
        assert "gstbn: error:" in capsys.readouterr().err

    def test_masked_bbox_outside_grid_fails_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # cell 1 is missing in both snapshots, so the default search is masked
        args = two_cell_inputs(tmp_path / "in", [1.0, np.nan], [3.0, np.nan])

        def no_draw(*args):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(gstbn.placement, "_draw", no_draw)
        code = main([
            "optimize", *args, "--bbox", "10", "20", "30", "40",
            "--out", str(tmp_path / "run.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "gstbn: error: search box lon [10.0, 20.0] lat [30.0, 40.0] overlaps no admissible cell"
        ]


    def test_trials_past_memory_end_as_a_domain_error(self, scenario_dir, tmp_path, monkeypatch, capsys):
        # numpy's own message for 10**12 draws; no array that large is ever requested
        def out_of_memory(domain, seed, trials):
            raise MemoryError(
                f"Unable to allocate 21.8 TiB for an array with shape ({trials}, 3)"
                " and data type float64"
            )

        monkeypatch.setattr(gstbn.placement, "_draw", out_of_memory)
        out = tmp_path / "run.json"
        code = main([
            "optimize", *network_args(scenario_dir), "--trials", "1000000000000",
            "--out", str(out),
        ])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "gstbn: error: cannot draw 1000000000000 trials at once: Unable to allocate"
            " 21.8 TiB for an array with shape (1000000000000, 3) and data type float64"
        ]


    def test_masked_sliver_bbox_places_every_trial(self, tmp_path):
        # cell 1 is missing in both snapshots, so only cell 0, lon
        # [-90.05, -89.95], is admissible; the box overlaps it by 1e-7 deg,
        # 1e-6 of the box's area
        args = two_cell_inputs(tmp_path / "in", [1.0, np.nan], [3.0, np.nan])
        out = tmp_path / "run.json"
        code = main([
            "optimize", *args, "--trials", "5", "--bbox", "-89.9500001", "-89.85", "24.95", "25.05",
            "--out", str(out),
        ])
        assert code == 0
        placed = json.loads(out.read_text())["placement"]["placed"][0]
        assert -89.9500001 <= placed["lon"] <= -89.95


@pytest.fixture(scope="module")
def tiled_dir(tmp_path_factory):
    """A 16x16 scenario with five hotspots over both variables, a NaN land
    block (so the default search is masked) and single-variable sensors (so
    strict matching links differently): its RoIs fill several tiles."""
    out = tmp_path_factory.mktemp("tiled")
    grid = make_grid(n_lat=16, n_lon=16)
    kinds = (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)
    spec = ScenarioSpec(
        grid=grid,
        timestamps=(0, 100, 200, 300),
        hotspots=tuple(
            Hotspot(
                center=grid.cell_coord(grid.cell_index(i, j)),
                amplitude=2.0,
                radius_deg=0.8,
                active_intervals=frozenset({k % 3, (k + 1) % 3}),
                variable=kinds[k % 2],
            )
            for k, (i, j) in enumerate([(2, 3), (3, 12), (8, 8), (13, 2), (12, 13)])
        ),
        sensors=tuple(
            GeoCoord(lon, lat) for lon in (-91.5, -89.0, -86.5) for lat in (24.5, 27.0, 29.5)
        ),
        variables=kinds,
        background=10.0,
        background_noise_amplitude=0.2,
        seed=9,
    )
    for snaps in scenario_field_series(spec).values():
        for snap in snaps:
            snap.values[10:, 5:9] = np.nan
            write_grid_snapshot(snap, out / f"{snap.variable.value}-{snap.timestamp}.grid")
    sensors = scenario_sensor_nodes(spec)
    for k in (2, 4):
        sensors[k] = replace(sensors[k], observations=frozenset({ObservationKind.SALINITY}))
    write_sensor_catalog(sensors, out / "sensors.csv")
    return out


def tiled_args(tiled_dir):
    return ["--sensors", str(tiled_dir / "sensors.csv"), "--grids", str(tiled_dir)]


class TestReadsEachInputOnce:
    def test_score_reads_each_input_once(self, tiled_dir, tmp_path, monkeypatch):
        inputs = [tiled_dir / "sensors.csv", *sorted(tiled_dir.glob("*.grid"))]
        opened = Counter()
        path_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            if "r" in mode:
                opened[str(self)] += 1
            return path_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        out = tmp_path / "report.json"
        assert main(["score", *tiled_args(tiled_dir), "--out", str(out)]) == 0
        assert opened == Counter(map(str, inputs))
        monkeypatch.undo()
        # the digests come from the bytes the parsers read
        digests = json.loads(out.read_text())["meta"]["inputs"]
        assert digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}


class TestMetamorphic:
    """Relations of the determinism contract: an input change that must not
    change the outputs, or must change only the named bytes."""

    def test_grid_path_order_does_not_change_the_bytes(self, tiled_dir, tmp_path):
        grids = sorted(tiled_dir.glob("*.grid"))
        outputs = []
        for name, grid_args in (("dir", [tiled_dir]), ("reversed", grids[::-1])):
            args = ["--sensors", str(tiled_dir / "sensors.csv"), "--grids", *map(str, grid_args)]
            report = tmp_path / f"{name}.json"
            assert main(["score", *args, "--out", str(report)]) == 0
            assert main(["build", *args, "--out", str(tmp_path / name)]) == 0
            outputs.append((report.read_bytes(), read_all(tmp_path / name)))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 3

    @pytest.mark.parametrize(
        "command", [["score"], ["optimize", "--trials", "200"]], ids=["score", "optimize"]
    )
    def test_catalog_row_order_changes_only_its_digest(self, tiled_dir, tmp_path, command):
        header, *rows = (tiled_dir / "sensors.csv").read_bytes().splitlines(keepends=True)
        order = np.random.default_rng(11).permutation(len(rows))
        catalog = tmp_path / "sensors.csv"
        outputs = []
        # one path for both catalogs, so that only the digest can tell them apart
        for texts in (rows, [rows[k] for k in order]):
            catalog.write_bytes(header + b"".join(texts))
            run = tmp_path / f"run-{len(outputs)}"
            run.mkdir()
            args = [*command, "--sensors", str(catalog), "--grids", str(tiled_dir)]
            assert main([*args, "--out", str(run / "report.json")]) == 0
            outputs.append((hashlib.sha256(catalog.read_bytes()).hexdigest(), read_all(run)))
        (before, want), (after, got) = outputs
        assert before != after and list(order) != sorted(order)
        assert want["report.json"].count(before.encode()) == 1
        want["report.json"] = want["report.json"].replace(before.encode(), after.encode())
        assert got == want

    def test_an_inactive_sensor_changes_only_the_catalog_digest(self, tiled_dir, tmp_path):
        text = (tiled_dir / "sensors.csv").read_bytes()
        fresh = max(s.id for s in parse_sensor_catalog(tiled_dir / "sensors.csv")) + 1
        # at the centre hotspot, where it would link RoIs if it were active
        row = f"{fresh},federal,synthetic,idle,stationary,28.0,-88.0,inactive,\n".encode()
        catalog = tmp_path / "sensors.csv"
        outputs = []
        for catalog_bytes in (text, text + row):
            catalog.write_bytes(catalog_bytes)
            run = tmp_path / f"run-{len(outputs)}"
            args = ["--sensors", str(catalog), "--grids", str(tiled_dir)]
            assert main(["score", *args, "--out", str(run / "report.json")]) == 0
            assert main(["build", *args, "--out", str(run / "net")]) == 0
            digest = hashlib.sha256(catalog_bytes).hexdigest().encode()
            outputs.append((digest, (run / "report.json").read_bytes(), read_all(run / "net")))
        (before, report, net), (after, got_report, got_net) = outputs
        assert len(parse_sensor_catalog(catalog)) == fresh
        assert report.count(before) == 1
        assert got_report == report.replace(before, after)
        assert got_net == net and len(net) == 3

    def test_a_smaller_trial_budget_writes_a_prefix_of_the_trace(self, tiled_dir, tmp_path):
        traces = []
        for trials in ("100", "200"):
            trace = tmp_path / f"trace-{trials}.csv"
            assert main([
                "optimize", *tiled_args(tiled_dir), "--new-sensors", "1", "--trials", trials,
                "--trace", str(trace), "--out", str(tmp_path / f"run-{trials}.json"),
            ]) == 0
            traces.append(trace.read_text().splitlines(keepends=True))
        short, long = traces
        assert len(short) == 101 and len(long) == 201
        assert short == long[:101]

    def test_the_hash_seed_does_not_change_the_bytes(self, tiled_dir, tmp_path):
        outputs = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / hash_seed
            proc = run_fresh([
                "optimize", *tiled_args(tiled_dir), "--new-sensors", "2", "--trials", "100",
                "--trace", str(out / "trace.csv"), "--out", str(out / "run.json"),
            ], PYTHONHASHSEED=hash_seed)
            assert (proc.returncode, proc.stderr) == (0, "")
            outputs.append(read_all(out))
        assert outputs[0] == outputs[1]
        assert {"run.json", "trace.csv"} < outputs[0].keys()


class TestNoPerRoiObjects:
    """The CLI path reads the RoI table's arrays, so the node and coordinate
    objects it makes scale with the sensors and placements, not with the
    RoIs. The test counts constructor calls, not time."""

    @pytest.mark.parametrize(
        "command, placements",
        [(["optimize", "--new-sensors", "2", "--trials", "50"], 2),
         (["robustness", "--remove", "2"], 0)],
        ids=["optimize", "robustness"],
    )
    def test_objects_do_not_grow_with_the_rois(
        self, tiled_dir, tmp_path, monkeypatch, command, placements
    ):
        grids = sorted(tiled_dir.glob("*.grid"))
        catalog = parse_sensor_catalog(tiled_dir / "sensors.csv")
        # two corner checks per grid file and two for the search domain
        bound = len(catalog) + placements + 2 * len(grids) + 2
        rois = len(build_temporal_gstbn(parse_grid_series(grids), catalog).roi_table)
        assert rois > 2 * bound  # so a per-RoI object would break the bound

        # a per-RoI object of any kind holds an RoI's GeoCoord, so counting those catches it
        calls = Counter()
        init = GeoCoord.__init__

        def counting(self, *args, **kwargs):
            calls["GeoCoord"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeoCoord, "__init__", counting)
        out = tmp_path / "report.json"
        assert main([*command, *tiled_args(tiled_dir), "--out", str(out)]) == 0
        assert calls["GeoCoord"] <= bound


class TestPrunedScoring:
    """Trial scoring computes distances only for the tiles whose bound
    keeps them; with the bound off, every tile kept, optimize writes the
    same report, trace and GeoJSON bytes."""

    def run(self, tiled_dir, out, extra):
        assert main([
            "optimize", "--sensors", str(tiled_dir / "sensors.csv"), "--grids", str(tiled_dir),
            "--trials", "150", "--new-sensors", "2", "--seed", "4",
            "--trace", str(out / "trace.csv"), "--out", str(out / "run.json"), *extra,
        ]) == 0
        return read_all(out)

    @pytest.mark.parametrize(
        "extra",
        [(), ("--bbox", "-90.5", "-86", "25", "30"), ("--unmasked-search",),
         ("--strict-observations",)],
        ids=["masked", "bbox", "unmasked", "strict"],
    )
    def test_bound_off_gives_the_same_bytes(self, tiled_dir, tmp_path, monkeypatch, extra):
        (tmp_path / "pruned").mkdir()
        (tmp_path / "full").mkdir()
        pruned = self.run(tiled_dir, tmp_path / "pruned", extra)

        # the comparison means something: the bound rules out a good share
        # of the (candidate, tile) pairs of the first placement's trials
        series = parse_grid_series(sorted(tiled_dir.glob("*.grid")))
        tiles = build_temporal_gstbn(series, parse_sensor_catalog(tiled_dir / "sensors.csv"))._tiles
        rows = [line.split(",") for line in pruned["trace.csv"].decode().splitlines()[1:151]]
        lon, lat = np.array([[float(r[2]), float(r[3])] for r in rows]).T
        near = haversine_km(tiles.lon, tiles.lat, lon[:, None], lat[:, None])
        assert len(tiles.start) > 1 and (near > tiles.reach).mean() > 0.25

        bounded = network.TemporalGstbn._tiles.func

        def unbounded(net):
            tiles = bounded(net)
            return tiles._replace(reach=np.full_like(tiles.reach, np.inf))

        monkeypatch.setattr(network.TemporalGstbn, "_tiles", property(unbounded))
        assert self.run(tiled_dir, tmp_path / "full", extra) == pruned


class TestGeojsonFiles:
    """Every GeoJSON file a command writes is in canonical form and parses to
    `export_geojson` of the network that command built."""

    def check(self, directory, prefix, net):
        paths = sorted(directory.glob("*.geojson"))
        assert [p.name for p in paths] == sorted(
            f"{prefix}-{s.timestamp}.geojson" for s in net.snapshots
        )
        for snap in net.snapshots:
            text = (directory / f"{prefix}-{snap.timestamp}.geojson").read_text(encoding="utf-8")
            assert text == dump_json(json.loads(text))
            assert json.loads(text) == export_geojson(net, snap.timestamp)

    def network(self, files, **kwargs):
        series = parse_grid_series(files.grid_paths)
        return build_temporal_gstbn(series, parse_sensor_catalog(files.catalog_path), **kwargs)

    @pytest.mark.parametrize("strict", [False, True])
    def test_build(self, scenario_dir, tmp_path, strict):
        flags = ["--strict-observations"] if strict else []
        out = tmp_path / "net"
        assert main(["build", *network_args(scenario_dir), *flags, "--out", str(out)]) == 0
        self.check(out, "gstbn", self.network(scenario_dir, strict_observations=strict))

    def test_optimize(self, scenario_dir, tmp_path):
        args = ["--trials", "40", "--new-sensors", "2", "--seed", "3"]
        assert main(["optimize", *network_args(scenario_dir), *args,
                     "--out", str(tmp_path / "run.json")]) == 0
        domain = SearchDomain.from_grid(cli_spec().grid)
        result = place_sequential(self.network(scenario_dir), domain, 2, 40, 3)
        self.check(tmp_path, "run-gstbn", result.network)


class TestFreshProcess:
    """`python -m gstbn.cli` enters through main() with no argv, which
    freezes the import heap; the files it writes are main(argv)'s."""

    @pytest.mark.parametrize("command", [
        ["build", "--out", "{out}"],
        ["score", "--out", "{out}/report.json"],
        ["score", "--strict-observations", "--out", "{out}/report.json"],
        ["robustness", "--remove", "1", "--out", "{out}/report.json"],  # of its 2 sensors
        ["optimize", "--trials", "20", "--trace", "{out}/trace.csv", "--out", "{out}/report.json"],
    ])
    def test_writes_what_main_writes(self, command, scenario_dir, tmp_path):
        def argv(out):
            return [command[0], *network_args(scenario_dir),
                    *(a.format(out=out) for a in command[1:])]

        fresh, in_process = tmp_path / "fresh", tmp_path / "in-process"
        proc = run_fresh(argv(fresh))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(argv(in_process)) == 0
        assert read_all(fresh) == read_all(in_process)


class TestSynthCommand:
    def test_fresh_process_writes_the_scenario(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(scenario_spec_to_dict(cli_spec())))
        proc = run_fresh(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "fresh")])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "in-process")]) == 0
        written = read_all(tmp_path / "fresh")
        assert {"sensors.csv", "manifest.json"} <= written.keys()
        assert written == read_all(tmp_path / "in-process")

    def test_generates_buildable_scenario(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(scenario_spec_to_dict(cli_spec())))
        out = tmp_path / "scene"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "sensors.csv").exists()
        assert (out / "manifest.json").exists()
        grids = sorted(out.glob("*.grid"))
        assert len(grids) == 3
        net_out = tmp_path / "net"
        args = [
            "build",
            "--sensors", str(out / "sensors.csv"),
            "--grids", str(out),
            "--out", str(net_out),
        ]
        assert main(args) == 0

    def test_bad_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 1
        assert "gstbn: error:" in capsys.readouterr().err


class TestErrorsAndUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, scenario_dir):
        with pytest.raises(SystemExit) as exc:
            main(["score", *network_args(scenario_dir), "--out", "x", "--wat"])
        assert exc.value.code == 2

    def test_build_takes_no_seed(self, scenario_dir, tmp_path):
        # build writes no report, so there is nothing a seed could change
        with pytest.raises(SystemExit) as exc:
            main(["build", *network_args(scenario_dir), "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_zero_trials_exits_2(self, scenario_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "optimize", *network_args(scenario_dir),
                "--trials", "0", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_negative_threshold_exits_2(self, scenario_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "score", *network_args(scenario_dir),
                "--threshold", "-1", "--out", str(tmp_path / "o.json"),
            ])
        assert exc.value.code == 2

    def test_missing_catalog_is_domain_error(self, scenario_dir, tmp_path, capsys):
        args = [
            "score",
            "--sensors", str(tmp_path / "absent.csv"),
            "--grids", str(scenario_dir.grid_paths[0].parent),
            "--out", str(tmp_path / "o.json"),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("gstbn: error:")

    def test_empty_grid_dir_is_domain_error(self, scenario_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        args = [
            "score",
            "--sensors", str(scenario_dir.catalog_path),
            "--grids", str(empty),
            "--out", str(tmp_path / "o.json"),
        ]
        assert main(args) == 1
        assert "gstbn: error:" in capsys.readouterr().err

    def test_console_script_registered(self):
        # the declaration an install turns into the `gstbn` command
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        (target,) = [
            value.strip().strip('"')
            for key, _, value in (ln.partition("=") for ln in section.splitlines())
            if key.strip() == "gstbn"
        ]
        assert target == "gstbn.cli:main"
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        # and, where the distribution is installed, the registered entry point
        installed = entry_points(group="console_scripts", name="gstbn")
        if installed:
            (ep,) = installed
            assert ep.load() is main

    @staticmethod
    def copy_inputs(scenario_dir, tmp_path):
        catalog = tmp_path / "sensors.csv"
        catalog.write_bytes(scenario_dir.catalog_path.read_bytes())
        grids = []
        for p in scenario_dir.grid_paths:
            grids.append(tmp_path / p.name)
            grids[-1].write_bytes(p.read_bytes())
        args = [
            "score", "--sensors", str(catalog), "--grids", *map(str, grids),
            "--out", str(tmp_path / "o.json"),
        ]
        return catalog, grids, args

    @pytest.mark.parametrize("target", ["catalog", "grid"])
    def test_non_utf8_input_is_domain_error(self, scenario_dir, tmp_path, capsys, target):
        catalog, grids, args = self.copy_inputs(scenario_dir, tmp_path)
        bad = catalog if target == "catalog" else grids[1]
        lines = bad.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("gstbn: error:")
        # a grid file is ASCII, and the byte is a fault of the header line that holds it
        assert f"{bad}:2: {'not UTF-8' if target == 'catalog' else 'bad byte 0xff'}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, reason",
        [
            (b"a\rb", "new-line character seen in unquoted field"),
            (b"x" * 131_073, "field larger than field limit"),
        ],
        ids=["bare-cr", "long-field"],
    )
    def test_csv_syntax_error_is_domain_error(
        self, scenario_dir, tmp_path, capsys, field, reason
    ):
        catalog, _, args = self.copy_inputs(scenario_dir, tmp_path)
        lines = catalog.read_bytes().split(b"\n")
        cells = lines[1].split(b",")
        cells[2] = field  # data_source
        lines[1] = b",".join(cells)
        catalog.write_bytes(b"\n".join(lines))
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gstbn: error: {catalog}:2: bad CSV: {reason}")
        assert "Traceback" not in err

    def test_blank_grid_body_reports_one_error_line(self, scenario_dir, tmp_path):
        _, grids, args = self.copy_inputs(scenario_dir, tmp_path)
        header = grids[0].read_text(encoding="utf-8").splitlines()[:3]
        grids[0].write_text("\n".join(header) + "\n" * 7, encoding="utf-8")
        proc = run_fresh(args)
        assert proc.returncode == 1
        assert proc.stderr == f"gstbn: error: {grids[0]}:4: expected 6 values, got 0\n"


class TestNonFiniteNumbers:
    """Numbers past the float range end as one error line, and no report
    holds a token that is not RFC 8259 JSON."""

    def test_overflowing_grid_pair_reports_one_error_line(self, tmp_path):
        args = two_cell_inputs(tmp_path / "in", [1e200, 0.0], [-1e200, 1.0])
        proc = run_fresh(["build", *args, "--out", str(tmp_path / "net")])
        assert proc.returncode == 1
        assert proc.stderr == (
            "gstbn: error: temperature squared change over interval 0-10 "
            "is not finite at cell 0\n"
        )
        assert not (tmp_path / "net").exists()

    def test_overflowing_synth_spec_reports_one_error_line(self, tmp_path):
        doc = scenario_spec_to_dict(cli_spec())
        doc["hotspots"][0]["amplitude"] = 1e200
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_fresh(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("gstbn: error: temperature hotspot amplitudes too large")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    @pytest.mark.parametrize("value", [float("inf"), 2.7], ids=["inf", "fraction"])
    @pytest.mark.parametrize(
        "field", ["seed", "timestamps", "grid.n_lat", "grid.n_lon", "active_intervals"]
    )
    def test_non_integral_synth_field_reports_one_error_line(self, tmp_path, field, value):
        doc = scenario_spec_to_dict(cli_spec())
        if field == "timestamps":
            doc["timestamps"][-1] = value
        elif field == "active_intervals":
            doc["hotspots"][0]["active_intervals"][-1] = value
        elif field.startswith("grid."):
            doc["grid"][field.removeprefix("grid.")] = value
        else:
            doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_fresh(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"gstbn: error: bad scenario spec: {field}: expected an integer, got {value}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["huge-integer", "deep-nesting"])
    def test_unreadable_synth_spec_reports_one_error_line(self, tmp_path, case):
        spec = tmp_path / "spec.json"
        if case == "huge-integer":  # past the float range
            doc = scenario_spec_to_dict(cli_spec())
            doc["grid"]["lat0"] = 10**400
            spec.write_text(json.dumps(doc), encoding="utf-8")
            message = "bad scenario spec: int too large to convert to float"
        else:
            spec.write_text('{"grid": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
            message = f"{spec}: bad JSON: nested too deeply"
        proc = run_fresh(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == f"gstbn: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_relative_increase_is_null(self, tmp_path):
        # every RoI sits on a sensor, so coverage goes from 0 to positive
        args = two_cell_inputs(tmp_path / "in", [0.0, 0.0], [1.0, 1.0])
        out = tmp_path / "report.json"
        assert main(["robustness", *args, "--remove", "1", "--out", str(out)]) == 0

        def refuse(token):
            raise AssertionError(f"report holds {token}")

        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        assert report["robustness"]["coverage_before_km"] == 0.0
        assert report["robustness"]["coverage_after_km"] > 0.0
        assert report["robustness"]["relative_increase"] is None


class TestInt64Ids:
    """Sensor ids go into int64 arrays, so one outside that range ends as
    one error line, whether the catalog holds it or placement would mint it."""

    @staticmethod
    def catalog_with_last_id(scenario_dir, tmp_path, sid):
        lines = scenario_dir.catalog_path.read_text(encoding="utf-8").splitlines()
        lines[-1] = f"{sid},{lines[-1].partition(',')[2]}"
        catalog = tmp_path / "sensors.csv"
        catalog.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["--sensors", str(catalog), "--grids", *map(str, scenario_dir.grid_paths)]
        return catalog, len(lines), args

    def test_catalog_id_past_int64(self, scenario_dir, tmp_path):
        catalog, line, args = self.catalog_with_last_id(scenario_dir, tmp_path, 2**63)
        proc = run_fresh(["score", *args, "--out", str(tmp_path / "o.json")])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"gstbn: error: {catalog}:{line}: sensor id must be in [0, 2**63-1], got {2**63}\n"
        )

    def test_fresh_id_past_int64(self, scenario_dir, tmp_path):
        _, _, args = self.catalog_with_last_id(scenario_dir, tmp_path, 2**63 - 1)
        proc = run_fresh(["optimize", *args, "--trials", "5", "--out", str(tmp_path / "o.json")])
        assert proc.returncode == 1
        assert proc.stderr == (
            "gstbn: error: no fresh sensor id left for 1 new sensor(s): the catalog's largest"
            f" id is {2**63 - 1}, and ids stop at 2**63-1\n"
        )

    @pytest.mark.parametrize("top, new_sensors", [(2**63 - 1, 1), (2**63 - 2, 2)])
    def test_no_fresh_id_fails_before_any_trial(
        self, scenario_dir, tmp_path, monkeypatch, capsys, top, new_sensors
    ):
        def refuse(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(placement, "_draw", refuse)
        _, _, args = self.catalog_with_last_id(scenario_dir, tmp_path, top)
        out = tmp_path / "o.json"
        code = main(["optimize", *args, "--new-sensors", str(new_sensors), "--out", str(out)])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"gstbn: error: no fresh sensor id left for {new_sensors} new")
        assert err.count("\n") == 1
