import importlib
import json
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import gstbn
from gstbn.cli import main
from gstbn.geo import GeoCoord
from gstbn.synth import Hotspot, ScenarioSpec, generate_scenario, scenario_spec_to_dict
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


class TestSynthCommand:
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
        assert f"{bad}:2: not UTF-8" in err
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
        # a fresh process, so a warning printed under the default filters shows
        _, grids, args = self.copy_inputs(scenario_dir, tmp_path)
        header = grids[0].read_text(encoding="utf-8").splitlines()[:3]
        grids[0].write_text("\n".join(header) + "\n" * 7, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gstbn.cli", *args],
            env={"PYTHONPATH": str(Path(gstbn.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"gstbn: error: {grids[0]}:4: expected 6 values, got 0\n"
