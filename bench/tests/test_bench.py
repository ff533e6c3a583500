"""Tests of the benchmark itself: run them with `python3 -m pytest bench/tests`."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import scenario
import tracing
from conftest import BENCH, ROOT
from gstbn.cli import main as gstbn_main


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_correctly(trace):
    proc = bench("--workload", "all", "--smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    per_workload, final = lines[:-1], lines[-1]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 6
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert len(per_workload) == len(run.WORKLOADS)
    for result in per_workload:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name][0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "grid-large", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        n: w.why for n, w in run.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    spec = scenario.load_spec("tiny")
    a = scenario.generate(spec, 5, tmp_path / "a")
    b = scenario.generate(spec, 5, tmp_path / "b")
    c = scenario.generate(spec, 6, tmp_path / "c")
    for pa, pb, pc in zip((a.catalog, *a.grids), (b.catalog, *b.grids), (c.catalog, *c.grids)):
        assert pa.read_bytes() == pb.read_bytes() != pc.read_bytes()
    assert "NaN" in a.grids[0].read_text()


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Each workload's command run once on the tiny spec, with its expectation."""
    base = tmp_path_factory.mktemp("tiny")
    sc = scenario.generate(scenario.load_spec("tiny"), 2, base / "scenario")
    exp = checks.expect(sc)
    done = {}
    for name, wl in run.WORKLOADS.items():
        wl = dataclasses.replace(wl, trials=min(wl.trials, 10))
        out = base / name
        out.mkdir()
        assert gstbn_main(run.cli_args(wl, sc, out, 2)) == 0
        done[name] = (wl, out)
    return exp, done


def test_checks_pass_real_outputs(tiny_outputs):
    exp, done = tiny_outputs
    for wl, out in done.values():
        assert checks.check_outputs(wl, out, exp) == []


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("grid-large", lambda r: r["coverage"].update(total_temporal_coverage_km=1.0),
         "total coverage"),
        ("grid-large", lambda r: r["centrality"]["static_per_snapshot"].popitem(), "malformed"),
        ("relink-medium", lambda r: r["robustness"].update(coverage_after_km=0.0), "fell"),
        ("search-medium", lambda r: r["placement"]["placed"][0].update(coverage_after_km=1e9),
         "placed coverages"),
    ],
)
def test_checks_catch_broken_reports(tiny_outputs, tmp_path, name, edit, message):
    exp, done = tiny_outputs
    wl, out = done[name]
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    report = json.loads((broken / "report.json").read_text())
    edit(report)
    (broken / "report.json").write_text(json.dumps(report))
    assert any(message in p for p in checks.check_outputs(wl, broken, exp))


def test_checks_catch_wrong_counts_and_changed_bytes(tiny_outputs, tmp_path):
    exp, done = tiny_outputs
    wl, out = done["grid-large"]
    off = dataclasses.replace(exp, edges=tuple(n + 1 for n in exp.edges))
    assert any("edges per snapshot" in p for p in checks.check_outputs(wl, out, off))

    outputs = run.Outputs(wl, exp)
    assert outputs.problems(out, 0) == []
    changed = tmp_path / "out"
    shutil.copytree(out, changed)
    (changed / "report.json").write_text((out / "report.json").read_text() + " ")
    assert any("differ" in p for p in outputs.problems(changed, 0))
    assert outputs.problems(out, 1) != []


def test_tracer_totals_and_self_times():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["network.build", 0.0, 10.0, None],
        ["network.link", 1.0, 4.0, 0],
        ["network.link", 5.0, 6.0, 0],
        ["metrics.centrality", 11.0, 14.0, None],
        ["metrics.centrality", 12.0, 13.0, 3],
    ]
    assert tracer.total("network.build") == 10.0
    assert tracer.total("network.link") == 4.0
    assert tracer.self_time("network.build") == 6.0
    assert tracer.total("metrics.centrality") == 3.0
    assert tracer.total("placement.place") == 0.0


def test_tracer_restores_every_patched_function():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())


def test_admit_ratio_is_the_admitted_share_of_the_box():
    import numpy as np
    from gstbn.field import GridSpec
    from gstbn.placement import SearchDomain

    grid = GridSpec(n_lat=4, n_lon=5, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
    mask = np.ones(grid.shape, dtype=bool)
    mask[0, :] = False
    assert run.admit_ratio(SearchDomain.from_grid(grid, mask)) == pytest.approx(0.75)
    assert run.admit_ratio(SearchDomain.from_grid(grid)) == 1.0
