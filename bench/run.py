"""gstbn benchmark: three CLI workloads, end-to-end and layer by layer.

Run from the root of a gstbn checkout; the package is imported from its
``src`` directory and nowhere else:

    python3 bench/run.py --workload grid-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --seconds 1 --trace 1

``--trace 0`` runs the workload's command in fresh processes, one at a time
from one client (a closed loop), and reports wall clock, CPU, peak memory
and import time. ``--trace 1`` runs the same command in process through
``gstbn.cli.main``, once untraced and once with spans around every layer
call, and reports the per-layer metrics. Either way every output is
checked, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
record (machine, versions, counts, samples, spans) goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict, dataclass, replace
from importlib import metadata
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Workload:
    spec: str
    subcommand: str
    why: str
    remove: int = 0
    new_sensors: int = 0
    trials: int = 0
    probe_trials: int = 100


WORKLOADS = {
    "grid-large": Workload(
        spec="large",
        subcommand="score",
        why="52 MB of grids, 225 RoIs, 200 sensors: isolates ingest (parse and input hashing); "
        "linking and placement do almost nothing",
    ),
    "relink-medium": Workload(
        spec="medium",
        subcommand="robustness",
        remove=3,
        why="2,600 RoIs relinked four times: isolates network linking and metrics; "
        "placement does nothing",
    ),
    "search-medium": Workload(
        spec="medium",
        subcommand="optimize",
        new_sensors=2,
        trials=500,
        why="1,000 masked Monte Carlo trials over a pool: isolates placement, "
        "add_sensor and GeoJSON writing",
    ),
}
SMOKE_SPEC = "tiny"
SMOKE_TRIALS = 20
DISTANCE_PAIRS = 20_000
MIN_SAMPLES = 2
IMPORTS_PER_COMMAND = 1
COMMAND_TIMEOUT_S = 120.0

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# span totals: metric -> span name
SPAN_TOTALS = {
    "ingest.parse_grids_s": "ingest.parse_grids",
    "ingest.parse_catalog_s": "ingest.parse_catalog",
    "ingest.report_s": "ingest.report",
    "ingest.export_geojson_s": "ingest.export_geojson",
    "ingest.dump_json_s": "ingest.dump_json",
    "field.residual_s": "field.residual",
    "field.extract_s": "field.extract",
    "network.build_s": "network.build",
    "network.link_s": "network.link",
    "network.add_sensor_s": "network.add_sensor",
    "network.remove_sensor_s": "network.remove_sensor",
    "metrics.coverage_s": "metrics.coverage",
    "metrics.centrality_s": "metrics.centrality",
    "metrics.robustness_s": "metrics.robustness",
    "placement.place_s": "placement.place",
}
PER_LAYER = {
    **{name: ("s", "lower") for name in SPAN_TOTALS},
    "network.build_self_s": ("s", "lower"),
    "ingest.bytes_read": ("bytes", "lower"),
    "ingest.bytes_written": ("bytes", "lower"),
    "ingest.cells": ("count", "lower"),
    "field.valid_cells": ("count", "lower"),
    "field.events": ("count", "lower"),
    "network.rois": ("count", "lower"),
    "network.edges": ("count", "lower"),
    "network.sensors": ("count", "lower"),
    "placement.trials": ("count", "lower"),
    "geo.distance_us": ("us", "lower"),
    "placement.trial_ms": ("ms", "lower"),
    "placement.pool_speedup": ("ratio", "higher"),
    "placement.mask_admit_ratio": ("ratio", "higher"),
    "cli.main_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
COUNTS = ("ingest.bytes_read", "ingest.cells", "field.valid_cells", "field.events",
          "network.rois", "network.edges", "network.sensors", "placement.trials")


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def cli_args(wl: Workload, sc, out: Path, seed: int) -> list[str]:
    args = [wl.subcommand, "--sensors", str(sc.catalog), "--grids", str(sc.catalog.parent),
            "--seed", str(seed), "--out", str(out / "report.json")]
    if wl.subcommand == "robustness":
        args += ["--remove", str(wl.remove)]
    if wl.subcommand == "optimize":
        args += ["--new-sensors", str(wl.new_sensors), "--trials", str(wl.trials),
                 "--threads", str(workers()), "--trace", str(out / "trace.csv")]
    return args


def reset(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def high_percentile(xs):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    ranked = sorted(xs)
    return p, ranked[max(0, -(-p * n // 100) - 1)]


class Outputs:
    """Checks each distinct output once; flags outputs that differ between runs."""

    def __init__(self, workload: Workload, expected):
        self.workload = workload
        self.expected = expected
        self.first: str | None = None
        self.verdicts: dict[str, list[str]] = {}

    def problems(self, out: Path, code: int, stderr: str = "") -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-400:]}"]
        import checks

        d = digest(out)
        if d not in self.verdicts:
            self.verdicts[d] = checks.check_outputs(self.workload, out, self.expected)
        self.first = self.first or d
        found = list(self.verdicts[d])
        if d != self.first:
            found.append("output bytes differ from the first run with the same seed")
        return found


# -- fresh-process measurement -------------------------------------------


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_timed(argv: list[str], env: dict, log: Path) -> Sample:
    """One process, timed from spawn to exit; CPU and peak RSS include its
    children (the placement pool), which it waits for before exiting."""
    with open(log, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                  proc.returncode, stderr)


def measure_e2e(wl, sc, work: Path, seed: int, seconds: float, outputs: Outputs):
    env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
    out, log = work / "out", work / "stderr.txt"
    command = [sys.executable, "-m", "gstbn.cli", *cli_args(wl, sc, out, seed)]
    probe = [sys.executable, "-c", "import gstbn"]
    warm = run_timed(probe, env, log)  # compiles bytecode once, as an install would
    imports, samples, problems = [], [], []
    import_failures = [warm.stderr[-400:]] if warm.code else []
    t0 = perf_counter()
    while True:
        for _ in range(IMPORTS_PER_COMMAND):
            s = run_timed(probe, env, log)
            imports.append(s.wall_s)
            if s.code:
                import_failures.append(s.stderr[-400:])
        reset(out)
        s = run_timed(command, env, log)
        samples.append(s)
        problems.append(outputs.problems(out, s.code, s.stderr))
        elapsed = perf_counter() - t0
        if len(samples) >= MIN_SAMPLES and elapsed * (1 + 1 / len(samples)) > seconds:
            break
    metrics = {
        "wall_s": statistics.median([s.wall_s for s in samples]),
        "cpu_s": statistics.median([s.cpu_s for s in samples]),
        "peak_rss_mb": statistics.median([s.peak_rss_mb for s in samples]),
        "setup_s": statistics.median(imports),
    }
    detail = {
        "command": ["gstbn", *command[3:]],
        "samples": [asdict(s) | {"stderr": s.stderr[-400:]} for s in samples],
        "imports_s": imports,
        "import_failures": import_failures,
        "problems": problems,
    }
    failed = sum(1 for p in problems if p)
    return metrics, len(samples), failed, not import_failures, detail


# -- traced in-process run -----------------------------------------------


def search_domain(series):
    """The domain `gstbn optimize` searches by default: the grid footprint
    without any cell that misses data in some snapshot."""
    import numpy as np
    from gstbn.placement import SearchDomain

    snaps = [s for kind in series.values() for s in kind]
    valid = np.logical_and.reduce([s.valid for s in snaps])
    return SearchDomain.from_grid(snaps[0].grid, valid)


def admit_ratio(dom) -> float:
    """Admissible share of the search box's area (computed, not sampled):
    the expected number of accepted candidates per uniform draw."""
    import numpy as np

    if dom.mask is None:
        return 1.0
    g = dom.mask_grid
    lat = g.lat0 + np.arange(g.n_lat) * g.d_lat
    lon = g.lon0 + np.arange(g.n_lon) * g.d_lon
    h = np.clip(lat + g.d_lat / 2, dom.lat_min, dom.lat_max) - np.clip(
        lat - g.d_lat / 2, dom.lat_min, dom.lat_max)
    w = np.clip(lon + g.d_lon / 2, dom.lon_min, dom.lon_max) - np.clip(
        lon - g.d_lon / 2, dom.lon_min, dom.lon_max)
    admitted = float((np.outer(h, w) * dom.mask).sum())
    return admitted / ((dom.lat_max - dom.lat_min) * (dom.lon_max - dom.lon_min))


def probe_layers(tracer, sc, seed: int, trials: int) -> dict:
    """Exercise, on the command's own network, each layer the command did
    not call, then time the per-unit probes every workload shares."""
    import numpy as np
    from gstbn import geo, ingest, metrics, network, placement

    series = tracer.results.get("ingest.parse_grids") or ingest.parse_grid_series(sorted(sc.grids))
    net = tracer.results.get("network.build") or network.build_temporal_gstbn(
        series, ingest.parse_sensor_catalog(sc.catalog))
    dom = search_domain(series)
    called = tracer.names()
    centre = geo.GeoCoord((dom.lon_min + dom.lon_max) / 2, (dom.lat_min + dom.lat_max) / 2)
    if "network.add_sensor" not in called:
        tracer.call("network.add_sensor", network.add_sensor, net, centre)
    if "network.remove_sensor" not in called:
        degree = Counter(e.sensor_id for snap in net.snapshots for e in snap.edges)
        busiest = min(degree, key=lambda sid: (-degree[sid], sid))
        tracer.call("network.remove_sensor", network.remove_sensor, net, busiest)
    if "metrics.robustness" not in called:
        tracer.call("metrics.robustness", metrics.evaluate_robustness, net, 1)
    if "ingest.export_geojson" not in called:
        for snap in net.snapshots:
            tracer.call("ingest.export_geojson", ingest.export_geojson, net, snap.timestamp)
    if "placement.place" not in called:
        tracer.call("placement.place", placement.place_sequential, net, dom, 1, trials, seed)

    rng = np.random.default_rng([seed, 1])
    rois = [r.geolocation for r in net.roi_registry]
    sensors = [s.geolocation for s in net.active_sensors]
    pairs = [(rois[i], sensors[j]) for i, j in zip(
        rng.integers(len(rois), size=DISTANCE_PAIRS), rng.integers(len(sensors), size=DISTANCE_PAIRS))]
    dist = geo.great_circle_distance
    gc.collect()
    t = perf_counter()
    for a, b in pairs:
        dist(a, b, net.earth)
    distance_us = (perf_counter() - t) / len(pairs) * 1e6

    gc.collect()
    t = perf_counter()
    placement.monte_carlo_place(net, dom, trials, seed, workers=1)
    serial = perf_counter() - t
    gc.collect()
    t = perf_counter()
    placement.monte_carlo_place(net, dom, trials, seed, workers=workers())
    pooled = perf_counter() - t
    return {
        "geo.distance_us": distance_us,
        "placement.trial_ms": serial / trials * 1e3,
        "placement.pool_speedup": serial / pooled,
        "placement.mask_admit_ratio": admit_ratio(dom),
    }


def measure_trace(wl, sc, work: Path, seed: int, seconds: float, outputs: Outputs):
    import gstbn.cli
    import tracing

    out = work / "out"
    argv = cli_args(wl, sc, out, seed)
    rounds, problems, spans = [], [], []

    def timed_main():
        gc.collect()
        t = perf_counter()
        code = gstbn.cli.main(argv)
        took = perf_counter() - t
        problems.append(outputs.problems(out, code))
        return took

    t0 = perf_counter()
    while True:
        # alternate which call goes first, so neither always meets a colder process
        for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
            reset(out)
            if not traced:
                main_s = timed_main()
                continue
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_s = timed_main()
                written = out_bytes(out)
                probes = probe_layers(tracer, sc, seed, wl.probe_trials)
        m = {name: tracer.total(span) for name, span in SPAN_TOTALS.items()}
        m["network.build_self_s"] = tracer.self_time("network.build")
        m.update({name: tracer.counts.get(name, 0) for name in COUNTS})
        m.update(probes)
        m["ingest.bytes_written"] = written
        m["cli.main_s"] = main_s
        m["trace.overhead_s"] = traced_s - main_s
        rounds.append(m)
        spans = tracer.dump()
        elapsed = perf_counter() - t0
        if elapsed * (1 + 1 / len(rounds)) > seconds:
            break
    metrics = {name: statistics.median([r[name] for r in rounds]) for name in rounds[0]}
    failed = sum(1 for p in problems if p)
    detail = {"rounds": rounds, "problems": problems, "spans": spans}
    return metrics, len(problems), failed, True, detail


# -- entry point ---------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    import gstbn

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gstbn": gstbn.__version__,
    }


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    import checks
    import scenario

    work = root / ".bench_work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    try:
        t = perf_counter()
        sc = scenario.generate(scenario.load_spec(wl.spec), seed, work / "scenario")
        generate_s = perf_counter() - t
        expected = checks.expect(sc)
        outputs = Outputs(wl, expected)
        if trace:
            metrics, attempted, failed, ok, detail = measure_trace(
                wl, sc, work, seed, seconds, outputs)
            metrics["synth.generate_s"] = generate_s
            units = PER_LAYER
        else:
            metrics, attempted, failed, ok, detail = measure_e2e(
                wl, sc, work, seed, seconds, outputs)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = {
        "cells": sc.cells,
        "grid_files": len(sc.grids),
        "rois": expected.roi_nodes,
        "edges": sum(expected.edges),
        "sensors": expected.sensors,
        "trials": wl.new_sensors * wl.trials,
    }
    record = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "counts": counts, "synth_generate_s": generate_s,
        "metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, {seconds:g} s): {wl.why}")
    print(f"   machine: {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, gstbn {m['gstbn']}")
    print("   counts: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    if not trace:
        walls = [s["wall_s"] for s in detail["samples"]]
        q1, q3 = quartiles(walls)
        high = high_percentile(walls)
        print(f"   command: {' '.join(detail['command'])}")
        print(f"   wall_s quartiles {q1:.4f}..{q3:.4f} s over {len(walls)} runs; "
              + (f"p{high[0]} {high[1]:.4f} s" if high else
                 "no percentile above the median has ten runs beyond it"))
        print(f"   setup_s over {len(detail['imports_s'])} imports")
    for key, value in metrics.items():
        label = " (computed)" if key == "placement.mask_admit_ratio" else ""
        print(f"   {key:28s} {value:14.6f} {units[key][0]}{label}")
    print(f"   failed_ratio {failed}/{attempted} = {failed / attempted:g}")
    for p in detail["problems"]:
        for msg in p:
            print(f"   FAILED CHECK: {msg}")
    print(f"   record: {path.relative_to(root)}")
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run on the {SMOKE_SPEC!r} spec with {SMOKE_TRIALS} trials")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "gstbn" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'gstbn'} not found; run from the root of a gstbn checkout")
    sys.path.insert(0, str(src))
    import gstbn

    if src.resolve() not in Path(gstbn.__file__).resolve().parents:
        sys.exit(f"bench: imported gstbn from {gstbn.__file__}, not from {src}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        wl = WORKLOADS[name]
        if args.smoke:
            wl = replace(wl, spec=SMOKE_SPEC, trials=min(wl.trials, SMOKE_TRIALS), probe_trials=10)
        results.append(run_workload(name, wl, args.seed, args.seconds, bool(args.trace), root))
        if len(names) > 1:
            print(json.dumps(results[-1]), flush=True)
    if len(names) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
