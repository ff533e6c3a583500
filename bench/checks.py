"""Output checks for the benchmark's commands.

`expect` recomputes, in process and through the library alone, what every
command's output must agree with. `check_outputs` returns one message per
failed check; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from gstbn.ingest import parse_grid_series, parse_sensor_catalog
from gstbn.metrics import average_temporal_coverage
from gstbn.network import build_temporal_gstbn

# Sums and averages may change summation order in a later version; 1e-9
# relative is far above that rounding and far below any real error.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    timestamps: tuple[int, ...]
    rois: tuple[int, ...]  # RoIs per snapshot
    edges: tuple[int, ...]  # edges per snapshot
    roi_nodes: int
    sensors: int
    average_km: float


def expect(scenario) -> Expected:
    series = parse_grid_series(sorted(scenario.grids))
    net = build_temporal_gstbn(series, parse_sensor_catalog(scenario.catalog))
    return Expected(
        timestamps=tuple(s.timestamp for s in net.snapshots),
        rois=tuple(len(s.roi_ids) for s in net.snapshots),
        edges=tuple(len(s.edges) for s in net.snapshots),
        roi_nodes=len(net.roi_registry),
        sensors=len(net.active_sensors),
        average_km=average_temporal_coverage(net),
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _check_geojson(out: Path, exp: Expected) -> list[str]:
    problems = []
    roi_ids: set[int] = set()
    for ts, n_rois, n_edges in zip(exp.timestamps, exp.rois, exp.edges):
        path = out / f"report-gstbn-{ts}.geojson"
        features = json.loads(path.read_text())["features"]
        rois = [f["properties"]["id"] for f in features if f["properties"].get("node_type") == "roi"]
        lines = sum(1 for f in features if f["geometry"]["type"] == "LineString")
        roi_ids.update(rois)
        if (len(rois), lines) != (n_rois, n_edges):
            problems.append(
                f"{path.name}: {len(rois)} RoIs and {lines} edges, recomputed {n_rois} and {n_edges}"
            )
    if len(roi_ids) != exp.roi_nodes:
        problems.append(f"GeoJSON holds {len(roi_ids)} RoI nodes, recomputed {exp.roi_nodes}")
    return problems


def check_outputs(workload, out: Path, exp: Expected) -> list[str]:
    """Every check the workload's output must pass."""
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    try:
        cov = report["coverage"]
        per = [p["static_coverage_km"] for p in cov["per_snapshot"]]
        if tuple(p["timestamp"] for p in cov["per_snapshot"]) != exp.timestamps:
            problems.append("report snapshots differ from the recomputation")
        if not _close(cov["total_temporal_coverage_km"], sum(per)):
            problems.append(
                f"total coverage {cov['total_temporal_coverage_km']} != sum of snapshots {sum(per)}"
            )
        static = report["centrality"]["static_per_snapshot"]
        edges = tuple(sum(static[str(ts)].values()) for ts in exp.timestamps)
        if edges != exp.edges or edges != exp.rois:
            problems.append(
                f"edges per snapshot {edges}, recomputed edges {exp.edges} and RoIs {exp.rois}"
            )
        if workload.subcommand == "optimize":
            placement = report["placement"]
            base = placement["baseline_coverage_km"]
            placed = [p["coverage_after_km"] for p in placement["placed"]]
            if not _close(base, exp.average_km):
                problems.append(f"baseline coverage {base}, recomputed {exp.average_km}")
            if len(placed) != workload.new_sensors or any(c > base for c in placed):
                problems.append(f"placed coverages {placed} against baseline {base}")
            elif not _close(cov["average_temporal_coverage_km"], placed[-1]):
                problems.append(
                    f"final coverage {cov['average_temporal_coverage_km']} != "
                    f"last placement score {placed[-1]}"
                )
            problems += _check_geojson(out, exp)
            with open(out / "trace.csv", newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
            if rows != workload.new_sensors * workload.trials:
                problems.append(f"trace has {rows} trials, expected "
                                f"{workload.new_sensors * workload.trials}")
        else:
            if not _close(cov["average_temporal_coverage_km"], exp.average_km):
                problems.append(
                    f"average coverage {cov['average_temporal_coverage_km']}, "
                    f"recomputed {exp.average_km}"
                )
        if workload.subcommand == "robustness":
            rob = report["robustness"]
            if rob["coverage_after_km"] < rob["coverage_before_km"]:
                problems.append(
                    f"robustness coverage fell from {rob['coverage_before_km']} "
                    f"to {rob['coverage_after_km']}"
                )
            if len(rob["removed_sensor_ids"]) != workload.remove:
                problems.append(f"removed {rob['removed_sensor_ids']}, asked for {workload.remove}")
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
