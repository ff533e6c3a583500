"""Command line interface.

Subcommands: build, score, robustness, optimize, synth. Domain errors
exit 1 with a message on stderr; usage errors exit 2 (argparse).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GstbnError, ParseError
from .field import RoIThreshold
from .ingest import (
    build_report,
    centrality_to_dict,
    coverage_to_dict,
    dump_json,
    export_geojson,
    parse_grid_series,
    parse_sensor_catalog,
    placement_to_dict,
    read_utf8,
    robustness_to_dict,
)
from .metrics import coverage_report, degree_centrality, evaluate_robustness
# add_sensor stays importable from here: bench/tracing.py patches gstbn.cli.add_sensor
from .network import TemporalGstbn, add_sensor, build_temporal_gstbn  # noqa: F401
from .placement import SearchDomain, place_sequential
from .synth import generate_scenario, scenario_spec_from_dict

__all__ = ["CliConfig", "main"]


@dataclass(frozen=True)
class CliConfig:
    subcommand: str
    out: Path
    sensors: Path | None = None
    grids: tuple[Path, ...] = ()
    threshold: float = 0.5
    trials: int = 1000
    seed: int = 42
    new_sensors: int = 1
    strict_observation_matching: bool = False
    unmasked_search: bool = False
    remove: int = 1
    threads: int = 1
    bbox: tuple[float, float, float, float] | None = None
    trace: Path | None = None
    spec: Path | None = None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sensors", required=True, type=Path, help="sensor catalog CSV")
    p.add_argument(
        "--grids",
        required=True,
        type=Path,
        nargs="+",
        help="grid snapshot files, or directories of *.grid files",
    )
    p.add_argument(
        "--threshold",
        type=_non_negative_float,
        default=0.5,
        help="per-variable residual threshold (default 0.5)",
    )
    p.add_argument(
        "--strict-observations",
        action="store_true",
        help="only link RoIs to sensors observing one of the variables that fired",
    )
    p.add_argument(
        "--seed", type=_non_negative_int, default=42, help="seed recorded in reports"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstbn",
        description="Build and score geo-spatiotemporal bipartite sensor networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="construct the network, write GeoJSON per snapshot")
    _add_network_args(p_build)
    p_build.add_argument("--out", required=True, type=Path, help="output directory")

    p_score = sub.add_parser("score", help="write a coverage and centrality report")
    _add_network_args(p_score)
    p_score.add_argument("--out", required=True, type=Path, help="output report JSON file")

    p_rob = sub.add_parser("robustness", help="score the loss of the busiest sensors")
    _add_network_args(p_rob)
    p_rob.add_argument("--remove", type=_positive_int, default=1, help="sensors to remove")
    p_rob.add_argument("--out", required=True, type=Path, help="output report JSON file")

    p_opt = sub.add_parser("optimize", help="Monte Carlo placement of new sensors")
    _add_network_args(p_opt)
    p_opt.add_argument("--trials", type=_positive_int, default=1000, help="draws per sensor")
    p_opt.add_argument("--new-sensors", type=_positive_int, default=1, help="sensors to place")
    p_opt.add_argument(
        "--bbox",
        type=float,
        nargs=4,
        metavar=("LON_MIN", "LON_MAX", "LAT_MIN", "LAT_MAX"),
        help="search box override (default: the grid's footprint)",
    )
    p_opt.add_argument(
        "--unmasked-search",
        action="store_true",
        help="also allow placements in cells with missing data",
    )
    p_opt.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted and ignored: trials are scored serially in blocks",
    )
    p_opt.add_argument("--trace", type=Path, help="write per-trial CSV here")
    p_opt.add_argument(
        "--out",
        required=True,
        type=Path,
        help="output report JSON file (updated GeoJSON is written beside it)",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--spec", required=True, type=Path, help="scenario spec JSON")
    p_synth.add_argument("--out", required=True, type=Path, help="output directory")

    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        subcommand=args.subcommand,
        out=args.out,
        sensors=getattr(args, "sensors", None),
        grids=tuple(getattr(args, "grids", ()) or ()),
        threshold=getattr(args, "threshold", 0.5),
        trials=getattr(args, "trials", 1000),
        seed=getattr(args, "seed", 42),
        new_sensors=getattr(args, "new_sensors", 1),
        strict_observation_matching=getattr(args, "strict_observations", False),
        unmasked_search=getattr(args, "unmasked_search", False),
        remove=getattr(args, "remove", 1),
        threads=getattr(args, "threads", 1),
        bbox=tuple(args.bbox) if getattr(args, "bbox", None) else None,
        trace=getattr(args, "trace", None),
        spec=getattr(args, "spec", None),
    )


def _expand_grid_paths(paths: tuple[Path, ...]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        if p.is_dir():
            found = sorted(p.glob("*.grid"))
            if not found:
                raise ParseError(p, None, "directory contains no *.grid files")
            out.extend(found)
        else:
            out.append(p)
    return out


def _load_network(cfg: CliConfig):
    grid_paths = _expand_grid_paths(cfg.grids)
    catalog = parse_sensor_catalog(cfg.sensors)
    series = parse_grid_series(grid_paths)
    net = build_temporal_gstbn(
        series,
        catalog,
        threshold=RoIThreshold(cfg.threshold),
        strict_observations=cfg.strict_observation_matching,
    )
    return net, series, [cfg.sensors, *grid_paths]


def _search_domain(cfg: CliConfig, series) -> SearchDomain:
    first = next(iter(series.values()))[0]
    grid = first.grid
    valid = None
    if not cfg.unmasked_search:
        valid = np.ones(grid.shape, dtype=bool)
        for snaps in series.values():
            for snap in snaps:
                valid &= snap.valid
        if valid.all():
            valid = None
    if cfg.bbox is not None:
        lon_min, lon_max, lat_min, lat_max = cfg.bbox
        return SearchDomain(
            lon_min=lon_min,
            lon_max=lon_max,
            lat_min=lat_min,
            lat_max=lat_max,
            mask_grid=grid if valid is not None else None,
            mask=valid,
        )
    return SearchDomain.from_grid(grid, valid)


def _write_snapshots(net: TemporalGstbn, out_dir: Path, prefix: str = "gstbn") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for snap in net.snapshots:
        doc = export_geojson(net, snap.timestamp)
        (out_dir / f"{prefix}-{snap.timestamp}.geojson").write_text(
            dump_json(doc), encoding="utf-8"
        )


def _write_trace(path: Path, traces) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["placement", "trial_index", "lon", "lat", "score"])
        for k, records in enumerate(traces, start=1):
            for r in records:
                writer.writerow([k, r.trial_index, repr(r.lon), repr(r.lat), repr(r.score)])


def _cmd_build(cfg: CliConfig) -> None:
    net, _, _ = _load_network(cfg)
    _write_snapshots(net, cfg.out)


def _cmd_score(cfg: CliConfig) -> None:
    net, _, inputs = _load_network(cfg)
    report = build_report(
        coverage_to_dict(coverage_report(net)),
        centrality_to_dict(degree_centrality(net)),
        seed=cfg.seed,
        input_paths=inputs,
    )
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    cfg.out.write_text(dump_json(report), encoding="utf-8")


def _cmd_robustness(cfg: CliConfig) -> None:
    net, _, inputs = _load_network(cfg)
    rob = evaluate_robustness(net, cfg.remove)
    report = build_report(
        coverage_to_dict(coverage_report(net)),
        centrality_to_dict(degree_centrality(net)),
        robustness=robustness_to_dict(rob),
        seed=cfg.seed,
        input_paths=inputs,
    )
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    cfg.out.write_text(dump_json(report), encoding="utf-8")


def _cmd_optimize(cfg: CliConfig) -> None:
    net, series, inputs = _load_network(cfg)
    domain = _search_domain(cfg, series)
    traces = [] if cfg.trace else None
    result = place_sequential(
        net,
        domain,
        n_sensors=cfg.new_sensors,
        trials=cfg.trials,
        seed=cfg.seed,
        workers=cfg.threads,
        traces=traces,
    )
    final = result.network
    report = build_report(
        coverage_to_dict(coverage_report(final)),
        centrality_to_dict(degree_centrality(final)),
        placement=placement_to_dict(result),
        seed=cfg.seed,
        input_paths=inputs,
    )
    # --out names the report file; the updated network's GeoJSON goes
    # next to it, prefixed by the report's stem so runs don't collide
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    cfg.out.write_text(dump_json(report), encoding="utf-8")
    stem = cfg.out.name.removesuffix(".json") or cfg.out.name
    _write_snapshots(final, cfg.out.parent, prefix=f"{stem}-gstbn")
    if cfg.trace:
        _write_trace(cfg.trace, traces)


def _cmd_synth(cfg: CliConfig) -> None:
    text = read_utf8(cfg.spec)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(cfg.spec, exc.lineno, f"bad JSON: {exc.msg}") from exc
    spec = scenario_spec_from_dict(doc)
    generate_scenario(spec, cfg.out)


_COMMANDS = {
    "build": _cmd_build,
    "score": _cmd_score,
    "robustness": _cmd_robustness,
    "optimize": _cmd_optimize,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    try:
        _COMMANDS[cfg.subcommand](cfg)
    except GstbnError as exc:
        print(f"gstbn: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gstbn: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
