"""Command line interface.

Subcommands: build, score, robustness, optimize, synth. Domain errors
exit 1 with a message on stderr; usage errors exit 2 (argparse).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import GstbnError, ParseError
from .field import RoIThreshold
from .ingest import (
    build_report,
    centrality_to_dict,
    coverage_to_dict,
    dump_json,
    export_geojson,  # noqa: F401  (bench/tracing.py patches gstbn.cli.export_geojson)
    format_geojson,
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

__all__ = ["main"]


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
        help="accepted and ignored: trials are scored serially in blocks, and grid"
        " parsing does not read it",
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


def _expand_grid_paths(paths: list[Path]) -> list[Path]:
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


def _load_network(args: argparse.Namespace, hash_inputs: bool = False):
    """The network, the grid series and, with `hash_inputs`, each input's
    sha256 by path, taken from the bytes the parsers read."""
    digests: dict[str, str] | None = {} if hash_inputs else None
    grid_paths = _expand_grid_paths(args.grids)
    catalog = parse_sensor_catalog(args.sensors, digests)
    series = parse_grid_series(grid_paths, digests)
    net = build_temporal_gstbn(
        series,
        catalog,
        threshold=RoIThreshold(args.threshold),
        strict_observations=args.strict_observations,
    )
    return net, series, digests


def _search_domain(args: argparse.Namespace, series) -> SearchDomain:
    """The grid's footprint, masked to cells valid in every snapshot unless
    --unmasked-search; --bbox replaces the box and keeps the mask."""
    snaps = [s for kind in series.values() for s in kind]
    valid = None if args.unmasked_search else np.logical_and.reduce([s.valid for s in snaps])
    domain = SearchDomain.from_grid(snaps[0].grid, valid)
    if args.bbox is not None:
        lon_min, lon_max, lat_min, lat_max = args.bbox
        domain = replace(
            domain, lon_min=lon_min, lon_max=lon_max, lat_min=lat_min, lat_max=lat_max
        )
    return domain


def _write_snapshots(net: TemporalGstbn, out_dir: Path, prefix: str = "gstbn") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for snap in net.snapshots:
        (out_dir / f"{prefix}-{snap.timestamp}.geojson").write_text(
            format_geojson(net, snap.timestamp), encoding="utf-8"
        )


def _write_trace(path: Path, traces) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["placement", "trial_index", "lon", "lat", "score"])
        for k, records in enumerate(traces, start=1):
            for r in records:
                writer.writerow([k, r.trial_index, repr(r.lon), repr(r.lat), repr(r.score)])


def _cmd_build(args: argparse.Namespace) -> None:
    net, _, _ = _load_network(args)
    _write_snapshots(net, args.out)


def _write_report(args: argparse.Namespace, net: TemporalGstbn, inputs, **sections) -> None:
    """The coverage and centrality of `net`, plus the named `sections`
    (robustness, placement), as the JSON report at --out."""
    report = build_report(
        coverage_to_dict(coverage_report(net)),
        centrality_to_dict(degree_centrality(net)),
        seed=args.seed,
        inputs=inputs,
        **sections,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump_json(report), encoding="utf-8")


def _cmd_score(args: argparse.Namespace) -> None:
    net, _, inputs = _load_network(args, hash_inputs=True)
    _write_report(args, net, inputs)


def _cmd_robustness(args: argparse.Namespace) -> None:
    net, _, inputs = _load_network(args, hash_inputs=True)
    rob = evaluate_robustness(net, args.remove)
    _write_report(args, net, inputs, robustness=robustness_to_dict(rob))


def _cmd_optimize(args: argparse.Namespace) -> None:
    net, series, inputs = _load_network(args, hash_inputs=True)
    domain = _search_domain(args, series)
    traces = [] if args.trace else None
    result = place_sequential(
        net,
        domain,
        n_sensors=args.new_sensors,
        trials=args.trials,
        seed=args.seed,
        workers=args.threads,
        traces=traces,
    )
    _write_report(args, result.network, inputs, placement=placement_to_dict(result))
    # --out names the report file; the updated network's GeoJSON goes
    # next to it, prefixed by the report's stem so runs don't collide
    stem = args.out.name.removesuffix(".json") or args.out.name
    _write_snapshots(result.network, args.out.parent, prefix=f"{stem}-gstbn")
    if args.trace:
        _write_trace(args.trace, traces)


def _cmd_synth(args: argparse.Namespace) -> None:
    from .synth import generate_scenario, scenario_spec_from_dict  # only synth loads it

    text = read_utf8(args.spec)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(args.spec, exc.lineno, f"bad JSON: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(args.spec, None, "bad JSON: nested too deeply") from None
    spec = scenario_spec_from_dict(doc)
    generate_scenario(spec, args.out)


_COMMANDS = {
    "build": _cmd_build,
    "score": _cmd_score,
    "robustness": _cmd_robustness,
    "optimize": _cmd_optimize,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # The process entry: no full collection, nor interpreter exit, walks
        # the import heap again. A caller passing argv keeps its collector.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.subcommand](args)
    except (GstbnError, OSError) as exc:
        print(f"gstbn: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
