"""File formats, GeoJSON export and JSON reports.

Sensor catalog (CSV, header required)::

    id,membership,data_source,platform,mobility,lat,lon,status,observations

with membership in {federal, ldn}, mobility in {stationary, mobile},
status in {active, inactive} and observations a |-separated list of
variable names.

Grid snapshot (text, one variable at one timestamp)::

    GSTBN-GRID v1
    variable=<name> timestamp=<epoch seconds>
    nlat=<n> nlon=<n> lat0=<f> dlat=<f> lon0=<f> dlon=<f>
    <n_lon space-separated values> x n_lat rows, NaN marks missing

Floats are written with repr so parse(format(x)) reproduces x exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError
from .field import FieldSnapshot, GridSpec, ObservationKind, kind_sort_key
from .geo import GeoCoord
from .metrics import CentralityReport, CoverageReport, RobustnessReport
from .network import (
    Membership,
    Mobility,
    OperationalStatus,
    SensorNode,
    TemporalGstbn,
)
from .placement import PlacementResult

__all__ = [
    "parse_sensor_catalog",
    "format_sensor_catalog",
    "write_sensor_catalog",
    "parse_grid_snapshot",
    "format_grid_snapshot",
    "write_grid_snapshot",
    "parse_grid_series",
    "read_utf8",
    "format_geojson",
    "export_geojson",
    "coverage_to_dict",
    "centrality_to_dict",
    "robustness_to_dict",
    "placement_to_dict",
    "build_report",
    "dump_json",
]

_GRID_MAGIC = "GSTBN-GRID v1"

_CATALOG_COLUMNS = (
    "id",
    "membership",
    "data_source",
    "platform",
    "mobility",
    "lat",
    "lon",
    "status",
    "observations",
)


def _fmt(x: float) -> str:
    return repr(float(x))


def read_utf8(path, digests: dict[str, str] | None = None) -> str:
    """A file's text as UTF-8, whatever the locale; ParseError if the file
    is unreadable or not UTF-8 (naming the line of the first bad byte).
    With `digests`, also sets `digests[str(path)]` to the bytes' sha256."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(path, None, f"cannot read file: {exc}") from exc
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            path, line, f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def _parse_enum(enum_cls, token: str, path, line: int, field: str):
    try:
        return enum_cls(token)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ParseError(path, line, f"bad {field} {token!r}; expected one of: {allowed}") from None


def _csv_rows(reader, path):
    """The reader's rows, with a CSV syntax error (a bare carriage return in
    an unquoted field, a field over the size limit) as a ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from None


def parse_sensor_catalog(path, digests: dict[str, str] | None = None) -> list[SensorNode]:
    """Read a sensor catalog CSV; row order is preserved. `digests` as in
    :func:`read_utf8`."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_utf8(path, digests)))
    rows = _csv_rows(reader, path)
    try:
        header = next(rows)
    except StopIteration:
        raise ParseError(path, 1, "empty file, expected a header row") from None
    seen_cols = set()
    for col in header:
        if col not in _CATALOG_COLUMNS:
            raise ParseError(path, 1, f"unknown column {col!r}")
        if col in seen_cols:
            raise ParseError(path, 1, f"duplicate column {col!r}")
        seen_cols.add(col)
    missing = [c for c in _CATALOG_COLUMNS if c not in seen_cols]
    if missing:
        raise ParseError(path, 1, f"missing columns: {', '.join(missing)}")
    col = {name: header.index(name) for name in _CATALOG_COLUMNS}

    sensors: list[SensorNode] = []
    seen_ids: set[int] = set()
    for row in rows:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(path, line, f"expected {len(header)} fields, got {len(row)}")
        try:
            sensor_id = int(row[col["id"]])
        except ValueError:
            raise ParseError(path, line, f"bad id {row[col['id']]!r}") from None
        if sensor_id in seen_ids:
            raise ParseError(path, line, f"duplicate sensor id {sensor_id}")
        seen_ids.add(sensor_id)
        try:
            lat = float(row[col["lat"]])
            lon = float(row[col["lon"]])
        except ValueError:
            raise ParseError(path, line, "bad lat/lon") from None
        try:
            coord = GeoCoord(lon, lat)
        except ValueError as exc:
            raise ParseError(path, line, str(exc)) from None
        obs_field = row[col["observations"]]
        kinds = []
        for token in obs_field.split("|") if obs_field else []:
            kinds.append(_parse_enum(ObservationKind, token, path, line, "observation"))
        try:
            sensors.append(
                SensorNode(
                    id=sensor_id,
                    membership=_parse_enum(Membership, row[col["membership"]], path, line, "membership"),
                    data_source=row[col["data_source"]],
                    platform=row[col["platform"]],
                    mobility=_parse_enum(Mobility, row[col["mobility"]], path, line, "mobility"),
                    geolocation=coord,
                    operational_status=_parse_enum(
                        OperationalStatus, row[col["status"]], path, line, "status"
                    ),
                    observations=frozenset(kinds),
                )
            )
        except Exception as exc:
            raise ParseError(path, line, str(exc)) from None
    return sensors


def format_sensor_catalog(sensors: Sequence[SensorNode]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CATALOG_COLUMNS)
    for s in sensors:
        obs = "|".join(k.value for k in sorted(s.observations, key=kind_sort_key))
        writer.writerow(
            [
                s.id,
                s.membership.value,
                s.data_source,
                s.platform,
                s.mobility.value,
                _fmt(s.geolocation.lat),
                _fmt(s.geolocation.lon),
                s.operational_status.value,
                obs,
            ]
        )
    return buf.getvalue()


def write_sensor_catalog(sensors: Sequence[SensorNode], path) -> None:
    Path(path).write_text(format_sensor_catalog(sensors), encoding="utf-8")


def _parse_kv(token: str, key: str, path, line: int) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(path, line, f"expected {key}=<value>, got {token!r}")
    return token[len(prefix):]


def parse_grid_snapshot(path, digests: dict[str, str] | None = None) -> FieldSnapshot:
    """Read one grid snapshot file. `digests` as in :func:`read_utf8`."""
    path = Path(path)
    lines = read_utf8(path, digests).splitlines()
    if not lines or lines[0] != _GRID_MAGIC:
        raise ParseError(path, 1, f"missing magic line {_GRID_MAGIC!r}")
    if len(lines) < 3:
        raise ParseError(path, len(lines), "truncated header")

    meta = lines[1].split()
    if len(meta) != 2:
        raise ParseError(path, 2, "expected: variable=<name> timestamp=<int>")
    variable = _parse_enum(
        ObservationKind, _parse_kv(meta[0], "variable", path, 2), path, 2, "variable"
    )
    try:
        timestamp = int(_parse_kv(meta[1], "timestamp", path, 2))
    except ValueError:
        raise ParseError(path, 2, f"bad timestamp in {meta[1]!r}") from None

    dims = lines[2].split()
    keys = ("nlat", "nlon", "lat0", "dlat", "lon0", "dlon")
    if len(dims) != len(keys):
        raise ParseError(path, 3, f"expected: {' '.join(k + '=<v>' for k in keys)}")
    raw = {}
    for token, key in zip(dims, keys):
        value = _parse_kv(token, key, path, 3)
        try:
            raw[key] = int(value) if key in ("nlat", "nlon") else float(value)
        except ValueError:
            raise ParseError(path, 3, f"bad {key} value {value!r}") from None
    try:
        grid = GridSpec(
            n_lat=raw["nlat"],
            n_lon=raw["nlon"],
            lat0=raw["lat0"],
            d_lat=raw["dlat"],
            lon0=raw["lon0"],
            d_lon=raw["dlon"],
        )
    except ValueError as exc:
        raise ParseError(path, 3, str(exc)) from None

    body = lines[3:]
    if len(body) != grid.n_lat:
        raise ParseError(
            path, len(lines), f"expected {grid.n_lat} data rows, found {len(body)}"
        )
    values = _parse_rows_fast(body, grid.shape)
    if values is None:
        values = _parse_rows(body, grid.n_lon, path)
    return FieldSnapshot(timestamp=timestamp, variable=variable, grid=grid, values=values)


def _parse_rows_fast(body: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """The body's values in one `np.loadtxt` call, or None when loadtxt
    rejects it or its result is not a finite-or-NaN array of `shape`.

    loadtxt splits on the same whitespace as `str.split` and converts each
    field with the same correctly rounded decimal-to-double routine as
    `float`, so an accepted body holds exactly the values `_parse_rows`
    would return. loadtxt rejects what `float` alone takes (`1_0`,
    non-ASCII digits) and skips blank lines; those bodies, and every
    malformed one, go to `_parse_rows`, which decides and reports.
    """
    with warnings.catch_warnings():
        # a warning (such as "input contained no data") also means: rescan
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if values.shape != shape or np.isinf(values).any():
        return None
    return values


def _parse_rows(body: list[str], n_lon: int, path) -> np.ndarray:
    """The reference token loop: `float` on each `str.split` token, raising
    ParseError with the line and column of the first bad row or value."""
    rows = []
    for i, row_text in enumerate(body):
        tokens = row_text.split()
        line = 4 + i
        if len(tokens) != n_lon:
            raise ParseError(path, line, f"expected {n_lon} values, got {len(tokens)}")
        row = []
        for j, token in enumerate(tokens):
            try:
                v = float(token)
            except ValueError:
                raise ParseError(path, line, f"bad value {token!r} in column {j + 1}") from None
            if math.isinf(v):
                raise ParseError(path, line, f"non-finite value {token!r} in column {j + 1}")
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def format_grid_snapshot(snap: FieldSnapshot) -> str:
    grid = snap.grid
    out = [
        _GRID_MAGIC,
        f"variable={snap.variable.value} timestamp={snap.timestamp}",
        "nlat={} nlon={} lat0={} dlat={} lon0={} dlon={}".format(
            grid.n_lat, grid.n_lon, _fmt(grid.lat0), _fmt(grid.d_lat),
            _fmt(grid.lon0), _fmt(grid.d_lon),
        ),
    ]
    for i in range(grid.n_lat):
        row = [
            _fmt(snap.values[i, j]) if snap.valid[i, j] else "NaN"
            for j in range(grid.n_lon)
        ]
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def write_grid_snapshot(snap: FieldSnapshot, path) -> None:
    Path(path).write_text(format_grid_snapshot(snap), encoding="utf-8")


def parse_grid_series(paths: Iterable, digests=None) -> dict[ObservationKind, list[FieldSnapshot]]:
    """Read many grid files into per-variable, time-ordered series.
    `digests` as in :func:`read_utf8`."""
    series: dict[ObservationKind, list[FieldSnapshot]] = {}
    sources: dict[tuple[ObservationKind, int], Path] = {}
    for p in paths:
        snap = parse_grid_snapshot(p, digests)
        key = (snap.variable, snap.timestamp)
        if key in sources:
            raise ParseError(
                p, None,
                f"duplicate snapshot for {snap.variable.value} at t={snap.timestamp}"
                f" (first seen in {sources[key]})",
            )
        sources[key] = Path(p)
        bucket = series.setdefault(snap.variable, [])
        if bucket and bucket[0].grid != snap.grid:
            raise ParseError(p, 3, f"grid differs from other {snap.variable.value} snapshots")
        bucket.append(snap)
    for bucket in series.values():
        bucket.sort(key=lambda s: s.timestamp)
    return {k: series[k] for k in sorted(series, key=kind_sort_key)}


def _template(feature: dict) -> str:
    """`feature` as `dump_json` lays it out in a collection's "features"
    list (keys sorted, two-space indent, at a feature's depth), with each
    "%s" string made a bare %s slot for preformatted text."""
    lines = json.dumps(feature, sort_keys=True, indent=2).splitlines()
    return "\n".join("    " + line for line in lines).replace('"%s"', "%s")


def _point_template(node_type: str, *slots: str, **properties) -> str:
    return _template({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": ["%s", "%s"]},
        "properties": {"node_type": node_type, **dict.fromkeys(slots, "%s"), **properties},
    })


# slots in text order: coordinates, then the properties by name
_SENSOR_FEATURE = _point_template("sensor", "degree", "id", "membership", "status")
_EDGE_FEATURE = _template({
    "type": "Feature",
    "geometry": {"type": "LineString", "coordinates": [["%s", "%s"], ["%s", "%s"]]},
    "properties": dict.fromkeys(("roi_id", "sensor_id", "weight_km"), "%s"),
})
# the kinds in the order `dump_json` sorts the residual keys: by name
_BY_NAME = sorted(ObservationKind, key=lambda kind: kind.value)


def _number(x) -> str:
    """`x` as `json.dumps` writes a number: `float.__repr__` for a float
    (numpy's float64 included), `int.__repr__` for an int, and ValueError
    for a float that is not finite, as `allow_nan=False` gives."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return int.__repr__(x)


def _floats(values: np.ndarray) -> list[str]:
    """The floats as `dump_json` writes them; ValueError if one is not finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"Out of range float values are not JSON compliant: {values}")
    return list(map(float.__repr__, values.tolist()))


def _roi_features(snap, lon: list[str], lat: list[str], roi_id: list[str]) -> list[str]:
    """The RoI features of `snap`, whose RoIs lie at `lon`, `lat`. RoIs that
    fired the same kinds (not NaN) share one template, a slot per residual."""
    residual = snap.residual[:, list(map(kind_sort_key, _BY_NAME))]
    group = ~np.isnan(residual) @ (1 << np.arange(len(_BY_NAME)))
    columns = (lon, lat, roi_id, _floats(snap.roi_value))
    out = [""] * len(group)
    for key in np.unique(group).tolist():
        fired = [j for j in range(len(_BY_NAME)) if key >> j & 1]
        slots = dict.fromkeys((_BY_NAME[j].value for j in fired), "%s")
        template = _point_template("roi", "id", "roi_value", residuals=slots)
        rows = np.flatnonzero(group == key)
        *picked, values = ([column[r] for r in rows.tolist()] for column in columns)
        residuals = [_floats(residual[rows, j]) for j in fired]
        for row, text in zip(rows.tolist(), map(template.__mod__, zip(*picked, *residuals, values))):
            out[row] = text
    return out


def format_geojson(net: TemporalGstbn, timestamp: int) -> str:
    """One snapshot as GeoJSON FeatureCollection text, the bytes of
    `dump_json` applied to the same collection.

    Sensor and RoI nodes become Point features, edges become LineStrings
    from RoI to sensor; coordinates are [lon, lat]. Features are ordered
    sensors by id, then RoIs by id, then edges by roi id. Each column is
    formatted once. ValueError if a number is not finite.
    """
    snap = net.snapshot_at(timestamp)
    rows = snap.roi_id - 1
    linked = snap.sensor_id.tolist()
    degrees = Counter(linked)

    # each sensor's coordinates and id are formatted once, then reused by its edges
    sensor_text: dict[int, tuple[str, str, str]] = {}
    features: list[str] = []
    for s in sorted(net.active_sensors, key=lambda s: s.id):
        coord = s.geolocation
        lon, lat, sid = sensor_text[s.id] = _number(coord.lon), _number(coord.lat), _number(s.id)
        labels = map(encode_basestring_ascii, (s.membership.value, s.operational_status.value))
        features.append(_SENSOR_FEATURE % (lon, lat, _number(degrees[s.id]), sid, *labels))
    lon, lat = _floats(net.roi_table.lon[rows]), _floats(net.roi_table.lat[rows])
    roi_id = list(map(int.__repr__, snap.roi_id.tolist()))
    features += _roi_features(snap, lon, lat, roi_id)
    s_lon, s_lat, s_id = zip(*map(sensor_text.__getitem__, linked)) if linked else ((), (), ())
    edges = zip(lon, lat, s_lon, s_lat, roi_id, s_id, _floats(snap.weight_km))
    features += map(_EDGE_FEATURE.__mod__, edges)
    body = "[\n" + ",\n".join(features) + "\n  ]" if features else "[]"
    return '{\n  "features": ' + body + ',\n  "type": "FeatureCollection"\n}\n'


def export_geojson(net: TemporalGstbn, timestamp: int) -> dict:
    """One snapshot as a GeoJSON FeatureCollection dict: the parse of
    `format_geojson`, so the two cannot disagree."""
    return json.loads(format_geojson(net, timestamp))


def coverage_to_dict(report: CoverageReport) -> dict:
    return {
        "per_snapshot": [
            {"timestamp": ts, "static_coverage_km": v} for ts, v in report.per_snapshot
        ],
        "total_temporal_coverage_km": report.total_km,
        "average_temporal_coverage_km": report.average_km,
        "n_timesteps": report.n_timesteps,
    }


def centrality_to_dict(report: CentralityReport) -> dict:
    return {
        "static_per_snapshot": {
            str(ts): {str(sid): d for sid, d in sorted(degrees.items())}
            for ts, degrees in sorted(report.static_per_snapshot.items())
        },
        "overall": {str(sid): d for sid, d in sorted(report.overall.items())},
        "distribution": {str(deg): n for deg, n in sorted(report.distribution.items())},
    }


def robustness_to_dict(report: RobustnessReport) -> dict:
    return {
        "removed_sensor_ids": list(report.removed_sensor_ids),
        "coverage_before_km": report.coverage_before_km,
        "coverage_after_km": report.coverage_after_km,
        # infinite when coverage rose from zero; JSON has no Infinity
        "relative_increase": (
            None if math.isinf(report.relative_increase) else report.relative_increase
        ),
    }


def placement_to_dict(result: PlacementResult) -> dict:
    return {
        "placed": [
            {
                "lon": p.coord.lon,
                "lat": p.coord.lat,
                "coverage_after_km": p.coverage_after_km,
            }
            for p in result.placed
        ],
        "trials_per_sensor": result.trials_per_sensor,
        "seed": result.seed,
        "baseline_coverage_km": result.baseline_coverage_km,
    }


def build_report(
    coverage: dict,
    centrality: dict,
    robustness: dict | None = None,
    placement: dict | None = None,
    *,
    seed: int,
    inputs: Mapping[str, str] | None = None,
) -> dict:
    """The report document; `inputs` maps each input path to its sha256,
    as the parsers' `digests` collect them."""
    from . import __version__

    report = {
        "coverage": coverage,
        "centrality": centrality,
        "meta": {
            "tool": "gstbn",
            "version": __version__,
            "seed": seed,
            "inputs": dict(sorted((inputs or {}).items())),
        },
    }
    if robustness is not None:
        report["robustness"] = robustness
    if placement is not None:
        report["placement"] = placement
    return report


def dump_json(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
