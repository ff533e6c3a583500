"""Independent reference implementations used to check the package.

These are deliberately written as plain loops against different formulas
(or higher precision) than the library code, so agreement means
something.
"""

from __future__ import annotations

import math

import mpmath as mp

from gstbn.field import ObservationKind, kind_sort_key
from gstbn.geo import GeoCoord, great_circle_distance

mp.mp.dps = 40


def reference_distance_km(lon1, lat1, lon2, lat2, radius_km=6371.0090667) -> float:
    """High-precision great-circle distance via the spherical Vincenty
    (atan2) form, a different formula family than the library's haversine.
    """
    p1 = mp.radians(mp.mpf(lat1))
    p2 = mp.radians(mp.mpf(lat2))
    dl = mp.radians(mp.mpf(lon2) - mp.mpf(lon1))
    num = mp.sqrt(
        (mp.cos(p2) * mp.sin(dl)) ** 2
        + (mp.cos(p1) * mp.sin(p2) - mp.sin(p1) * mp.cos(p2) * mp.cos(dl)) ** 2
    )
    den = mp.sin(p1) * mp.sin(p2) + mp.cos(p1) * mp.cos(p2) * mp.cos(dl)
    return float(mp.atan2(num, den) * mp.mpf(radius_km))


def sequential_sum(values) -> float:
    """Left-to-right float sum from +0.0, one addition at a time: the
    order builtin `sum` used before Python 3.12 made it compensated."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def roi_coords(net):
    """The centre of each registry RoI as a `GeoCoord`: the RoI with id k
    at index k - 1."""
    table = net.roi_table
    return [GeoCoord(lon, lat) for lon, lat in zip(table.lon.tolist(), table.lat.tolist())]


def edge_rows(snap):
    """(roi id, sensor id, weight km) of each snapshot row, as Python numbers."""
    return list(zip(snap.roi_id.tolist(), snap.sensor_id.tolist(), snap.weight_km.tolist()))


def payloads(snap):
    """{variable: residual} of the variables that fired, per snapshot row."""
    return [
        {kind: v for kind, v in zip(ObservationKind, row) if not math.isnan(v)}
        for row in snap.residual.tolist()
    ]


def brute_force_edges(points, sensors, earth):
    """Nearest-sensor assignment as an explicit double loop.

    Same distance function as the library (so floats are comparable),
    but none of its shortcuts: every pair is evaluated and ties go to
    the lowest sensor id. Returns (sensor id, distance) per point, in the
    order given.
    """
    edges = []
    for point in points:
        best_id = None
        best_d = None
        for s in sensors:
            d = great_circle_distance(point, s.geolocation, earth)
            if best_d is None or d < best_d or (d == best_d and s.id < best_id):
                best_d = d
                best_id = s.id
        edges.append((best_id, best_d))
    return edges


def dense_relaxed(net, candidates):
    """Per snapshot, per candidate, every edge weight after adding a sensor
    at the candidate: min(w, d) with d the candidate's distance to the
    edge's RoI, as a plain double loop over candidates and edges, with no
    pruning and no arrays.
    """
    coords = roi_coords(net)
    out = []
    for snap in net.snapshots:
        rows = []
        for c in candidates:
            row = []
            for roi_id, _, weight in edge_rows(snap):
                d = great_circle_distance(coords[roi_id - 1], c, net.earth)
                row.append(min(weight, d))
            rows.append(row)
        out.append(rows)
    return out


def naive_interval_analysis(snapshot_pairs, threshold):
    """Residuals and RoI cells for one interval, cell by cell.

    `snapshot_pairs` is a list of (earlier, later) FieldSnapshot pairs,
    one per variable. Returns (residual grids keyed by variable, and a
    dict cell_index -> (roi_value, {variable: contribution})).
    """
    ordered = sorted(snapshot_pairs, key=lambda p: kind_sort_key(p[0].variable))
    grid = ordered[0][0].grid
    residual_grids = {}
    for earlier, later in ordered:
        rows = []
        for i in range(grid.n_lat):
            row = []
            for j in range(grid.n_lon):
                if bool(earlier.valid[i, j]) and bool(later.valid[i, j]):
                    diff = float(later.values[i, j]) - float(earlier.values[i, j])
                    row.append(diff * diff)
                else:
                    row.append(None)
            rows.append(row)
        residual_grids[earlier.variable] = rows

    rois = {}
    for i in range(grid.n_lat):
        for j in range(grid.n_lon):
            value = 0.0
            contribs = {}
            for earlier, _ in ordered:
                r = residual_grids[earlier.variable][i][j]
                if r is not None and r >= threshold:
                    value += r
                    contribs[earlier.variable] = r
            if value > 0.0:
                rois[grid.cell_index(i, j)] = (value, contribs)
    return residual_grids, rois


def geojson_document(net, timestamp):
    """One snapshot's FeatureCollection as a dict tree, built feature by
    feature; `dump_json` of it gives the canonical GeoJSON bytes, with
    no template involved.
    """
    snap = net.snapshot_at(timestamp)
    coords = roi_coords(net)
    active = sorted(s.id for s in net.active_sensors)
    degrees = {sid: 0 for sid in active}
    for sid in snap.sensor_id.tolist():
        degrees[sid] += 1

    def point(coord):
        return {"type": "Point", "coordinates": [coord.lon, coord.lat]}

    features = []
    for sid in active:
        s = net.sensors_by_id[sid]
        properties = {
            "node_type": "sensor",
            "id": sid,
            "membership": s.membership.value,
            "status": s.operational_status.value,
            "degree": degrees[sid],
        }
        features.append(
            {"type": "Feature", "geometry": point(s.geolocation), "properties": properties}
        )
    for rid, payload in zip(snap.roi_id.tolist(), payloads(snap)):
        properties = {
            "node_type": "roi",
            "id": rid,
            "roi_value": sequential_sum(payload[k] for k in sorted(payload, key=kind_sort_key)),
            "residuals": {k.value: payload[k] for k in sorted(payload, key=kind_sort_key)},
        }
        features.append(
            {"type": "Feature", "geometry": point(coords[rid - 1]), "properties": properties}
        )
    for rid, sid, weight in edge_rows(snap):
        roi = coords[rid - 1]
        sensor = net.sensors_by_id[sid].geolocation
        geometry = {
            "type": "LineString",
            "coordinates": [[roi.lon, roi.lat], [sensor.lon, sensor.lat]],
        }
        properties = {"roi_id": rid, "sensor_id": sid, "weight_km": weight}
        features.append({"type": "Feature", "geometry": geometry, "properties": properties})
    return {"type": "FeatureCollection", "features": features}
