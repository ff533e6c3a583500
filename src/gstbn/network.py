"""Bipartite observer/observable network construction.

One side of the bipartite graph holds sensor nodes (persistent across
time), the other holds RoI event nodes (one per grid cell that crossed
the residual threshold in an interval). Every RoI links to its nearest
active sensor by great-circle distance, so each snapshot is a star
forest: RoI degree is exactly one, sensor degree counts assigned RoIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    NoObserversError,
    NotFoundError,
    OrderingError,
    ParameterError,
    StructuralError,
)
from .field import (
    DEFAULT_ROI_THRESHOLD,
    FieldSnapshot,
    ObservationKind,
    RoIThreshold,
    compute_residual_field,
    extract_roi_events,
    kind_sort_key,
)
from .geo import EARTH, EarthModel, GeoCoord, haversine_km, lonlat_arrays, row_blocks

__all__ = [
    "Membership",
    "Mobility",
    "OperationalStatus",
    "SensorNode",
    "RoIEventNode",
    "GstbnEdge",
    "GstbnSnapshot",
    "TemporalGstbn",
    "build_edges",
    "build_temporal_gstbn",
    "add_sensor",
    "remove_sensor",
]


class Membership(Enum):
    FEDERAL = "federal"
    LDN = "ldn"


class Mobility(Enum):
    STATIONARY = "stationary"
    MOBILE = "mobile"


class OperationalStatus(Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"


@dataclass(frozen=True)
class SensorNode:
    """An observing platform from the catalog.

    Mobile sensors are stored with their catalog position and treated as
    stationary when linking. Inactive sensors stay in the catalog but
    never receive edges.
    """

    id: int
    membership: Membership
    data_source: str
    platform: str
    mobility: Mobility
    geolocation: GeoCoord
    operational_status: OperationalStatus
    observations: frozenset[ObservationKind]

    def __post_init__(self):
        object.__setattr__(self, "observations", frozenset(self.observations))
        if not 0 <= self.id < 2**63:  # ids go into int64 arrays
            raise ParameterError(f"sensor id must be in [0, 2**63-1], got {self.id}")
        if self.is_active and not self.observations:
            raise ParameterError(f"active sensor {self.id} observes nothing")

    @property
    def is_active(self) -> bool:
        return self.operational_status is OperationalStatus.ACTIVE


@dataclass
class RoIEventNode:
    """One grid cell's event node, shared by every interval it fires in.

    `snapshots` maps interval-end timestamp -> {variable -> residual} for
    the variables that cleared the threshold in that interval.
    """

    id: int
    geolocation: GeoCoord
    snapshots: dict[int, dict[ObservationKind, float]] = dc_field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.id < 2**63:  # ids go into int64 arrays
            raise ParameterError(f"roi id must be in [0, 2**63-1], got {self.id}")
        for ts, payload in self.snapshots.items():
            for kind, value in payload.items():
                if not (math.isfinite(value) and value >= 0.0):
                    raise ParameterError(
                        f"roi {self.id} at t={ts} has bad residual {value} for {kind.value}"
                    )

    def roi_value_at(self, timestamp: int) -> float:
        """The residuals added left to right in kind order, as
        `extract_roi_events` adds them (builtin `sum` compensates from
        Python 3.12 on)."""
        payload = self.snapshots[timestamp]
        total = 0.0
        for kind in sorted(payload, key=kind_sort_key):
            total += payload[kind]
        return total


@dataclass(frozen=True)
class GstbnEdge:
    roi_id: int
    sensor_id: int
    weight_km: float


_EDGE_ARRAYS = (("roi_id", np.int64), ("sensor_id", np.int64), ("weight_km", np.float64))


@dataclass(frozen=True, eq=False)
class GstbnSnapshot:
    """The bipartite graph for one interval, keyed by the interval end.

    Row k links RoI `roi_id[k]` to sensor `sensor_id[k]`, `weight_km[k]`
    away: one row per RoI that fired, in increasing roi id. The arrays
    are read-only copies, so a snapshot cannot change after its checks;
    :class:`TemporalGstbn` checks which sensors and RoIs the ids name.
    """

    timestamp: int
    roi_id: np.ndarray
    sensor_id: np.ndarray
    weight_km: np.ndarray

    def __post_init__(self):
        for name, dtype in _EDGE_ARRAYS:
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        shape = self.roi_id.shape
        if len(shape) != 1 or not shape == self.sensor_id.shape == self.weight_km.shape:
            raise StructuralError("roi_id, sensor_id and weight_km must be 1-D and of one length")
        if (np.diff(self.roi_id) <= 0).any():
            raise StructuralError("edges must be sorted by roi id, one per roi")
        bad = ~(np.isfinite(self.weight_km) & (self.weight_km >= 0.0))
        if bad.any():
            raise StructuralError(f"edge weight {self.weight_km[bad][0]} is not a distance")

    def __eq__(self, other):
        if not isinstance(other, GstbnSnapshot):
            return NotImplemented
        return self.timestamp == other.timestamp and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _EDGE_ARRAYS
        )

    @cached_property
    def roi_ids(self) -> frozenset[int]:
        return frozenset(self.roi_id.tolist())

    @cached_property
    def edges(self) -> tuple[GstbnEdge, ...]:
        """The rows as edge objects, built on first read from the arrays."""
        rows = zip(self.roi_id.tolist(), self.sensor_id.tolist(), self.weight_km.tolist())
        return tuple(GstbnEdge(*row) for row in rows)


@dataclass(frozen=True)
class TemporalGstbn:
    """Ordered snapshot sequence plus the node sets they reference.

    Every edge goes to an active catalog sensor, and each snapshot links
    exactly the registry RoIs with a payload at its timestamp.
    """

    snapshots: tuple[GstbnSnapshot, ...]
    sensor_catalog: tuple[SensorNode, ...]
    roi_registry: tuple[RoIEventNode, ...]
    strict_observations: bool = False
    earth: EarthModel = EARTH

    def __post_init__(self):
        times = [s.timestamp for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise OrderingError(f"snapshot timestamps must strictly increase, got {times}")
        if len(self.sensors_by_id) != len(self.sensor_catalog):
            raise StructuralError("duplicate sensor ids in catalog")
        if len(self.rois_by_id) != len(self.roi_registry):
            raise StructuralError("duplicate roi ids in registry")
        active = {s.id for s in self.active_sensors}
        fired: dict[int, list[int]] = {}
        for node in self.roi_registry:
            for ts in node.snapshots:
                fired.setdefault(ts, []).append(node.id)
        for snap in self.snapshots:
            stray = set(np.unique(snap.sensor_id).tolist()) - active
            if stray:
                raise StructuralError(
                    f"snapshot {snap.timestamp} links sensor {min(stray)}, not active in the catalog"
                )
            if not np.array_equal(snap.roi_id, sorted(fired.get(snap.timestamp, ()))):
                raise StructuralError(f"snapshot {snap.timestamp} rois differ from its payloads")

    @cached_property
    def sensors_by_id(self) -> dict[int, SensorNode]:
        return {s.id: s for s in self.sensor_catalog}

    @cached_property
    def rois_by_id(self) -> dict[int, RoIEventNode]:
        return {r.id: r for r in self.roi_registry}

    @cached_property
    def _registry_lonlat(self) -> tuple[np.ndarray, np.ndarray]:
        return lonlat_arrays(n.geolocation for n in self.roi_registry)

    @cached_property
    def _edge_rows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per snapshot, (edge position, edge weight) of each registry RoI:
        (-1, -inf) where the RoI did not fire, so no distance is below it."""
        ids = np.array([r.id for r in self.roi_registry], dtype=np.int64)
        order = np.argsort(ids)
        out = []
        for snap in self.snapshots:
            # every edge's roi is registered, as __post_init__ checked
            rows = order[np.searchsorted(ids[order], snap.roi_id)]
            pos = np.full(len(ids), -1, dtype=np.intp)
            weight = np.full(len(ids), -np.inf)
            pos[rows] = np.arange(len(rows))
            weight[rows] = snap.weight_km
            out.append((pos, weight))
        return tuple(out)

    @cached_property
    def _tiles(self) -> "_Tiles":
        """The registry RoIs in tiles, with the bound that prunes `_relaxed`."""
        return _tile_table(*self._registry_lonlat, self._edge_rows, self.earth)

    @property
    def active_sensors(self) -> list[SensorNode]:
        return [s for s in self.sensor_catalog if s.is_active]

    def snapshot_at(self, timestamp: int) -> GstbnSnapshot:
        for snap in self.snapshots:
            if snap.timestamp == timestamp:
                return snap
        raise NotFoundError(f"no snapshot at timestamp {timestamp}")


def _nearest(
    rois: Sequence[RoIEventNode], sensors: Sequence[SensorNode], earth: EarthModel
) -> tuple[np.ndarray, np.ndarray]:
    """(sensor id, distance km) of the nearest sensor for each RoI.

    Sensors are sorted by id and `argmin` returns the first minimum, so
    ties go to the lowest id. Distances are computed in row blocks of at
    most BLOCK_PAIRS pairs.
    """
    ordered = sorted(sensors, key=lambda s: s.id)
    s_lon, s_lat = lonlat_arrays(s.geolocation for s in ordered)
    r_lon, r_lat = lonlat_arrays(r.geolocation for r in rois)
    best = np.empty(len(rois), dtype=np.intp)
    dist = np.empty(len(rois), dtype=np.float64)
    for rows in row_blocks(len(rois), len(ordered)):
        block = haversine_km(r_lon[rows, None], r_lat[rows, None], s_lon, s_lat, earth.radius_km)
        best[rows] = block.argmin(axis=1)
        dist[rows] = block.min(axis=1)
    return np.array([s.id for s in ordered], dtype=np.int64)[best], dist


def build_edges(
    rois: Sequence[RoIEventNode],
    sensors: Sequence[SensorNode],
    earth: EarthModel = EARTH,
    contributing_kinds: Mapping[int, frozenset[ObservationKind]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Link every RoI to its nearest sensor; ties go to the lower sensor id.

    With `contributing_kinds` (roi id -> the variables that fired there),
    each RoI only considers sensors observing at least one of its
    variables; without it any sensor qualifies. Returns the edges as the
    arrays (roi_id, sensor_id, weight_km) of a :class:`GstbnSnapshot`,
    sorted by roi id. An empty sensor list raises, even with no RoIs:
    a network without observers is a caller error, not an empty result.
    """
    if not sensors:
        raise NoObserversError("no active sensors to link against")

    rois = list(rois)
    if contributing_kinds is None:
        groups: dict[frozenset[ObservationKind] | None, list[int]] = {None: list(range(len(rois)))}
    else:
        groups = {}
        for k, roi in enumerate(rois):
            groups.setdefault(frozenset(contributing_kinds[roi.id]), []).append(k)

    roi_id = np.array([r.id for r in rois], dtype=np.int64)
    sensor_id = np.empty(len(rois), dtype=np.int64)
    weight_km = np.empty(len(rois), dtype=np.float64)
    for kinds, rows in groups.items():
        if kinds is None:
            eligible: Sequence[SensorNode] = sensors
        else:
            eligible = [s for s in sensors if s.observations & kinds]
            if not eligible:
                names = ",".join(sorted(k.value for k in kinds))
                raise NoObserversError(f"no active sensor observes any of: {names}")
        sensor_id[rows], weight_km[rows] = _nearest([rois[k] for k in rows], eligible, earth)
    order = np.argsort(roi_id, kind="stable")
    return roi_id[order], sensor_id[order], weight_km[order]


def _series_intervals(
    series: Mapping[ObservationKind, Sequence[FieldSnapshot]],
) -> tuple[list[int], dict[ObservationKind, list[FieldSnapshot]]]:
    if not series:
        raise StructuralError("no field series given")
    ordered: dict[ObservationKind, list[FieldSnapshot]] = {}
    grid = None
    timestamps: list[int] | None = None
    for kind in sorted(series, key=kind_sort_key):
        snaps = sorted(series[kind], key=lambda s: s.timestamp)
        if len(snaps) < 2:
            raise StructuralError(f"{kind.value} series needs at least 2 timestamps")
        for snap in snaps:
            if snap.variable is not kind:
                raise StructuralError(
                    f"snapshot variable {snap.variable.value} filed under {kind.value}"
                )
            if grid is None:
                grid = snap.grid
            elif snap.grid != grid:
                raise StructuralError("all series must share one grid")
        times = [s.timestamp for s in snaps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise OrderingError(f"{kind.value} series has non-increasing timestamps")
        if timestamps is None:
            timestamps = times
        elif times != timestamps:
            raise StructuralError("all variables must cover the same timestamps")
        ordered[kind] = snaps
    assert timestamps is not None
    return timestamps, ordered


def _fired_kinds(rois: Sequence[RoIEventNode], timestamp: int) -> dict[int, frozenset]:
    """Roi id -> the variables that fired there at `timestamp`: the
    `contributing_kinds` of strict matching."""
    return {r.id: frozenset(r.snapshots[timestamp]) for r in rois}


def build_temporal_gstbn(
    series: Mapping[ObservationKind, Sequence[FieldSnapshot]],
    catalog: Sequence[SensorNode],
    threshold: RoIThreshold = DEFAULT_ROI_THRESHOLD,
    earth: EarthModel = EARTH,
    strict_observations: bool = False,
) -> TemporalGstbn:
    """Construct the full temporal network from field series and a catalog.

    Each consecutive timestamp pair becomes one snapshot keyed by the
    interval end. RoI nodes are keyed by grid cell, so a cell firing in
    several intervals reuses one node id; ids are assigned in first-firing
    order. With `strict_observations`, RoIs only link to sensors that
    observe at least one variable that fired there.
    """
    catalog = tuple(catalog)
    if not catalog:
        raise NoObserversError("sensor catalog is empty")
    ids = [s.id for s in catalog]
    if len(set(ids)) != len(ids):
        raise StructuralError("duplicate sensor ids in catalog")
    actives = [s for s in catalog if s.is_active]
    if not actives:
        raise NoObserversError("no active sensors in catalog")

    timestamps, ordered = _series_intervals(series)

    by_cell: dict[int, RoIEventNode] = {}
    next_roi_id = 1
    snapshots: list[GstbnSnapshot] = []
    for k in range(len(timestamps) - 1):
        t_end = timestamps[k + 1]
        residual_fields = [
            compute_residual_field(snaps[k], snaps[k + 1]) for snaps in ordered.values()
        ]
        events = extract_roi_events(residual_fields, threshold)
        interval_rois: list[RoIEventNode] = []
        for event in events:
            node = by_cell.get(event.cell_index)
            if node is None:
                node = RoIEventNode(id=next_roi_id, geolocation=event.coord)
                next_roi_id += 1
                by_cell[event.cell_index] = node
            node.snapshots[t_end] = dict(event.residuals)
            interval_rois.append(node)
        kinds = _fired_kinds(interval_rois, t_end) if strict_observations else None
        edges = build_edges(interval_rois, actives, earth, contributing_kinds=kinds)
        snapshots.append(GstbnSnapshot(t_end, *edges))

    registry = tuple(sorted(by_cell.values(), key=lambda n: n.id))
    return TemporalGstbn(
        snapshots=tuple(snapshots),
        sensor_catalog=catalog,
        roi_registry=registry,
        strict_observations=strict_observations,
        earth=earth,
    )


# RoIs per occupied tile that `_tile_keys` aims for: smaller tiles cost
# more bound checks per candidate, bigger ones more distances per survivor.
_TILE_ROIS = 16


class _Tiles(NamedTuple):
    """Registry RoIs bucketed into lat/lon tiles, for pruning the relax step.

    Tile k holds the registry rows `order[start[k] : start[k] + count[k]]`,
    all within `radius[k]` km of its centre (`lon[k]`, `lat[k]`). A
    candidate farther than `reach[k]` km from the centre cannot bring any
    of their edges closer, in any snapshot.
    """

    order: np.ndarray
    start: np.ndarray
    count: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    radius: np.ndarray
    reach: np.ndarray


def _tile_keys(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Tile key of each point: square tiles laid over the points' bounding
    box, shrunk by factors of sqrt(2) from the box's span until the
    occupied tiles hold at most _TILE_ROIS points on average."""
    keys = np.zeros(len(lon), dtype=np.int64)
    if len(lon) <= _TILE_ROIS:
        return keys
    span = max(np.ptp(lon), np.ptp(lat))
    # at most 2**30 tiles a side, where keys still fit int64, however many points coincide
    for k in range(1, 61):
        n = math.ceil(2.0 ** (k / 2))
        side = span / n
        if side == 0.0:
            break
        i = np.minimum((lat - lat.min()) // side, n).astype(np.int64)
        j = np.minimum((lon - lon.min()) // side, n).astype(np.int64)
        keys = i * (n + 1) + j
        if len(lon) <= _TILE_ROIS * len(np.unique(keys)):
            break
    return keys


def _tile_table(lon, lat, edge_rows, earth: EarthModel) -> _Tiles:
    """The tiles of the registry RoIs at (`lon`, `lat`) and, per tile, the
    reach beyond which a candidate relaxes none of their edges.

    The radius bounds the distance from a tile's centre (the middle of its
    RoIs' lat/lon box) to any point of the box: a meridian arc of half the
    latitude extent, then a parallel arc of half the longitude extent at
    the box latitude nearest the equator, where parallels are longest. The
    geodesic is no longer than that path. By the triangle inequality a
    candidate more than radius + the tile's largest weight from the
    centre is at least that weight from every RoI in the tile.

    The slack, 1e-6 earth radii, absorbs rounding in `haversine_km`: its
    error stays below 1e-7 earth radii even next to the antipode, where
    arcsin is steepest, so a pruned RoI's computed distance is never below
    its edge weight.
    """
    keys = _tile_keys(lon, lat)
    order = np.argsort(keys, kind="stable")
    _, start, count = np.unique(keys[order], return_index=True, return_counts=True)
    largest = np.full(len(order), -np.inf)
    for _, weight in edge_rows:
        largest = np.maximum(largest, weight)
    largest = np.maximum.reduceat(largest[order], start)
    lon_lo, lon_hi = np.minimum.reduceat(lon[order], start), np.maximum.reduceat(lon[order], start)
    lat_lo, lat_hi = np.minimum.reduceat(lat[order], start), np.maximum.reduceat(lat[order], start)
    equatorward = np.where(lat_lo * lat_hi <= 0.0, 0.0, np.minimum(abs(lat_lo), abs(lat_hi)))
    radius = earth.radius_km * (
        np.radians(lat_hi - lat_lo) / 2.0
        + np.cos(np.radians(equatorward)) * np.radians(lon_hi - lon_lo) / 2.0
    )
    return _Tiles(
        order=order,
        start=start,
        count=count,
        lon=(lon_lo + lon_hi) / 2.0,
        lat=(lat_lo + lat_hi) / 2.0,
        radius=radius,
        reach=largest + radius + 1e-6 * earth.radius_km,
    )


def _relaxed(net: TemporalGstbn, lon: np.ndarray, lat: np.ndarray):
    """Per snapshot, the edges a sensor added at each of the given
    candidates would take over, as arrays (trial, pos, d): candidate
    `trial` is d km from the RoI of edge `pos`, strictly less than the
    edge's weight w. Every other edge keeps w = min(w, d).

    This is the one relax step: `add_sensor` applies it to one candidate
    and trial scoring to many. Distances are computed only for the RoIs of
    the tiles `_tile_table` cannot rule out, by `haversine_km` on the same
    coordinates in the same argument order as a dense (candidates x RoIs)
    block, so each d is the value that block would hold. Rows come in
    increasing trial order.
    """
    tiles, radius_km = net._tiles, net.earth.radius_km
    near = haversine_km(tiles.lon, tiles.lat, lon[:, None], lat[:, None], radius_km)
    trial, tile = np.nonzero(near <= tiles.reach)
    count = tiles.count[tile]
    trial = np.repeat(trial, count)
    # the registry rows of each surviving tile, one run per (trial, tile) pair
    offset = np.repeat(tiles.start[tile] - (np.cumsum(count) - count), count)
    row = tiles.order[offset + np.arange(len(trial))]
    r_lon, r_lat = net._registry_lonlat
    dist = haversine_km(r_lon[row], r_lat[row], lon[trial], lat[trial], radius_km)
    for pos, weight in net._edge_rows:
        closer = dist < weight[row]
        yield trial[closer], pos[row[closer]], dist[closer]


def _relinked(net: TemporalGstbn, catalog: tuple[SensorNode, ...], changes) -> TemporalGstbn:
    """`net` under `catalog`, the one way to edit a network: per snapshot,
    `changes` gives `(rows, sensor_id, weight_km)`, and the edges at `rows`
    (positions or a mask) now go to `sensor_id`, `weight_km` km away."""
    snapshots = []
    for snap, (rows, sensor_id, weight_km) in zip(net.snapshots, changes):
        linked, weights = snap.sensor_id.copy(), snap.weight_km.copy()
        linked[rows], weights[rows] = sensor_id, weight_km
        snapshots.append(replace(snap, sensor_id=linked, weight_km=weights))
    return replace(net, snapshots=tuple(snapshots), sensor_catalog=catalog)


def add_sensor(net: TemporalGstbn, coord: GeoCoord) -> TemporalGstbn:
    """New network with a synthetic active sensor at `coord`.

    The sensor gets a fresh id above every catalog id and observes all
    variables, so it is eligible for every RoI even under strict
    matching. Each RoI moves to it only when it is strictly closer than
    the current edge (w <- min(w, d_new), see :func:`_relaxed`): its id is
    the highest, so a tie stays with the existing sensor, exactly as a
    rebuild would decide. No snapshot's coverage can increase.
    """
    fresh_id = max((s.id for s in net.sensor_catalog), default=0) + 1
    sensor = SensorNode(
        id=fresh_id,
        membership=Membership.LDN,
        data_source="synthetic",
        platform=f"candidate-{fresh_id}",
        mobility=Mobility.STATIONARY,
        geolocation=coord,
        operational_status=OperationalStatus.ACTIVE,
        observations=frozenset(ObservationKind),
    )
    lon, lat = lonlat_arrays([coord])
    changes = ((pos, fresh_id, dist) for _, pos, dist in _relaxed(net, lon, lat))
    return _relinked(net, net.sensor_catalog + (sensor,), changes)


def remove_sensor(net: TemporalGstbn, sensor_id: int) -> TemporalGstbn:
    """New network with the given sensor deactivated.

    Only the RoIs it served are relinked, through :func:`build_edges`;
    every other RoI keeps its nearest sensor. The sensor stays in the
    catalog for reporting; it just stops receiving edges. Removing the
    last active sensor is refused.
    """
    target = net.sensors_by_id.get(sensor_id)
    if target is None:
        raise NotFoundError(f"no sensor with id {sensor_id}")
    if not target.is_active:
        raise ParameterError(f"sensor {sensor_id} is already inactive")
    catalog = tuple(
        replace(s, operational_status=OperationalStatus.INACTIVE) if s.id == sensor_id else s
        for s in net.sensor_catalog
    )
    actives = [s for s in catalog if s.is_active]
    if not actives:
        raise NoObserversError("removal would leave no active sensors")
    changes = []
    for snap in net.snapshots:
        served = snap.sensor_id == sensor_id
        orphans = [net.rois_by_id[rid] for rid in snap.roi_id[served].tolist()]
        kinds = _fired_kinds(orphans, snap.timestamp) if net.strict_observations else None
        # the orphans are in roi-id order, the order build_edges returns them in
        _, linked, weights = build_edges(orphans, actives, net.earth, kinds)
        changes.append((served, linked, weights))
    return _relinked(net, catalog, changes)
