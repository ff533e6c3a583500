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
from typing import ClassVar, Mapping, NamedTuple, Sequence

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
    "RoITable",
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


def _check_distances(a: np.ndarray) -> None:
    bad = ~(np.isfinite(a) & (a >= 0.0))
    if bad.any():
        raise StructuralError(f"weight or residual {a[bad][0]} is not a distance")


def _frozen(values, dtype) -> np.ndarray:
    """A read-only `dtype` copy of `values`."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RoITable:
    """The RoI registry as read-only columns, one row per RoI node: its
    centre (`lon`, `lat`) in degrees and its flat grid `cell`. The RoI
    with id k is row k - 1. It caches nothing: networks edited from one
    share its table, and each computes its own tiles from it."""

    lon: np.ndarray
    lat: np.ndarray
    cell: np.ndarray

    def __post_init__(self):
        for name, dtype in (("lon", np.float64), ("lat", np.float64), ("cell", np.int64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.lon.ndim != 1 or not self.lon.shape == self.lat.shape == self.cell.shape:
            raise StructuralError("lon, lat and cell must be 1-D and of one length")
        if not ((abs(self.lon) <= 180.0) & (abs(self.lat) <= 90.0)).all():
            raise ParameterError("roi coordinates must be legal")

    def __len__(self) -> int:
        return len(self.lon)


# The object views below (`GstbnEdge`, `RoIEventNode`, `GstbnSnapshot.edges`
# and `.roi_ids`, `TemporalGstbn.roi_registry`) exist only for bench/, which
# still reads them (ROADMAP item 1); the library and its tests use the columns.
@dataclass(frozen=True)
class GstbnEdge:
    roi_id: int
    sensor_id: int
    weight_km: float


@dataclass(frozen=True)
class RoIEventNode:
    id: int
    geolocation: GeoCoord


@dataclass(frozen=True, eq=False)
class GstbnSnapshot:
    """The bipartite graph for one interval, keyed by the interval end.

    Row k links RoI `roi_id[k]` to sensor `sensor_id[k]`, `weight_km[k]`
    away: one row per RoI that fired, in increasing roi id. Its payload is
    `residual[k]`, a column per :class:`ObservationKind` in declaration
    order (NaN: did not fire). `roi_value[k]` is derived from it, not
    given: the row's fired residuals added left to right in that order
    from +0.0, the additions `extract_roi_events` makes. An RoI is an event
    because its value is positive, so each value must be finite and above
    0. The arrays are read-only copies, so a snapshot cannot change after
    its checks; :class:`TemporalGstbn` checks which sensors and RoIs the
    ids name.
    """

    timestamp: int
    roi_id: np.ndarray
    sensor_id: np.ndarray
    weight_km: np.ndarray
    residual: np.ndarray
    roi_value: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        for name, dtype in (("roi_id", np.int64), ("sensor_id", np.int64),
                            ("weight_km", np.float64), ("residual", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        shape = self.roi_id.shape
        if len(shape) != 1 or not shape == self.sensor_id.shape == self.weight_km.shape:
            raise StructuralError("roi_id, sensor_id and weight_km must be 1-D and of one length")
        if self.residual.shape != shape + (len(ObservationKind),):
            raise StructuralError("residual must hold one row per edge and one column per kind")
        if (np.diff(self.roi_id) <= 0).any():
            raise StructuralError("edges must be sorted by roi id, one per roi")
        fired = ~np.isnan(self.residual)
        _check_distances(self.weight_km)
        _check_distances(self.residual[fired])
        value = np.zeros(shape)
        with np.errstate(over="ignore"):
            for column in np.where(fired, self.residual, 0.0).T:
                value = value + column
        bad = ~(np.isfinite(value) & (value > 0.0))
        if bad.any():
            raise StructuralError(
                f"roi {self.roi_id[bad][0]} has value {value[bad][0]}, not finite and positive"
            )
        object.__setattr__(self, "roi_value", _frozen(value, np.float64))

    def __eq__(self, other):
        if not isinstance(other, GstbnSnapshot):
            return NotImplemented
        return self.timestamp == other.timestamp and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in ("roi_id", "sensor_id", "weight_km", "residual")
        )

    @cached_property
    def roi_ids(self) -> frozenset[int]:
        return frozenset(self.roi_id.tolist())

    @cached_property
    def edges(self) -> tuple[GstbnEdge, ...]:
        rows = zip(self.roi_id.tolist(), self.sensor_id.tolist(), self.weight_km.tolist())
        return tuple(GstbnEdge(*row) for row in rows)


@dataclass(frozen=True)
class TemporalGstbn:
    """Ordered snapshot sequence plus the node sets they reference.

    Every edge goes to an active catalog sensor and to an RoI of the
    registry table (id k is row k - 1), and carries that RoI's payload for
    its interval. Every distance is on the sphere `earth`, always `EARTH`.
    """

    snapshots: tuple[GstbnSnapshot, ...]
    sensor_catalog: tuple[SensorNode, ...]
    roi_table: RoITable
    strict_observations: bool = False
    earth: ClassVar[EarthModel] = EARTH

    def __post_init__(self):
        times = [s.timestamp for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise OrderingError(f"snapshot timestamps must strictly increase, got {times}")
        if len(self.sensors_by_id) != len(self.sensor_catalog):
            raise StructuralError("duplicate sensor ids in catalog")
        active = {s.id for s in self.active_sensors}
        for snap in self.snapshots:
            stray = set(np.unique(snap.sensor_id).tolist()) - active
            if stray:
                raise StructuralError(
                    f"snapshot {snap.timestamp} links sensor {min(stray)}, not active in the catalog"
                )
            # ids strictly increase, so the first and last bound them all
            if len(snap.roi_id) and not 1 <= snap.roi_id[0] <= snap.roi_id[-1] <= len(self.roi_table):
                raise StructuralError(f"snapshot {snap.timestamp} links an roi not in the registry")

    @cached_property
    def sensors_by_id(self) -> dict[int, SensorNode]:
        return {s.id: s for s in self.sensor_catalog}

    @cached_property
    def roi_registry(self) -> tuple[RoIEventNode, ...]:
        coords = map(GeoCoord, self.roi_table.lon.tolist(), self.roi_table.lat.tolist())
        return tuple(map(RoIEventNode, range(1, len(self.roi_table) + 1), coords))

    @cached_property
    def _edge_rows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per snapshot, (edge position, edge weight) of each table RoI:
        (-1, -inf) where the RoI did not fire, so no distance is below it."""
        out = []
        for snap in self.snapshots:
            pos = np.full(len(self.roi_table), -1, dtype=np.intp)
            weight = np.full(len(self.roi_table), -np.inf)
            rows = snap.roi_id - 1
            pos[rows] = np.arange(len(rows))
            weight[rows] = snap.weight_km
            out.append((pos, weight))
        return tuple(out)

    @cached_property
    def _tiles(self) -> "_Tiles":
        """The table's RoIs in tiles, with per tile the reach beyond which a
        candidate relaxes none of its RoIs' edges: the bound that prunes
        `_relaxed`. Computed per network, edited ones included.

        The radius bounds the distance from a tile's centre (the middle of
        its RoIs' lat/lon box) to any point of the box: a meridian arc of
        half the latitude extent, then a parallel arc of half the longitude
        extent at the box latitude nearest the equator, where parallels are
        longest. The geodesic is no longer than that path. By the triangle
        inequality a candidate more than radius + the tile's largest weight
        from the centre is at least that weight from every RoI in the tile.
        The slack, 1e-6 earth radii, absorbs rounding in `haversine_km`: its
        error stays below 1e-7 earth radii even next to the antipode, where
        arcsin is steepest, so a pruned RoI's computed distance is never
        below its edge weight.
        """
        lon, lat = self.roi_table.lon, self.roi_table.lat
        keys = _tile_keys(lon, lat)
        order = np.argsort(keys, kind="stable")
        _, start, count = np.unique(keys[order], return_index=True, return_counts=True)
        lon_lo, lon_hi = np.minimum.reduceat(lon[order], start), np.maximum.reduceat(lon[order], start)
        lat_lo, lat_hi = np.minimum.reduceat(lat[order], start), np.maximum.reduceat(lat[order], start)
        equatorward = np.where(lat_lo * lat_hi <= 0.0, 0.0, np.minimum(abs(lat_lo), abs(lat_hi)))
        radius = (
            np.radians(lat_hi - lat_lo) / 2.0
            + np.cos(np.radians(equatorward)) * np.radians(lon_hi - lon_lo) / 2.0
        ) * EARTH.radius_km
        largest = np.full(len(order), -np.inf)
        for _, weight in self._edge_rows:
            largest = np.maximum(largest, weight)
        reach = np.maximum.reduceat(largest[order], start) + radius + 1e-6 * EARTH.radius_km
        centre = (lon_lo + lon_hi) / 2.0, (lat_lo + lat_hi) / 2.0
        return _Tiles(order, start, count, *centre, radius, reach)

    @property
    def active_sensors(self) -> list[SensorNode]:
        return [s for s in self.sensor_catalog if s.is_active]

    def snapshot_at(self, timestamp: int) -> GstbnSnapshot:
        for snap in self.snapshots:
            if snap.timestamp == timestamp:
                return snap
        raise NotFoundError(f"no snapshot at timestamp {timestamp}")


def _nearest(
    lon: np.ndarray, lat: np.ndarray, sensors: Sequence[SensorNode]
) -> tuple[np.ndarray, np.ndarray]:
    """(sensor id, distance km) of the nearest sensor to each point.

    Sensors are sorted by id and `argmin` returns the first minimum, so
    ties go to the lowest id. Distances are computed in row blocks of at
    most BLOCK_PAIRS pairs.
    """
    ordered = sorted(sensors, key=lambda s: s.id)
    s_lon, s_lat = lonlat_arrays(s.geolocation for s in ordered)
    best = np.empty(len(lon), dtype=np.intp)
    dist = np.empty(len(lon), dtype=np.float64)
    for rows in row_blocks(len(lon), len(ordered)):
        block = haversine_km(lon[rows, None], lat[rows, None], s_lon, s_lat)
        best[rows] = block.argmin(axis=1)
        dist[rows] = block.min(axis=1)
    return np.array([s.id for s in ordered], dtype=np.int64)[best], dist


def build_edges(
    lon,
    lat,
    sensors: Sequence[SensorNode],
    *,
    fired: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Link every point to its nearest sensor; ties go to the lower sensor id.

    Point k lies at (`lon[k]`, `lat[k]`). With `fired`, a boolean
    (points x kinds) array with one column per :class:`ObservationKind` in
    declaration order, each point only considers sensors observing at
    least one of the variables that fired there; without it any sensor
    qualifies. Returns the arrays (sensor_id, weight_km), one row per point
    in the order given. An empty sensor list raises, even with no points:
    a network without observers is a caller error, not an empty result.
    """
    if not sensors:
        raise NoObserversError("no active sensors to link against")

    lon, lat = np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64)
    # points that fired the same kinds (one bit each) share a group and its eligible sensors
    group = np.zeros(len(lon), dtype=np.int64)
    if fired is not None:
        group = np.asarray(fired, dtype=bool) @ (1 << np.arange(len(ObservationKind)))
    sensor_id = np.empty(len(lon), dtype=np.int64)
    weight_km = np.empty(len(lon), dtype=np.float64)
    for key in np.unique(group).tolist():
        eligible = sensors
        if fired is not None:
            kinds = {kind for j, kind in enumerate(ObservationKind) if key >> j & 1}
            eligible = [s for s in sensors if s.observations & kinds]
            if not eligible:
                names = ",".join(sorted(k.value for k in kinds))
                raise NoObserversError(f"no active sensor observes any of: {names}")
        rows = group == key
        sensor_id[rows], weight_km[rows] = _nearest(lon[rows], lat[rows], eligible)
    return sensor_id, weight_km


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


def build_temporal_gstbn(
    series: Mapping[ObservationKind, Sequence[FieldSnapshot]],
    catalog: Sequence[SensorNode],
    threshold: RoIThreshold = DEFAULT_ROI_THRESHOLD,
    *,
    strict_observations: bool = False,
) -> TemporalGstbn:
    """Construct the full temporal network from field series and a catalog.

    Each consecutive timestamp pair becomes one snapshot keyed by the
    interval end. RoI nodes are keyed by grid cell, so a cell firing in
    several intervals reuses one node id; ids are assigned in first-firing
    order. With `strict_observations`, RoIs only link to sensors that
    observe at least one variable that fired there.
    """
    catalog = tuple(catalog)  # TemporalGstbn rejects duplicate ids
    if not catalog:
        raise NoObserversError("sensor catalog is empty")
    actives = [s for s in catalog if s.is_active]
    if not actives:
        raise NoObserversError("no active sensors in catalog")

    timestamps, ordered = _series_intervals(series)

    cells = np.zeros(0, dtype=np.int64)  # the cells given ids so far: id k + 1 at k
    coords = []  # (lon, lat) of the cells each interval gives ids
    snapshots = []
    for k, t_end in enumerate(timestamps[1:]):
        fields = [compute_residual_field(snaps[k], snaps[k + 1]) for snaps in ordered.values()]
        events = extract_roi_events(fields, threshold)
        # cells firing for the first time take the next ids, in cell order
        new = ~np.isin(events.cell, cells)
        cells = np.concatenate([cells, events.cell[new]])
        coords.append((events.lon[new], events.lat[new]))
        by_cell = np.argsort(cells)
        ids = by_cell[np.searchsorted(cells, events.cell, sorter=by_cell)] + 1
        # a snapshot's rows are in roi-id order
        order = np.argsort(ids, kind="stable")
        fired = ~np.isnan(events.residual[order]) if strict_observations else None
        edges = build_edges(events.lon[order], events.lat[order], actives, fired=fired)
        snapshots.append(GstbnSnapshot(t_end, ids[order], *edges, events.residual[order]))

    lon, lat = (np.concatenate(column) for column in zip(*coords))
    return TemporalGstbn(
        snapshots=tuple(snapshots),
        sensor_catalog=catalog,
        roi_table=RoITable(lon=lon, lat=lat, cell=cells),
        strict_observations=strict_observations,
    )


# RoIs per occupied tile that `_tile_keys` aims for: smaller tiles cost
# more bound checks per candidate, bigger ones more distances per survivor.
_TILE_ROIS = 16


class _Tiles(NamedTuple):
    """Table RoIs bucketed into lat/lon tiles, for pruning the relax step.

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
    dlat, dlon = lat - lat.min(), lon - lon.min()
    # at most 2**30 tiles a side, where keys still fit int64, however many points coincide
    for k in range(1, 61):
        n = math.ceil(2.0 ** (k / 2))
        side = span / n
        if side == 0.0:
            break
        i = np.minimum(dlat // side, n).astype(np.int64)
        j = np.minimum(dlon // side, n).astype(np.int64)
        keys = i * (n + 1) + j
        if len(lon) <= _TILE_ROIS * len(np.unique(keys)):
            break
    return keys


def _relaxed(net: TemporalGstbn, lon: np.ndarray, lat: np.ndarray):
    """Per snapshot, the edges a sensor added at each of the given
    candidates would take over, as arrays (trial, pos, d): candidate
    `trial` is d km from the RoI of edge `pos`, strictly less than the
    edge's weight w. Every other edge keeps w = min(w, d).

    This is the one relax step: `add_sensor` applies it to one candidate
    and trial scoring to many. Distances are computed only for the RoIs of
    the tiles `_tiles` cannot rule out, by `haversine_km` on the same
    coordinates in the same argument order as a dense (candidates x RoIs)
    block, so each d is the value that block would hold. Rows come in
    increasing trial order.
    """
    tiles = net._tiles
    near = haversine_km(tiles.lon, tiles.lat, lon[:, None], lat[:, None])
    trial, tile = np.nonzero(near <= tiles.reach)
    count = tiles.count[tile]
    trial = np.repeat(trial, count)
    # the registry rows of each surviving tile, one run per (trial, tile) pair
    offset = np.repeat(tiles.start[tile] - (np.cumsum(count) - count), count)
    row = tiles.order[offset + np.arange(len(trial))]
    table = net.roi_table
    dist = haversine_km(table.lon[row], table.lat[row], lon[trial], lat[trial])
    for pos, weight in net._edge_rows:
        closer = dist < weight[row]
        yield trial[closer], pos[row[closer]], dist[closer]


def _relinked(net: TemporalGstbn, catalog: tuple[SensorNode, ...], changes) -> TemporalGstbn:
    """`net` under `catalog`, the one way to edit a network: per snapshot,
    `changes` gives `(rows, sensor_id, weight_km)`, and the edges at `rows`
    (positions or a mask) now go to `sensor_id`, `weight_km` km away. The
    result shares `net`'s RoI table; each snapshot is built and checked
    as a fresh one is."""
    snapshots = []
    for snap, (rows, sensor_id, weight_km) in zip(net.snapshots, changes):
        linked, weights = snap.sensor_id.copy(), snap.weight_km.copy()
        linked[rows], weights[rows] = sensor_id, weight_km
        snapshots.append(GstbnSnapshot(snap.timestamp, snap.roi_id, linked, weights, snap.residual))
    return replace(net, snapshots=tuple(snapshots), sensor_catalog=catalog)


def _fresh_id(catalog: Sequence[SensorNode], count: int = 1) -> int:
    """The id `add_sensor` gives a new sensor, one above every catalog id;
    ParameterError unless `count` such ids, one per added sensor, fit in int64."""
    top = max((s.id for s in catalog), default=0)
    if top + count > 2**63 - 1:
        raise ParameterError(f"no fresh sensor id left for {count} new sensor(s): the"
                             f" catalog's largest id is {top}, and ids stop at 2**63-1")
    return top + 1


def add_sensor(net: TemporalGstbn, coord: GeoCoord) -> TemporalGstbn:
    """New network with a synthetic active sensor at `coord`.

    The sensor gets a fresh id above every catalog id and observes all
    variables, so it is eligible for every RoI even under strict
    matching. Each RoI moves to it only when it is strictly closer than
    the current edge (w <- min(w, d_new), see :func:`_relaxed`): its id is
    the highest, so a tie stays with the existing sensor, exactly as a
    rebuild would decide. No snapshot's coverage can increase.
    """
    fresh_id = _fresh_id(net.sensor_catalog)
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
        rows = snap.roi_id[served] - 1
        lon, lat = net.roi_table.lon[rows], net.roi_table.lat[rows]
        fired = ~np.isnan(snap.residual[served]) if net.strict_observations else None
        linked, weights = build_edges(lon, lat, actives, fired=fired)
        changes.append((served, linked, weights))
    return _relinked(net, catalog, changes)
