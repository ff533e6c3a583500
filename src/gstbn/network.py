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
from typing import Mapping, Sequence

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
        if self.id < 0:
            raise ParameterError(f"sensor id must be non-negative, got {self.id}")
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
        for ts, payload in self.snapshots.items():
            for kind, value in payload.items():
                if not (math.isfinite(value) and value >= 0.0):
                    raise ParameterError(
                        f"roi {self.id} at t={ts} has bad residual {value} for {kind.value}"
                    )

    def roi_value_at(self, timestamp: int) -> float:
        payload = self.snapshots[timestamp]
        return sum(payload[k] for k in sorted(payload, key=kind_sort_key))


@dataclass(frozen=True)
class GstbnEdge:
    roi_id: int
    sensor_id: int
    weight_km: float


@dataclass(frozen=True)
class GstbnSnapshot:
    """The bipartite graph for one interval, keyed by the interval end."""

    timestamp: int
    sensor_ids: frozenset[int]
    roi_ids: frozenset[int]
    edges: tuple[GstbnEdge, ...]

    def __post_init__(self):
        seen_rois = []
        for e in self.edges:
            if e.roi_id not in self.roi_ids:
                raise StructuralError(f"edge references unknown roi {e.roi_id}")
            if e.sensor_id not in self.sensor_ids:
                raise StructuralError(f"edge references unknown sensor {e.sensor_id}")
            if not (math.isfinite(e.weight_km) and e.weight_km >= 0.0):
                raise StructuralError(f"edge weight {e.weight_km} is not a distance")
            seen_rois.append(e.roi_id)
        if self.sensor_ids:
            if len(seen_rois) != len(self.roi_ids) or set(seen_rois) != self.roi_ids:
                raise StructuralError("every roi must link to exactly one sensor")
        if seen_rois != sorted(seen_rois):
            raise StructuralError("edges must be sorted by roi id")


@dataclass(frozen=True)
class TemporalGstbn:
    """Ordered snapshot sequence plus the node sets they reference."""

    snapshots: tuple[GstbnSnapshot, ...]
    sensor_catalog: tuple[SensorNode, ...]
    roi_registry: tuple[RoIEventNode, ...]
    strict_observations: bool = False
    earth: EarthModel = EARTH

    def __post_init__(self):
        times = [s.timestamp for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise OrderingError(f"snapshot timestamps must strictly increase, got {times}")
        ids = [s.id for s in self.sensor_catalog]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate sensor ids in catalog")
        rids = [r.id for r in self.roi_registry]
        if len(set(rids)) != len(rids):
            raise StructuralError("duplicate roi ids in registry")
        active = frozenset(s.id for s in self.sensor_catalog if s.is_active)
        known_rois = set(rids)
        for snap in self.snapshots:
            if snap.sensor_ids != active:
                raise StructuralError(
                    f"snapshot {snap.timestamp} sensor set differs from the active catalog"
                )
            if not snap.roi_ids <= known_rois:
                raise StructuralError(f"snapshot {snap.timestamp} references unregistered rois")

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
    def _edge_weights(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per snapshot, the registry index and weight of each edge, in roi-id order."""
        index_of = {node.id: i for i, node in enumerate(self.roi_registry)}
        return tuple(
            (
                np.array([index_of[e.roi_id] for e in snap.edges], dtype=np.intp),
                np.array([e.weight_km for e in snap.edges], dtype=np.float64),
            )
            for snap in self.snapshots
        )

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
) -> tuple[list[int], list[float]]:
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
    return [ordered[i].id for i in best.tolist()], dist.tolist()


def build_edges(
    rois: Sequence[RoIEventNode],
    sensors: Sequence[SensorNode],
    earth: EarthModel = EARTH,
    contributing_kinds: Mapping[int, frozenset[ObservationKind]] | None = None,
) -> tuple[GstbnEdge, ...]:
    """Link every RoI to its nearest sensor; ties go to the lower sensor id.

    With `contributing_kinds` (roi id -> the variables that fired there),
    each RoI only considers sensors observing at least one of its
    variables; without it any sensor qualifies. The returned edges are
    sorted by roi id. An empty sensor list raises, even with no RoIs:
    a network without observers is a caller error, not an empty result.
    """
    if not sensors:
        raise NoObserversError("no active sensors to link against")

    if contributing_kinds is None:
        groups: dict[frozenset[ObservationKind] | None, list[RoIEventNode]] = {None: list(rois)}
    else:
        groups = {}
        for roi in rois:
            kinds = frozenset(contributing_kinds[roi.id])
            groups.setdefault(kinds, []).append(roi)

    edges: list[GstbnEdge] = []
    for kinds, members in groups.items():
        if kinds is None:
            eligible: Sequence[SensorNode] = sensors
        else:
            eligible = [s for s in sensors if s.observations & kinds]
            if not eligible:
                names = ",".join(sorted(k.value for k in kinds))
                raise NoObserversError(f"no active sensor observes any of: {names}")
        ids, dists = _nearest(members, eligible, earth)
        edges.extend(
            GstbnEdge(roi_id=roi.id, sensor_id=sid, weight_km=d)
            for roi, sid, d in zip(members, ids, dists)
        )
    edges.sort(key=lambda e: e.roi_id)
    return tuple(edges)


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
    active_ids = frozenset(s.id for s in actives)
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
        contributing = None
        if strict_observations:
            contributing = {
                node.id: frozenset(node.snapshots[t_end]) for node in interval_rois
            }
        edges = build_edges(interval_rois, actives, earth, contributing_kinds=contributing)
        snapshots.append(
            GstbnSnapshot(
                timestamp=t_end,
                sensor_ids=active_ids,
                roi_ids=frozenset(n.id for n in interval_rois),
                edges=edges,
            )
        )

    registry = tuple(sorted(by_cell.values(), key=lambda n: n.id))
    return TemporalGstbn(
        snapshots=tuple(snapshots),
        sensor_catalog=catalog,
        roi_registry=registry,
        strict_observations=strict_observations,
        earth=earth,
    )


def _relaxed(net: TemporalGstbn, lon: np.ndarray, lat: np.ndarray):
    """Per snapshot, each edge's weight after adding a sensor at each of the
    given candidates: min(w, d) with d the candidate's distance to the
    edge's RoI, as a (candidates x edges) array in roi-id order.

    This is the one relax step: `add_sensor` takes its row 0 and trial
    scoring sums every row. Distances are computed once per registry RoI;
    the arrays are yielded one snapshot at a time.
    """
    r_lon, r_lat = net._registry_lonlat
    dist = haversine_km(r_lon, r_lat, lon[:, None], lat[:, None], net.earth.radius_km)
    for idx, w in net._edge_weights:
        yield np.minimum(w, dist[:, idx])


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
    catalog = net.sensor_catalog + (sensor,)
    active_ids = frozenset(s.id for s in catalog if s.is_active)
    snapshots = []
    lon, lat = lonlat_arrays([coord])
    for snap, relaxed in zip(net.snapshots, _relaxed(net, lon, lat)):
        edges = tuple(
            GstbnEdge(roi_id=e.roi_id, sensor_id=fresh_id, weight_km=w) if w < e.weight_km else e
            for e, w in zip(snap.edges, relaxed[0].tolist())
        )
        snapshots.append(replace(snap, sensor_ids=active_ids, edges=edges))
    return replace(net, snapshots=tuple(snapshots), sensor_catalog=catalog)


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
    active_ids = frozenset(s.id for s in actives)
    snapshots = []
    for snap in net.snapshots:
        orphans = [net.rois_by_id[e.roi_id] for e in snap.edges if e.sensor_id == sensor_id]
        contributing = None
        if net.strict_observations:
            contributing = {r.id: frozenset(r.snapshots[snap.timestamp]) for r in orphans}
        relinked = build_edges(orphans, actives, net.earth, contributing_kinds=contributing)
        kept = [e for e in snap.edges if e.sensor_id != sensor_id]
        edges = tuple(sorted(kept + list(relinked), key=lambda e: e.roi_id))
        snapshots.append(replace(snap, sensor_ids=active_ids, edges=edges))
    return replace(net, snapshots=tuple(snapshots), sensor_catalog=catalog)
