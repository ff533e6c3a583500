"""Gridded field snapshots and region-of-interest (RoI) extraction.

A field snapshot is one variable sampled on a regular lat/lon grid at one
timestamp. Consecutive snapshots of the same variable yield a residual
field of per-cell squared differences; summing the residuals that clear a
threshold across variables gives each cell's RoI value. Cells with a
positive RoI value become observable events. NaN is the one mark of a cell
with no data; it propagates into the residuals and never fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import OrderingError, ParameterError, StructuralError
from .geo import GeoCoord

__all__ = [
    "ObservationKind",
    "GridSpec",
    "FieldSnapshot",
    "ResidualField",
    "RoIThreshold",
    "RoIEvents",
    "DEFAULT_ROI_THRESHOLD",
    "compute_residual_field",
    "extract_roi_events",
]


class ObservationKind(Enum):
    """Closed set of observable variables."""

    TEMPERATURE = "temperature"
    SALINITY = "salinity"
    CURRENT_U = "current_u"
    CURRENT_V = "current_v"


# canonical summation / serialization order
_KIND_ORDER = {kind: i for i, kind in enumerate(ObservationKind)}


def kind_sort_key(kind: ObservationKind) -> int:
    return _KIND_ORDER[kind]


@dataclass(frozen=True)
class GridSpec:
    """Regular lat/lon grid; cell (i, j) is centred at
    (lat0 + i*d_lat, lon0 + j*d_lon). Values are stored row-major, so the
    flat cell index is i*n_lon + j. `lat_at` and `lon_at` also take index
    arrays. ValueError for a grid with no cells, a spacing that is not
    positive, or a corner centre that is not a legal coordinate.
    """

    n_lat: int
    n_lon: int
    lat0: float
    d_lat: float
    lon0: float
    d_lon: float

    def __post_init__(self):
        if self.n_lat < 1 or self.n_lon < 1:
            raise ValueError(f"grid must have at least one cell, got {self.n_lat}x{self.n_lon}")
        if not (self.d_lat > 0.0 and self.d_lon > 0.0):
            raise ValueError(f"grid spacing must be positive, got d_lat={self.d_lat} d_lon={self.d_lon}")
        # corner centres must be legal coordinates; this bounds every cell
        try:
            GeoCoord(self.lon0, self.lat0)
            GeoCoord(self.lon_at(self.n_lon - 1), self.lat_at(self.n_lat - 1))
        except OverflowError as exc:  # an int past the float range
            raise ValueError(str(exc)) from None

    @property
    def cell_count(self) -> int:
        return self.n_lat * self.n_lon

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    def lat_at(self, i: int) -> float:
        return self.lat0 + i * self.d_lat

    def lon_at(self, j: int) -> float:
        return self.lon0 + j * self.d_lon

    def cell_index(self, i: int, j: int) -> int:
        return i * self.n_lon + j

    def cell_coord(self, index: int) -> GeoCoord:
        """Centre coordinate of a flat cell index."""
        if not 0 <= index < self.cell_count:
            raise ValueError(f"cell index {index} outside grid of {self.cell_count} cells")
        i, j = divmod(index, self.n_lon)
        return GeoCoord(self.lon_at(j), self.lat_at(i))

    def containing_cell(self, coord: GeoCoord) -> int | None:
        """Flat index of the cell whose box contains the coordinate, or None.

        Each cell's box spans half a spacing either side of its centre.
        """
        i = math.floor((coord.lat - (self.lat0 - self.d_lat / 2.0)) / self.d_lat)
        j = math.floor((coord.lon - (self.lon0 - self.d_lon / 2.0)) / self.d_lon)
        if 0 <= i < self.n_lat and 0 <= j < self.n_lon:
            return self.cell_index(i, j)
        return None


@dataclass(eq=False)
class FieldSnapshot:
    """One variable on one grid at one timestamp.

    `values` is an (n_lat, n_lon) float64 copy of the caller's input, so
    writing to the input later leaves the snapshot as it was. NaN is the
    one mark of a cell with no data: every non-finite input value is stored
    as NaN. A caller holding a separate mask passes
    `np.where(mask, values, np.nan)`.
    """

    timestamp: int
    variable: ObservationKind
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.timestamp = int(self.timestamp)
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise StructuralError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        vals[~np.isfinite(vals)] = np.nan
        self.values = vals

    @property
    def valid(self) -> np.ndarray:
        """True where the cell has data. Derived from `values` on each read,
        so writing to the returned array changes nothing."""
        return ~np.isnan(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSnapshot):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.variable is other.variable
            and self.grid == other.grid
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


@dataclass(eq=False)
class ResidualField:
    """Per-cell squared differences between two snapshots of one variable;
    NaN where either snapshot has no data."""

    interval: tuple[int, int]
    variable: ObservationKind
    grid: GridSpec
    residuals: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        """True where both snapshots have data, derived as in
        :attr:`FieldSnapshot.valid`."""
        return ~np.isnan(self.residuals)


@dataclass(frozen=True)
class RoIThreshold:
    """Minimum per-variable residual that counts toward an RoI value."""

    value: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ParameterError(f"threshold must be finite and non-negative, got {self.value}")


DEFAULT_ROI_THRESHOLD = RoIThreshold()


@dataclass(frozen=True, eq=False)
class RoIEvents:
    """One interval's RoI events as columns, a row per firing cell in cell
    order. `residual` has a column per :class:`ObservationKind` in
    `kind_sort_key` order, NaN where the kind did not count; `value` is
    the row's sum. `len()` is the event count."""

    cell: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    residual: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.cell)


def _check_finite(values, variable, interval, what) -> None:
    """Raise if some cell of `values` is infinite. NaN marks a missing cell
    and passes; a value that overflowed would otherwise reach the reports
    as Infinity.
    """
    bad = np.flatnonzero(np.isinf(values))
    if bad.size:
        raise ParameterError(
            f"{variable.value} {what} over interval {interval[0]}-{interval[1]} "
            f"is not finite at cell {int(bad[0])}"
        )


def compute_residual_field(earlier: FieldSnapshot, later: FieldSnapshot) -> ResidualField:
    """Squared per-cell change between two snapshots of the same variable.

    A cell is NaN where either input is NaN; missing data propagates
    through the subtraction. Raises on mismatched variables or grids and on
    non-increasing timestamps.
    """
    if earlier.variable is not later.variable:
        raise StructuralError(
            f"variable mismatch: {earlier.variable.value} vs {later.variable.value}"
        )
    if earlier.grid != later.grid:
        raise StructuralError("snapshots use different grids")
    if not earlier.timestamp < later.timestamp:
        raise OrderingError(
            f"timestamps must increase, got {earlier.timestamp} then {later.timestamp}"
        )
    with np.errstate(over="ignore"):
        diff = later.values - earlier.values
        residuals = diff * diff
    interval = (earlier.timestamp, later.timestamp)
    _check_finite(residuals, earlier.variable, interval, "squared change")
    return ResidualField(
        interval=interval,
        variable=earlier.variable,
        grid=earlier.grid,
        residuals=residuals,
    )


def extract_roi_events(
    residual_fields: Sequence[ResidualField],
    threshold: RoIThreshold = DEFAULT_ROI_THRESHOLD,
) -> RoIEvents:
    """RoI events for one interval from that interval's residual fields.

    Each variable contributes its residual where it meets the threshold;
    contributions below the threshold are dropped, not clipped. A cell
    becomes an event iff the summed contribution is positive. Variables
    are summed in their canonical declaration order.

    All inputs must share one grid and one interval; at most one field per
    variable.
    """
    if not residual_fields:
        raise StructuralError("no residual fields given")
    grid = residual_fields[0].grid
    interval = residual_fields[0].interval
    seen: set[ObservationKind] = set()
    for rf in residual_fields:
        if rf.grid != grid:
            raise StructuralError("residual fields use different grids")
        if rf.interval != interval:
            raise StructuralError(f"mixed intervals {interval} and {rf.interval}")
        if rf.variable in seen:
            raise StructuralError(f"duplicate residual field for {rf.variable.value}")
        seen.add(rf.variable)

    ordered = sorted(residual_fields, key=lambda rf: kind_sort_key(rf.variable))
    thr = threshold.value
    total = np.zeros(grid.shape, dtype=np.float64)
    counted = []
    for rf in ordered:
        keep = rf.residuals >= thr  # never true for NaN, a missing cell
        with np.errstate(over="ignore"):
            total = total + np.where(keep, rf.residuals, 0.0)
        _check_finite(total, rf.variable, interval, "RoI sum")
        counted.append((rf, keep))

    flat = np.flatnonzero(total > 0.0)
    residual = np.full((len(flat), len(_KIND_ORDER)), np.nan)
    for rf, keep in counted:
        fired = keep.ravel()[flat]
        residual[:, _KIND_ORDER[rf.variable]] = np.where(fired, rf.residuals.ravel()[flat], np.nan)
    i, j = np.divmod(flat, grid.n_lon)
    return RoIEvents(flat, grid.lon_at(j), grid.lat_at(i), residual, total.ravel()[flat])
