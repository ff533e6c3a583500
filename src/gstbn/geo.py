"""Spherical geodesy primitives: coordinates, earth model, great-circle distance.

Every distance in the package, scalar or array, comes from :func:`haversine_km`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GeoCoord",
    "EarthModel",
    "EARTH",
    "great_circle_distance",
    "haversine_km",
]


@dataclass(frozen=True)
class GeoCoord:
    """A point on the sphere, stored in decimal degrees.

    Attributes
    ----------
    lon : float
        Longitude in [-180, 180].
    lat : float
        Latitude in [-90, 90].
    """

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValueError(f"coordinate must be finite, got ({self.lon}, {self.lat})")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")


@dataclass(frozen=True)
class EarthModel:
    """Spherical earth; radius defaults to the mean radius in kilometres."""

    radius_km: float = 6371.0090667

    def __post_init__(self):
        if not (math.isfinite(self.radius_km) and self.radius_km > 0.0):
            raise ValueError(f"radius must be positive and finite, got {self.radius_km}")


EARTH = EarthModel()


# Largest (rows x cols) distance block computed at once. Callers split
# bigger problems by rows, so each float64 temporary stays at 512 KiB
# however many RoIs, sensors or trials there are.
BLOCK_PAIRS = 1 << 16


def haversine_km(lon1, lat1, lon2, lat2, radius_km: float = EARTH.radius_km) -> np.ndarray:
    """Great-circle distance in kilometres between broadcastable arrays of
    decimal-degree coordinates.

    Uses the haversine form, which stays accurate for nearby points where
    the arccos form loses precision. The asin argument is clamped into
    [0, 1] so rounding can never push it out of domain. Terms that depend
    on one side only are computed before broadcasting; every element still
    goes through the same operations, so the result is exactly symmetric
    and does not depend on the element's position or the block shape.
    """
    lon1, lat1, lon2, lat2 = (np.asarray(x, dtype=np.float64) for x in (lon1, lat1, lon2, lat2))
    s_phi = np.sin(np.radians(lat2 - lat1) / 2.0)
    s_lmb = np.sin(np.radians(lon2 - lon1) / 2.0)
    h = s_phi * s_phi + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * (s_lmb * s_lmb)
    return 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def lonlat_arrays(coords: Iterable[GeoCoord]) -> tuple[np.ndarray, np.ndarray]:
    """Longitude and latitude arrays of `coords`, for :func:`haversine_km`."""
    lon, lat = np.array([(c.lon, c.lat) for c in coords], dtype=np.float64).reshape(-1, 2).T.copy()
    return lon, lat


def row_blocks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Row slices of an (n_rows x n_cols) problem, at most BLOCK_PAIRS each
    (a single row may exceed it)."""
    step = max(1, BLOCK_PAIRS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def great_circle_distance(a: GeoCoord, b: GeoCoord, earth: EarthModel = EARTH) -> float:
    """Great-circle distance between two points, in kilometres
    (:func:`haversine_km` on one pair)."""
    return float(haversine_km(a.lon, a.lat, b.lon, b.lat, earth.radius_km))
