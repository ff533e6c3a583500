"""Synthetic scenario generation with known ground truth.

A scenario is a constant background field plus Gaussian bumps that toggle
on or off between chosen timestamps, plus optional uniform noise. A
hotspot listed as active in interval k flips its bump between the k-th
and (k+1)-th timestamps, so its squared change shows up in exactly the
intervals requested, whichever direction the flip goes.

Amplitudes are constrained so hotspot centres always clear the residual
threshold and noise alone never does:
amplitude^2 >= 2 * threshold and noise_amplitude^2 < threshold / 4.

The generator recomputes every cell's residuals and RoI value with plain
per-cell arithmetic and writes the crossing cells into a manifest, which
doubles as an independent check on the analysis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParameterError
from .field import (
    FieldSnapshot,
    GridSpec,
    ObservationKind,
    kind_sort_key,
)
from .geo import GeoCoord
from .ingest import dump_json, format_grid_snapshot, write_sensor_catalog
from .network import (
    Membership,
    Mobility,
    OperationalStatus,
    SensorNode,
)

__all__ = [
    "Hotspot",
    "ScenarioSpec",
    "ScenarioFiles",
    "scenario_field_series",
    "scenario_sensor_nodes",
    "generate_scenario",
    "scenario_spec_to_dict",
    "scenario_spec_from_dict",
]


@dataclass(frozen=True)
class Hotspot:
    """A Gaussian bump in one variable.

    active_intervals indexes the gaps between consecutive timestamps
    (interval k runs from timestamp k to k+1); the bump toggles at each
    listed interval.
    """

    center: GeoCoord
    amplitude: float
    radius_deg: float
    active_intervals: frozenset[int]
    variable: ObservationKind = ObservationKind.TEMPERATURE

    def __post_init__(self):
        object.__setattr__(self, "active_intervals", frozenset(self.active_intervals))
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ParameterError(f"hotspot amplitude must be positive, got {self.amplitude}")
        if not (math.isfinite(self.radius_deg) and self.radius_deg > 0.0):
            raise ParameterError(f"hotspot radius must be positive, got {self.radius_deg}")
        if any(k < 0 for k in self.active_intervals):
            raise ParameterError("active interval indexes must be non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    grid: GridSpec
    timestamps: tuple[int, ...]
    hotspots: tuple[Hotspot, ...] = ()
    sensors: tuple[GeoCoord, ...] = ()
    variables: tuple[ObservationKind, ...] = (ObservationKind.TEMPERATURE,)
    background: float = 0.0
    background_noise_amplitude: float = 0.0
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        object.__setattr__(self, "hotspots", tuple(self.hotspots))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.timestamps) < 2:
            raise ParameterError("scenario needs at least 2 timestamps")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ParameterError(f"timestamps must strictly increase, got {self.timestamps}")
        if not self.variables or len(set(self.variables)) != len(self.variables):
            raise ParameterError("variables must be a non-empty set")
        if not self.sensors:
            raise ParameterError("scenario needs at least one sensor")
        if not math.isfinite(self.background):
            raise ParameterError(f"background must be finite, got {self.background}")
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ParameterError(f"threshold must be non-negative, got {self.threshold}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        n_intervals = len(self.timestamps) - 1
        a = self.background_noise_amplitude
        if not (math.isfinite(a) and a >= 0.0):
            raise ParameterError(f"noise amplitude must be non-negative, got {a}")
        if a > 0.0 and not a * a < self.threshold / 4.0:
            raise ParameterError(
                f"noise amplitude {a} too large: need amplitude^2 < threshold/4 = "
                f"{self.threshold / 4.0}"
            )
        for h in self.hotspots:
            if h.variable not in self.variables:
                raise ParameterError(
                    f"hotspot variable {h.variable.value} not in scenario variables"
                )
            if any(k >= n_intervals for k in h.active_intervals):
                raise ParameterError(
                    f"hotspot interval index out of range for {n_intervals} intervals"
                )
            if not h.amplitude * h.amplitude >= 2.0 * self.threshold:
                raise ParameterError(
                    f"hotspot amplitude {h.amplitude} too small: need amplitude^2 >= "
                    f"2*threshold = {2.0 * self.threshold}"
                )
        # the largest change a cell can see is every bump plus the noise span;
        # its square, and the RoI sum across variables, must stay finite
        worst_roi = 0.0
        for kind in self.variables:
            change = sum(h.amplitude for h in self.hotspots if h.variable is kind) + 2.0 * a
            worst_roi += change * change
            if not math.isfinite(worst_roi):
                raise ParameterError(
                    f"{kind.value} hotspot amplitudes too large: the squared change or "
                    f"RoI sum of a cell would overflow"
                )


@dataclass(frozen=True)
class ScenarioFiles:
    grid_paths: tuple[Path, ...]
    catalog_path: Path
    manifest_path: Path
    manifest: dict


def _bump_grid(grid: GridSpec, hotspot: Hotspot) -> np.ndarray:
    dlat = grid.lat_at(np.arange(grid.n_lat))[:, None] - hotspot.center.lat
    dlon = grid.lon_at(np.arange(grid.n_lon))[None, :] - hotspot.center.lon
    r2 = dlat * dlat + dlon * dlon
    return hotspot.amplitude * np.exp(-r2 / (2.0 * hotspot.radius_deg * hotspot.radius_deg))


def _scenario_arrays(spec: ScenarioSpec) -> dict[ObservationKind, list[np.ndarray]]:
    """Raw value grids per variable, one per timestamp."""
    rng = np.random.default_rng(spec.seed)
    n_ts = len(spec.timestamps)
    out: dict[ObservationKind, list[np.ndarray]] = {}
    for kind in sorted(spec.variables, key=kind_sort_key):
        bumps = [
            (_bump_grid(spec.grid, h), h.active_intervals)
            for h in spec.hotspots
            if h.variable is kind
        ]
        states = [False] * len(bumps)
        fields: list[np.ndarray] = []
        for t_idx in range(n_ts):
            if t_idx > 0:
                states = [
                    s != ((t_idx - 1) in intervals)
                    for s, (_, intervals) in zip(states, bumps)
                ]
            values = np.full(spec.grid.shape, spec.background, dtype=np.float64)
            if spec.background_noise_amplitude > 0.0:
                values = values + rng.uniform(
                    -spec.background_noise_amplitude,
                    spec.background_noise_amplitude,
                    size=spec.grid.shape,
                )
            for (bump, _), on in zip(bumps, states):
                if on:
                    values = values + bump
            fields.append(values)
        out[kind] = fields
    return out


def scenario_field_series(spec: ScenarioSpec) -> dict[ObservationKind, list[FieldSnapshot]]:
    """The scenario's fields as in-memory snapshots, ready for the builder."""
    arrays = _scenario_arrays(spec)
    return {
        kind: [
            FieldSnapshot(timestamp=ts, variable=kind, grid=spec.grid, values=vals)
            for ts, vals in zip(spec.timestamps, fields)
        ]
        for kind, fields in arrays.items()
    }


def scenario_sensor_nodes(spec: ScenarioSpec) -> list[SensorNode]:
    """Active synthetic sensors observing every scenario variable."""
    return [
        SensorNode(
            id=i + 1,
            membership=Membership.LDN,
            data_source="synthetic",
            platform=f"synthetic-{i + 1}",
            mobility=Mobility.STATIONARY,
            geolocation=coord,
            operational_status=OperationalStatus.ACTIVE,
            observations=frozenset(spec.variables),
        )
        for i, coord in enumerate(spec.sensors)
    ]


def _manifest_intervals(
    spec: ScenarioSpec, arrays: Mapping[ObservationKind, list[np.ndarray]]
) -> list[dict]:
    """Threshold-crossing cells per interval, by direct per-cell arithmetic."""
    kinds = sorted(spec.variables, key=kind_sort_key)
    intervals = []
    for k in range(len(spec.timestamps) - 1):
        cells: list[int] = []
        roi_values: list[float] = []
        residuals: list[dict] = []
        for i in range(spec.grid.n_lat):
            for j in range(spec.grid.n_lon):
                roi = 0.0
                contribs = {}
                for kind in kinds:
                    a = float(arrays[kind][k][i, j])
                    b = float(arrays[kind][k + 1][i, j])
                    r = (b - a) ** 2
                    if r >= spec.threshold:
                        roi += r
                        contribs[kind.value] = r
                if roi > 0.0:
                    cells.append(spec.grid.cell_index(i, j))
                    roi_values.append(roi)
                    residuals.append(contribs)
        intervals.append(
            {
                "start": spec.timestamps[k],
                "end": spec.timestamps[k + 1],
                "cells": cells,
                "roi_values": roi_values,
                "residuals": residuals,
            }
        )
    return intervals


def scenario_spec_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "grid": {
            "n_lat": spec.grid.n_lat,
            "n_lon": spec.grid.n_lon,
            "lat0": spec.grid.lat0,
            "d_lat": spec.grid.d_lat,
            "lon0": spec.grid.lon0,
            "d_lon": spec.grid.d_lon,
        },
        "timestamps": list(spec.timestamps),
        "variables": [k.value for k in spec.variables],
        "background": spec.background,
        "background_noise_amplitude": spec.background_noise_amplitude,
        "threshold": spec.threshold,
        "seed": spec.seed,
        "hotspots": [
            {
                "lon": h.center.lon,
                "lat": h.center.lat,
                "amplitude": h.amplitude,
                "radius_deg": h.radius_deg,
                "active_intervals": sorted(h.active_intervals),
                "variable": h.variable.value,
            }
            for h in spec.hotspots
        ],
        "sensors": [{"lon": c.lon, "lat": c.lat} for c in spec.sensors],
    }


def _whole(value, name: str) -> int:
    """`int(value)`, refusing a float that is not a whole number (2.7, inf,
    nan) instead of truncating it or overflowing."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name}: expected an integer, got {value}")
    return int(value)


def scenario_spec_from_dict(doc: Mapping) -> ScenarioSpec:
    try:
        grid = GridSpec(
            n_lat=_whole(doc["grid"]["n_lat"], "grid.n_lat"),
            n_lon=_whole(doc["grid"]["n_lon"], "grid.n_lon"),
            lat0=float(doc["grid"]["lat0"]),
            d_lat=float(doc["grid"]["d_lat"]),
            lon0=float(doc["grid"]["lon0"]),
            d_lon=float(doc["grid"]["d_lon"]),
        )
        hotspots = tuple(
            Hotspot(
                center=GeoCoord(float(h["lon"]), float(h["lat"])),
                amplitude=float(h["amplitude"]),
                radius_deg=float(h["radius_deg"]),
                active_intervals=frozenset(
                    _whole(k, "active_intervals") for k in h["active_intervals"]
                ),
                variable=ObservationKind(h.get("variable", "temperature")),
            )
            for h in doc.get("hotspots", ())
        )
        sensors = tuple(
            GeoCoord(float(s["lon"]), float(s["lat"])) for s in doc.get("sensors", ())
        )
        variables = tuple(
            ObservationKind(v) for v in doc.get("variables", ["temperature"])
        )
        return ScenarioSpec(
            grid=grid,
            timestamps=tuple(_whole(t, "timestamps") for t in doc["timestamps"]),
            hotspots=hotspots,
            sensors=sensors,
            variables=variables,
            background=float(doc.get("background", 0.0)),
            background_noise_amplitude=float(doc.get("background_noise_amplitude", 0.0)),
            threshold=float(doc.get("threshold", 0.5)),
            seed=_whole(doc.get("seed", 0), "seed"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad scenario spec: {exc}") from exc


def generate_scenario(spec: ScenarioSpec, out_dir) -> ScenarioFiles:
    """Write grid files, a sensor catalog and the ground-truth manifest.

    Output is a pure function of `spec`: running twice produces
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = _scenario_arrays(spec)

    grid_paths: list[Path] = []
    grid_names: list[str] = []
    for kind in sorted(spec.variables, key=kind_sort_key):
        for ts, values in zip(spec.timestamps, arrays[kind]):
            snap = FieldSnapshot(timestamp=ts, variable=kind, grid=spec.grid, values=values)
            name = f"{kind.value}-{ts}.grid"
            path = out / name
            path.write_text(format_grid_snapshot(snap), encoding="utf-8")
            grid_paths.append(path)
            grid_names.append(name)

    catalog_path = out / "sensors.csv"
    write_sensor_catalog(scenario_sensor_nodes(spec), catalog_path)

    manifest = {
        "scenario": scenario_spec_to_dict(spec),
        "files": {"grids": grid_names, "catalog": catalog_path.name},
        "threshold": spec.threshold,
        "intervals": _manifest_intervals(spec, arrays),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(dump_json(manifest), encoding="utf-8")
    return ScenarioFiles(
        grid_paths=tuple(grid_paths),
        catalog_path=catalog_path,
        manifest_path=manifest_path,
        manifest=manifest,
    )
