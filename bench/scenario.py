"""Seeded benchmark scenarios, written only through public gstbn.synth and
gstbn.ingest functions.

A checked-in spec fixes the grid, timestamps, variables, the nominal
hotspots and the sensor count. The seed jitters each hotspot centre inside
its own slot, draws the sensor positions over the grid footprint and seeds
the background noise. Hotspots never overlap and stay inside the grid and
out of the land block, so RoI and edge counts barely move from seed to seed
while every value in every file does.

A spec may carry a ``land_block`` of missing cells (rows and columns as
half-open ranges). Those cells are written as ``NaN``, so parsing takes the
missing-value path and the default search domain is masked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gstbn.ingest import write_grid_snapshot, write_sensor_catalog
from gstbn.synth import scenario_field_series, scenario_sensor_nodes, scenario_spec_from_dict

SPEC_DIR = Path(__file__).resolve().parent / "specs"


@dataclass(frozen=True)
class Scenario:
    catalog: Path
    grids: tuple[Path, ...]
    cells: int


def load_spec(name: str) -> dict:
    return json.loads((SPEC_DIR / f"{name}.json").read_text())


def synth_doc(spec: dict, seed: int) -> dict:
    """The gstbn scenario document for `spec` under `seed`."""
    rng = np.random.default_rng([seed, 0x6E57])
    g = spec["grid"]
    lat_hi = g["lat0"] + (g["n_lat"] - 1) * g["d_lat"]
    lon_hi = g["lon0"] + (g["n_lon"] - 1) * g["d_lon"]
    jitter = spec["hotspot_jitter_deg"]
    hotspots = []
    for h in spec["hotspots"]:
        dlon, dlat = rng.uniform(-jitter, jitter, size=2)
        hotspots.append({**h, "lon": h["lon"] + float(dlon), "lat": h["lat"] + float(dlat)})
    n = spec["sensor_count"]
    lons = rng.uniform(g["lon0"], lon_hi, size=n)
    lats = rng.uniform(g["lat0"], lat_hi, size=n)
    return {
        "grid": g,
        "timestamps": spec["timestamps"],
        "variables": spec["variables"],
        "background": spec["background"],
        "background_noise_amplitude": spec["background_noise_amplitude"],
        "threshold": spec["threshold"],
        "seed": seed,
        "hotspots": hotspots,
        "sensors": [{"lon": float(lo), "lat": float(la)} for lo, la in zip(lons, lats)],
    }


def generate(spec: dict, seed: int, out_dir: Path) -> Scenario:
    """Write the grids and the sensor catalog for `spec` under `seed`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    synth_spec = scenario_spec_from_dict(synth_doc(spec, seed))
    land = spec.get("land_block")
    grids = []
    for kind, snaps in scenario_field_series(synth_spec).items():
        for snap in snaps:
            if land:
                block = (slice(*land["rows"]), slice(*land["cols"]))
                snap.values[block] = np.nan
                snap.valid[block] = False
            path = out_dir / f"{kind.value}-{snap.timestamp}.grid"
            write_grid_snapshot(snap, path)
            grids.append(path)
    catalog = out_dir / "sensors.csv"
    write_sensor_catalog(scenario_sensor_nodes(synth_spec), catalog)
    return Scenario(
        catalog=catalog,
        grids=tuple(grids),
        cells=synth_spec.grid.cell_count,
    )
