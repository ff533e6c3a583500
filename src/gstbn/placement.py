"""Monte Carlo sensor placement.

The objective is average temporal coverage: candidates are drawn
uniformly over a bounding box (optionally masked to admissible grid
cells) and the draw with the lowest resulting coverage wins.

Determinism contract: placement k draws from `default_rng(derive_seed(seed,
k))` and trial t uses its t-th triple of uniforms, so any prefix of trials
is reproducible regardless of how many trials follow; the winner is the
lowest (score, trial_index) pair.

A trial's score is the coverage `add_sensor` would give the network:
both take the same relax step (each edge weight w becomes min(w, d) for
the candidate's distance d to its RoI), and the score sums the relaxed
weights with `coverage_sum` in edge order, so the two agree by
construction. The relax step prunes by RoI tile, so one trial costs one
distance per tile plus one per RoI of the tiles it may relax, instead of
one per RoI node or a network rebuild. Trials are scored serially in
blocks of at most BLOCK_PAIRS (trial, RoI) pairs on one thread;
`monte_carlo_place` checks its `workers` argument, which `bench/run.py`
passes, and otherwise ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .field import GridSpec
from .geo import GeoCoord, lonlat_arrays, row_blocks
from .metrics import average_temporal_coverage, coverage_sum
from .network import TemporalGstbn, _fresh_id, _relaxed, add_sensor

__all__ = [
    "SearchDomain",
    "TrialRecord",
    "PlacedSensor",
    "PlacementResult",
    "derive_seed",
    "candidate_score",
    "monte_carlo_place",
    "place_sequential",
]

def _clipped_edges(centres: np.ndarray, step: float, lo: float, hi: float):
    """Low and high edges of the cells centred at `centres` along one grid
    axis (each box half a step either side), clipped to [lo, hi]."""
    return np.maximum(centres - step / 2.0, lo), np.minimum(centres + step / 2.0, hi)


@dataclass(frozen=True, eq=False)
class SearchDomain:
    """Bounding box for candidate draws, with an optional cell mask.

    Draws land uniformly in a table of rectangles built once: the box, or
    each admissible cell's box clipped to it, so no draw is rejected. A
    masked box must overlap some admissible cell over a positive area, or
    construction raises ParameterError.
    """

    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float
    mask_grid: GridSpec | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        for v in (self.lon_min, self.lon_max, self.lat_min, self.lat_max):
            if not math.isfinite(v):
                raise ParameterError(f"domain bound {v} is not finite")
        if not (self.lon_min < self.lon_max and self.lat_min < self.lat_max):
            raise ParameterError("domain bounds must satisfy min < max on both axes")
        try:
            GeoCoord(self.lon_min, self.lat_min)
            GeoCoord(self.lon_max, self.lat_max)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
        if (self.mask is None) != (self.mask_grid is None):
            raise StructuralError("mask and mask_grid must be given together")
        lo = np.array([[self.lon_min, self.lat_min]])
        hi = np.array([[self.lon_max, self.lat_max]])
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != self.mask_grid.shape:
                raise StructuralError(
                    f"mask shape {m.shape} does not match grid {self.mask_grid.shape}"
                )
            if not m.any():
                raise StructuralError("mask admits no cells")
            g = self.mask_grid
            i, j = np.nonzero(m)
            lat_lo, lat_hi = _clipped_edges(g.lat_at(i), g.d_lat, self.lat_min, self.lat_max)
            lon_lo, lon_hi = _clipped_edges(g.lon_at(j), g.d_lon, self.lon_min, self.lon_max)
            lo = np.column_stack([lon_lo, lat_lo])
            hi = np.column_stack([lon_hi, lat_hi])
            keep = (hi > lo).all(axis=1)
            if not keep.any():
                raise ParameterError(
                    f"search box lon [{self.lon_min}, {self.lon_max}] lat "
                    f"[{self.lat_min}, {self.lat_max}] overlaps no admissible cell"
                )
            object.__setattr__(self, "mask", m)
            lo, hi = lo[keep], hi[keep]
        # cumulative areas in degrees², then (lon, lat) low and high corners
        object.__setattr__(self, "_table", (np.cumsum(np.prod(hi - lo, axis=1)), lo, hi))

    @classmethod
    def from_grid(cls, grid: GridSpec, valid: np.ndarray | None = None) -> "SearchDomain":
        """Domain covering the grid's footprint (cell boxes, not centres).

        `valid` marks admissible cells; omit it, or pass an all-True
        array, for an unmasked domain.
        """
        lat_lo = max(-90.0, grid.lat0 - grid.d_lat / 2.0)
        lat_hi = min(90.0, grid.lat_at(grid.n_lat - 1) + grid.d_lat / 2.0)
        lon_lo = max(-180.0, grid.lon0 - grid.d_lon / 2.0)
        lon_hi = min(180.0, grid.lon_at(grid.n_lon - 1) + grid.d_lon / 2.0)
        if valid is not None:
            valid = np.asarray(valid, dtype=bool)
            if valid.all():
                valid = None
        return cls(
            lon_min=lon_lo,
            lon_max=lon_hi,
            lat_min=lat_lo,
            lat_max=lat_hi,
            mask_grid=grid if valid is not None else None,
            mask=valid,
        )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    lon: float
    lat: float
    score: float


@dataclass(frozen=True)
class PlacedSensor:
    coord: GeoCoord
    coverage_after_km: float


@dataclass(frozen=True)
class PlacementResult:
    placed: tuple[PlacedSensor, ...]
    trials_per_sensor: int
    seed: int
    baseline_coverage_km: float
    # the input network with every placed sensor added, in order
    network: TemporalGstbn | None = field(default=None, compare=False, repr=False)


def derive_seed(seed: int, index: int) -> int:
    """Stable per-placement seed from a master seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _scores(net: TemporalGstbn, lon: np.ndarray, lat: np.ndarray) -> list[float]:
    """Average temporal coverage after adding each candidate alone.

    Each snapshot's changed edges come from the relax step `add_sensor`
    uses. A candidate that changes none keeps the snapshot's own coverage;
    for the others the weights with the changes scattered in are summed
    with `coverage_sum` in the order the edited network sums its edges, so
    a score equals that network's coverage. A candidate costs one distance
    per RoI tile plus one per RoI of the tiles it may relax, not one per
    RoI. Candidates go in blocks of at most BLOCK_PAIRS (candidate, RoI)
    pairs, which bounds every temporary.
    """
    if not net.snapshots:
        raise StructuralError("network has no snapshots")
    base = [coverage_sum(snap.weight_km) for snap in net.snapshots]
    out: list[float] = []
    for rows in row_blocks(len(lon), len(net.roi_table)):
        n = rows.stop - rows.start
        # (snapshots x candidates) static coverages, summed over snapshots per candidate
        per_snap = np.empty((len(net.snapshots), n))
        changes = _relaxed(net, lon[rows], lat[rows])
        for k, (snap, (trial, pos, dist)) in enumerate(zip(net.snapshots, changes)):
            changed = np.zeros(n, dtype=bool)
            changed[trial] = True
            # one row of weights per candidate that changes any, in trial order
            relaxed = np.repeat(snap.weight_km[None], np.count_nonzero(changed), axis=0)
            relaxed[np.cumsum(changed)[trial] - 1, pos] = dist
            per_snap[k] = base[k]
            per_snap[k, changed] = coverage_sum(relaxed)
        out.extend(total / len(net.snapshots) for total in coverage_sum(per_snap.T))
    return out


def _draw(domain: SearchDomain, seed: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) arrays of `trials` candidates from one generator seeded by
    `seed`: trial t's first uniform picks a rectangle of the domain's table
    with probability proportional to its area, the other two a point in it."""
    cum, lo, hi = domain._table
    u = np.random.default_rng(seed).random((trials, 3))
    k = np.minimum(np.searchsorted(cum, u[:, 0] * cum[-1], side="right"), len(cum) - 1)
    lon, lat = np.minimum(lo[k] + u[:, 1:] * (hi[k] - lo[k]), hi[k]).T.copy()
    return lon, lat


def candidate_score(net: TemporalGstbn, candidate: GeoCoord) -> float:
    """Average temporal coverage the network would have with `candidate`
    added, computed incrementally. Matches the full-rebuild value exactly.
    """
    return _scores(net, *lonlat_arrays([candidate]))[0]


def _check_common(trials: int, seed: int, workers: int = 1) -> None:
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")


def monte_carlo_place(
    net: TemporalGstbn,
    domain: SearchDomain,
    trials: int = 1000,
    seed: int = 42,
    *,
    workers: int = 1,
    trace: list[TrialRecord] | None = None,
) -> tuple[GeoCoord, float]:
    """Best single placement over `trials` uniform draws.

    Returns (coordinate, average temporal coverage after adding it); ties
    on score go to the earliest trial. `workers` is validated and ignored:
    trials are scored serially in blocks, and it does not set the threads
    that parse grids. Pass `trace` to collect every trial's record.
    ParameterError if the `trials` draws do not fit in memory.
    """
    _check_common(trials, seed, workers)
    try:
        lon, lat = _draw(domain, seed, trials)
    except MemoryError as exc:
        raise ParameterError(f"cannot draw {trials} trials at once: {exc}") from None
    scores = _scores(net, lon, lat)
    lon, lat = lon.tolist(), lat.tolist()
    if trace is not None:
        trace.extend(map(TrialRecord, range(trials), lon, lat, scores))
    best = int(np.argmin(scores))  # the first of equal scores: the earliest trial
    return GeoCoord(lon[best], lat[best]), scores[best]


def place_sequential(
    net: TemporalGstbn,
    domain: SearchDomain,
    n_sensors: int = 1,
    trials: int = 1000,
    seed: int = 42,
    *,
    traces: list[list[TrialRecord]] | None = None,
) -> PlacementResult:
    """Place `n_sensors` one at a time, committing each winner.

    Placement k runs its own Monte Carlo search with a seed derived from
    (seed, k), against the network as updated by the previous winners.
    Coverage never increases along the placed list. The result's `network`
    is the input network with every winner added. ParameterError before
    any trial if the catalog leaves no fresh id for some placed sensor.
    """
    if n_sensors < 1:
        raise ParameterError(f"n_sensors must be at least 1, got {n_sensors}")
    _check_common(trials, seed)
    _fresh_id(net.sensor_catalog, n_sensors)
    baseline = average_temporal_coverage(net)
    current = net
    placed: list[PlacedSensor] = []
    last = baseline
    for k in range(n_sensors):
        trace_k: list[TrialRecord] | None = [] if traces is not None else None
        coord, score = monte_carlo_place(
            current, domain, trials, derive_seed(seed, k), trace=trace_k
        )
        if traces is not None:
            traces.append(trace_k)
        if score > last:
            raise StructuralError(
                f"placement {k} raised coverage from {last} to {score}"
            )
        last = score
        current = add_sensor(current, coord)
        placed.append(PlacedSensor(coord=coord, coverage_after_km=score))
    return PlacementResult(
        placed=tuple(placed),
        trials_per_sensor=trials,
        seed=seed,
        baseline_coverage_km=baseline,
        network=current,
    )
