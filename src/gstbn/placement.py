"""Monte Carlo sensor placement.

The objective is average temporal coverage: candidates are drawn
uniformly over a bounding box (optionally masked to admissible grid
cells) and the draw with the lowest resulting coverage wins.

Determinism contract: trial i draws from a generator seeded by
(seed, i), so any prefix of trials is reproducible regardless of how
many trials follow; the winner is the lowest (score, trial_index) pair.

A trial's score is the coverage `add_sensor` would give the network:
both take the same relax step (each edge weight w becomes min(w, d) for
the candidate's distance d to its RoI), and the score sums the relaxed
weights with `coverage_sum` in edge order, so the two agree by
construction. One trial costs one distance per RoI node instead of a
network rebuild. Trials are scored serially in (trials x RoIs) blocks;
the `workers` argument is accepted for compatibility and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .field import GridSpec
from .geo import GeoCoord, lonlat_arrays, row_blocks
from .metrics import average_temporal_coverage, coverage_sum
from .network import TemporalGstbn, _relaxed, add_sensor

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

# A draw streak this long without hitting an admissible cell means the
# mask and bounding box do not overlap in any practical sense.
_MAX_REJECTS = 100_000


def _overlapping(start: float, step: float, n: int, lo: float, hi: float) -> np.ndarray:
    """Which of `n` cells along one grid axis (centres `start + k*step`, each
    box half a step either side) overlap the interval [lo, hi] over a
    positive length."""
    centres = start + np.arange(n) * step
    return np.minimum(centres + step / 2.0, hi) > np.maximum(centres - step / 2.0, lo)


@dataclass(frozen=True, eq=False)
class SearchDomain:
    """Bounding box for candidate draws, with an optional cell mask.

    When a mask is present, a draw only counts if it falls in a cell
    marked True; rejected draws are redrawn and do not consume the trial
    budget. A masked box must overlap some admissible cell over a positive
    area, or construction raises ParameterError instead of every draw
    being rejected.
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
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != self.mask_grid.shape:
                raise StructuralError(
                    f"mask shape {m.shape} does not match grid {self.mask_grid.shape}"
                )
            if not m.any():
                raise StructuralError("mask admits no cells")
            g = self.mask_grid
            rows = _overlapping(g.lat0, g.d_lat, g.n_lat, self.lat_min, self.lat_max)
            cols = _overlapping(g.lon0, g.d_lon, g.n_lon, self.lon_min, self.lon_max)
            if not m[np.ix_(rows, cols)].any():
                raise ParameterError(
                    f"search box lon [{self.lon_min}, {self.lon_max}] lat "
                    f"[{self.lat_min}, {self.lat_max}] overlaps no admissible cell"
                )
            object.__setattr__(self, "mask", m)

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


def _scores(net: TemporalGstbn, candidates: list[GeoCoord]) -> list[float]:
    """Average temporal coverage after adding each candidate alone.

    Each snapshot's relaxed weights come from the relax step `add_sensor`
    uses, and are summed with `coverage_sum` in the order the edited
    network sums its edges, so a score equals that network's coverage.
    """
    if not net.snapshots:
        raise StructuralError("network has no snapshots")
    lon, lat = lonlat_arrays(candidates)
    out: list[float] = []
    for rows in row_blocks(len(candidates), len(net.roi_registry)):
        # (snapshots x candidates) static coverages, summed over snapshots per candidate
        per_snap = [coverage_sum(relaxed) for relaxed in _relaxed(net, lon[rows], lat[rows])]
        out.extend(total / len(net.snapshots) for total in coverage_sum(np.transpose(per_snap)))
    return out


def _draw(domain: SearchDomain, seed: int, trial_index: int) -> GeoCoord:
    """Trial `trial_index`'s candidate, from a generator seeded by (seed, trial)."""
    rng = np.random.default_rng([seed, trial_index])
    for _ in range(_MAX_REJECTS):
        lon = float(rng.uniform(domain.lon_min, domain.lon_max))
        lat = float(rng.uniform(domain.lat_min, domain.lat_max))
        if domain.mask is None:
            return GeoCoord(lon, lat)
        cell = domain.mask_grid.containing_cell(GeoCoord(lon, lat))
        if cell is not None and domain.mask.flat[cell]:
            return GeoCoord(lon, lat)
    raise StructuralError(
        f"domain rejected {_MAX_REJECTS} consecutive draws; mask and box do not overlap"
    )


def candidate_score(net: TemporalGstbn, candidate: GeoCoord) -> float:
    """Average temporal coverage the network would have with `candidate`
    added, computed incrementally. Matches the full-rebuild value exactly.
    """
    return _scores(net, [candidate])[0]


def _check_common(trials: int, seed: int, workers: int) -> None:
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
    trials are scored serially in blocks. Pass `trace` to collect every
    trial's record.
    """
    _check_common(trials, seed, workers)
    candidates = [_draw(domain, seed, t) for t in range(trials)]
    records = [
        TrialRecord(trial_index=t, lon=c.lon, lat=c.lat, score=score)
        for t, (c, score) in enumerate(zip(candidates, _scores(net, candidates)))
    ]
    if trace is not None:
        trace.extend(records)
    best = min(records, key=lambda r: (r.score, r.trial_index))
    return GeoCoord(best.lon, best.lat), best.score


def place_sequential(
    net: TemporalGstbn,
    domain: SearchDomain,
    n_sensors: int = 1,
    trials: int = 1000,
    seed: int = 42,
    *,
    workers: int = 1,
    traces: list[list[TrialRecord]] | None = None,
) -> PlacementResult:
    """Place `n_sensors` one at a time, committing each winner.

    Placement k runs its own Monte Carlo search with a seed derived from
    (seed, k), against the network as updated by the previous winners.
    Coverage never increases along the placed list. The result's `network`
    is the input network with every winner added.
    """
    if n_sensors < 1:
        raise ParameterError(f"n_sensors must be at least 1, got {n_sensors}")
    _check_common(trials, seed, workers)
    baseline = average_temporal_coverage(net)
    current = net
    placed: list[PlacedSensor] = []
    last = baseline
    for k in range(n_sensors):
        trace_k: list[TrialRecord] | None = [] if traces is not None else None
        coord, score = monte_carlo_place(
            current, domain, trials, derive_seed(seed, k), workers=workers, trace=trace_k
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
