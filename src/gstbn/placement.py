"""Monte Carlo sensor placement.

The objective is average temporal coverage: candidates are drawn
uniformly over a bounding box (optionally masked to admissible grid
cells) and the draw with the lowest resulting coverage wins.

Determinism contract: trial i draws from a generator seeded by
(seed, i), so any prefix of trials is reproducible regardless of how
many trials follow; the winner is the lowest (score, trial_index) pair.
Trial scores reuse each RoI's current nearest-sensor distance, so one
trial costs one distance per RoI node instead of a network rebuild, and
matches the rebuild bit for bit. Trials are scored serially in
(trials x RoIs) blocks; the `workers` argument is accepted for
compatibility and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .field import GridSpec
from .geo import GeoCoord, haversine_km, lonlat_arrays, row_blocks
from .metrics import average_temporal_coverage, coverage_sum
from .network import TemporalGstbn, add_sensor

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


@dataclass(frozen=True, eq=False)
class SearchDomain:
    """Bounding box for candidate draws, with an optional cell mask.

    When a mask is present, a draw only counts if it falls in a cell
    marked True; rejected draws are redrawn and do not consume the trial
    budget.
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


@dataclass(frozen=True, eq=False)
class _TrialEvaluator:
    """Draws trial candidates and scores them in blocks.

    `roi_lon`/`roi_lat` hold the registry's coordinates. `snaps` holds, per
    snapshot, the registry index and current edge weight of each RoI in
    roi-id order. A candidate's score is min(current weight, candidate
    distance) per RoI, summed with `coverage_sum` in exactly the order a
    network rebuilt by `add_sensor` sums its edge weights.
    """

    roi_lon: np.ndarray
    roi_lat: np.ndarray
    snaps: tuple[tuple[np.ndarray, np.ndarray], ...]
    radius_km: float
    domain: SearchDomain | None = None
    seed: int = 0

    @classmethod
    def from_net(
        cls,
        net: TemporalGstbn,
        domain: SearchDomain | None = None,
        seed: int = 0,
    ) -> "_TrialEvaluator":
        if not net.snapshots:
            raise StructuralError("network has no snapshots")
        index_of = {node.id: i for i, node in enumerate(net.roi_registry)}
        snaps = tuple(
            (
                np.array([index_of[e.roi_id] for e in snap.edges], dtype=np.intp),
                np.array([e.weight_km for e in snap.edges], dtype=np.float64),
            )
            for snap in net.snapshots
        )
        roi_lon, roi_lat = lonlat_arrays(n.geolocation for n in net.roi_registry)
        return cls(
            roi_lon=roi_lon,
            roi_lat=roi_lat,
            snaps=snaps,
            radius_km=net.earth.radius_km,
            domain=domain,
            seed=seed,
        )

    def scores(self, candidates: list[GeoCoord]) -> list[float]:
        """Average temporal coverage after adding each candidate alone."""
        lon, lat = lonlat_arrays(candidates)
        out: list[float] = []
        for rows in row_blocks(len(candidates), len(self.roi_lon)):
            dist = haversine_km(
                self.roi_lon, self.roi_lat, lon[rows, None], lat[rows, None], self.radius_km
            )
            # memoryview rows hand `coverage_sum` the same Python floats as
            # a list would, without building one
            per_snap = [
                [coverage_sum(memoryview(row)) for row in np.minimum(w, dist[:, idx])]
                for idx, w in self.snaps
            ]
            out.extend(coverage_sum(totals) / len(self.snaps) for totals in zip(*per_snap))
        return out

    def draw(self, trial_index: int) -> GeoCoord:
        rng = np.random.default_rng([self.seed, trial_index])
        dom = self.domain
        for _ in range(_MAX_REJECTS):
            lon = float(rng.uniform(dom.lon_min, dom.lon_max))
            lat = float(rng.uniform(dom.lat_min, dom.lat_max))
            if dom.mask is None:
                return GeoCoord(lon, lat)
            cell = dom.mask_grid.containing_cell(GeoCoord(lon, lat))
            if cell is not None and dom.mask.flat[cell]:
                return GeoCoord(lon, lat)
        raise StructuralError(
            f"domain rejected {_MAX_REJECTS} consecutive draws; mask and box do not overlap"
        )


def candidate_score(net: TemporalGstbn, candidate: GeoCoord) -> float:
    """Average temporal coverage the network would have with `candidate`
    added, computed incrementally. Matches the full-rebuild value exactly.
    """
    return _TrialEvaluator.from_net(net).scores([candidate])[0]


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
    evaluator = _TrialEvaluator.from_net(net, domain, seed)
    candidates = [evaluator.draw(t) for t in range(trials)]
    records = [
        TrialRecord(trial_index=t, lon=c.lon, lat=c.lat, score=score)
        for t, (c, score) in enumerate(zip(candidates, evaluator.scores(candidates)))
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
