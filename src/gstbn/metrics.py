"""Coverage, degree centrality and removal robustness.

Coverage is the sum of RoI-to-nearest-sensor distances, so smaller means
the network observes its events from closer by. The temporal variants
aggregate the per-snapshot sums; the average is what placement
optimizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, StructuralError
from .network import GstbnSnapshot, TemporalGstbn, remove_sensor

__all__ = [
    "CoverageReport",
    "CentralityReport",
    "RobustnessReport",
    "static_coverage",
    "total_temporal_coverage",
    "average_temporal_coverage",
    "coverage_report",
    "degree_centrality",
    "evaluate_robustness",
]


@dataclass(frozen=True)
class CoverageReport:
    per_snapshot: tuple[tuple[int, float], ...]  # (timestamp, static coverage km)
    total_km: float
    average_km: float
    n_timesteps: int


@dataclass(frozen=True)
class CentralityReport:
    static_per_snapshot: dict[int, dict[int, int]]  # timestamp -> sensor id -> degree
    overall: dict[int, int]  # sensor id -> degree summed across snapshots
    distribution: dict[int, int]  # overall degree -> number of sensors


@dataclass(frozen=True)
class RobustnessReport:
    removed_sensor_ids: tuple[int, ...]
    coverage_before_km: float
    coverage_after_km: float
    relative_increase: float


def coverage_sum(values: np.ndarray | Sequence[float]) -> float | list[float]:
    """The one reduction behind every coverage figure: a float64 sum along
    the last axis, left to right from +0.0. A 1-D input gives a float, a
    2-D input the list of its row sums.

    Edge weights go in roi-id order and snapshot sums in time order, so a
    trial score and a rebuilt network's coverage add the same floats in the
    same order and agree exactly. `np.cumsum` adds sequentially; `np.sum`
    adds pairwise, and builtin `sum` is compensated from Python 3.12 on.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1]).tolist()
    return (0.0 + np.cumsum(a, axis=-1)[..., -1]).tolist()


def static_coverage(snapshot: GstbnSnapshot) -> float:
    """Sum of edge weights in one snapshot, in km. Zero when no RoIs fired."""
    return coverage_sum(snapshot.weight_km)


def total_temporal_coverage(net: TemporalGstbn) -> float:
    """Static coverage summed over all snapshots."""
    return coverage_report(net).total_km


def average_temporal_coverage(net: TemporalGstbn) -> float:
    """Total temporal coverage divided by the snapshot count."""
    return coverage_report(net).average_km


def coverage_report(net: TemporalGstbn) -> CoverageReport:
    if not net.snapshots:
        raise StructuralError("network has no snapshots")
    per = tuple((s.timestamp, static_coverage(s)) for s in net.snapshots)
    total = coverage_sum([v for _, v in per])
    return CoverageReport(
        per_snapshot=per,
        total_km=total,
        average_km=total / len(net.snapshots),
        n_timesteps=len(net.snapshots),
    )


def degree_centrality(net: TemporalGstbn) -> CentralityReport:
    """Per-snapshot and overall sensor degrees, plus the degree histogram.

    Every active sensor appears in every snapshot map, degree zero
    included; the histogram counts sensors per overall degree.
    """
    if not net.snapshots:
        raise StructuralError("network has no snapshots")
    active = sorted(s.id for s in net.active_sensors)
    static: dict[int, dict[int, int]] = {}
    for snap in net.snapshots:
        counts = Counter(snap.sensor_id.tolist())
        static[snap.timestamp] = {sid: counts[sid] for sid in active}
    overall = {sid: sum(degrees[sid] for degrees in static.values()) for sid in active}
    distribution = dict(sorted(Counter(overall.values()).items()))
    return CentralityReport(
        static_per_snapshot=static, overall=overall, distribution=distribution
    )


def evaluate_robustness(net: TemporalGstbn, k: int = 1) -> RobustnessReport:
    """Coverage impact of losing the k busiest sensors, one at a time.

    Each round deactivates the active sensor with the highest overall
    degree (ties go to the lowest id) and relinks every snapshot before
    picking the next victim. Coverage can only go up when observers
    disappear, so relative_increase is never negative; it is defined as
    zero when there was nothing to cover to begin with.
    """
    n_active = len(net.active_sensors)
    if not 1 <= k < n_active:
        raise ParameterError(
            f"k must be in [1, {n_active - 1}] for {n_active} active sensors, got {k}"
        )
    before = average_temporal_coverage(net)
    current = net
    removed: list[int] = []
    for _ in range(k):
        overall = degree_centrality(current).overall
        victim = min(overall.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        current = remove_sensor(current, victim)
        removed.append(victim)
    after = average_temporal_coverage(current)
    if before == 0.0:
        relative = 0.0 if after == 0.0 else float("inf")
    else:
        relative = after / before - 1.0
    return RobustnessReport(
        removed_sensor_ids=tuple(removed),
        coverage_before_km=before,
        coverage_after_km=after,
        relative_increase=relative,
    )
