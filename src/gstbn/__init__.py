"""Geo-spatiotemporal bipartite networks for observing-system analysis.

Build a temporal bipartite network from gridded field snapshots and a
sensor catalog, score how closely the network observes its regions of
interest, and search for new sensor placements with Monte Carlo trials.
"""

__version__ = "0.1.0"

import os
import sys

# gstbn does no float BLAS (its two `@` are integer bitmask products), so the
# pool numpy's OpenBLAS starts at import only spins, burning a second core.
# Cap it before the first import of numpy, unless the caller already chose a
# thread count or numpy is loaded.
if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os, sys

from .errors import (
    GstbnError,
    NoObserversError,
    NotFoundError,
    OrderingError,
    ParameterError,
    ParseError,
    StructuralError,
)
from .geo import EARTH, EarthModel, GeoCoord, great_circle_distance, haversine_km
from .field import (
    DEFAULT_ROI_THRESHOLD,
    FieldSnapshot,
    GridSpec,
    ObservationKind,
    ResidualField,
    RoIEvents,
    RoIThreshold,
    compute_residual_field,
    extract_roi_events,
)
from .network import (
    GstbnSnapshot,
    Membership,
    Mobility,
    OperationalStatus,
    RoITable,
    SensorNode,
    TemporalGstbn,
    add_sensor,
    build_edges,
    build_temporal_gstbn,
    remove_sensor,
)
from .metrics import (
    CentralityReport,
    CoverageReport,
    RobustnessReport,
    average_temporal_coverage,
    coverage_report,
    degree_centrality,
    evaluate_robustness,
    static_coverage,
    total_temporal_coverage,
)
from .placement import (
    PlacedSensor,
    PlacementResult,
    SearchDomain,
    TrialRecord,
    candidate_score,
    derive_seed,
    monte_carlo_place,
    place_sequential,
)
from .ingest import (
    export_geojson,
    format_geojson,
    format_grid_snapshot,
    format_sensor_catalog,
    parse_grid_series,
    parse_grid_snapshot,
    parse_sensor_catalog,
    write_grid_snapshot,
    write_sensor_catalog,
)
from .synth import (
    Hotspot,
    ScenarioFiles,
    ScenarioSpec,
    generate_scenario,
    scenario_field_series,
    scenario_sensor_nodes,
    scenario_spec_from_dict,
    scenario_spec_to_dict,
)

__all__ = [
    "__version__",
    # errors
    "GstbnError",
    "StructuralError",
    "OrderingError",
    "NoObserversError",
    "NotFoundError",
    "ParameterError",
    "ParseError",
    # geo
    "GeoCoord",
    "EarthModel",
    "EARTH",
    "great_circle_distance",
    "haversine_km",
    # field
    "ObservationKind",
    "GridSpec",
    "FieldSnapshot",
    "ResidualField",
    "RoIThreshold",
    "RoIEvents",
    "DEFAULT_ROI_THRESHOLD",
    "compute_residual_field",
    "extract_roi_events",
    # network
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
    # metrics
    "CoverageReport",
    "CentralityReport",
    "RobustnessReport",
    "static_coverage",
    "total_temporal_coverage",
    "average_temporal_coverage",
    "coverage_report",
    "degree_centrality",
    "evaluate_robustness",
    # placement
    "SearchDomain",
    "TrialRecord",
    "PlacedSensor",
    "PlacementResult",
    "derive_seed",
    "candidate_score",
    "monte_carlo_place",
    "place_sequential",
    # ingest
    "parse_sensor_catalog",
    "format_sensor_catalog",
    "write_sensor_catalog",
    "parse_grid_snapshot",
    "format_grid_snapshot",
    "write_grid_snapshot",
    "parse_grid_series",
    "export_geojson",
    "format_geojson",
    # synth
    "Hotspot",
    "ScenarioSpec",
    "ScenarioFiles",
    "scenario_field_series",
    "scenario_sensor_nodes",
    "generate_scenario",
    "scenario_spec_to_dict",
    "scenario_spec_from_dict",
]
