
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbn.cli import _search_domain
from gstbn.errors import OrderingError, ParameterError, StructuralError
from gstbn.field import (
    FieldSnapshot,
    GridSpec,
    ObservationKind,
    RoIThreshold,
    compute_residual_field,
    extract_roi_events,
)
from gstbn.geo import GeoCoord
from gstbn.ingest import format_grid_snapshot, parse_grid_snapshot, write_grid_snapshot
from gstbn.network import Membership, Mobility, OperationalStatus, SensorNode, build_temporal_gstbn
from conftest import make_grid
from oracles import naive_interval_analysis


def as_rois(events):
    """The extracted columns in the oracle's shape: cell index ->
    (roi value, {variable: residual}), leaving out the NaN residuals."""
    return {
        cell: (value, {k: r for k, r in zip(ObservationKind, row) if not math.isnan(r)})
        for cell, value, row in zip(
            events.cell.tolist(), events.value.tolist(), events.residual.tolist()
        )
    }


def observer():
    """An active sensor that observes every variable."""
    return SensorNode(
        id=1,
        membership=Membership.FEDERAL,
        data_source="test",
        platform="buoy",
        mobility=Mobility.STATIONARY,
        geolocation=GeoCoord(-90.0, 25.0),
        operational_status=OperationalStatus.ACTIVE,
        observations=frozenset(ObservationKind),
    )


def snap(grid, t, values, variable=ObservationKind.TEMPERATURE):
    return FieldSnapshot(timestamp=t, variable=variable, grid=grid, values=values)


def random_snapshot_pair(rng, grid, variable):
    shape = grid.shape
    a = rng.normal(20.0, 1.0, shape)
    b = a + rng.normal(0.0, 1.0, shape)
    # punch some shared and some one-sided holes
    for arr in (a, b):
        holes = rng.random(shape) < 0.15
        arr[holes] = np.nan
    return snap(grid, 0, a, variable), snap(grid, 3600, b, variable)


class TestObservationKind:
    def test_round_trip(self):
        for kind in ObservationKind:
            assert ObservationKind(kind.value) is kind

    def test_closed_set(self):
        with pytest.raises(ValueError):
            ObservationKind("wind_speed")
        assert {k.value for k in ObservationKind} == {
            "temperature", "salinity", "current_u", "current_v",
        }


class TestGridSpec:
    def test_cell_coords(self):
        grid = GridSpec(n_lat=3, n_lon=4, lat0=25.0, d_lat=0.5, lon0=-90.0, d_lon=0.25)
        c = grid.cell_coord(grid.cell_index(2, 3))
        assert c.lat == 25.0 + 2 * 0.5
        assert c.lon == -90.0 + 3 * 0.25
        assert grid.cell_count == 12

    def test_all_cell_centres_valid(self):
        grid = make_grid()
        for idx in range(grid.cell_count):
            grid.cell_coord(idx)

    def test_rejects_grids_leaving_coordinate_range(self):
        with pytest.raises(ValueError):
            GridSpec(n_lat=10, n_lon=2, lat0=85.0, d_lat=1.0, lon0=0.0, d_lon=1.0)

    def test_rejects_non_positive_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(n_lat=2, n_lon=2, lat0=0.0, d_lat=0.0, lon0=0.0, d_lon=1.0)

    def test_containing_cell(self):
        grid = GridSpec(n_lat=2, n_lon=2, lat0=10.0, d_lat=1.0, lon0=20.0, d_lon=1.0)
        from gstbn.geo import GeoCoord

        assert grid.containing_cell(GeoCoord(20.1, 10.2)) == 0
        assert grid.containing_cell(GeoCoord(21.4, 11.3)) == 3
        assert grid.containing_cell(GeoCoord(25.0, 10.0)) is None


class TestFieldSnapshot:
    @pytest.mark.parametrize("missing", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_mask_inferred_from_nan(self, missing):
        # every non-finite input is stored as NaN, the one mark of a missing cell
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        s = snap(grid, 0, [[1.0, missing, 3.0]])
        assert s.valid.tolist() == [[True, False, True]]
        assert math.isnan(s.values[0, 1])

    def test_rejects_shape_mismatch(self):
        grid = GridSpec(n_lat=2, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(StructuralError):
            snap(grid, 0, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_the_constructor_copies_the_callers_array(self):
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        a = np.array([[1.0, np.inf, 3.0]])
        s = snap(grid, 0, a)
        # the inf becomes NaN in the snapshot only
        assert a[0, 1] == np.inf and math.isnan(s.values[0, 1])
        a[0, 0] = 9.0
        assert s.values[0, 0] == 1.0

    def test_nan_written_after_construction_is_missing_everywhere(self, tmp_path):
        # NaN in `values` alone marks the cell missing: no mask must be
        # written with it
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        a, b = snap(grid, 0, [[1.0, 2.0, 3.0]]), snap(grid, 10, [[5.0, 6.0, 7.0]])
        b.values[0, 1] = np.nan
        rf = compute_residual_field(a, b)
        assert math.isnan(rf.residuals[0, 1])
        assert extract_roi_events([rf]).cell.tolist() == [0, 2]
        args = SimpleNamespace(unmasked_search=False, bbox=None)
        domain = _search_domain(args, {ObservationKind.TEMPERATURE: [a, b]})
        assert domain.mask.tolist() == [[True, False, True]]
        assert format_grid_snapshot(b).splitlines()[3] == "5.0 NaN 7.0"
        path = tmp_path / "b.grid"
        write_grid_snapshot(b, path)
        assert parse_grid_snapshot(path) == b


class TestRoIThreshold:
    def test_default(self):
        assert RoIThreshold().value == 0.5

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ParameterError):
            RoIThreshold(bad)


class TestComputeResidualField:
    def test_squared_difference(self):
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(
            snap(grid, 0, [[1.0, 2.0, -1.0]]), snap(grid, 10, [[1.5, 0.0, -3.0]])
        )
        assert rf.residuals[0, 0] == 0.25
        assert rf.residuals[0, 1] == 4.0
        assert rf.residuals[0, 2] == 4.0
        assert rf.interval == (0, 10)

    def test_missing_propagates(self):
        grid = GridSpec(n_lat=1, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(
            snap(grid, 0, [[np.nan, 2.0]]), snap(grid, 10, [[1.0, 2.5]])
        )
        assert not rf.valid[0, 0]
        assert rf.valid[0, 1]

    def test_rejects_variable_mismatch(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(StructuralError):
            compute_residual_field(
                snap(grid, 0, [[1.0]]),
                snap(grid, 10, [[1.0]], variable=ObservationKind.SALINITY),
            )

    def test_rejects_grid_mismatch(self):
        g1 = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        g2 = GridSpec(n_lat=1, n_lon=1, lat0=5.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(StructuralError):
            compute_residual_field(snap(g1, 0, [[1.0]]), snap(g2, 10, [[1.0]]))

    def test_rejects_non_increasing_timestamps(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(OrderingError):
            compute_residual_field(snap(grid, 10, [[1.0]]), snap(grid, 10, [[1.0]]))

    def test_overflowing_change_names_variable_interval_and_cell(self):
        # 1e200 -> -1e200 squares past the float range; no warning may leak
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(ParameterError, match=r"^temperature squared change over "
                           r"interval 0-10 is not finite at cell 2$"):
            compute_residual_field(
                snap(grid, 0, [[1.0, np.nan, 1e200]]), snap(grid, 10, [[2.0, 5.0, -1e200]])
            )

    @given(delta=st.floats(min_value=1e-6, max_value=1e6,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_boost_diminish(self, delta):
        # squaring shrinks small changes and amplifies large ones
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(snap(grid, 0, [[0.0]]), snap(grid, 1, [[delta]]))
        r = rf.residuals[0, 0]
        assert r >= 0.0
        if delta < 1.0:
            assert r < delta
        elif delta > 1.0:
            assert r > delta


class TestExtractRoiEvents:
    def test_matches_naive_oracle_on_random_grids(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            grid = make_grid(
                n_lat=int(rng.integers(1, 11)), n_lon=int(rng.integers(1, 11))
            )
            pairs = [
                random_snapshot_pair(rng, grid, ObservationKind.TEMPERATURE),
                random_snapshot_pair(rng, grid, ObservationKind.SALINITY),
            ]
            threshold = float(rng.uniform(0.0, 2.0))
            fields = [compute_residual_field(a, b) for a, b in pairs]
            events = extract_roi_events(fields, RoIThreshold(threshold))

            oracle_residuals, oracle_rois = naive_interval_analysis(pairs, threshold)

            # residual grids are bit-equal to the naive computation
            for rf in fields:
                rows = oracle_residuals[rf.variable]
                for i in range(grid.n_lat):
                    for j in range(grid.n_lon):
                        if rows[i][j] is None:
                            assert not rf.valid[i, j]
                        else:
                            assert rf.residuals[i, j] == rows[i][j]

            assert as_rois(events) == oracle_rois

    def test_threshold_zero_keeps_any_change(self):
        grid = GridSpec(n_lat=1, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(
            snap(grid, 0, [[1.0, 1.0]]), snap(grid, 1, [[1.0, 1.001]])
        )
        events = extract_roi_events([rf], RoIThreshold(0.0))
        # the unchanged cell has residual 0, which is >= 0 but adds nothing
        assert events.cell.tolist() == [1]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        grid = make_grid(n_lat=6, n_lon=6)
        a, b = random_snapshot_pair(rng, grid, ObservationKind.TEMPERATURE)
        rf = compute_residual_field(a, b)
        thresholds = [0.0, 0.1, 0.5, 1.0, 2.0]
        cell_sets = [
            set(extract_roi_events([rf], RoIThreshold(t)).cell.tolist())
            for t in thresholds
        ]
        for bigger, smaller in zip(cell_sets, cell_sets[1:]):
            assert smaller <= bigger

    def test_per_variable_threshold_inside_sum(self):
        # two variables each below threshold must not combine into an event
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        pairs = [
            (snap(grid, 0, [[0.0]], variable=v), snap(grid, 1, [[0.6]], variable=v))
            for v in (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)
        ]
        fields = [compute_residual_field(a, b) for a, b in pairs]
        # residual is 0.36 per variable; . Sum 0.72 > 0.5 but neither passes alone
        assert len(extract_roi_events(fields, RoIThreshold(0.5))) == 0

    def test_contributing_variables_recorded_post_threshold(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        pairs = {
            ObservationKind.TEMPERATURE: 2.0,  # residual 4.0, passes
            ObservationKind.SALINITY: 0.5,     # residual 0.25, dropped
        }
        fields = [
            compute_residual_field(
                snap(grid, 0, [[0.0]], variable=v), snap(grid, 1, [[d]], variable=v)
            )
            for v, d in pairs.items()
        ]
        events = extract_roi_events(fields, RoIThreshold(0.5))
        assert as_rois(events) == {0: (4.0, {ObservationKind.TEMPERATURE: 4.0})}

    def test_overflowing_roi_sum_names_variable_interval_and_cell(self):
        # each variable's residual is finite, their sum is not
        grid = GridSpec(n_lat=1, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        fields = [
            compute_residual_field(
                snap(grid, 0, [[0.0, 0.0]], variable=kind),
                snap(grid, 10, [[1.0, 1e154]], variable=kind),
            )
            for kind in (ObservationKind.TEMPERATURE, ObservationKind.SALINITY)
        ]
        with pytest.raises(ParameterError, match=r"^salinity RoI sum over interval 0-10 "
                           r"is not finite at cell 1$"):
            extract_roi_events(fields)

    def test_rejects_mixed_intervals(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf1 = compute_residual_field(snap(grid, 0, [[0.0]]), snap(grid, 1, [[1.0]]))
        rf2 = compute_residual_field(
            snap(grid, 1, [[0.0]], variable=ObservationKind.SALINITY),
            snap(grid, 2, [[1.0]], variable=ObservationKind.SALINITY),
        )
        with pytest.raises(StructuralError):
            extract_roi_events([rf1, rf2])

    def test_rejects_duplicate_variable(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(snap(grid, 0, [[0.0]]), snap(grid, 1, [[1.0]]))
        with pytest.raises(StructuralError):
            extract_roi_events([rf, rf])

    def test_event_coords_are_cell_centres(self):
        grid = GridSpec(n_lat=2, n_lon=2, lat0=10.0, d_lat=0.5, lon0=-40.0, d_lon=0.5)
        rf = compute_residual_field(
            snap(grid, 0, [[0.0, 0.0], [0.0, 0.0]]),
            snap(grid, 1, [[0.0, 0.0], [0.0, 2.0]]),
        )
        events = extract_roi_events([rf])
        assert events.cell.tolist() == [3]
        assert GeoCoord(events.lon[0], events.lat[0]) == grid.cell_coord(3)


CELL_VALUES = st.one_of(
    st.just(float("nan")), st.sampled_from([0.0, 0.5, 1.0, 1.75]), st.floats(-3.0, 3.0)
)


@st.composite
def field_series(draw):
    """One or two variables on a small grid over two to four timestamps,
    with NaN cells and repeated values, so residuals are missing, exactly
    zero and on either side of the thresholds."""
    grid = make_grid(n_lat=draw(st.integers(1, 4)), n_lon=draw(st.integers(1, 4)))
    kinds = draw(st.lists(st.sampled_from(list(ObservationKind)), min_size=1, max_size=2, unique=True))
    times = range(0, 100 * draw(st.integers(2, 4)), 100)
    return grid, {
        kind: [
            snap(grid, t, np.reshape(draw(st.lists(CELL_VALUES, min_size=grid.cell_count,
                                                   max_size=grid.cell_count)), grid.shape), kind)
            for t in times
        ]
        for kind in kinds
    }


def bits(values):
    """Floats as their bit patterns, so -0.0 differs from 0.0 and NaN equals NaN."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestColumnarExtraction:
    """The extracted columns and the ids the network gives them, against the
    cell-by-cell oracle, bit for bit."""

    @given(data=st.data(), threshold=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_columns_and_ids_match_the_naive_oracle(self, data, threshold):
        grid, series = data.draw(field_series())
        kinds = list(series)
        nan = np.float64("nan")
        ids: dict[int, int] = {}  # cell -> roi id, in first-firing order
        net = build_temporal_gstbn(series, [observer()], RoIThreshold(threshold))
        for k, net_snap in enumerate(net.snapshots):
            pairs = [(series[kind][k], series[kind][k + 1]) for kind in kinds]
            fields = [compute_residual_field(a, b) for a, b in pairs]
            events = extract_roi_events(fields, RoIThreshold(threshold))
            _, want = naive_interval_analysis(pairs, threshold)
            cells = sorted(want)
            assert len(events) == len(cells) and events.cell.tolist() == cells
            assert bits(events.value) == bits([want[c][0] for c in cells])
            for j, kind in enumerate(ObservationKind):
                # NaN exactly where the kind did not count
                column = [want[c][1].get(kind, nan) for c in cells]
                assert bits(events.residual[:, j]) == bits(column)
            # the network's rows, keyed by ids in first-firing order
            for c in cells:
                ids.setdefault(c, len(ids) + 1)
            order = sorted(cells, key=ids.get)
            assert net_snap.roi_id.tolist() == [ids[c] for c in order]
            assert bits(net_snap.roi_value) == bits([want[c][0] for c in order])
            assert bits(net_snap.residual) == bits(
                [[want[c][1].get(kind, nan) for kind in ObservationKind] for c in order]
            )
        # the RoI with id k is table row k - 1
        assert net.roi_table.cell.tolist() == list(ids)
