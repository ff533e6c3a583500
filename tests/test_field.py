
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbn.errors import OrderingError, ParameterError, StructuralError
from gstbn.field import (
    FieldSnapshot,
    GridSpec,
    ObservationKind,
    RoIThreshold,
    compute_residual_field,
    extract_roi_events,
)
from conftest import make_grid
from oracles import naive_interval_analysis


def snap(grid, t, values, variable=ObservationKind.TEMPERATURE, valid=None):
    return FieldSnapshot(timestamp=t, variable=variable, grid=grid, values=values, valid=valid)


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
    def test_mask_inferred_from_nan(self):
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        s = snap(grid, 0, [[1.0, np.nan, 3.0]])
        assert s.valid.tolist() == [[True, False, True]]

    def test_rejects_shape_mismatch(self):
        grid = GridSpec(n_lat=2, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(StructuralError):
            snap(grid, 0, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_inf_marked_valid(self):
        grid = GridSpec(n_lat=1, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        with pytest.raises(StructuralError):
            snap(grid, 0, [[1.0, np.inf]], valid=[[True, True]])


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

            assert {e.cell_index for e in events} == set(oracle_rois)
            for e in events:
                want_value, want_contribs = oracle_rois[e.cell_index]
                assert e.roi_value == want_value
                assert dict(e.residuals) == want_contribs

    def test_threshold_zero_keeps_any_change(self):
        grid = GridSpec(n_lat=1, n_lon=2, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(
            snap(grid, 0, [[1.0, 1.0]]), snap(grid, 1, [[1.0, 1.001]])
        )
        events = extract_roi_events([rf], RoIThreshold(0.0))
        # the unchanged cell has residual 0, which is >= 0 but adds nothing
        assert [e.cell_index for e in events] == [1]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        grid = make_grid(n_lat=6, n_lon=6)
        a, b = random_snapshot_pair(rng, grid, ObservationKind.TEMPERATURE)
        rf = compute_residual_field(a, b)
        thresholds = [0.0, 0.1, 0.5, 1.0, 2.0]
        cell_sets = [
            {e.cell_index for e in extract_roi_events([rf], RoIThreshold(t))}
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
        assert extract_roi_events(fields, RoIThreshold(0.5)) == []

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
        (event,) = extract_roi_events(fields, RoIThreshold(0.5))
        assert event.roi_value == 4.0
        assert dict(event.residuals) == {ObservationKind.TEMPERATURE: 4.0}

    def test_scale_factor_applied_before_threshold(self):
        grid = GridSpec(n_lat=1, n_lon=1, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        rf = compute_residual_field(snap(grid, 0, [[0.0]]), snap(grid, 1, [[0.6]]))
        assert extract_roi_events([rf], RoIThreshold(0.5)) == []
        (event,) = extract_roi_events(
            [rf], RoIThreshold(0.5), scales={ObservationKind.TEMPERATURE: 2.0}
        )
        assert event.roi_value == 0.6 * 0.6 * 2.0

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
        (event,) = extract_roi_events([rf])
        assert event.cell_index == 3
        assert event.coord == grid.cell_coord(3)
