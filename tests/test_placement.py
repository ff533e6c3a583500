import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gstbn.errors import ParameterError, StructuralError
from gstbn.field import GridSpec
from gstbn.geo import BLOCK_PAIRS, GeoCoord
from gstbn.metrics import average_temporal_coverage
from gstbn.network import add_sensor
from gstbn.placement import (
    SearchDomain,
    _draw,
    _scores,
    candidate_score,
    derive_seed,
    monte_carlo_place,
    place_sequential,
)
from conftest import make_grid, random_scenario, scenario_network


@pytest.fixture
def domain(small_scenario):
    return SearchDomain.from_grid(small_scenario.grid)


@pytest.fixture
def masked(small_scenario):
    """The grid's footprint with every other cell admissible: one table row
    per admissible cell."""
    grid = small_scenario.grid
    i, j = np.indices(grid.shape)
    return SearchDomain.from_grid(grid, (i + j) % 2 == 0)


class TestSearchDomain:
    def test_from_grid_covers_cell_boxes(self):
        grid = GridSpec(n_lat=2, n_lon=3, lat0=10.0, d_lat=1.0, lon0=20.0, d_lon=1.0)
        d = SearchDomain.from_grid(grid)
        assert d.lat_min == 9.5 and d.lat_max == 11.5
        assert d.lon_min == 19.5 and d.lon_max == 22.5
        assert d.mask is None

    def test_from_grid_clips_to_legal_coords(self):
        grid = GridSpec(n_lat=2, n_lon=2, lat0=89.0, d_lat=1.0, lon0=179.0, d_lon=1.0)
        d = SearchDomain.from_grid(grid)
        assert d.lat_max == 90.0
        assert d.lon_max == 180.0

    def test_all_true_mask_is_dropped(self):
        grid = make_grid(n_lat=3, n_lon=3)
        d = SearchDomain.from_grid(grid, np.ones(grid.shape, dtype=bool))
        assert d.mask is None

    def test_empty_mask_rejected(self):
        grid = make_grid(n_lat=3, n_lon=3)
        with pytest.raises(StructuralError):
            SearchDomain.from_grid(grid, np.zeros(grid.shape, dtype=bool))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ParameterError):
            SearchDomain(lon_min=10.0, lon_max=5.0, lat_min=0.0, lat_max=1.0)
        with pytest.raises(ParameterError):
            SearchDomain(lon_min=-300.0, lon_max=0.0, lat_min=0.0, lat_max=1.0)

    def test_masked_box_must_overlap_an_admissible_cell(self):
        # only cell (0, 0) is admissible: lon [19.5, 20.5] x lat [9.5, 10.5]
        grid = GridSpec(n_lat=2, n_lon=3, lat0=10.0, d_lat=1.0, lon0=20.0, d_lon=1.0)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        full = SearchDomain.from_grid(grid, mask)
        touching = (
            {"lon_min": 20.5},  # shares the cell's east edge
            {"lat_min": 10.5},  # shares its north edge
            {"lon_min": 20.5, "lat_min": 10.5},  # shares its corner
            {"lon_min": 30.0, "lon_max": 40.0},  # lies beyond the grid
        )
        for bounds in touching:
            with pytest.raises(ParameterError, match="overlaps no admissible cell"):
                replace(full, **bounds)
        for bounds in ({"lon_min": 20.25}, {"lat_min": 9.0, "lat_max": 9.75}):
            partial = replace(full, **bounds)
            lon, lat = _draw(partial, 5, 1)
            assert grid.containing_cell(GeoCoord(float(lon[0]), float(lat[0]))) == 0

    def test_draws_are_uniform_over_the_admissible_region(self):
        # unit cells centred on lon 20..22, lat 10..11; the box cuts through
        # every admissible cell
        grid = GridSpec(n_lat=2, n_lon=3, lat0=10.0, d_lat=1.0, lon0=20.0, d_lon=1.0)
        mask = np.array([[True, False, True], [True, True, False]])
        box = {"lon_min": 19.8, "lon_max": 22.1, "lat_min": 9.9, "lat_max": 11.2}
        n = 20_000
        lon, lat = _draw(SearchDomain(mask_grid=grid, mask=mask, **box), 12, n)
        counts = Counter()
        for x, y in zip(lon.tolist(), lat.tolist()):
            assert box["lon_min"] <= x <= box["lon_max"]
            assert box["lat_min"] <= y <= box["lat_max"]
            counts[grid.containing_cell(GeoCoord(x, y))] += 1
        overlap = {
            grid.cell_index(i, j): (min(20.5 + j, box["lon_max"]) - max(19.5 + j, box["lon_min"]))
            * (min(10.5 + i, box["lat_max"]) - max(9.5 + i, box["lat_min"]))
            for i, j in zip(*np.nonzero(mask))
        }
        assert set(counts) <= set(overlap)  # no draw off the grid or in a masked cell
        total = sum(overlap.values())
        for cell, area in overlap.items():
            p = area / total
            assert abs(counts[cell] - n * p) <= 5 * math.sqrt(n * p * (1 - p))


class TestCandidateScore:
    def test_matches_full_rebuild_exactly(self, small_network):
        rng = np.random.default_rng(101)
        for _ in range(30):
            c = GeoCoord(float(rng.uniform(-92, -88)), float(rng.uniform(24, 28)))
            fast = candidate_score(small_network, c)
            rebuild = average_temporal_coverage(add_sensor(small_network, c))
            assert fast == rebuild

    def test_matches_rebuild_on_random_networks(self):
        rng = np.random.default_rng(202)
        for _ in range(10):
            spec = random_scenario(rng)
            net = scenario_network(spec)
            grid = spec.grid
            for _ in range(5):
                c = GeoCoord(
                    float(rng.uniform(grid.lon0, grid.lon_at(grid.n_lon - 1))),
                    float(rng.uniform(grid.lat0, grid.lat_at(grid.n_lat - 1))),
                )
                assert candidate_score(net, c) == average_temporal_coverage(
                    add_sensor(net, c)
                )

    def test_matches_rebuild_under_strict_matching(self):
        rng = np.random.default_rng(303)
        spec = random_scenario(rng)
        net = scenario_network(spec, strict=True)
        for _ in range(10):
            c = GeoCoord(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            assert candidate_score(net, c) == average_temporal_coverage(add_sensor(net, c))


class TestBlockScores:
    """monte_carlo_place scores trials in (trials x RoIs) blocks; each score
    must equal the single-candidate score and the rebuilt network's."""

    @pytest.mark.parametrize("block_pairs", [None, 50, 1])
    @pytest.mark.parametrize("strict", [False, True])
    def test_block_scores_match_single_and_rebuild(self, monkeypatch, block_pairs, strict):
        if block_pairs is not None:
            # force many small blocks, with a ragged last one
            monkeypatch.setattr("gstbn.geo.BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(404)
        for _ in range(3):
            # large enough that a pairwise or reordered sum would differ
            spec = random_scenario(rng, max_side=24, max_hotspots=4)
            net = scenario_network(spec, strict=strict)
            trace = []
            monte_carlo_place(net, SearchDomain.from_grid(spec.grid), trials=13, seed=31, trace=trace)
            for r in trace:
                c = GeoCoord(r.lon, r.lat)
                assert r.score == candidate_score(net, c)
                assert r.score == average_temporal_coverage(add_sensor(net, c))


class TestScoresMemory:
    def test_peak_does_not_grow_with_the_trial_count(self):
        """Trials are scored in blocks of at most BLOCK_PAIRS (trial, RoI)
        pairs, so 8x the trials may add to the peak only the outputs: a list
        slot, a float and over-allocation, 64 bytes per trial at most."""
        spec = random_scenario(np.random.default_rng(505), max_side=24, max_hotspots=4)
        net = scenario_network(spec)
        domain = SearchDomain.from_grid(spec.grid)
        base = 4 * (BLOCK_PAIRS // len(net.roi_table))
        _scores(net, *_draw(domain, 1, 1))  # builds the network's cached tables

        def peak(trials):
            lon, lat = _draw(domain, 2, trials)
            tracemalloc.start()
            try:
                _scores(net, lon, lat)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * base) <= 1.25 * peak(base) + 64 * 8 * base


class TestMonteCarloPlace:
    def test_deterministic_given_seed(self, small_network, domain):
        a = monte_carlo_place(small_network, domain, trials=50, seed=9)
        b = monte_carlo_place(small_network, domain, trials=50, seed=9)
        assert a == b

    def test_different_seeds_draw_differently(self, small_network, domain):
        a = monte_carlo_place(small_network, domain, trials=20, seed=1)
        b = monte_carlo_place(small_network, domain, trials=20, seed=2)
        assert a != b  # astronomically unlikely to collide

    def test_trial_prefix_is_stable(self, small_network, domain, masked):
        # the first T1 draws are the same whatever the total budget is
        for d in (domain, masked):
            t1, t2 = [], []
            monte_carlo_place(small_network, d, trials=20, seed=5, trace=t1)
            monte_carlo_place(small_network, d, trials=60, seed=5, trace=t2)
            assert t2[:20] == t1

    def test_more_trials_never_hurt(self, small_network, domain):
        _, s1 = monte_carlo_place(small_network, domain, trials=20, seed=5)
        _, s2 = monte_carlo_place(small_network, domain, trials=60, seed=5)
        assert s2 <= s1

    def test_winner_is_argmin_of_trace(self, small_network, domain):
        trace = []
        coord, score = monte_carlo_place(
            small_network, domain, trials=40, seed=3, trace=trace
        )
        assert len(trace) == 40
        assert [r.trial_index for r in trace] == list(range(40))
        best = min(trace, key=lambda r: (r.score, r.trial_index))
        assert (coord.lon, coord.lat, score) == (best.lon, best.lat, best.score)

    def test_score_equals_rebuild_of_winner(self, small_network, domain):
        coord, score = monte_carlo_place(small_network, domain, trials=25, seed=8)
        assert score == average_temporal_coverage(add_sensor(small_network, coord))

    def test_draws_respect_domain(self, small_network, domain):
        trace = []
        monte_carlo_place(small_network, domain, trials=100, seed=13, trace=trace)
        for r in trace:
            assert domain.lon_min <= r.lon <= domain.lon_max
            assert domain.lat_min <= r.lat <= domain.lat_max

    def test_single_admissible_cell_keeps_budget(self, small_scenario, small_network):
        grid = small_scenario.grid
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True  # only one admissible cell
        masked = SearchDomain.from_grid(grid, mask)
        trace = []
        monte_carlo_place(small_network, masked, trials=30, seed=21, trace=trace)
        assert len(trace) == 30  # every counted trial is a valid candidate
        for r in trace:
            cell = grid.containing_cell(GeoCoord(r.lon, r.lat))
            assert cell == 0

    def test_sliver_overlap_draws_every_trial(self, small_scenario, small_network):
        # only cell 0, lon [-92.25, -91.75] x lat [23.75, 24.25], is admissible,
        # and the box overlaps it by a sliver: 1e-6 of the box's area
        grid = small_scenario.grid
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        box = {"lon_min": -91.75 - 3e-5, "lon_max": -88.0, "lat_min": 23.75, "lat_max": 27.75}
        trace = []
        sliver = SearchDomain(mask_grid=grid, mask=mask, **box)
        monte_carlo_place(small_network, sliver, trials=50, seed=21, trace=trace)
        assert len(trace) == 50
        for r in trace:
            assert box["lon_min"] <= r.lon <= box["lon_max"]
            assert box["lat_min"] <= r.lat <= box["lat_max"]
            assert -92.25 <= r.lon <= -91.75 and 23.75 <= r.lat <= 24.25
            assert grid.containing_cell(GeoCoord(r.lon, r.lat)) == 0

    def test_parallel_equals_serial(self, small_network, domain):
        serial_trace, parallel_trace = [], []
        a = monte_carlo_place(
            small_network, domain, trials=64, seed=17, workers=1, trace=serial_trace
        )
        b = monte_carlo_place(
            small_network, domain, trials=64, seed=17, workers=4, trace=parallel_trace
        )
        assert a == b
        assert serial_trace == parallel_trace

    def test_zero_roi_network_returns_first_draw(self, domain):
        import numpy as np
        from gstbn.field import FieldSnapshot, ObservationKind
        from gstbn.network import build_temporal_gstbn
        from conftest import make_grid

        grid = make_grid(n_lat=3, n_lon=3)
        series = {
            ObservationKind.TEMPERATURE: [
                FieldSnapshot(
                    timestamp=t, variable=ObservationKind.TEMPERATURE, grid=grid,
                    values=np.zeros(grid.shape),
                )
                for t in (0, 10)
            ]
        }
        from gstbn.network import Membership, Mobility, OperationalStatus, SensorNode

        catalog = [
            SensorNode(
                id=1,
                membership=Membership.FEDERAL,
                data_source="test",
                platform="p",
                mobility=Mobility.STATIONARY,
                geolocation=GeoCoord(-91.0, 25.0),
                operational_status=OperationalStatus.ACTIVE,
                observations=frozenset({ObservationKind.TEMPERATURE}),
            )
        ]
        net = build_temporal_gstbn(series, catalog)
        trace = []
        coord, score = monte_carlo_place(net, domain, trials=10, seed=4, trace=trace)
        assert score == 0.0
        assert (coord.lon, coord.lat) == (trace[0].lon, trace[0].lat)

    def test_bad_parameters_rejected(self, small_network, domain):
        with pytest.raises(ParameterError):
            monte_carlo_place(small_network, domain, trials=0, seed=1)
        with pytest.raises(ParameterError):
            monte_carlo_place(small_network, domain, trials=10, seed=-1)
        with pytest.raises(ParameterError):
            monte_carlo_place(small_network, domain, trials=10, seed=1, workers=0)


class TestPlaceSequential:
    def test_single_sensor_matches_direct_call(self, small_network, domain):
        result = place_sequential(small_network, domain, n_sensors=1, trials=30, seed=6)
        coord, score = monte_carlo_place(
            small_network, domain, trials=30, seed=derive_seed(6, 0)
        )
        assert result.placed[0].coord == coord
        assert result.placed[0].coverage_after_km == score
        assert result.baseline_coverage_km == average_temporal_coverage(small_network)
        assert result.trials_per_sensor == 30
        assert result.seed == 6

    def test_coverage_non_increasing_along_placements(self, small_network, domain):
        result = place_sequential(small_network, domain, n_sensors=3, trials=25, seed=2)
        scores = [p.coverage_after_km for p in result.placed]
        assert scores[0] <= result.baseline_coverage_km
        for a, b in zip(scores, scores[1:]):
            assert b <= a

    def test_each_round_commits_previous_winner(self, small_network, domain):
        result = place_sequential(small_network, domain, n_sensors=2, trials=25, seed=2)
        net1 = add_sensor(small_network, result.placed[0].coord)
        coord2, score2 = monte_carlo_place(
            net1, domain, trials=25, seed=derive_seed(2, 1)
        )
        assert result.placed[1].coord == coord2
        assert result.placed[1].coverage_after_km == score2

    def test_network_is_input_with_winners_added(self, small_network, domain):
        result = place_sequential(small_network, domain, n_sensors=3, trials=20, seed=9)
        chained = small_network
        for placed in result.placed:
            chained = add_sensor(chained, placed.coord)
        assert result.network.sensor_catalog == chained.sensor_catalog
        assert result.network.roi_table is chained.roi_table is small_network.roi_table
        assert result.network.snapshots == chained.snapshots
        assert average_temporal_coverage(result.network) == result.placed[-1].coverage_after_km

    def test_traces_one_list_per_sensor(self, small_network, domain):
        traces = []
        place_sequential(
            small_network, domain, n_sensors=2, trials=15, seed=3, traces=traces
        )
        assert len(traces) == 2
        assert all(len(t) == 15 for t in traces)

    def test_deterministic(self, small_network, domain):
        a = place_sequential(small_network, domain, n_sensors=2, trials=20, seed=14)
        b = place_sequential(small_network, domain, n_sensors=2, trials=20, seed=14)
        assert a == b

    def test_bad_n_sensors_rejected(self, small_network, domain):
        with pytest.raises(ParameterError):
            place_sequential(small_network, domain, n_sensors=0)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        seen = {derive_seed(42, k) for k in range(32)}
        assert len(seen) == 32
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_in_64_bit_range(self):
        for k in range(8):
            s = derive_seed(123456789, k)
            assert 0 <= s < 2**64
