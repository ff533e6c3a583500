import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbn.geo import (
    EARTH,
    EarthModel,
    GeoCoord,
    great_circle_distance,
    haversine_km,
    row_blocks,
)
from oracles import reference_distance_km

GULF_A = GeoCoord(-90.07, 29.95)
GULF_B = GeoCoord(-82.46, 27.95)

# frozen from the high-precision reference in oracles.py
GULF_DISTANCE_KM = 772.9404024552701

lons = st.floats(min_value=-180.0, max_value=180.0)
lats = st.floats(min_value=-90.0, max_value=90.0)
coords = st.builds(GeoCoord, lons, lats)
points = st.tuples(lons, lats)


class TestGeoCoord:
    def test_valid_construction(self):
        c = GeoCoord(-90.07, 29.95)
        assert c.lon == -90.07 and c.lat == 29.95

    @pytest.mark.parametrize(
        "lon,lat",
        [(-180.1, 0.0), (180.1, 0.0), (0.0, 90.5), (0.0, -91.0),
         (float("nan"), 0.0), (0.0, float("inf"))],
    )
    def test_rejects_bad_coordinates(self, lon, lat):
        with pytest.raises(ValueError):
            GeoCoord(lon, lat)

    def test_boundary_values_allowed(self):
        GeoCoord(-180.0, -90.0)
        GeoCoord(180.0, 90.0)


class TestEarthModel:
    def test_default_radius(self):
        assert EARTH.radius_km == 6371.0090667

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            EarthModel(radius_km=0.0)
        with pytest.raises(ValueError):
            EarthModel(radius_km=float("nan"))


class TestGreatCircleDistance:
    def test_gulf_pair_matches_reference(self):
        d = great_circle_distance(GULF_A, GULF_B)
        assert d == pytest.approx(GULF_DISTANCE_KM, rel=1e-6)

    def test_identity_is_exactly_zero(self):
        assert great_circle_distance(GULF_A, GULF_A) == 0.0

    def test_antipodal_equator_is_exactly_half_circumference(self):
        d = great_circle_distance(GeoCoord(0.0, 0.0), GeoCoord(180.0, 0.0))
        assert d == math.pi * EARTH.radius_km

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            a = GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            b = GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            got = great_circle_distance(a, b)
            want = reference_distance_km(a.lon, a.lat, b.lon, b.lat)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_scales_with_radius(self):
        small = EarthModel(radius_km=1.0)
        d_unit = great_circle_distance(GULF_A, GULF_B, small)
        d_earth = great_circle_distance(GULF_A, GULF_B)
        assert d_earth == pytest.approx(d_unit * EARTH.radius_km, rel=1e-12)

    @given(a=coords, b=coords)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, a, b):
        assert great_circle_distance(a, b) == great_circle_distance(b, a)

    @given(a=coords, b=coords)
    @settings(max_examples=200, deadline=None)
    def test_range(self, a, b):
        d = great_circle_distance(a, b)
        assert 0.0 <= d <= math.pi * EARTH.radius_km

    @given(a=coords, b=coords, c=coords)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_distance(a, b)
        bc = great_circle_distance(b, c)
        ac = great_circle_distance(a, c)
        assert ac <= ab + bc + 1e-9

    @given(a=coords)
    @settings(max_examples=100, deadline=None)
    def test_identity_property(self, a):
        assert great_circle_distance(a, a) == 0.0


class TestHaversineKernel:
    """The array kernel behind every distance. SIMD loops handle the tail of
    an array separately from its vector body; a distance must not depend on
    where in an array, or in a broadcast block, it was computed."""

    @given(a=points, b=points)
    @settings(max_examples=100, deadline=None)
    def test_same_value_at_every_length_and_position(self, a, b):
        alone = haversine_km(*a, *b)
        assert great_circle_distance(GeoCoord(*a), GeoCoord(*b)) == alone
        for n in range(1, 65):
            filled = haversine_km(
                np.full(n, a[0]), np.full(n, a[1]), np.full(n, b[0]), np.full(n, b[1])
            )
            assert (filled == alone).all(), n

    @given(pairs=st.lists(st.tuples(points, points), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_mixed_array_matches_pairs_alone(self, pairs):
        cols = np.array([[*a, *b] for a, b in pairs]).T
        whole = haversine_km(*cols)
        for k, (a, b) in enumerate(pairs):
            assert whole[k] == haversine_km(*a, *b)

    @given(
        rows=st.lists(points, min_size=1, max_size=12),
        cols=st.lists(points, min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_broadcast_block_matches_pairs_alone(self, rows, cols):
        r = np.array(rows)
        c = np.array(cols)
        block = haversine_km(r[:, :1], r[:, 1:], c[:, 0], c[:, 1])
        assert block.shape == (len(rows), len(cols))
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert block[i, j] == haversine_km(*a, *b)

    @given(pairs=st.lists(st.tuples(points, points), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_exactly_symmetric(self, pairs):
        lon1, lat1, lon2, lat2 = np.array([[*a, *b] for a, b in pairs]).T
        assert (haversine_km(lon1, lat1, lon2, lat2) == haversine_km(lon2, lat2, lon1, lat1)).all()

    @given(p=points)
    @settings(max_examples=100, deadline=None)
    def test_identity_is_zero(self, p):
        assert haversine_km(*p, *p) == 0.0

    @given(lon=lons, other=lons, k=st.integers(min_value=-180, max_value=0))
    @settings(max_examples=100, deadline=None)
    def test_antipodes_are_half_circumference(self, lon, other, k):
        half = math.pi * EARTH.radius_km
        # pole to pole, whatever the longitudes
        assert haversine_km(lon, 90.0, other, -90.0) == half
        # along the equator, where lon + 180 is exact
        assert haversine_km(float(k), 0.0, k + 180.0, 0.0) == half
        assert haversine_km(k + 180.0, 0.0, float(k), 0.0) == half

    def test_row_blocks_cover_rows_within_the_pair_bound(self, monkeypatch):
        monkeypatch.setattr("gstbn.geo.BLOCK_PAIRS", 10)
        assert list(row_blocks(7, 3)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert list(row_blocks(2, 50)) == [slice(0, 1), slice(1, 2)]
        assert list(row_blocks(0, 3)) == []
        assert list(row_blocks(4, 0)) == [slice(0, 4)]
