import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gstbn.ingest
from gstbn.errors import NotFoundError, ParseError
from gstbn.field import FieldSnapshot, GridSpec, ObservationKind
from gstbn.geo import GeoCoord
from gstbn.ingest import (
    build_report,
    centrality_to_dict,
    coverage_to_dict,
    dump_json,
    export_geojson,
    format_geojson,
    format_grid_snapshot,
    format_sensor_catalog,
    parse_grid_series,
    parse_grid_snapshot,
    parse_sensor_catalog,
    placement_to_dict,
    read_utf8,
    robustness_to_dict,
    write_grid_snapshot,
    write_sensor_catalog,
)
from gstbn.metrics import coverage_report, degree_centrality, evaluate_robustness
from gstbn.network import (
    GstbnSnapshot,
    Membership,
    Mobility,
    OperationalStatus,
    RoITable,
    SensorNode,
    TemporalGstbn,
)
from gstbn.placement import PlacedSensor, PlacementResult
from conftest import make_grid
from oracles import edge_rows, geojson_document, payloads, roi_coords, sequential_sum


def random_sensor(rng, sid):
    n_obs = int(rng.integers(0, 5))
    kinds = frozenset(
        rng.choice(list(ObservationKind), size=n_obs, replace=False)
    ) if n_obs else frozenset()
    status = OperationalStatus.ACTIVE if kinds and rng.random() < 0.8 else OperationalStatus.INACTIVE
    return SensorNode(
        id=sid,
        membership=list(Membership)[int(rng.integers(0, 2))],
        data_source=f"src-{sid}",
        platform=f"platform {sid}",
        mobility=list(Mobility)[int(rng.integers(0, 2))],
        geolocation=GeoCoord(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))),
        operational_status=status,
        observations=kinds,
    )


def random_snapshot(rng):
    grid = make_grid(
        n_lat=int(rng.integers(1, 8)),
        n_lon=int(rng.integers(1, 8)),
        lat0=float(rng.uniform(-60, 60)),
        d_lat=float(rng.uniform(0.1, 1.0)),
        lon0=float(rng.uniform(-170, 160)),
        d_lon=float(rng.uniform(0.1, 1.0)),
    )
    values = rng.normal(0.0, 50.0, grid.shape)
    values[rng.random(grid.shape) < 0.2] = np.nan
    return FieldSnapshot(
        timestamp=int(rng.integers(0, 2**31)),
        variable=list(ObservationKind)[int(rng.integers(0, 4))],
        grid=grid,
        values=values,
    )


class TestSensorCatalogRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        sensors = [random_sensor(rng, sid) for sid in range(1, 40)]
        path = tmp_path / "catalog.csv"
        write_sensor_catalog(sensors, path)
        assert parse_sensor_catalog(path) == sensors

    def test_format_is_stable(self):
        rng = np.random.default_rng(9)
        sensors = [random_sensor(rng, sid) for sid in range(1, 10)]
        assert format_sensor_catalog(sensors) == format_sensor_catalog(sensors)

    def test_header_and_example_row(self, tmp_path):
        s = SensorNode(
            id=42,
            membership=Membership.FEDERAL,
            data_source="ndbc",
            platform="buoy-42",
            mobility=Mobility.STATIONARY,
            geolocation=GeoCoord(-90.07, 29.95),
            operational_status=OperationalStatus.ACTIVE,
            observations=frozenset({ObservationKind.TEMPERATURE, ObservationKind.SALINITY}),
        )
        text = format_sensor_catalog([s])
        lines = text.splitlines()
        assert lines[0] == "id,membership,data_source,platform,mobility,lat,lon,status,observations"
        assert lines[1] == "42,federal,ndbc,buoy-42,stationary,29.95,-90.07,active,temperature|salinity"


class TestSensorCatalogParsing:
    def write(self, tmp_path, text):
        p = tmp_path / "cat.csv"
        p.write_text(text)
        return p

    HEADER = "id,membership,data_source,platform,mobility,lat,lon,status,observations\n"

    def test_missing_column(self, tmp_path):
        p = self.write(tmp_path, "id,membership\n")
        with pytest.raises(ParseError, match="missing columns"):
            parse_sensor_catalog(p)

    def test_unknown_column(self, tmp_path):
        p = self.write(tmp_path, self.HEADER.replace("observations", "colour"))
        with pytest.raises(ParseError, match="unknown column"):
            parse_sensor_catalog(p)

    def test_duplicate_id(self, tmp_path):
        rows = (
            self.HEADER
            + "1,federal,a,b,stationary,1.0,2.0,active,temperature\n"
            + "1,ldn,c,d,mobile,3.0,4.0,active,salinity\n"
        )
        p = self.write(tmp_path, rows)
        with pytest.raises(ParseError, match="(?s)3.*duplicate sensor id"):
            parse_sensor_catalog(p)

    def test_bad_enum_reports_line(self, tmp_path):
        rows = self.HEADER + "1,imperial,a,b,stationary,1.0,2.0,active,temperature\n"
        p = self.write(tmp_path, rows)
        with pytest.raises(ParseError, match="2.*bad membership"):
            parse_sensor_catalog(p)

    def test_bad_coordinate_reports_line(self, tmp_path):
        rows = self.HEADER + "1,federal,a,b,stationary,95.0,2.0,active,temperature\n"
        p = self.write(tmp_path, rows)
        with pytest.raises(ParseError, match="2.*latitude"):
            parse_sensor_catalog(p)

    def test_active_without_observations_rejected(self, tmp_path):
        rows = self.HEADER + "1,federal,a,b,stationary,1.0,2.0,active,\n"
        p = self.write(tmp_path, rows)
        with pytest.raises(ParseError, match="observes nothing"):
            parse_sensor_catalog(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_sensor_catalog(tmp_path / "nope.csv")

    def test_column_order_free(self, tmp_path):
        text = (
            "lat,lon,id,membership,data_source,platform,mobility,status,observations\n"
            "29.95,-90.07,7,ldn,src,plat,mobile,active,current_u|current_v\n"
        )
        p = self.write(tmp_path, text)
        (s,) = parse_sensor_catalog(p)
        assert s.id == 7
        assert s.geolocation == GeoCoord(-90.07, 29.95)
        assert s.observations == frozenset(
            {ObservationKind.CURRENT_U, ObservationKind.CURRENT_V}
        )


class TestGridRoundTrip:
    def test_round_trip_identity_random(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(25):
            snap = random_snapshot(rng)
            path = tmp_path / f"grid-{i}.grid"
            write_grid_snapshot(snap, path)
            assert parse_grid_snapshot(path) == snap

    def test_nan_token_round_trips(self, tmp_path):
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.0, d_lat=1.0, lon0=0.0, d_lon=1.0)
        snap = FieldSnapshot(
            timestamp=5, variable=ObservationKind.SALINITY, grid=grid,
            values=[[1.5, np.nan, -2.25]],
        )
        text = format_grid_snapshot(snap)
        assert text.splitlines()[3] == "1.5 NaN -2.25"
        back = parse_grid_snapshot_write(tmp_path, text)
        assert back == snap

    def test_awkward_floats_round_trip(self, tmp_path):
        # shortest-repr floats that need all 17 digits
        grid = GridSpec(n_lat=1, n_lon=3, lat0=0.1, d_lat=0.1, lon0=0.3, d_lon=0.7)
        values = [[0.1 + 0.2, 1e-308, 12345678.900000001]]
        snap = FieldSnapshot(
            timestamp=1, variable=ObservationKind.TEMPERATURE, grid=grid, values=values
        )
        path = tmp_path / "awkward.grid"
        write_grid_snapshot(snap, path)
        back = parse_grid_snapshot(path)
        assert back == snap
        assert back.values[0, 0] == 0.1 + 0.2


def parse_grid_snapshot_write(tmp_path, text):
    p = tmp_path / "tmp.grid"
    p.write_text(text)
    return parse_grid_snapshot(p)


class TestGridParsing:
    GOOD = (
        "GSTBN-GRID v1\n"
        "variable=temperature timestamp=100\n"
        "nlat=2 nlon=3 lat0=25.0 dlat=0.5 lon0=-90.0 dlon=0.5\n"
        "1.0 2.0 3.0\n"
        "4.0 NaN 6.0\n"
    )

    def test_parses_reference_text(self, tmp_path):
        snap = parse_grid_snapshot_write(tmp_path, self.GOOD)
        assert snap.timestamp == 100
        assert snap.variable is ObservationKind.TEMPERATURE
        assert snap.grid == GridSpec(n_lat=2, n_lon=3, lat0=25.0, d_lat=0.5, lon0=-90.0, d_lon=0.5)
        assert snap.values[0, 2] == 3.0
        assert not snap.valid[1, 1]

    def test_missing_magic(self, tmp_path):
        with pytest.raises(ParseError, match="1: missing magic"):
            parse_grid_snapshot_write(tmp_path, "GRID?\n" + self.GOOD[len("GSTBN-GRID v1\n"):])

    def test_unknown_variable(self, tmp_path):
        with pytest.raises(ParseError, match="2.*bad variable"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("temperature", "wind"))

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(ParseError, match="2.*timestamp"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("timestamp=100", "timestamp=ten"))

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError, match="expected 2 data rows"):
            parse_grid_snapshot_write(tmp_path, self.GOOD + "7.0 8.0 9.0\n")

    def test_header_line_break_other_than_newline_counts(self, tmp_path):
        # splitlines() breaks at "\r" too, so this text has three data rows
        text = self.GOOD.replace("timestamp=100\n", "timestamp=100\r") + "7.0 8.0 9.0\n"
        with pytest.raises(ParseError, match="6: expected 2 data rows, found 3"):
            parse_grid_snapshot_write(tmp_path, text)

    def test_row_length_mismatch_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="5: expected 3 values, got 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("4.0 NaN 6.0", "4.0 6.0"))

    def test_bad_value_reports_position(self, tmp_path):
        with pytest.raises(ParseError, match="4.*column 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("2.0", "two"))

    def test_infinity_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="non-finite"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("2.0", "inf"))

    def test_nan_case_insensitive(self, tmp_path):
        snap = parse_grid_snapshot_write(tmp_path, self.GOOD.replace("NaN", "nan"))
        assert not snap.valid[1, 1]


def assert_body_matches_reference(directory, n_lat, n_lon, body, chunk):
    """The grid with `body` parses, in chunks of about `chunk` bytes, to
    the reference loop's values bit for bit, or raises its ParseError."""
    text = (
        "GSTBN-GRID v1\nvariable=salinity timestamp=3\n"
        f"nlat={n_lat} nlon={n_lon} lat0=1.0 dlat=0.5 lon0=2.0 dlon=0.5\n" + body
    )
    path = directory / "differential.grid"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = reference_grid_values(path, text, n_lat, n_lon)
    except ParseError as exc:
        with pytest.raises(ParseError) as got, mock.patch.object(gstbn.ingest, "_CHUNK", chunk):
            parse_grid_snapshot(path)
        assert str(got.value) == str(exc)
        return
    with mock.patch.object(gstbn.ingest, "_CHUNK", chunk):
        snap = parse_grid_snapshot(path)
    ref = FieldSnapshot(timestamp=3, variable=snap.variable, grid=snap.grid, values=want)
    assert snap.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(snap.valid, ref.valid)


def reference_grid_values(path, text, n_lat, n_lon):
    """The grid body parsed token by token with `float`, independent of the
    parser under test; raises the ParseError the parser must raise."""
    lines = text.splitlines()
    body = lines[3:]
    if len(body) != n_lat:
        raise ParseError(path, len(lines), f"expected {n_lat} data rows, found {len(body)}")
    rows = []
    for i, row_text in enumerate(body):
        tokens = row_text.split()
        if len(tokens) != n_lon:
            raise ParseError(path, 4 + i, f"expected {n_lon} values, got {len(tokens)}")
        row = []
        for j, token in enumerate(tokens):
            try:
                v = float(token)
            except ValueError:
                raise ParseError(path, 4 + i, f"bad value {token!r} in column {j + 1}") from None
            if math.isinf(v):
                raise ParseError(path, 4 + i, f"non-finite value {token!r} in column {j + 1}")
            row.append(v)
        rows.append(row)
    return rows


FINITE_TOKENS = (
    "1.5", "-0.0", "0", "7", "0.30000000000000004", "007.50", "-000", "1.", ".5", "-.5",
    "0.000000000000000001", "-12.345678901234567",
)
# exact binary64 midpoints, which round to even (short, with a dot, of 19 digits),
# then decimals whose 64-bit quotient M / 10**a falls exactly halfway between two
# doubles, so that rounding it once more would miss float() by one ulp
HALFWAY_TOKENS = ("9007199254740993", "-9007199254740995", "9007199254740993.0",
                  "1152921504606847104", "98.8735804987761", "-7238190542.098104",
                  "43.647423898929123")
EXPONENT_TOKENS = ("2.5E+3", "1e-05", "1e-320", "5e-324", "-1.5e+16")
NAN_TOKENS = ("nan", "-nan", "+NaN", "-NaN")
FLOAT_ONLY_TOKENS = ("1_0", "\u0661\u0662", "+1")  # float() takes them, np.loadtxt does not
BAD_TOKENS = ("inf", "-Infinity", "1e500", "9" * 400, "-" + "9" * 309 + ".5", "#", "1#2", "abc",
              "0x1", "1,5", "\x00", "-", ".", "-.", "--1", "1-", "1.2.3", "NaNa", "NaN5", "N",
              "aNN", "NNN", "Naa")
ODD_TOKENS = EXPONENT_TOKENS + NAN_TOKENS + FLOAT_ONLY_TOKENS + BAD_TOKENS
# in-row whitespace for str.split; splitlines() also breaks rows at the second group
ROW_SEPARATORS = ("\t", "  ", "\x0c", "\x1f", "\xa0", "\u3000")
LINE_BREAKS = ("\x0b", "\x1c", "\x85", "\r")
# each takes the place of one space or newline; \x01 is no whitespace at all
ODD_SEPARATORS = ROW_SEPARATORS + LINE_BREAKS + ("\r\n", " \n", "\n ", "\x01")
CHUNK_BYTES = (1 << 18,) * 4 + (1, 7, 16, 40)  # small ones split bodies between tokens
# a 2 x 2 body with one thing wrong, or right: each check of the bulk reader
# has a body here that it alone turns away
GOOD_BODY = "1.5 -2.25\n3.0 NaN\n"
ODD_BODIES = (
    [f"1.5 -2.25\n{odd} NaN\n" for odd in ODD_TOKENS]
    + [GOOD_BODY[:at] + odd + GOOD_BODY[at + 1:] for odd in ODD_SEPARATORS for at in (3, 9)]
    + ["1.5\n-2.25 3.0 NaN\n", "1.5 -2.25 3.0\nNaN\n", "1.5 -2.25\n3.0\n", "1.5 -2.25\n3.0 NaN",
       "1.5 -2.25\n3.0 NaN\n7", "1.5 -2.25\n3.0 NaN\n\n", "1.5 -2.25\n", GOOD_BODY]
)


@st.composite
def long_decimals(draw):
    """18 to 20 digits, leading zeros allowed, with or without a dot and a minus."""
    digits = draw(st.text("0123456789", min_size=18, max_size=20))
    dot = draw(st.integers(0, len(digits) + 1))
    text = digits if dot > len(digits) else digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(("", "-"))) + text


@st.composite
def bulk_tokens(draw):
    """A token the bulk reader takes: the repr of a double written without
    an exponent, a long decimal, a midpoint, NaN or another plain decimal."""
    pick = draw(st.integers(0, 3))
    if pick == 0:
        size = draw(st.one_of(st.just(0.0), st.floats(1e-4, 1e16, exclude_max=True)))
        return repr(draw(st.sampled_from((1.0, -1.0))) * size)
    if pick == 1:
        return draw(long_decimals())
    return draw(st.sampled_from(FINITE_TOKENS + HALFWAY_TOKENS + ("NaN",)))


@st.composite
def grid_bodies(draw):
    """(n_lat, n_lon, body text): rows laid out as format_grid_snapshot
    writes them, of tokens the bulk reader takes, with up to two defects:
    any double's repr or an odd token, an odd separator, a short, long,
    blank or early-broken row, or another ending."""
    n_lat = draw(st.integers(1, 4))
    n_lon = draw(st.integers(1, 4))
    rows = [[draw(bulk_tokens()) for _ in range(n_lon)] for _ in range(n_lat)]
    ending, odd_separators = "\n", []
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        defect = draw(st.sampled_from(
            ("token", "separator", "short", "long", "blank", "early", "ending")
        ))
        if defect == "token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.sampled_from(ODD_TOKENS),
            ))
        elif defect == "separator":
            odd_separators.append((draw(st.integers(0, 99)), draw(st.sampled_from(ODD_SEPARATORS))))
        elif defect == "short" and row:
            row.pop()
        elif defect == "long":
            row.append(draw(bulk_tokens()))
        elif defect == "blank":
            rows.insert(i, [draw(st.sampled_from(["", " ", "\t\xa0"]))])
        elif defect == "early" and row and i + 1 < len(rows):
            rows[i + 1].insert(0, row.pop())  # the token count stays right
        elif defect == "ending":
            ending = draw(st.sampled_from(["", "\n\n", "\r\n", " \n", "\n "]))
    text = "\n".join(" ".join(row) for row in rows) + ending
    for k, odd in odd_separators:
        at = [m for m, ch in enumerate(text) if ch in " \n"]
        if at:
            m = at[k % len(at)]
            text = text[:m] + odd + text[m + 1:]
    return n_lat, n_lon, text


def valid_grid_bytes():
    snap = random_snapshot(np.random.default_rng(31))
    return format_grid_snapshot(snap).encode("utf-8")


def valid_catalog_bytes():
    rng = np.random.default_rng(32)
    sensors = [random_sensor(rng, sid) for sid in range(1, 6)]
    return format_sensor_catalog(sensors).encode("utf-8")


@st.composite
def mutated(draw, original):
    """`original` with a few byte ranges deleted, replaced or inserted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        patch = draw(st.one_of(
            st.binary(max_size=6),
            st.sampled_from([b"\r", b"\n", b"\x00", b"\xff", b",", b"|", b'"', b" ", b"inf",
                             b"\xc2\xa0", b"\xc2\x85", b"_", b"9" * 30, b"-"]),
        ))
        data[at:at + cut] = patch
    return bytes(data)


class TestParserFuzz:
    """Bad input of any kind ends as a ParseError; the fast grid path
    returns what the token loop would, bit for bit, or the loop's error."""

    @settings(max_examples=600, deadline=None)
    @given(case=grid_bodies(), chunk=st.sampled_from(CHUNK_BYTES))
    def test_grid_body_matches_reference_loop(self, tmp_path_factory, case, chunk):
        assert_body_matches_reference(tmp_path_factory.getbasetemp(), *case, chunk)

    @pytest.mark.parametrize("chunk", [1 << 18, 7])
    @pytest.mark.parametrize("body", ODD_BODIES)
    def test_each_odd_body_matches_reference_loop(self, tmp_path, body, chunk):
        assert_body_matches_reference(tmp_path, 2, 2, body, chunk)

    @pytest.mark.parametrize("body", ODD_BODIES)
    def test_each_odd_body_matches_reference_loop_without_x87(self, tmp_path, monkeypatch, body):
        # the chain every platform without x87 long double takes: loadtxt, then the token loop
        monkeypatch.setattr(gstbn.ingest, "_EXTENDED", False)
        assert_body_matches_reference(tmp_path, 2, 2, body, 1 << 18)

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=200), mutated(valid_grid_bytes())))
    def test_any_grid_bytes_parse_or_raise_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.grid"
        path.write_bytes(data)
        try:
            parse_grid_snapshot(path)
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=200), mutated(valid_catalog_bytes())))
    def test_any_catalog_bytes_parse_or_raise_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        try:
            parse_sensor_catalog(path)
        except ParseError:
            pass

    def test_huge_declared_row_is_checked_before_allocating(self, tmp_path):
        # 10**15 columns would need 8 PB; the short row must be reported instead
        text = (
            "GSTBN-GRID v1\nvariable=salinity timestamp=3\n"
            "nlat=1 nlon=1000000000000000 lat0=1.0 dlat=0.5 lon0=2.0 dlon=1e-300\n"
            "1.0 2.0\n"
        )
        with pytest.raises(ParseError, match="4: expected 1000000000000000 values, got 2"):
            parse_grid_snapshot_write(tmp_path, text)

    # 150 x 120 is over 300 KB, so the bulk reader takes it in two chunks
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 5), (150, 120)])
    def test_written_grids_never_need_the_token_loop(self, tmp_path, monkeypatch, shape):
        def no_fallback(*args):
            raise AssertionError("a fallback reader ran on a well-formed grid")

        monkeypatch.setattr(gstbn.ingest, "_parse_rows", no_fallback)
        monkeypatch.setattr(gstbn.ingest, "_parse_rows_fast", no_fallback)
        snap = self.written_grid(shape)
        path = tmp_path / "fast.grid"
        write_grid_snapshot(snap, path)
        back = parse_grid_snapshot(path)
        assert back == snap
        assert back.values.tobytes() == snap.values.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (150, 120)])
    def test_other_longdouble_formats_read_the_same_bytes(self, tmp_path, monkeypatch, shape):
        path = tmp_path / "grid"
        write_grid_snapshot(self.written_grid(shape), path)
        bulk = parse_grid_snapshot(path)
        monkeypatch.setattr(gstbn.ingest, "_EXTENDED", False)
        assert parse_grid_snapshot(path).values.tobytes() == bulk.values.tobytes()

    @staticmethod
    def written_grid(shape):
        """Values with negatives, -0.0 and NaN, all written without an
        exponent (repr uses one below 1e-4 and from 1e16)."""
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(0.0, 50.0, shape)
        values[abs(values) < 1e-4] = 1e-4
        values[rng.random(shape) < 0.3] = np.nan
        values.flat[0] = -0.0
        return FieldSnapshot(
            timestamp=9, variable=ObservationKind.CURRENT_U,
            grid=make_grid(n_lat=shape[0], n_lon=shape[1], d_lat=0.1, d_lon=0.1), values=values,
        )


class TestParseGridSeries:
    def write_series(self, tmp_path, specs):
        paths = []
        for name, variable, ts, grid in specs:
            snap = FieldSnapshot(
                timestamp=ts, variable=variable, grid=grid,
                values=np.zeros(grid.shape),
            )
            p = tmp_path / name
            write_grid_snapshot(snap, p)
            paths.append(p)
        return paths

    def test_groups_and_orders(self, tmp_path):
        grid = make_grid(n_lat=2, n_lon=2)
        paths = self.write_series(
            tmp_path,
            [
                ("b.grid", ObservationKind.TEMPERATURE, 20, grid),
                ("a.grid", ObservationKind.TEMPERATURE, 10, grid),
                ("c.grid", ObservationKind.SALINITY, 10, grid),
                ("d.grid", ObservationKind.SALINITY, 20, grid),
            ],
        )
        series = parse_grid_series(paths)
        assert list(series) == [ObservationKind.TEMPERATURE, ObservationKind.SALINITY]
        assert [s.timestamp for s in series[ObservationKind.TEMPERATURE]] == [10, 20]

    def test_duplicate_variable_timestamp_rejected(self, tmp_path):
        grid = make_grid(n_lat=2, n_lon=2)
        paths = self.write_series(
            tmp_path,
            [
                ("a.grid", ObservationKind.TEMPERATURE, 10, grid),
                ("b.grid", ObservationKind.TEMPERATURE, 10, grid),
            ],
        )
        with pytest.raises(ParseError, match="duplicate snapshot"):
            parse_grid_series(paths)

    def test_inconsistent_grids_rejected(self, tmp_path):
        paths = self.write_series(
            tmp_path,
            [
                ("a.grid", ObservationKind.TEMPERATURE, 10, make_grid(n_lat=2, n_lon=2)),
                ("b.grid", ObservationKind.TEMPERATURE, 20, make_grid(n_lat=3, n_lon=2)),
            ],
        )
        with pytest.raises(ParseError, match="grid differs"):
            parse_grid_series(paths)


class TestExportGeojson:
    def test_structure_and_ordering(self, small_network):
        ts = small_network.snapshots[0].timestamp
        doc = export_geojson(small_network, ts)
        assert doc["type"] == "FeatureCollection"
        feats = doc["features"]
        kinds = [f["properties"].get("node_type", "edge") for f in feats]
        # sensors, then rois, then edges
        assert kinds == sorted(kinds, key=["sensor", "roi", "edge"].index)
        sensors = [f for f in feats if f["properties"].get("node_type") == "sensor"]
        rois = [f for f in feats if f["properties"].get("node_type") == "roi"]
        edges = [f for f in feats if "node_type" not in f["properties"]]
        snap = small_network.snapshot_at(ts)
        active = sorted(s.id for s in small_network.active_sensors)
        assert len(sensors) == len(active)
        assert len(rois) == len(edges) == len(snap.roi_id)
        assert [f["properties"]["id"] for f in sensors] == active
        assert [f["properties"]["id"] for f in rois] == snap.roi_id.tolist()
        assert [f["properties"]["roi_id"] for f in edges] == snap.roi_id.tolist()

    def test_coordinates_are_lon_lat(self, small_network):
        ts = small_network.snapshots[0].timestamp
        doc = export_geojson(small_network, ts)
        for f in doc["features"]:
            if f["geometry"]["type"] == "Point":
                lon, lat = f["geometry"]["coordinates"]
                assert -180.0 <= lon <= 180.0
                assert -90.0 <= lat <= 90.0
        sensors = {
            f["properties"]["id"]: f["geometry"]["coordinates"]
            for f in doc["features"]
            if f["properties"].get("node_type") == "sensor"
        }
        for s in small_network.active_sensors:
            assert sensors[s.id] == [s.geolocation.lon, s.geolocation.lat]

    def test_degrees_and_weights_match_snapshot(self, small_network):
        ts = small_network.snapshots[0].timestamp
        snap = small_network.snapshot_at(ts)
        doc = export_geojson(small_network, ts)
        degs = {
            f["properties"]["id"]: f["properties"]["degree"]
            for f in doc["features"]
            if f["properties"].get("node_type") == "sensor"
        }
        manual = {s.id: 0 for s in small_network.active_sensors}
        for sensor_id in snap.sensor_id.tolist():
            manual[sensor_id] += 1
        assert degs == manual
        weights = [
            f["properties"]["weight_km"]
            for f in doc["features"]
            if "weight_km" in f["properties"]
        ]
        assert weights == snap.weight_km.tolist()

    def test_roi_features_carry_residuals(self, small_network):
        snap = small_network.snapshots[0]
        by_id = dict(zip(snap.roi_id.tolist(), payloads(snap)))
        doc = export_geojson(small_network, snap.timestamp)
        for f in doc["features"]:
            if f["properties"].get("node_type") == "roi":
                payload = by_id[f["properties"]["id"]]
                assert f["properties"]["residuals"] == {
                    k.value: v for k, v in payload.items()
                }
                # the residuals added left to right in kind order, as extraction adds them
                assert f["properties"]["roi_value"] == sequential_sum(
                    payload[k] for k in ObservationKind if k in payload
                )

    def test_unknown_timestamp_raises(self, small_network):
        with pytest.raises(NotFoundError):
            export_geojson(small_network, 999_999)

    def test_line_strings_run_roi_to_sensor(self, small_network):
        ts = small_network.snapshots[0].timestamp
        snap = small_network.snapshot_at(ts)
        doc = export_geojson(small_network, ts)
        lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        coords = roi_coords(small_network)
        assert len(lines) == len(snap.roi_id)
        for f, (roi_id, sensor_id, _) in zip(lines, edge_rows(snap)):
            roi = coords[roi_id - 1]
            sensor = small_network.sensors_by_id[sensor_id]
            assert f["geometry"]["coordinates"] == [
                [roi.lon, roi.lat],
                [sensor.geolocation.lon, sensor.geolocation.lat],
            ]


# floats that reach the GeoJSON text: signed zeros, subnormals, values past
# 1e16 (where repr switches to exponent form), and numpy float64 scalars
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310])


def _float_in(lo, hi, specials=_SPECIAL):
    value = st.one_of(st.floats(lo, hi), specials)
    return st.one_of(value, value.map(np.float64))


_magnitudes = _float_in(
    0.0, 1e307, st.one_of(_SPECIAL, st.sampled_from([1e16, 12345678901234567.0, 1e300]))
)
_positive = _magnitudes.filter(lambda v: v > 0.0)


@st.composite
def small_networks(draw):
    """A network built directly from its parts: sensors of both memberships
    and statuses (inactive ones stay out of every snapshot), RoIs with one to
    four residuals, at least one of them positive (a snapshot derives each
    RoI value from them and needs it positive), snapshots with and without
    RoIs, and zero-degree sensors. RoIs fire only where some sensor is active, since every RoI in
    a snapshot has an edge."""

    def coord():
        return GeoCoord(draw(_float_in(-180.0, 180.0)), draw(_float_in(-90.0, 90.0)))

    sensors = [
        SensorNode(
            id=sid,
            membership=draw(st.sampled_from(list(Membership))),
            data_source="src",
            platform="buoy",
            mobility=Mobility.STATIONARY,
            geolocation=coord(),
            operational_status=draw(st.sampled_from(list(OperationalStatus))),
            observations=frozenset(ObservationKind),
        )
        for sid in draw(st.sets(st.integers(0, 50), max_size=4))
    ]
    active = sorted(s.id for s in sensors if s.is_active)
    timestamps = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=3)))
    coords = [coord() for _ in range(draw(st.integers(0, 5)))]
    rois = RoITable(
        lon=[c.lon for c in coords],
        lat=[c.lat for c in coords],
        cell=range(len(coords)),
    )
    snapshots = []
    for ts in timestamps:
        members = sorted(draw(st.sets(st.integers(1, len(coords))))) if coords and active else []
        linked, weights, residual = [], [], []
        for _ in members:
            kinds = draw(st.lists(st.sampled_from(list(ObservationKind)), min_size=1, max_size=4,
                                  unique=True))
            payload = {k: draw(_magnitudes) for k in kinds}
            payload[draw(st.sampled_from(kinds))] = draw(_positive)
            residual.append([payload.get(k, math.nan) for k in ObservationKind])
            linked.append(draw(st.sampled_from(active)))
            weights.append(draw(_magnitudes))
        residual = np.reshape(residual, (-1, len(ObservationKind)))
        snapshots.append(GstbnSnapshot(ts, members, linked, weights, residual))
    return TemporalGstbn(tuple(snapshots), tuple(sensors), rois)


class TestFormatGeojson:
    @settings(max_examples=300, deadline=None)
    @given(net=small_networks())
    def test_text_is_canonical_and_matches_the_dict_tree(self, net):
        for snap in net.snapshots:
            text = format_geojson(net, snap.timestamp)
            # the stdlib encoder, an independent writer, lays the parse out the same way
            assert text == dump_json(json.loads(text))
            assert text == dump_json(geojson_document(net, snap.timestamp))
            assert export_geojson(net, snap.timestamp) == json.loads(text)

    def test_empty_collection(self):
        empty = GstbnSnapshot(5, (), (), (), np.empty((0, len(ObservationKind))))
        net = TemporalGstbn((empty,), (), RoITable((), (), ()))
        text = format_geojson(net, 5)
        assert text == '{\n  "features": [],\n  "type": "FeatureCollection"\n}\n'
        assert text == dump_json(geojson_document(net, 5))

    def test_non_finite_numbers_raise(self, small_network):
        ts = small_network.snapshots[0].timestamp
        snap = small_network.snapshot_at(ts)
        weights = snap.weight_km.copy()
        # the checks in GstbnSnapshot keep a bad weight out, so poke one in past them
        object.__setattr__(snap, "weight_km", weights)
        for bad in (math.inf, -math.inf, math.nan):
            weights[0] = bad
            with pytest.raises(ValueError):
                format_geojson(small_network, ts)
        weights[0] = 1.0
        # NaN in the residual column marks a kind that did not fire
        for name, bads in (("roi_value", (math.inf, np.float64(math.nan))),
                           ("residual", (math.inf, -math.inf))):
            column = getattr(snap, name).copy()
            object.__setattr__(snap, name, column)
            for bad in bads:
                column.flat[0] = bad
                with pytest.raises(ValueError):
                    format_geojson(small_network, ts)
                with pytest.raises(ValueError):
                    export_geojson(small_network, ts)
            column.flat[0] = 1.0


class TestReports:
    def test_report_shape(self, small_network, tmp_path):
        f = tmp_path / "input.txt"
        f.write_text("data")
        digests = {}
        read_utf8(f, digests)
        rob = evaluate_robustness(small_network, k=1)
        placement = PlacementResult(
            placed=(PlacedSensor(coord=GeoCoord(-90.0, 25.0), coverage_after_km=10.0),),
            trials_per_sensor=100,
            seed=42,
            baseline_coverage_km=20.0,
        )
        doc = build_report(
            coverage_to_dict(coverage_report(small_network)),
            centrality_to_dict(degree_centrality(small_network)),
            robustness=robustness_to_dict(rob),
            placement=placement_to_dict(placement),
            seed=42,
            inputs=digests,
        )
        assert set(doc) == {"coverage", "centrality", "robustness", "placement", "meta"}
        assert doc["meta"]["tool"] == "gstbn"
        assert doc["meta"]["seed"] == 42
        assert doc["meta"]["inputs"] == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()}
        cov = doc["coverage"]
        assert cov["n_timesteps"] == len(small_network.snapshots)
        assert cov["average_temporal_coverage_km"] * cov["n_timesteps"] == pytest.approx(
            cov["total_temporal_coverage_km"]
        )
        assert doc["placement"]["placed"][0]["lon"] == -90.0
        # round-trips through json
        parsed = json.loads(dump_json(doc))
        assert parsed == doc

    def test_dump_json_deterministic(self, small_network):
        doc = build_report(
            coverage_to_dict(coverage_report(small_network)),
            centrality_to_dict(degree_centrality(small_network)),
            seed=1,
        )
        assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))

    def test_dump_json_refuses_non_finite_numbers(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                dump_json({"x": bad})
