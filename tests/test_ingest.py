import hashlib
import importlib.util
import json
import math
import re
import sys
import threading
import time
import warnings
from pathlib import Path
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
from oracles import (
    edge_rows,
    geojson_document,
    payloads,
    reference_grid_values,
    roi_coords,
    sequential_sum,
    serial_grid_series,
)


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

    def test_header_line_break_other_than_newline_is_a_fault(self, tmp_path):
        # a line ends in "\n" or "\r\n" only, so this "\r" is a byte of line 2
        text = self.GOOD.replace("timestamp=100\n", "timestamp=100\r") + "7.0 8.0 9.0\n"
        with pytest.raises(ParseError, match="2: bad byte 0x0d in column 35"):
            parse_grid_snapshot_write(tmp_path, text)

    def test_header_fields_between_blanks_and_crlf_line_ends(self, tmp_path):
        lines = self.GOOD.splitlines()
        text = "".join(f" {line.replace(' ', chr(9) + '  ')}\t\r\n" for line in lines[:3])
        snap = parse_grid_snapshot_write(tmp_path, text + "\n".join(lines[3:]))
        assert snap == parse_grid_snapshot_write(tmp_path, self.GOOD)

    @pytest.mark.parametrize("old, new, fault", [
        ("GRID", "GR\u00cfD", "1: bad byte 0xc3 in column 9"),
        ("temperature", "temp\u00e9rature", "2: bad byte 0xc3 in column 14"),
        ("lon0=-90.0", "lon0=-90.0\x0c", "3: bad byte 0x0c in column 44"),
        ("dlon=0.5", "dlon=\u0660.5", "3: bad byte 0xd9 in column 50"),  # int() takes \u0660
    ])
    def test_a_header_byte_outside_printable_ascii_is_a_fault(self, tmp_path, old, new, fault):
        path = tmp_path / "g.grid"
        path.write_bytes(self.GOOD.replace(old, new).encode("utf-8"))
        with pytest.raises(ParseError, match=f"{fault}$"):
            parse_grid_snapshot(path)

    def test_an_extent_past_the_float_range_is_a_fault(self, tmp_path):
        text = self.GOOD.replace("nlon=3", "nlon=1" + "0" * 400)
        with pytest.raises(ParseError, match="3: int too large to convert to float"):
            parse_grid_snapshot_write(tmp_path, text)

    def test_row_length_mismatch_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="5: expected 3 values, got 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("4.0 NaN 6.0", "4.0 6.0"))

    def test_bad_value_reports_position(self, tmp_path):
        with pytest.raises(ParseError, match="4.*column 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("2.0", "two"))

    def test_infinity_rejected(self, tmp_path):
        # "inf" is outside the value grammar; a decimal past the float range overflows
        with pytest.raises(ParseError, match="4: bad value 'inf' in column 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("2.0", "inf"))
        with pytest.raises(ParseError, match="4: non-finite value '1e500' in column 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("2.0", "1e500"))

    def test_nan_is_spelled_NaN(self, tmp_path):
        with pytest.raises(ParseError, match="5: bad value 'nan' in column 2"):
            parse_grid_snapshot_write(tmp_path, self.GOOD.replace("NaN", "nan"))


def write_grid_text(path, variable, timestamp, n_lat, n_lon, body, dlon=0.5):
    """The grid file with `body`, where a lone surrogate such as "\\udcff"
    stands for the byte that is not UTF-8 (0xff)."""
    path.write_bytes((
        f"GSTBN-GRID v1\nvariable={variable.value} timestamp={timestamp}\n"
        f"nlat={n_lat} nlon={n_lon} lat0=1.0 dlat=0.5 lon0=2.0 dlon={dlon}\n" + body
    ).encode("utf-8", "surrogateescape"))
    return path


def assert_body_matches_reference(directory, n_lat, n_lon, body, chunk, dlon=0.5,
                                  extended=gstbn.ingest._EXTENDED):
    """The grid with `body` parses, in passes that end at the first row
    end from `chunk` bytes on, to the grammar reference's values bit for
    bit, or raises its ParseError; `extended` stands for `_EXTENDED`."""
    path = write_grid_text(
        directory / "differential.grid", ObservationKind.SALINITY, 3, n_lat, n_lon, body, dlon
    )
    with mock.patch.object(gstbn.ingest, "_CHUNK", chunk), \
            mock.patch.object(gstbn.ingest, "_EXTENDED", extended):
        try:
            want = reference_grid_values(path, path.read_bytes(), n_lat, n_lon)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_grid_snapshot(path)
            assert str(got.value) == str(exc)
            return
        snap = parse_grid_snapshot(path)
    ref = FieldSnapshot(timestamp=3, variable=snap.variable, grid=snap.grid, values=want)
    assert snap.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(snap.valid, ref.valid)


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
# in the grammar, and each read by float() after the value grammar checks it
NAN_TOKENS = ("+NaN", "-NaN")
PLUS_TOKENS = ("+1", "+1.5")
# float() takes them, the value grammar does not
FLOAT_ONLY_TOKENS = ("1_0", "\u0661\u0662", "1e\u0661", "nan", "-nan", "1e5_0", "1_000.5",
                     "inf", "Infinity", "-Infinity")
BAD_TOKENS = ("1e500", "9" * 400, "-" + "9" * 309 + ".5", "#", "1#2", "abc", "0x1", "1,5", "\x00",
              "-", ".", "-.", "--1", "1-", "1.2.3", "NaNa", "NaN5", "N", "aNN", "NNN", "Naa", "1e",
              "e5", "\udcff", "1e\udcc3")  # the last two: bytes not UTF-8
ODD_TOKENS = EXPONENT_TOKENS + NAN_TOKENS + PLUS_TOKENS + FLOAT_ONLY_TOKENS + BAD_TOKENS
# each takes the place of one space or newline: blanks and line ends first,
# then bytes that str.split() or splitlines() would take for whitespace but
# the grammar takes for part of a value; \x01 is no whitespace at all
BLANK_SEPARATORS = ("\t", "  ", " \t ", "\r\n", " \n", "\n ", "\t\r\n")
NOT_BLANK = ("\x0c", "\x1f", "\xa0", "\u3000", "\x0b", "\x1c", "\x85", "\r", "\x01")
ODD_SEPARATORS = BLANK_SEPARATORS + NOT_BLANK
CHUNK_BYTES = (gstbn.ingest._CHUNK,) * 4 + (1, 7, 16, 40)  # small ones give one row per pass
# the value routes this platform can take: float() on every token, and the
# decimals in bulk where longdouble is x87 extended
ROUTES = (False, True) if gstbn.ingest._EXTENDED else (False,)
# a 2 x 2 body with one thing wrong, or right: each check of the reader has
# a body here that it alone turns away
GOOD_BODY = "1.5 -2.25\n3.0 NaN\n"
ODD_BODIES = (
    [f"1.5 -2.25\n{odd} NaN\n" for odd in ODD_TOKENS]
    + [GOOD_BODY[:at] + odd + GOOD_BODY[at + 1:] for odd in ODD_SEPARATORS for at in (3, 9)]
    + ["1.5\n-2.25 3.0 NaN\n", "1.5 -2.25 3.0\nNaN\n", "1.5 -2.25\n3.0\n", "1.5 -2.25\n3.0 NaN",
       "1.5 -2.25\n3.0 NaN\n7", "1.5 -2.25\n3.0 NaN\n\n", "1.5 -2.25\n", GOOD_BODY]
)
BODY_PIECES = (b"0", b"1", b"9", b".", b"-", b"+", b"e", b"E", b"N", b"a", b"NaN", b" ", b"  ",
               b"\t", b"\r", b"\n", b"\r\n", b"\x0c", b"\x00", b"\xff", b"\xc2\xa0", b"_",
               b"5" * 25, b"1e400")


@st.composite
def long_decimals(draw):
    """18 to 20 digits, leading zeros allowed, with or without a dot and a minus."""
    digits = draw(st.text("0123456789", min_size=18, max_size=20))
    dot = draw(st.integers(0, len(digits) + 1))
    text = digits if dot > len(digits) else digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(("", "-"))) + text


@st.composite
def bulk_tokens(draw):
    """A token in the grammar: the repr of a double (with an exponent
    below 1e-4 and from 1e16, maybe spelled with 'E' or a leading '+'), a
    long decimal, a midpoint, NaN or another plain decimal."""
    pick = draw(st.integers(0, 3))
    if pick == 0:
        size = draw(st.one_of(
            st.just(0.0),
            st.floats(1e-4, 1e16, exclude_max=True),
            st.floats(0.0, 1e-4, exclude_min=True, exclude_max=True),
            st.floats(1e16, allow_infinity=False),
        ))
        text = repr(size)
        return draw(st.sampled_from(("", "-", "+"))) + draw(st.sampled_from((text, text.upper())))
    if pick == 1:
        return draw(long_decimals())
    return draw(st.sampled_from(FINITE_TOKENS + HALFWAY_TOKENS + ("NaN",)))


@st.composite
def grid_bodies(draw, max_defects=2):
    """(n_lat, n_lon, body text): rows in the grammar, of tokens
    format_grid_snapshot may write between runs of spaces and tabs (also
    at a row's start and end), each row ending in "\n" or "\r\n" and the
    last maybe in nothing; with up to `max_defects`: any double's repr or an
    odd token, an odd separator, a short, long, blank or early-broken row,
    or another ending."""
    n_lat = draw(st.integers(1, 4))
    n_lon = draw(st.integers(1, 4))
    rows = [[draw(bulk_tokens()) for _ in range(n_lon)] for _ in range(n_lat)]
    blanks = st.sampled_from((" ", " ", " ", "\t", "  ", " \t "))
    pad = st.sampled_from(("", "", "", " ", "\t"))
    line_end = draw(st.sampled_from(("\n", "\n", "\r\n")))
    ending, odd_separators = draw(st.sampled_from((line_end, line_end, ""))), []
    for _ in range(draw(st.integers(0, max_defects))):
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
    text = line_end.join(draw(pad) + draw(blanks).join(row) + draw(pad) for row in rows) + ending
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
    """Bad input of any kind ends as a ParseError; the grid reader returns
    what the grammar reference reads, bit for bit, or its error, with x87
    long double and without."""

    @settings(max_examples=600, deadline=None)
    @given(case=grid_bodies(), chunk=st.sampled_from(CHUNK_BYTES),
           extended=st.sampled_from(ROUTES))
    def test_grid_body_matches_reference_loop(self, tmp_path_factory, case, chunk, extended):
        assert_body_matches_reference(tmp_path_factory.getbasetemp(), *case, chunk,
                                      extended=extended)

    # a pass holds whole rows whatever the chunk
    @settings(max_examples=300, deadline=None)
    @given(case=grid_bodies(max_defects=0), chunk=st.sampled_from(CHUNK_BYTES),
           extended=st.sampled_from(ROUTES))
    def test_bodies_in_the_grammar_parse(self, tmp_path_factory, case, chunk, extended):
        n_lat, n_lon, body = case
        directory = tmp_path_factory.getbasetemp()
        path = write_grid_text(directory / "grammar.grid", ObservationKind.SALINITY, 3, *case)
        assert len(reference_grid_values(path, path.read_bytes(), n_lat, n_lon)) == n_lat
        assert_body_matches_reference(directory, *case, chunk, extended=extended)

    # bodies of any bytes, from pieces that each check of the reader looks at
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.sampled_from(BODY_PIECES), max_size=40),
           n_lat=st.integers(1, 3), n_lon=st.integers(1, 3),
           chunk=st.sampled_from((1, 7, 40, gstbn.ingest._CHUNK)), extended=st.sampled_from(ROUTES))
    def test_body_bytes_match_reference_loop(self, tmp_path_factory, pieces, n_lat, n_lon, chunk,
                                             extended):
        body = b"".join(pieces).decode("utf-8", "surrogateescape")
        assert_body_matches_reference(tmp_path_factory.getbasetemp(), n_lat, n_lon, body, chunk,
                                      extended=extended)

    @pytest.mark.parametrize("chunk", [gstbn.ingest._CHUNK, 7])
    @pytest.mark.parametrize("body", ODD_BODIES)
    def test_each_odd_body_matches_reference_loop(self, tmp_path, body, chunk):
        assert_body_matches_reference(tmp_path, 2, 2, body, chunk)

    @pytest.mark.parametrize("body", ODD_BODIES)
    def test_each_odd_body_matches_reference_loop_without_x87(self, tmp_path, body):
        # every platform without x87 long double reads each value with float()
        assert_body_matches_reference(tmp_path, 2, 2, body, gstbn.ingest._CHUNK, extended=False)

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

    @pytest.mark.parametrize("extended", ROUTES)
    @pytest.mark.parametrize("chunk", [gstbn.ingest._CHUNK, 1])
    def test_checked_tokens_read_as_float_reads_them(self, tmp_path, chunk, extended):
        tokens = list(NAN_TOKENS + PLUS_TOKENS + EXPONENT_TOKENS)
        body = "".join(" ".join(tokens[i:] + tokens[:i]) + "\n" for i in range(len(tokens)))
        assert_body_matches_reference(tmp_path, len(tokens), len(tokens), body, chunk,
                                      extended=extended)

    def test_rows_longer_than_a_pass_parse_in_bulk(self, tmp_path):
        # a pass ends at the first row end from _CHUNK bytes on, so each pass
        # here is one row of more than _CHUNK bytes
        rng = np.random.default_rng(41)
        rows = [" ".join(map(repr, rng.normal(0.0, 50.0, 30_000).tolist())) for _ in range(2)]
        assert min(map(len, rows)) > gstbn.ingest._CHUNK
        assert_body_matches_reference(tmp_path, 2, 30_000, "\n".join(rows) + "\n",
                                      gstbn.ingest._CHUNK, dlon=0.001)

    # TWO_PASSES is written in more than _CHUNK bytes, so the reader takes
    # it in two passes (checked below)
    TWO_PASSES = (250, 150)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 5), TWO_PASSES])
    def test_written_grids_read_back_bit_for_bit(self, tmp_path, shape):
        snap = self.written_grid(shape)
        path = tmp_path / "fast.grid"
        write_grid_snapshot(snap, path)
        back = parse_grid_snapshot(path)
        assert back == snap
        assert back.values.tobytes() == snap.values.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), TWO_PASSES])
    def test_other_longdouble_formats_read_the_same_bytes(self, tmp_path, monkeypatch, shape):
        path = tmp_path / "grid"
        write_grid_snapshot(self.written_grid(shape), path)
        bulk = parse_grid_snapshot(path)
        monkeypatch.setattr(gstbn.ingest, "_EXTENDED", False)
        assert parse_grid_snapshot(path).values.tobytes() == bulk.values.tobytes()

    def test_the_two_pass_grid_needs_two_passes(self):
        text = format_grid_snapshot(self.written_grid(self.TWO_PASSES))
        assert gstbn.ingest._CHUNK < len(text.encode("utf-8")) < 2 * gstbn.ingest._CHUNK

    @pytest.mark.parametrize("fault, message", [
        (("", ""), "5: bad value 'N\ufffdN' in column 2"),
        (("GSTBN-GRID", "GSTBN-GRIT"), "1: missing magic line 'GSTBN-GRID v1'"),
        (("salinity", "wind"), "2: bad variable 'wind'"),
        (("timestamp=3", "timestamp=x"), "2: bad timestamp in 'timestamp=x'"),
        (("nlat=2", "nlat=0"), "3: grid must have at least one cell, got 0x2"),
        (("dlon=0.5", "dlon=0.5 x=1"), "3: expected: nlat=<v> nlon=<v>"),
        (("1.5 -2.25\n", "1.5 -2.25\n1 2\n"), "6: expected 2 data rows, found 3"),
        (("-2.25", "-2.25 7"), "4: expected 2 values, got 3"),
    ], ids=["none", "magic", "variable", "timestamp", "shape", "dims", "rows", "values"])
    def test_a_byte_not_utf8_is_a_fault_of_its_value_in_file_order(self, tmp_path, fault,
                                                                     message):
        path = write_grid_text(tmp_path / "g.grid", ObservationKind.SALINITY, 3, 2, 2,
                               "1.5 -2.25\n3.0 N\udcffN\n")
        path.write_bytes(path.read_bytes().replace(*(part.encode() for part in fault)))
        with pytest.raises(ParseError, match=f"^{path}:{re.escape(message)}"):
            parse_grid_snapshot(path)

    @staticmethod
    def written_grid(shape):
        """Values with negatives, -0.0 and NaN, a fifth of them scaled to
        where repr writes an exponent (below 1e-4 and from 1e16)."""
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(0.0, 50.0, shape)
        values *= rng.choice([1.0, 1e-8, 1e16], shape, p=[0.8, 0.1, 0.1])
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


def load_bench_scenario():
    path = Path(__file__).resolve().parents[1] / "bench" / "scenario.py"
    spec = importlib.util.spec_from_file_location("bench_scenario", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


def serial_outcome(paths):
    """The serial loop's (series or ParseError text, digests)."""
    digests = {}
    try:
        return serial_grid_series(paths, digests), digests
    except ParseError as exc:
        return str(exc), digests


def parse_on(cpus, paths):
    """`parse_grid_series` as seen with `cpus` usable CPUs, as
    (series or ParseError text, digests); no thread outlives the call."""
    digests = {}
    threads = threading.active_count()
    with mock.patch.object(gstbn.ingest, "_usable_cpus", lambda: cpus):
        try:
            got = parse_grid_series(paths, digests)
        except ParseError as exc:
            got = str(exc)
    assert threading.active_count() == threads
    return got, digests


def assert_same_outcome(got, want):
    """The same error text, or the same series with bit-identical values,
    and the same digests in the same order."""
    (series, digests), (ref, ref_digests) = got, want
    assert list(digests.items()) == list(ref_digests.items())
    if isinstance(ref, str):
        assert series == ref
        return
    assert list(series) == list(ref)
    for kind, snaps in ref.items():
        assert [(s.timestamp, s.grid) for s in series[kind]] == [(s.timestamp, s.grid) for s in snaps]
        for a, b in zip(series[kind], snaps):
            assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


def live_helpers():
    return sum(t.name == "gstbn-grid-reader" and t.is_alive() for t in threading.enumerate())


def spy_reads(monkeypatch, together=()):
    """Record (path, thread, helper threads alive) as each `_read_grid`
    starts, and make the reads of the paths in `together` (two of them) wait
    for each other, so that each is read by its own thread. Returns (the
    records, the reads that waited in vain)."""
    meet = threading.Barrier(2, timeout=10)
    reads, alone = [], []
    real = gstbn.ingest._read_grid

    def read(p, hashed):
        reads.append((p, threading.current_thread(), live_helpers()))
        if p in together:
            try:
                meet.wait()
            except threading.BrokenBarrierError:
                alone.append(p)
        return real(p, hashed)

    monkeypatch.setattr(gstbn.ingest, "_read_grid", read)
    return reads, alone


def spy_snapshots(monkeypatch, step):
    """Run `step(i)` as the caller takes file i's result, just before it
    builds file i's `FieldSnapshot`."""
    real = gstbn.ingest.FieldSnapshot._adopt
    built = []

    def snapshot(*args):
        step(len(built))
        built.append(None)
        return real(*args)

    monkeypatch.setattr(gstbn.ingest.FieldSnapshot, "_adopt", snapshot)


class TestParseGridSeriesThreads:
    """With one helper thread or none, the series, digests and errors are
    those of the serial loop."""

    @settings(max_examples=150, deadline=None)
    @given(files=st.lists(
        st.tuples(grid_bodies(), st.sampled_from(list(ObservationKind)), st.integers(0, 2)),
        min_size=1, max_size=5,
    ))
    def test_random_bodies_parse_alike_on_one_and_two_cpus(self, tmp_path_factory, files):
        directory = tmp_path_factory.getbasetemp()
        paths = [
            write_grid_text(directory / f"series-{k}.grid", kind, t, n_lat, n_lon, body)
            for k, ((n_lat, n_lon, body), kind, t) in enumerate(files)
        ]
        want = serial_outcome(paths)
        for cpus in (1, 2):
            assert_same_outcome(parse_on(cpus, paths), want)

    @pytest.mark.parametrize("land", [False, True], ids=["plain", "nan-block"])
    def test_bench_tiny_spec_parses_alike_on_one_and_two_cpus(self, tmp_path, land):
        scenario = load_bench_scenario()
        spec = scenario.load_spec("tiny")
        if not land:
            del spec["land_block"]
        paths = sorted(scenario.generate(spec, 1, tmp_path).grids)
        want = serial_outcome(paths)
        assert not isinstance(want[0], str)
        assert any(np.isnan(s.values).any() for snaps in want[0].values() for s in snaps) == land
        for cpus in (1, 2):
            assert_same_outcome(parse_on(cpus, paths), want)

    @pytest.mark.parametrize(
        "cpus, n_files, helpers",
        [(1, 4, 0), (2, 1, 0), (2, 4, 1), (8, 4, 1)],
    )
    def test_one_helper_with_two_cpus_and_two_files(
        self, tmp_path, monkeypatch, cpus, n_files, helpers
    ):
        paths = [
            write_grid_text(tmp_path / f"{t}.grid", ObservationKind.SALINITY, t, 2, 2, GOOD_BODY)
            for t in range(n_files)
        ]
        reads, alone = spy_reads(monkeypatch, paths[:2] if helpers else ())
        assert_same_outcome(parse_on(cpus, paths), serial_outcome(paths))
        assert sorted(p for p, _, _ in reads) == sorted(paths) and not alone
        # the caller reads the even-numbered files, a helper the odd ones
        caller = threading.current_thread()
        assert all((t is caller) == (not helpers or paths.index(p) % 2 == 0) for p, t, _ in reads)
        # at most one helper is alive during any read
        assert max(alive for _, _, alive in reads) == helpers

    def test_many_files_under_a_short_switch_interval(self, tmp_path):
        # thread switches at nearly every bytecode; a result taken from the
        # wrong file or before its read ended would drop, repeat or misorder
        # a file, or hang
        rng = np.random.default_rng(5)
        paths = []
        for t in range(40):
            kind = list(ObservationKind)[t % 4]
            values = rng.normal(0.0, 50.0, (3, 4))
            snap = FieldSnapshot(timestamp=t // 4, variable=kind, grid=make_grid(3, 4), values=values)
            paths.append(tmp_path / f"{t}.grid")
            write_grid_snapshot(snap, paths[-1])
        want = serial_outcome(paths)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert_same_outcome(parse_on(2, paths), want)
        finally:
            sys.setswitchinterval(interval)

    def test_the_helper_reads_at_most_one_file_past_the_caller(self, tmp_path, monkeypatch):
        # the caller is slow with each file it takes, so a helper could run ahead
        paths = [
            write_grid_text(tmp_path / f"{t}.grid", ObservationKind.TEMPERATURE, t, 2, 2, GOOD_BODY)
            for t in range(6)
        ]
        want = serial_outcome(paths)
        reads, _ = spy_reads(monkeypatch)
        ahead = []

        def slow(i):
            time.sleep(0.05)
            ahead.append(len(reads) - i - 1)

        spy_snapshots(monkeypatch, slow)
        assert_same_outcome(parse_on(2, paths), want)
        assert len(ahead) == len(paths) and max(ahead) <= 1

    @staticmethod
    def error_case(directory, case):
        """(paths, the file that is the first bad one in path order); the
        file after it, and in the same pair, fails as it is read (its magic
        line is wrong), and two good files follow."""
        def write(name, t, body=GOOD_BODY):
            return write_grid_text(directory / name, ObservationKind.SALINITY, t, 2, 2, body)

        bad = write("z.grid", 30)
        bad.write_bytes(bad.read_bytes().replace(b"GSTBN", b"GSTBM"))
        tail = [bad, write("x.grid", 40), write("y.grid", 50)]
        if case == "two-bad-files":  # the reader finds b's error as b is read
            paths = [write("b.grid", 10, "1.5 abc\n3.0 NaN\n"), *tail]
        elif case == "duplicate-then-corrupt":
            paths = [write("a.grid", 0), write("c.grid", 5), write("b.grid", 0), *tail]
        else:
            (directory / "b.grid").mkdir()
            paths = [directory / "b.grid", *tail]
        return paths, directory / "b.grid"

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case, message, step", [
        ("two-bad-files", "b.grid:4: bad value 'abc' in column 2", "read"),
        ("duplicate-then-corrupt", "b.grid: duplicate snapshot for salinity at t=0 (first seen in",
         "caller"),
        ("directory", "b.grid: cannot read file: [Errno 21] Is a directory", "read"),
    ], ids=["two-bad-files", "duplicate-then-corrupt", "directory"])
    def test_first_error_in_path_order_is_raised(
        self, tmp_path, monkeypatch, case, message, step, cpus
    ):
        paths, first_bad = self.error_case(tmp_path, case)
        later_bad = paths[paths.index(first_bad) + 1]
        want = serial_outcome(paths)
        assert message in want[0]
        assert isinstance(gstbn.ingest._read_grid(later_bad, True)[1], ParseError)
        read_grid = gstbn.ingest._read_grid
        later_failed, late, read = threading.Event(), [], []

        def hold(p):
            # on two CPUs, the step that finds the first error waits for the later failure
            if cpus == 2 and p == first_bad and not later_failed.wait(timeout=10):
                late.append(p)

        def spy_read(p, hashed):
            read.append(p)
            if step == "read":
                hold(p)
            result = read_grid(p, hashed)
            if p == later_bad:
                later_failed.set()
            return result

        monkeypatch.setattr(gstbn.ingest, "_read_grid", spy_read)
        if step == "caller":
            spy_snapshots(monkeypatch, lambda i: hold(paths[i]))
        assert_same_outcome(parse_on(cpus, paths), want)
        assert not late
        assert later_failed.is_set() == (cpus == 2)
        # no file is taken after one whose read failed
        assert set(read) <= set(paths[:paths.index(later_bad) + 1])

    def test_an_interrupt_in_the_callers_read_joins_the_helper(self, tmp_path, monkeypatch):
        paths = [
            write_grid_text(tmp_path / f"{t}.grid", ObservationKind.SALINITY, t, 2, 2, GOOD_BODY)
            for t in range(4)
        ]
        real = gstbn.ingest._read_grid
        started, finished = threading.Event(), []

        def read(p, hashed):
            if p == paths[0]:
                assert started.wait(timeout=10)  # file 1 is being read on the helper
                raise KeyboardInterrupt
            started.set()
            time.sleep(0.05)
            finished.append(p)
            return real(p, hashed)

        monkeypatch.setattr(gstbn.ingest, "_read_grid", read)
        threads = threading.active_count()
        with mock.patch.object(gstbn.ingest, "_usable_cpus", lambda: 2):
            with pytest.raises(KeyboardInterrupt):
                parse_grid_series(paths, {})
        assert threading.active_count() == threads
        assert finished == [paths[1]]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_crlf_tab_and_exponent_bodies_parse_alike_on_one_and_two_cpus(
        self, tmp_path, monkeypatch, cpus
    ):
        bodies = ["1.5 2.5\r\n3.5 NaN\r\n", "1.5\t2.5\n3.5 NaN\n", "1.5 1e-05\n3.5 NaN\n", GOOD_BODY]
        paths = [
            write_grid_text(tmp_path / f"{t}.grid", ObservationKind.TEMPERATURE, t, 2, 2, body)
            for t, body in enumerate(bodies)
        ]
        want = serial_outcome(paths)
        assert not isinstance(want[0], str)
        # files 0 and 1 are read at once on two CPUs, each by its own thread
        _, alone = spy_reads(monkeypatch, paths[:2] if cpus == 2 else ())
        filters = list(warnings.filters)
        assert_same_outcome(parse_on(cpus, paths), want)
        assert list(warnings.filters) == filters
        assert not alone


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
