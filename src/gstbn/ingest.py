"""File formats, GeoJSON export and JSON reports.

Sensor catalog (CSV, header required)::

    id,membership,data_source,platform,mobility,lat,lon,status,observations

with membership in {federal, ldn}, mobility in {stationary, mobile},
status in {active, inactive} and observations a |-separated list of
variable names.

Grid snapshot (text, one variable at one timestamp)::

    GSTBN-GRID v1
    variable=<name> timestamp=<epoch seconds>
    nlat=<n> nlon=<n> lat0=<f> dlat=<f> lon0=<f> dlon=<f>
    <n_lon values between blanks> x n_lat rows, NaN marks missing

Floats are written with repr so parse(format(x)) reproduces x exactly.
One reader, `_grid_file`, reads a grid file in the grammar written out
above `_EXTENDED` and raises its first fault, on either thread:
`parse_grid_series` reads files in pairs, the first of each on the calling
thread and, with two usable CPUs or more, the second on one helper thread.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import threading
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError
from .field import FieldSnapshot, GridSpec, ObservationKind, kind_sort_key
from .geo import GeoCoord
from .metrics import CentralityReport, CoverageReport, RobustnessReport
from .network import (
    Membership,
    Mobility,
    OperationalStatus,
    SensorNode,
    TemporalGstbn,
)
from .placement import PlacementResult

__all__ = [
    "parse_sensor_catalog",
    "format_sensor_catalog",
    "write_sensor_catalog",
    "parse_grid_snapshot",
    "format_grid_snapshot",
    "write_grid_snapshot",
    "parse_grid_series",
    "read_utf8",
    "format_geojson",
    "export_geojson",
    "coverage_to_dict",
    "centrality_to_dict",
    "robustness_to_dict",
    "placement_to_dict",
    "build_report",
    "dump_json",
]

_GRID_MAGIC = "GSTBN-GRID v1"

_CATALOG_COLUMNS = (
    "id",
    "membership",
    "data_source",
    "platform",
    "mobility",
    "lat",
    "lon",
    "status",
    "observations",
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _read(path: Path, digests: dict[str, str] | None) -> bytes:
    """A file's bytes; ParseError if it is unreadable. With `digests`, also
    sets `digests[str(path)]` to the bytes' sha256."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(path, None, f"cannot read file: {exc}") from exc
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def read_utf8(path, digests: dict[str, str] | None = None) -> str:
    """A file's text as UTF-8, whatever the locale; ParseError if the file
    is unreadable or not UTF-8 (naming the line of the first bad byte).
    With `digests`, also sets `digests[str(path)]` to the bytes' sha256."""
    path = Path(path)
    data = _read(path, digests)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            path, line, f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def _parse_enum(enum_cls, token: str, path, line: int, field: str):
    try:
        return enum_cls(token)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ParseError(path, line, f"bad {field} {token!r}; expected one of: {allowed}") from None


def _csv_rows(reader, path):
    """The reader's rows, with a CSV syntax error (a bare carriage return in
    an unquoted field, a field over the size limit) as a ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from None


def parse_sensor_catalog(path, digests: dict[str, str] | None = None) -> list[SensorNode]:
    """Read a sensor catalog CSV; row order is preserved. `digests` as in
    :func:`read_utf8`."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_utf8(path, digests)))
    rows = _csv_rows(reader, path)
    try:
        header = next(rows)
    except StopIteration:
        raise ParseError(path, 1, "empty file, expected a header row") from None
    seen_cols = set()
    for col in header:
        if col not in _CATALOG_COLUMNS:
            raise ParseError(path, 1, f"unknown column {col!r}")
        if col in seen_cols:
            raise ParseError(path, 1, f"duplicate column {col!r}")
        seen_cols.add(col)
    missing = [c for c in _CATALOG_COLUMNS if c not in seen_cols]
    if missing:
        raise ParseError(path, 1, f"missing columns: {', '.join(missing)}")
    col = {name: header.index(name) for name in _CATALOG_COLUMNS}

    sensors: list[SensorNode] = []
    seen_ids: set[int] = set()
    for row in rows:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(path, line, f"expected {len(header)} fields, got {len(row)}")
        try:
            sensor_id = int(row[col["id"]])
        except ValueError:
            raise ParseError(path, line, f"bad id {row[col['id']]!r}") from None
        if sensor_id in seen_ids:
            raise ParseError(path, line, f"duplicate sensor id {sensor_id}")
        seen_ids.add(sensor_id)
        try:
            lat = float(row[col["lat"]])
            lon = float(row[col["lon"]])
        except ValueError:
            raise ParseError(path, line, "bad lat/lon") from None
        try:
            coord = GeoCoord(lon, lat)
        except ValueError as exc:
            raise ParseError(path, line, str(exc)) from None
        obs_field = row[col["observations"]]
        kinds = []
        for token in obs_field.split("|") if obs_field else []:
            kinds.append(_parse_enum(ObservationKind, token, path, line, "observation"))
        try:
            sensors.append(
                SensorNode(
                    id=sensor_id,
                    membership=_parse_enum(Membership, row[col["membership"]], path, line, "membership"),
                    data_source=row[col["data_source"]],
                    platform=row[col["platform"]],
                    mobility=_parse_enum(Mobility, row[col["mobility"]], path, line, "mobility"),
                    geolocation=coord,
                    operational_status=_parse_enum(
                        OperationalStatus, row[col["status"]], path, line, "status"
                    ),
                    observations=frozenset(kinds),
                )
            )
        except Exception as exc:
            raise ParseError(path, line, str(exc)) from None
    return sensors


def format_sensor_catalog(sensors: Sequence[SensorNode]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CATALOG_COLUMNS)
    for s in sensors:
        obs = "|".join(k.value for k in sorted(s.observations, key=kind_sort_key))
        writer.writerow(
            [
                s.id,
                s.membership.value,
                s.data_source,
                s.platform,
                s.mobility.value,
                _fmt(s.geolocation.lat),
                _fmt(s.geolocation.lon),
                s.operational_status.value,
                obs,
            ]
        )
    return buf.getvalue()


def write_sensor_catalog(sensors: Sequence[SensorNode], path) -> None:
    Path(path).write_text(format_sensor_catalog(sensors), encoding="utf-8")


def _parse_kv(token: str, key: str, path, line: int) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(path, line, f"expected {key}=<value>, got {token!r}")
    return token[len(prefix):]


def parse_grid_snapshot(path, digests: dict[str, str] | None = None) -> FieldSnapshot:
    """Read one grid snapshot file. `digests` as in :func:`read_utf8`."""
    path = Path(path)
    return FieldSnapshot._adopt(*_grid_file(path, _read(path, digests)))


def _grid_file(path: Path, data: bytes) -> tuple:
    """The grid file `data` as (timestamp, variable, grid, values), the
    arguments of its `FieldSnapshot`; ParseError for the first fault in file
    order: the header's, then the row count's, then each row's. Safe to run
    on any thread."""
    lines, start = [], 0
    while len(lines) < 3 and start < len(data):
        end = data.find(b"\n", start)
        line = data[start:] if end < 0 else data[start:end].removesuffix(b"\r")
        lines.append(line.decode("latin-1"))
        start = len(data) if end < 0 else end + 1
    timestamp, variable, grid = _grid_header(path, lines)
    return timestamp, variable, grid, _parse_body(path, data, start, grid.shape)


def _grid_header(path: Path, lines: list[str]) -> tuple:
    """(timestamp, variable, grid) from a grid file's first lines, each
    byte a character; ParseError for the first fault."""
    if not lines or _fields(path, 1, lines[0]) != _GRID_MAGIC.split():
        raise ParseError(path, 1, f"missing magic line {_GRID_MAGIC!r}")
    if len(lines) < 3:
        raise ParseError(path, len(lines), "truncated header")

    meta = _fields(path, 2, lines[1])
    if len(meta) != 2:
        raise ParseError(path, 2, "expected: variable=<name> timestamp=<int>")
    variable = _parse_enum(
        ObservationKind, _parse_kv(meta[0], "variable", path, 2), path, 2, "variable"
    )
    try:
        timestamp = int(_parse_kv(meta[1], "timestamp", path, 2))
    except ValueError:
        raise ParseError(path, 2, f"bad timestamp in {meta[1]!r}") from None

    dims = _fields(path, 3, lines[2])
    keys = ("nlat", "nlon", "lat0", "dlat", "lon0", "dlon")
    if len(dims) != len(keys):
        raise ParseError(path, 3, f"expected: {' '.join(k + '=<v>' for k in keys)}")
    raw = {}
    for token, key in zip(dims, keys):
        value = _parse_kv(token, key, path, 3)
        try:
            raw[key] = int(value) if key in ("nlat", "nlon") else float(value)
        except ValueError:
            raise ParseError(path, 3, f"bad {key} value {value!r}") from None
    try:
        grid = GridSpec(*raw.values())  # the keys in the order of its fields
    except (ValueError, OverflowError) as exc:  # an extent past the float range overflows
        raise ParseError(path, 3, str(exc)) from None
    return timestamp, variable, grid


_HEADER_BYTE = re.compile("[^\t -~]")


def _fields(path: Path, line: int, text: str) -> list[str]:
    """The fields of header line `text`: runs of printable ASCII between
    spaces and tabs. ParseError for any other byte."""
    odd = _HEADER_BYTE.search(text)
    if odd:
        raise ParseError(
            path, line, f"bad byte 0x{ord(odd.group()):02x} in column {odd.start() + 1}"
        )
    return text.split()


# --- the grid body ----------------------------------------------------------
#
# The body grammar: ASCII rows, one per line, where a line ends in '\n' or
# '\r\n' and a last line with no line end is a row if it is not empty. A row
# is n_lon values between blanks (runs of ' ' and '\t', also at its start and
# end), and each value matches _VALUE. One reader takes every body in passes
# of whole rows. Per pass, a token's row comes from the positions of the row
# ends, and a token with a byte that is not a digit, its one dot or a leading
# minus (nor exactly NaN) is checked against _VALUE.
#
# Its values: a token matching -?[0-9]*\.?[0-9]* with at least one digit is
# the decimal M / 10**a (its digits M, a of them after the dot), and when it
# holds at most 19 bytes after its sign, M < 10**19 < 2**64. In x87 extended
# precision (a 64-bit significand) M and 10**a are both exact, so the
# quotient is rounded once, to 64 bits (Clinger, PLDI 1990). Rounding it
# again to binary64 gives float(token) unless the extended quotient lies
# exactly halfway between two doubles; such tokens (1 in 2,000 random ones),
# the longer ones and the checked ones (as the exponents repr writes below
# 1e-4 and from 1e16) go through float() one by one. Where longdouble is not
# x87 extended, every token of the checked pass goes through float(). Only
# float() gives inf, for an overflow, and that is a fault.

# x87 extended precision: a 64-bit significand in the low 8 of 16 bytes
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and np.little_endian
)
_VALUE = re.compile(rb"[+-]?(?:NaN|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")
_WIDTH = 24  # bytes of the window that ends each token: three uint64 words
_MAX_BYTES = 19  # bytes after the sign that keep M below 10**19
_CHUNK = 1 << 19  # a pass ends at the first row end from here: its temporaries fit a 2 MiB L2
# indexed by the digits after the dot, or by _MAX_BYTES for a token with
# none: then M is read as it is (divisor 1, no dot, a modulus above any M)
_TEN_POW = np.array([10**k for k in range(_MAX_BYTES)] + [1], dtype=np.longdouble)
_MOD = np.array([10**k for k in range(_MAX_BYTES)] + [2**64 - 1], dtype=np.uint64)
_DOT_VALUE = np.array([14 * 10**k for k in range(_MAX_BYTES)] + [0], dtype=np.uint64)
# _KEEP[j]: the low nibble of window bytes j and up, byte 0 lowest
_KEEP = np.array(
    [[0x0F * (col >= j) for col in range(_WIDTH)] for j in range(_WIDTH + 1)], dtype=np.uint8
).view(np.uint64)
_WINDOW = np.dtype((np.void, _WIDTH))


def _parse_body(path: Path, data: bytes, start: int, shape: tuple[int, int]) -> np.ndarray:
    """The grid body `data[start:]` read in passes of whole rows, each
    ending at the first row end at or past _CHUNK bytes; ParseError for the
    first fault, the row count's before any row's."""
    n_lat, n_lon = shape
    # a value and the blank after it take two bytes, so a body too short for
    # the shape has a fault before it fills this
    values = np.empty(min(n_lat * n_lon, (len(data) - start + 1) // 2))
    done, at, fault = 0, start, None
    try:
        while at < len(data):
            stop = data.find(b"\n", at + _CHUNK - 1) + 1 or len(data)
            parsed = _parse_tokens(path, data, at, stop, n_lon, 4 + done // n_lon)
            if done + len(parsed) > len(values):  # more rows than n_lat
                break
            values[done:done + len(parsed)] = parsed
            done, at = done + len(parsed), stop
    except ParseError as exc:
        fault = exc
    if fault is None and at == len(data) and done == n_lat * n_lon:
        return values.reshape(shape)
    rows = data.count(b"\n", start) + (start < len(data) and not data.endswith(b"\n"))
    if rows != n_lat:
        raise ParseError(path, 3 + rows, f"expected {n_lat} data rows, found {rows}")
    raise fault  # with n_lat rows of n_lon values read, the body is whole


def _parse_tokens(path: Path, data: bytes, start: int, stop: int, n_lon: int, line: int):
    """The values of `data[start:stop]`, whole rows of which the first is
    line `line` of the file; ParseError for the first fault of its rows."""
    chunk = np.frombuffer(data, np.uint8, stop - start, start)
    low = (chunk <= ord(" ")).nonzero()[0]
    kind = chunk[low]
    # the blanks: ' ', '\t', '\n' and a '\r' before a '\n'
    blank = (kind == ord(" ")) | (kind == ord("\n")) | (kind == ord("\t"))
    cr = (kind == ord("\r")).nonzero()[0]
    blank[cr] = chunk.take(low[cr] + 1, mode="clip") == ord("\n")
    sep = low if blank.all() else low[blank]
    # a token ends at a blank, or at the end of the file's last line, and
    # starts after the blank before it; runs of blanks leave empty ones
    end = sep if len(sep) and sep[-1] == len(chunk) - 1 else np.append(sep, len(chunk))
    first = np.empty_like(end)
    first[0] = 0
    np.add(end[:-1], 1, out=first[1:])
    length = end - first
    if not length.all():
        token = length.nonzero()[0]
        first, end, length = first[token], end[token], length[token]
    # each row's token count, from the tokens before each row end
    row_ends = low[kind == ord("\n")]
    if chunk[-1] != ord("\n"):
        row_ends = np.append(row_ends, len(chunk))
    ends = first.searchsorted(row_ends)
    count = ends - np.concatenate(([0], ends[:-1]))
    head = chunk[first]
    neg = head == ord("-")
    nan = (length == 3) & (head == ord("N"))
    nan_at = first[nan]
    nan[nan] = (chunk[nan_at + 1] == ord("a")) & (chunk[nan_at + 2] == ord("N"))
    dot = (chunk == ord(".")).nonzero()[0]
    dotted = end.searchsorted(dot)
    has_dot = np.zeros(len(end), dtype=bool)
    has_dot[dotted] = True
    # a token of digits, at most one dot and a leading minus is a plain
    # decimal if it has a digit; _VALUE checks every other token
    check = length - has_dot - neg <= 0
    if np.count_nonzero(has_dot) != len(dot):
        check[dotted[1:][dotted[1:] == dotted[:-1]]] = True
    # when the digits, blanks, dots, leading minus signs and NaNs (disjoint
    # sets of bytes) miss a byte, that byte's token is checked
    n_digits = np.count_nonzero(chunk - np.uint8(ord("0")) < 10)
    n_nan = 3 * np.count_nonzero(nan)
    if n_digits + len(sep) + len(dot) + np.count_nonzero(neg) + n_nan != len(chunk):
        odd = (chunk != ord(".")) & (chunk - np.uint8(ord("0")) >= 10)
        odd[sep] = False
        odd[first[neg]] = False
        check[end.searchsorted(odd.nonzero()[0])] = True
        check[nan] = False
    checked = check.nonzero()[0].tolist()
    spans = zip(checked, (start + first[checked]).tolist(), (start + end[checked]).tolist())
    bad = next((t for t, a, b in spans if not _VALUE.fullmatch(data, a, b)), len(end))
    # the first fault by token: a row's count at its first token, before its values
    short = (count != n_lon).nonzero()[0].tolist()
    limit = min(bad, short[0] * n_lon) if short else bad
    if _EXTENDED:
        values, inexact = _decimals(data, start, first, end, length, neg, dot, dotted)
        redo = (inexact | check)[:limit].nonzero()[0]
        bounds = zip((start + first[redo]).tolist(), (start + end[redo]).tolist())
        values[redo] = [float(data[a:b]) for a, b in bounds]
        values[nan] = np.nan
    else:
        until = start + first[limit] if limit < len(end) else stop
        values = np.fromiter(map(float, data[start:until].split()), np.float64, limit)
    inf = np.isinf(values[:limit]).nonzero()[0].tolist()
    if not inf and short and short[0] * n_lon == limit:
        raise ParseError(path, line + short[0], f"expected {n_lon} values, got {count[short[0]]}")
    if not inf and limit == len(end):
        return values
    t = inf[0] if inf else limit
    text = data[start + first[t]:start + end[t]].decode("utf-8", "replace")
    what = "non-finite" if inf else "bad"
    raise ParseError(path, line + t // n_lon, f"{what} value {text!r} in column {t % n_lon + 1}")


def _decimals(data, start, first, end, length, neg, dot, dotted):
    """(values, inexact): each token's value as a decimal of at most
    _MAX_BYTES bytes after its sign, and where float() must read it
    instead (a longer token, or a quotient halfway between two doubles)."""
    scale = np.full(len(end), _MAX_BYTES)
    scale[dotted] = np.minimum(end[dotted] - dot - 1, _MAX_BYTES)
    # each token's window is the _WIDTH bytes before its end, as three
    # little-endian words (the three header lines are longer than a window,
    # so it starts inside the file); _KEEP clears the bytes before the first
    # digit and keeps the low nibble of the rest: a digit's value, 14 for a dot
    windows = np.ndarray((len(data) - _WIDTH + 1,), _WINDOW, data, strides=(1,))
    digits = windows[start + end - _WIDTH].view(np.uint64).reshape(-1, 3)
    digits &= _KEEP.take(np.maximum(_WIDTH - length + neg, 0), axis=0)
    mantissa = _mantissa(_eight_digits(digits), scale)
    quotient = mantissa.astype(np.longdouble) / _TEN_POW.take(scale)
    values = quotient.astype(np.float64)
    # a quotient is 0 or in [1e-18, 1e19], where binary64 keeps the top 53 of
    # its 64 significand bits: 0x400 in the 11 it drops is a tie
    halfway = quotient.view(np.uint64)[::2] & np.uint64(0x7FF) == np.uint64(0x400)
    np.negative(values, out=values, where=neg)
    return values, halfway | (length - neg > _MAX_BYTES)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """Each uint64 word's eight bytes, digits 0-9 with the first in the
    low byte, as one eight-digit number, in place (Lemire's SWAR combine).
    A single byte of 14 adds 14 at its place without disturbing the rest."""
    for mul, shift, mask in (
        (10 * 256 + 1, 8, 0x00FF00FF00FF00FF),
        (100 * 65536 + 1, 16, 0x0000FFFF0000FFFF),
        (10000 * 2**32 + 1, 32, None),
    ):
        words *= np.uint64(mul)
        words >>= np.uint64(shift)
        if mask is not None:
            words &= np.uint64(mask)
    return words


def _mantissa(groups: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """M from the windows' eight-digit groups, whose dot (if any, `scale`
    digits from the end) was read as the digit 14."""
    with_dot = groups[:, 0] * np.uint64(10**16) + groups[:, 1] * np.uint64(10**8) + groups[:, 2]
    # the dot as a zero digit: N = I * 10**(a + 1) + F, and M = I * 10**a + F
    n = with_dot - _DOT_VALUE.take(scale)
    fraction = n % _MOD.take(scale)
    return (n - fraction) // np.uint64(10) + fraction


def format_grid_snapshot(snap: FieldSnapshot) -> str:
    grid = snap.grid
    out = [
        _GRID_MAGIC,
        f"variable={snap.variable.value} timestamp={snap.timestamp}",
        "nlat={} nlon={} lat0={} dlat={} lon0={} dlon={}".format(
            grid.n_lat, grid.n_lon, _fmt(grid.lat0), _fmt(grid.d_lat),
            _fmt(grid.lon0), _fmt(grid.d_lon),
        ),
    ]
    out.extend(
        " ".join("NaN" if math.isnan(v) else repr(v) for v in row.tolist())
        for row in snap.values
    )
    return "\n".join(out) + "\n"


def write_grid_snapshot(snap: FieldSnapshot, path) -> None:
    Path(path).write_text(format_grid_snapshot(snap), encoding="utf-8")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_grid(p, hashed: bool) -> tuple[dict[str, str] | None, object]:
    """Grid file `p`, read on any thread: (if `hashed`, its `digests` entry
    as `_read` sets it, then the error raised or its `_grid_file` tuple)."""
    digests = {} if hashed else None
    try:
        path = Path(p)
        return digests, _grid_file(path, _read(path, digests))
    except Exception as exc:  # raised again by the caller, in path order
        return digests, exc


def parse_grid_series(paths: Iterable, digests=None) -> dict[ObservationKind, list[FieldSnapshot]]:
    """Read many grid files into per-variable, time-ordered series.
    `digests` as in :func:`read_utf8`.

    Files 2k and 2k+1 form a pair. When the process may use two CPUs or
    more, one helper thread reads file 2k+1 (bytes, digest, header and
    body) while the calling thread reads file 2k and builds its
    `FieldSnapshot`; the caller then joins the helper and takes file 2k+1's
    result. The next pair starts only then. With one usable CPU, and for
    the last file of an odd series, the caller reads the file itself.

    No thread is more than one file ahead, no file is started after a
    failed read, and results are taken in path order, so the snapshots,
    the order of `digests` and the error raised (the first in path order)
    are those of reading the files one by one. No thread outlives the call.
    """
    paths = list(paths)
    hashed = digests is not None
    paired = _usable_cpus() > 1
    series: dict[ObservationKind, list[FieldSnapshot]] = {}
    sources: dict[tuple[ObservationKind, int], Path] = {}
    helper, ahead = None, []
    try:
        for i, p in enumerate(paths):
            if helper is not None:  # file i, the second of its pair, was read on the helper
                helper.join()
                helper = None
                hashes, read = ahead.pop()
            else:
                if paired and i + 1 < len(paths):
                    helper = threading.Thread(
                        target=lambda q=paths[i + 1]: ahead.append(_read_grid(q, hashed)),
                        name="gstbn-grid-reader",
                        daemon=True,
                    )
                    helper.start()
                hashes, read = _read_grid(p, hashed)
            if hashes:
                digests.update(hashes)
            if isinstance(read, Exception):
                raise read
            snap = FieldSnapshot._adopt(*read)
            key = (snap.variable, snap.timestamp)
            if key in sources:
                raise ParseError(
                    p, None,
                    f"duplicate snapshot for {snap.variable.value} at t={snap.timestamp}"
                    f" (first seen in {sources[key]})",
                )
            sources[key] = Path(p)
            bucket = series.setdefault(snap.variable, [])
            if bucket and bucket[0].grid != snap.grid:
                raise ParseError(p, 3, f"grid differs from other {snap.variable.value} snapshots")
            bucket.append(snap)
    finally:
        if helper is not None:
            helper.join()
    for bucket in series.values():
        bucket.sort(key=lambda s: s.timestamp)
    return {k: series[k] for k in sorted(series, key=kind_sort_key)}


def _template(feature: dict) -> str:
    """`feature` as `dump_json` lays it out in a collection's "features"
    list (keys sorted, two-space indent, at a feature's depth), with each
    "%s" string made a bare %s slot for preformatted text."""
    lines = json.dumps(feature, sort_keys=True, indent=2).splitlines()
    return "\n".join("    " + line for line in lines).replace('"%s"', "%s")


def _point_template(node_type: str, *slots: str, **properties) -> str:
    return _template({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": ["%s", "%s"]},
        "properties": {"node_type": node_type, **dict.fromkeys(slots, "%s"), **properties},
    })


# slots in text order: coordinates, then the properties by name
_SENSOR_FEATURE = _point_template("sensor", "degree", "id", "membership", "status")
_EDGE_FEATURE = _template({
    "type": "Feature",
    "geometry": {"type": "LineString", "coordinates": [["%s", "%s"], ["%s", "%s"]]},
    "properties": dict.fromkeys(("roi_id", "sensor_id", "weight_km"), "%s"),
})
# the kinds in the order `dump_json` sorts the residual keys: by name
_BY_NAME = sorted(ObservationKind, key=lambda kind: kind.value)


def _number(x) -> str:
    """`x` as `json.dumps` writes a number: `float.__repr__` for a float
    (numpy's float64 included), `int.__repr__` for an int, and ValueError
    for a float that is not finite, as `allow_nan=False` gives."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return int.__repr__(x)


def _floats(values: np.ndarray) -> list[str]:
    """The floats as `dump_json` writes them; ValueError if one is not finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"Out of range float values are not JSON compliant: {values}")
    return list(map(float.__repr__, values.tolist()))


def _roi_features(snap, lon: list[str], lat: list[str], roi_id: list[str]) -> list[str]:
    """The RoI features of `snap`, whose RoIs lie at `lon`, `lat`. RoIs that
    fired the same kinds (not NaN) share one template, a slot per residual."""
    residual = snap.residual[:, list(map(kind_sort_key, _BY_NAME))]
    group = ~np.isnan(residual) @ (1 << np.arange(len(_BY_NAME)))
    columns = (lon, lat, roi_id, _floats(snap.roi_value))
    out = [""] * len(group)
    for key in np.flatnonzero(np.bincount(group)).tolist():
        fired = [j for j in range(len(_BY_NAME)) if key >> j & 1]
        slots = dict.fromkeys((_BY_NAME[j].value for j in fired), "%s")
        template = _point_template("roi", "id", "roi_value", residuals=slots)
        rows = np.flatnonzero(group == key)
        *picked, values = ([column[r] for r in rows.tolist()] for column in columns)
        residuals = [_floats(residual[rows, j]) for j in fired]
        for row, text in zip(rows.tolist(), map(template.__mod__, zip(*picked, *residuals, values))):
            out[row] = text
    return out


def format_geojson(net: TemporalGstbn, timestamp: int) -> str:
    """One snapshot as GeoJSON FeatureCollection text, the bytes of
    `dump_json` applied to the same collection.

    Sensor and RoI nodes become Point features, edges become LineStrings
    from RoI to sensor; coordinates are [lon, lat]. Features are ordered
    sensors by id, then RoIs by id, then edges by roi id. Each column is
    formatted once. ValueError if a number is not finite.
    """
    snap = net.snapshot_at(timestamp)
    rows = snap.roi_id - 1
    linked = snap.sensor_id.tolist()
    degrees = Counter(linked)

    # each sensor's coordinates and id are formatted once, then reused by its edges
    sensor_text: dict[int, tuple[str, str, str]] = {}
    features: list[str] = []
    for s in sorted(net.active_sensors, key=lambda s: s.id):
        coord = s.geolocation
        lon, lat, sid = sensor_text[s.id] = _number(coord.lon), _number(coord.lat), _number(s.id)
        labels = map(encode_basestring_ascii, (s.membership.value, s.operational_status.value))
        features.append(_SENSOR_FEATURE % (lon, lat, _number(degrees[s.id]), sid, *labels))
    lon, lat = _floats(net.roi_table.lon[rows]), _floats(net.roi_table.lat[rows])
    roi_id = list(map(int.__repr__, snap.roi_id.tolist()))
    features += _roi_features(snap, lon, lat, roi_id)
    s_lon, s_lat, s_id = zip(*map(sensor_text.__getitem__, linked)) if linked else ((), (), ())
    edges = zip(lon, lat, s_lon, s_lat, roi_id, s_id, _floats(snap.weight_km))
    features += map(_EDGE_FEATURE.__mod__, edges)
    body = "[\n" + ",\n".join(features) + "\n  ]" if features else "[]"
    return '{\n  "features": ' + body + ',\n  "type": "FeatureCollection"\n}\n'


def export_geojson(net: TemporalGstbn, timestamp: int) -> dict:
    """One snapshot as a GeoJSON FeatureCollection dict: the parse of
    `format_geojson`, so the two cannot disagree."""
    return json.loads(format_geojson(net, timestamp))


def coverage_to_dict(report: CoverageReport) -> dict:
    return {
        "per_snapshot": [
            {"timestamp": ts, "static_coverage_km": v} for ts, v in report.per_snapshot
        ],
        "total_temporal_coverage_km": report.total_km,
        "average_temporal_coverage_km": report.average_km,
        "n_timesteps": report.n_timesteps,
    }


def centrality_to_dict(report: CentralityReport) -> dict:
    return {
        "static_per_snapshot": {
            str(ts): {str(sid): d for sid, d in sorted(degrees.items())}
            for ts, degrees in sorted(report.static_per_snapshot.items())
        },
        "overall": {str(sid): d for sid, d in sorted(report.overall.items())},
        "distribution": {str(deg): n for deg, n in sorted(report.distribution.items())},
    }


def robustness_to_dict(report: RobustnessReport) -> dict:
    return {
        "removed_sensor_ids": list(report.removed_sensor_ids),
        "coverage_before_km": report.coverage_before_km,
        "coverage_after_km": report.coverage_after_km,
        # infinite when coverage rose from zero; JSON has no Infinity
        "relative_increase": (
            None if math.isinf(report.relative_increase) else report.relative_increase
        ),
    }


def placement_to_dict(result: PlacementResult) -> dict:
    return {
        "placed": [
            {
                "lon": p.coord.lon,
                "lat": p.coord.lat,
                "coverage_after_km": p.coverage_after_km,
            }
            for p in result.placed
        ],
        "trials_per_sensor": result.trials_per_sensor,
        "seed": result.seed,
        "baseline_coverage_km": result.baseline_coverage_km,
    }


def build_report(
    coverage: dict,
    centrality: dict,
    robustness: dict | None = None,
    placement: dict | None = None,
    *,
    seed: int,
    inputs: Mapping[str, str] | None = None,
) -> dict:
    """The report document; `inputs` maps each input path to its sha256,
    as the parsers' `digests` collect them."""
    from . import __version__

    report = {
        "coverage": coverage,
        "centrality": centrality,
        "meta": {
            "tool": "gstbn",
            "version": __version__,
            "seed": seed,
            "inputs": dict(sorted((inputs or {}).items())),
        },
    }
    if robustness is not None:
        report["robustness"] = robustness
    if placement is not None:
        report["placement"] = placement
    return report


def dump_json(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
