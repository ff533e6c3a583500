"""In-memory spans around the calls into each gstbn layer.

Spans are recorded from outside the package: `Tracer.installed()` swaps
each public function named in `PATCHES` for a timing wrapper, in the module
whose code calls it, and puts the originals back on exit. The traced run
therefore executes the command's own code path, in the command's own order.
A name a later version of the package no longer has is skipped, so its time
folds into the caller's self time instead of breaking the run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module whose code makes the call, attribute looked up there, span name)
PATCHES = (
    ("gstbn.cli", "parse_sensor_catalog", "ingest.parse_catalog"),
    ("gstbn.cli", "parse_grid_series", "ingest.parse_grids"),
    ("gstbn.cli", "build_temporal_gstbn", "network.build"),
    ("gstbn.cli", "coverage_report", "metrics.coverage"),
    ("gstbn.cli", "degree_centrality", "metrics.centrality"),
    ("gstbn.cli", "evaluate_robustness", "metrics.robustness"),
    ("gstbn.cli", "place_sequential", "placement.place"),
    ("gstbn.cli", "add_sensor", "network.add_sensor"),
    ("gstbn.cli", "build_report", "ingest.report"),
    ("gstbn.cli", "export_geojson", "ingest.export_geojson"),
    ("gstbn.cli", "dump_json", "ingest.dump_json"),
    ("gstbn.network", "compute_residual_field", "field.residual"),
    ("gstbn.network", "extract_roi_events", "field.extract"),
    ("gstbn.network", "build_edges", "network.link"),
    ("gstbn.metrics", "degree_centrality", "metrics.centrality"),
    ("gstbn.metrics", "remove_sensor", "network.remove_sensor"),
    ("gstbn.placement", "add_sensor", "network.add_sensor"),
)


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# Work counts taken at the same boundaries: span name -> fn(args, kwargs, result).
COUNTERS = {
    "ingest.parse_grids": lambda a, k, r: {
        "ingest.bytes_read": _file_bytes(a[0]),
        "ingest.cells": sum(s.grid.cell_count for snaps in r.values() for s in snaps),
    },
    "ingest.parse_catalog": lambda a, k, r: {"ingest.bytes_read": _file_bytes(a[:1])},
    # build_report hashes every input file, so it reads them all again
    "ingest.report": lambda a, k, r: {"ingest.bytes_read": _file_bytes(k.get("input_paths", ()))},
    "field.residual": lambda a, k, r: {"field.valid_cells": int(r.valid.sum())},
    "field.extract": lambda a, k, r: {"field.events": len(r)},
    "network.build": lambda a, k, r: {
        "network.rois": len(r.roi_registry),
        "network.edges": sum(len(s.edges) for s in r.snapshots),
        "network.sensors": len(r.active_sensors),
    },
    "placement.place": lambda a, k, r: {"placement.trials": r.trials_per_sensor * len(r.placed)},
}


# Results the probes after the command reuse: the parsed series and the network.
KEEP = ("ingest.parse_grids", "network.build")


class Tracer:
    """Spans as [name, start, end, parent index], plus summed counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.results: dict[str, object] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()
        if name in KEEP:
            self.results.setdefault(name, result)
        count = COUNTERS.get(name)
        if count is not None:
            try:
                found = count(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                found = {}  # the call's shape changed; the count reads 0, the run goes on
            for key, n in found.items():
                self.counts[key] = self.counts.get(key, 0) + n
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        swapped = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                swapped.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def total(self, name: str) -> float:
        """Time inside `name`, counting a span nested in a same-named one once."""
        out = 0.0
        for name_, start, end, parent in self.spans:
            if name_ != name:
                continue
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                out += end - start
        return out

    def self_time(self, name: str) -> float:
        """Time inside `name` not covered by its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(
            (end - start) - child[i]
            for i, (name_, start, end, _) in enumerate(self.spans)
            if name_ == name
        )

    def dump(self) -> list[list]:
        """Spans with times relative to the first start, for the result record."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
