"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer wraps public entry points of the geoflora modules (and the bulk
query methods of ``GeoIndex``). ``cli`` imports functions by name, so every
``geoflora.*`` module attribute bound to a wrapped function is patched, not
only the defining module's. A span records its name, layer, start, end,
parent, root, process CPU time and item counts; spans stay in memory until
the benchmark writes them out.

A span's self time is its duration minus the part of that interval covered
by its children. A span nested directly in a span of the same layer is part
of that layer's boundary call, so its self time is booked to the outermost
such ancestor's metric. Self times of all spans sum to the duration of the
root spans when children nest inside their parents; the root layer is
``cli``, whose self time is the traced time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import pkgutil
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    layer: str
    metric: str
    parent: int
    root: int
    start: float
    end: float = math.nan
    cpu: float = 0.0
    items: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _args(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- item counters: (bound arguments, result) -> counts -------------------------


def _parse_items(a, result):
    return {"bytes": os.path.getsize(a["path"]), "surveys": len(result[0])}


def _queries(a, result):
    lat = a["lat_rad"]
    return {"queries": int(getattr(lat, "size", 1))}


def _radius_members(a, result):
    return {**_queries(a, result), "members": int(len(result[1]))}


def _radius_candidates(a, result):
    return {**_queries(a, result), "candidates": int(len(result[1]))}


def _merge_items(a, result):
    return {"records_in": len(a["dataset"]), "records_out": len(result)}


def _gate_items(a, result):
    return {"surveys": len(result), "in": sum(r.side.value == "in_distribution" for r in result)}


def _score_entries(a, result):
    return {"entries": sum(len(result.row(s)) for s in result.survey_ids())}


def _grid_points(a, result):
    return {"points": len(a["thresholds"]) * len(a["k_caps"])}


# (module, attribute, layer metric, item counter). Class methods are "Class.method".
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("geoflora.cli", "run", "cli.self_s", None),
    ("geoflora.ingest", "parse_occurrences", "ingest.parse_s", _parse_items),
    ("geoflora.ingest", "write_dataset", "ingest.write_s", None),
    ("geoflora.ingest", "reindex_dataset", "ingest.reindex_s", None),
    ("geoflora.geo", "GeoIndex.__init__", "geo.build_s", None),
    ("geoflora.geo", "GeoIndex.knn_query_many", "geo.knn_s", _queries),
    ("geoflora.geo", "GeoIndex.radius_query_many", "geo.radius_s", _radius_members),
    ("geoflora.geo", "GeoIndex.radius_candidates_many", "geo.radius_s", _radius_candidates),
    ("geoflora.pseudolabel", "merge_points", "pseudolabel.merge_s", _merge_items),
    ("geoflora.pseudolabel", "merged_to_dataset", "pseudolabel.merge_s", None),
    ("geoflora.pseudolabel", "merge_stats", "pseudolabel.merge_s", None),
    ("geoflora.gate", "assign", "gate.assign_s", _gate_items),
    ("geoflora.gate", "moe_merge", "gate.assign_s", None),
    ("geoflora.gate", "write_assignments", "gate.write_s", None),
    ("geoflora.predictor", "neighbor_frequency_predict", "predictor.predict_s", _score_entries),
    ("geoflora.predictor", "save_scores", "predictor.save_scores_s", None),
    ("geoflora.predictor", "load_scores", "predictor.load_scores_s", None),
    ("geoflora.postprocess", "grid_search_top_k", "postprocess.grid_search_s", _grid_points),
    ("geoflora.postprocess", "apply_top_k", "postprocess.top_k_s", None),
    ("geoflora.postprocess", "neighbor_vote_many", "postprocess.vote_s", None),
    ("geoflora.postprocess", "finalize", "postprocess.vote_s", None),
    ("geoflora.postprocess", "write_submission", "postprocess.write_submission_s", None),
    ("geoflora.losses", "samples_f1", "losses.samples_f1_s", None),
]

# Every per-layer metric, in report order; BENCHMARK.json lists the same names.
LAYER_METRICS: dict[str, str] = {
    "ingest.parse_s": "s",
    "ingest.parse_mb_per_s": "MB/s",
    "ingest.write_s": "s",
    "ingest.reindex_s": "s",
    "geo.build_s": "s",
    "geo.knn_s": "s",
    "geo.knn_queries": "count",
    "geo.radius_s": "s",
    "geo.radius_candidates": "count",
    "geo.radius_keep_ratio": "ratio",
    "geo.cpu_util": "ratio",
    "pseudolabel.merge_s": "s",
    "pseudolabel.records_out": "count",
    "pseudolabel.merge_ratio": "ratio",
    "gate.assign_s": "s",
    "gate.in_share": "ratio",
    "gate.write_s": "s",
    "predictor.predict_s": "s",
    "predictor.score_entries": "count",
    "predictor.save_scores_s": "s",
    "predictor.load_scores_s": "s",
    "postprocess.grid_search_s": "s",
    "postprocess.grid_points": "count",
    "postprocess.top_k_s": "s",
    "postprocess.vote_s": "s",
    "postprocess.write_submission_s": "s",
    "losses.samples_f1_s": "s",
    "losses.samples_f1_calls": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Records spans while installed; ``root`` opens a span of the ``cli`` layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, metric: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, metric.split(".")[0], metric, parent, root, time.perf_counter()))
        self._stack.append(idx)
        self.spans[idx].cpu = time.process_time()
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.cpu = time.process_time() - span.cpu
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around benchmark-side work."""
        idx = self._open(name, "cli.self_s")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, metric: str, fn: Callable, count: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                try:
                    tracer.spans[idx].items = count(_args(fn, args, kwargs), result)
                except Exception as exc:  # a renamed argument must not stop the run
                    tracer.count_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every target; returns the targets not found in this version."""
        import geoflora

        for info in pkgutil.iter_modules(geoflora.__path__):
            importlib.import_module(f"geoflora.{info.name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "geoflora" or n.startswith("geoflora.")]
        missing = []
        for module_name, attr, metric, count in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(f"{module_name.removeprefix('geoflora.')}.{attr}", metric, fn, count)
            if owner_name:
                self._patch(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        return missing

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda c: spans[c].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def booked_metric(spans: list[Span]) -> list[str]:
    """The metric each span's self time is booked to (outermost same-layer ancestor)."""
    out: list[str] = []
    for i, s in enumerate(spans):
        p = s.parent
        out.append(out[p] if p >= 0 and spans[p].layer == s.layer else s.metric)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every entry of ``LAYER_METRICS`` except ``trace.overhead_share``; zero where a layer did no work."""
    selfs = self_times(spans)
    booked = booked_metric(spans)
    m = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_share"}
    for t, key in zip(selfs, booked):
        m[key] += t

    def total(span_name: str, item: str) -> float:
        return float(sum(s.items.get(item, 0) for s in spans if s.name == span_name))

    parse_bytes = total("ingest.parse_occurrences", "bytes")
    m["ingest.parse_mb_per_s"] = parse_bytes / 1e6 / m["ingest.parse_s"] if m["ingest.parse_s"] > 0 else 0.0
    m["geo.knn_queries"] = total("geo.GeoIndex.knn_query_many", "queries")
    m["geo.radius_candidates"] = total("geo.GeoIndex.radius_candidates_many", "candidates")
    inner_candidates = sum(
        s.items.get("candidates", 0)
        for s in spans
        if s.name == "geo.GeoIndex.radius_candidates_many" and s.parent >= 0 and spans[s.parent].name == "geo.GeoIndex.radius_query_many"
    )
    members = total("geo.GeoIndex.radius_query_many", "members")
    m["geo.radius_keep_ratio"] = members / inner_candidates if inner_candidates else 0.0
    outer_geo = [s for s in spans if s.layer == "geo" and (s.parent < 0 or spans[s.parent].layer != "geo")]
    geo_wall = sum(s.duration for s in outer_geo)
    m["geo.cpu_util"] = sum(s.cpu for s in outer_geo) / geo_wall if geo_wall > 0 else 0.0
    records_in = total("pseudolabel.merge_points", "records_in")
    m["pseudolabel.records_out"] = total("pseudolabel.merge_points", "records_out")
    m["pseudolabel.merge_ratio"] = m["pseudolabel.records_out"] / records_in if records_in else 0.0
    gated = total("gate.assign", "surveys")
    m["gate.in_share"] = total("gate.assign", "in") / gated if gated else 0.0
    m["predictor.score_entries"] = total("predictor.neighbor_frequency_predict", "entries")
    m["postprocess.grid_points"] = total("postprocess.grid_search_top_k", "points")
    m["losses.samples_f1_calls"] = float(sum(s.name == "losses.samples_f1" for s in spans))
    m["trace.wall_s"] = sum(s.duration for s in spans if s.parent < 0)
    return m


def layers_add_up(m: dict[str, float]) -> str | None:
    """The reported layer times (every metric in seconds, ``cli.self_s`` too) sum to the traced wall time.

    Fails when a span pokes out of its parent, or time is booked to no reported metric.
    """
    booked = sum(v for k, v in m.items() if LAYER_METRICS.get(k) == "s" and k != "trace.wall_s")
    wall = m["trace.wall_s"]
    return None if abs(booked - wall) <= 1e-6 * max(1.0, wall) else f"layer times sum to {booked!r}, traced wall is {wall!r}"
