"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, layer_metrics, layers_add_up, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "pipeline-clustered": gen.PipelineSizes(pa=400, po=1200, test=200, species=300, pa_regions=2, ood_regions=1, po_knot_size=12),
    "index-1m": gen.IndexSizes(surveys=3000, species=300),
    "tune-topk": gen.TuneSizes(pa=400, test=120, species=300, pa_regions=2),
}


def span(name, metric, parent, start, end, root=0):
    return Span(name, metric.split(".")[0], metric, parent, root, start, end)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("bench", "cli.self_s", -1, 0.0, 10.0),
            span("geo.GeoIndex.radius_query_many", "geo.radius_s", 0, 1.0, 4.0),
            span("geo.GeoIndex.radius_candidates_many", "geo.radius_s", 1, 2.0, 3.0),
            span("pseudolabel.merge_points", "pseudolabel.merge_s", 0, 5.0, 9.0),
            span("geo.GeoIndex.__init__", "geo.build_s", 3, 6.0, 7.0),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
        m = layer_metrics(spans)
        assert m["cli.self_s"] == 3.0
        assert m["geo.radius_s"] == 3.0  # the same-layer child is booked to its parent's metric
        assert m["pseudolabel.merge_s"] == 3.0
        assert m["geo.build_s"] == 1.0
        assert m["trace.wall_s"] == 10.0
        assert layers_add_up(m) is None

    def test_overlapping_and_clipped_children(self):
        spans = [
            span("bench", "cli.self_s", -1, 0.0, 10.0),
            span("ingest.parse_occurrences", "ingest.parse_s", 0, 1.0, 3.0),
            span("ingest.write_dataset", "ingest.write_s", 0, 2.0, 5.0),
            span("predictor.save_scores", "predictor.save_scores_s", 0, 9.0, 12.0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert "traced wall is 10.0" in layers_add_up(layer_metrics(spans))  # the save span pokes out of the root

    def test_time_booked_to_an_unreported_metric_fails(self):
        m = layer_metrics([span("bench", "cli.self_s", -1, 0.0, 10.0)])
        assert layers_add_up(m) is None
        m["cli.self_s"] -= 2.0  # as if two seconds went to a metric the report leaves out
        assert layers_add_up(m) is not None

    def test_ratios_use_item_counts(self):
        spans = [
            span("geo.GeoIndex.radius_query_many", "geo.radius_s", -1, 0.0, 2.0),
            span("geo.GeoIndex.radius_candidates_many", "geo.radius_s", 0, 0.5, 1.5),
        ]
        spans[0].items = {"queries": 10, "members": 30}
        spans[1].items = {"queries": 10, "candidates": 40}
        m = layer_metrics(spans)
        assert m["geo.radius_keep_ratio"] == 0.75
        assert m["geo.radius_candidates"] == 40


class TestTracer:
    def test_patches_every_binding_and_restores(self):
        import geoflora
        import geoflora.cli
        import geoflora.pseudolabel
        from geoflora.geo import GeoIndex

        original = geoflora.pseudolabel.merge_points
        knn = GeoIndex.knn_query_many
        tracer = Tracer()
        assert tracer.install() == []
        try:
            for owner in (geoflora, geoflora.cli, geoflora.pseudolabel):
                assert owner.merge_points is not original
                assert owner.merge_points.__wrapped__ is original
            assert GeoIndex.knn_query_many is not knn
        finally:
            tracer.uninstall()
        assert geoflora.cli.merge_points is original and geoflora.merge_points is original
        assert GeoIndex.knn_query_many is knn

    def test_records_parent_and_items(self):
        from geoflora.geo import GeoIndex

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root("bench"):
                index = GeoIndex([1, 2, 3], [10.0, 10.1, 10.2], [5.0, 5.0, 5.0])
                index.knn_query_many(np.radians([10.0]), np.radians([5.0]), 2)
        finally:
            tracer.uninstall()
        names = [s.name for s in tracer.spans]
        assert names == ["bench", "geo.GeoIndex.__init__", "geo.GeoIndex.knn_query_many"]
        assert [s.parent for s in tracer.spans] == [-1, 0, 0]
        assert tracer.spans[2].items == {"queries": 1}
        assert layer_metrics(tracer.spans)["geo.knn_queries"] == 1


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        for make, sizes in ((gen.pipeline_inputs, TINY["pipeline-clustered"]), (gen.tune_inputs, TINY["tune-topk"])):
            a = make(3, tmp_path / "a", sizes)
            b = make(3, tmp_path / "b", sizes)
            c = make(4, tmp_path / "c", sizes)
            for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
            assert a.pa.path.read_bytes() != c.pa.path.read_bytes()
            assert b.truth.surveys.raw_sets() == a.truth.surveys.raw_sets()

    def test_uniform_inputs_deterministic(self):
        a = gen.uniform_inputs(5, TINY["index-1m"])
        b = gen.uniform_inputs(5, TINY["index-1m"])
        for field in ("ids", "lats", "lons", "indptr", "species"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        sets = a.species_sets()
        assert all(1 <= len(s) for s in sets)
        assert np.unique(np.column_stack([a.lats, a.lons]), axis=0).shape[0] < len(a)  # duplicate coordinates

    def test_species_are_spatially_correlated(self, tmp_path):
        inputs = gen.pipeline_inputs(1, tmp_path, gen.PipelineSizes(pa=2000, po=100, test=100))
        pa = inputs.pa.surveys.species_sets()
        lats, lons = inputs.pa.surveys.lats, inputs.pa.surveys.lons
        nearest = [int(np.argsort((lats - lats[i]) ** 2 + (lons - lons[i]) ** 2)[1]) for i in range(50)]
        rng = np.random.default_rng(0)
        shared_near = np.mean([len(pa[i] & pa[j]) for i, j in zip(range(50), nearest)])
        shared_random = np.mean([len(pa[i] & pa[j]) for i, j in zip(range(50), rng.integers(0, len(pa), 50))])
        assert shared_near > 2 * shared_random


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_workload_passes_checks(name, tmp_path):
    root = HERE.parent
    ledger = checks.Ledger()
    w = WORKLOADS[name](2, tmp_path, ledger, checks.load_oracles(root), TINY[name])
    w.generate()
    ledger.check("golden-fixture", lambda: checks.golden_run(root, tmp_path / "golden"))
    w.setup_once()
    w.run(0.01)
    layers = w.run_traced(0.01)
    w.verify()
    assert ledger.failed == 0, ledger.failures
    assert ledger.attempted > 5
    assert set(layers) == set(tracing.LAYER_METRICS)
    if name == "index-1m":  # the untraced twin batches record no spans
        assert layers["geo.knn_queries"] == w.traced_batches["knn"] * w.batch_size["knn"]
    assert w.report[w.headline]["n"] >= 1
    assert len(w.probe.samples) >= 24 and w.probe.factor() > 0


def test_no_program_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-topk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
