"""Acceptance battery: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see both the pytest
verdicts and the per-criterion lines. Criterion 11 needs real survey data
and is skipped unless the GEOFLORA_GLC25_PA / GEOFLORA_GLC25_PO_RAW
environment variables point at files in the documented CSV formats.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, haversine, knn_row, make_dataset, radius_row, random_points
from geoflora.cli import run
from geoflora.fusion import ModalityTriple, init_weights, stack_forward, tri_serial_forward
from geoflora.gate import Side, assign
from geoflora.geo import GeoIndex, GeoPoint
from geoflora.losses import AslParams, LabeledScores, asl_grad, asl_loss, bce_loss, samples_f1
from geoflora.pseudolabel import MergeConfig, MergeMode, merge_points
from geoflora.stats import occurrences_per_species_hist, species_per_survey_hist
from oracles import box_members_oracle, brute_knn, brute_radius, merge_points_oracle, samples_f1_oracle
from synth import clustered_surveys, uniform_surveys
from test_fusion import scalar_forward, zero_backprojection


def _report(num: int, name: str) -> None:
    print(f"[acceptance] C{num:02d} {name}: PASS")


def test_c01_spatial_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 5001))
        ids, lats, lons = random_points(rng, n)
        index = GeoIndex(ids, lats, lons)
        for _ in range(2):
            center = GeoPoint.from_degrees(rng.uniform(-89, 89), rng.uniform(-180, 180))
            radius = float(rng.uniform(0, 2000))
            assert radius_row(index, center, radius) == brute_radius(ids, lats, lons, center, radius)
            k = int(rng.integers(1, 16))
            assert knn_row(index, center, k) == brute_knn(ids, lats, lons, center, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"spatial exactness battery took {elapsed:.1f}s"
    _report(1, f"spatial exactness (200 instances in {elapsed:.1f}s)")


def _merge_instances(rng, count, max_n):
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        yield clustered_surveys(
            n,
            int(rng.integers(5, 40)),
            rng,
            clusters=max(2, n // 50),
            sigma_km=float(rng.uniform(0.1, 0.6)),
        )


def test_c02_merge_matches_quadratic_reference():
    rng = np.random.default_rng(202)
    for ds in _merge_instances(rng, 50, 2000):
        for mode in MergeMode:
            cfg = MergeConfig(mode=mode, rare_count_threshold=int(rng.integers(2, 8)))
            got = [(r.survey_id, r.lat, r.lon, r.species, r.source_ids) for r in merge_points(ds, cfg)]
            assert got == merge_points_oracle(ds, cfg), f"mode {mode}"
    _report(2, "merge equals quadratic reference for all three modes (50 instances)")


def test_c03_no_positive_label_noise():
    rng = np.random.default_rng(303)
    for ds in _merge_instances(rng, 10, 800):
        pos_by_id = {int(ds.ids[i]): i for i in range(len(ds))}
        species_in = set().union(*ds.species)
        for mode in MergeMode:
            cfg = MergeConfig(mode=mode, rare_count_threshold=4)
            merged = merge_points(ds, cfg)
            for rec in merged:
                members = [pos_by_id[sid] for sid in rec.source_ids]
                box = set(box_members_oracle(ds, pos_by_id[rec.survey_id], cfg))
                assert set(members) <= box, "constituent outside the patch box"
                union = frozenset().union(*(ds.species[m] for m in members))
                assert rec.species <= union, "species with no constituent source"
            if mode in (MergeMode.LOOSE, MergeMode.BALANCED):
                assert set().union(*(r.species for r in merged)) == species_in
    _report(3, "no positive label noise; coverage conserved under loose/balanced")


def test_c04_distribution_smoothing():
    rng = np.random.default_rng(404)
    ds = clustered_surveys(50_000, 500, rng, clusters=60, sigma_km=1.0, mean_extra_species=0.05)
    merged = merge_points(ds, MergeConfig(mode=MergeMode.STRICT))
    mean_in = float(np.mean([len(s) for s in ds.species]))
    mean_out = float(np.mean([len(r.species) for r in merged]))
    assert mean_out > mean_in, f"no smoothing: {mean_in} -> {mean_out}"
    _report(4, f"distribution smoothing (mean species/survey {mean_in:.3f} -> {mean_out:.3f})")


def test_c05_asl_correctness():
    # closed forms
    one = lambda y, p: LabeledScores(np.array([y]), np.array([p]))
    assert asl_loss(one(1.0, 0.5), AslParams(0, 0, 0)) == pytest.approx(0.693147, abs=1e-6)
    assert asl_loss(one(0.0, 0.2), AslParams(0, 1, 0.3)) == pytest.approx(0.0, abs=1e-6)
    assert asl_loss(one(0.0, 0.9), AslParams(0, 1, 0.05)) == pytest.approx(1.957197, abs=1e-6)

    # reduction to BCE at (0, 0, 0)
    rng = np.random.default_rng(505)
    d = LabeledScores(rng.integers(0, 2, 10_000).astype(float), rng.uniform(0.0, 1.0, 10_000))
    assert abs(asl_loss(d, AslParams(0, 0, 0)) - bce_loss(d)) <= 1e-12

    # analytic gradient vs central differences, off the clip kink
    h = 1e-5
    checked = 0
    while checked < 1000:
        n = 16
        params = AslParams(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)), float(rng.uniform(0, 0.3)))
        y = rng.integers(0, 2, n).astype(float)
        p = rng.uniform(0.02, 0.98, n)
        p[np.abs(p - params.clip_m) < 1e-3] += 2e-3
        analytic = asl_grad(LabeledScores(y, p), params)
        for i in range(n):
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (asl_loss(LabeledScores(y, up), params) - asl_loss(LabeledScores(y, down), params)) / (2 * h)
            assert abs(analytic[i] - fd) <= 1e-6
        checked += n
    _report(5, f"asymmetric loss closed forms, BCE reduction, gradient vs FD ({checked} samples)")


def test_c06_metric_correctness():
    assert samples_f1({1: {1, 2, 3}}, {1: {2, 3, 4}}) == pytest.approx(0.666667, abs=1e-6)
    rng = np.random.default_rng(606)
    for _ in range(1000):
        ids = rng.choice(5000, size=rng.integers(1, 15), replace=False)
        truth = {int(i): set(rng.choice(30, rng.integers(0, 8), replace=False).tolist()) for i in ids}
        pred = {int(i): set(rng.choice(30, rng.integers(0, 8), replace=False).tolist()) for i in ids}
        assert samples_f1(truth, pred) == samples_f1_oracle(truth, pred)
    _report(6, "samples-averaged F1 equals set-arithmetic oracle (1000 instances)")


def test_c07_gate_correctness():
    pa = make_dataset([(10, 48.0, 2.0, {0})])
    near, far = make_dataset([(1, 48.05, 2.0, set()), (2, 48.0, 2.2, set())]), None
    a1, a2 = assign(near, pa, 10.0)
    assert a1.side is Side.IN_DISTRIBUTION and a1.nearest_pa_km == pytest.approx(5.56, abs=0.01)
    assert a2.side is Side.OUT_OF_DISTRIBUTION and a2.nearest_pa_km == pytest.approx(14.88, abs=0.01)

    rng = np.random.default_rng(707)
    for _ in range(100):
        test = uniform_surveys(int(rng.integers(1, 50)), 5, rng, mean_extra_species=0)
        pa = uniform_surveys(int(rng.integers(1, 80)), 5, rng, id_start=10_000)
        radius = float(rng.uniform(20, 800))
        for i, a in enumerate(assign(test, pa, radius)):
            t = GeoPoint.from_degrees(test.lats[i], test.lons[i])
            nearest = min(
                haversine(t, GeoPoint.from_degrees(pa.lats[j], pa.lons[j])) for j in range(len(pa))
            )
            assert a.nearest_pa_km == nearest
            assert a.side is (Side.IN_DISTRIBUTION if nearest <= radius else Side.OUT_OF_DISTRIBUTION)
    _report(7, "gate equals brute-force nearest-PA (100 instances) incl. boundary examples")


def test_c08_fusion_reference():
    rng = np.random.default_rng(808)
    dims = (8, 12, 16)
    for hidden in (8, 16):
        for heads in (2, 4):
            w = init_weights(dims, hidden, heads, seed=hidden * 10 + heads)
            x = ModalityTriple(*(rng.normal(0.0, 1.0, d) for d in dims))

            ident = tri_serial_forward(x, zero_backprojection(w))
            assert all(np.array_equal(a, b) for a, b in ((ident.a, x.a), (ident.b, x.b), (ident.c, x.c)))

            trace = {}
            got = tri_serial_forward(x, w, trace=trace)
            for key in ("attn_a", "attn_b", "attn_c"):
                assert np.allclose(trace[key].sum(axis=1), 1.0, atol=1e-6)

            empty = stack_forward(x, [])
            assert all(np.array_equal(a, b) for a, b in ((empty.a, x.a), (empty.b, x.b), (empty.c, x.c)))

            expected = scalar_forward(x, w)
            for g, e in zip((got.a, got.b, got.c), expected):
                assert np.max(np.abs(g - np.array(e))) <= 1e-10
    _report(8, "fusion identities and straight-line oracle for D in {8,16}, h in {2,4}")


def test_c09_end_to_end_determinism(tmp_path):
    golden = (Path(FIXTURES) / "golden" / "submission.csv").read_bytes()
    for attempt in ("one", "two"):
        outdir = tmp_path / attempt
        status = run(
            [
                "pipeline",
                "--pa", f"{FIXTURES}/pa_train.csv",
                "--po", f"{FIXTURES}/po_train.csv",
                "--test", f"{FIXTURES}/test.csv",
                "--outdir", str(outdir),
            ]
        )
        assert status == 0
        assert (outdir / "submission.csv").read_bytes() == golden, f"run {attempt} deviated from the golden file"
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (tmp_path / "two" / "manifest.json").read_bytes()
    _report(9, "pipeline reproduces the committed golden submission byte for byte, twice")


def test_c10_performance_at_scale():
    rng = np.random.default_rng(1010)
    n = 1_000_000
    ds = uniform_surveys(n, 5000, rng, mean_extra_species=0.3)

    start = time.perf_counter()
    merged = merge_points(ds, MergeConfig(mode=MergeMode.STRICT))
    merge_s = time.perf_counter() - start
    assert merged and merge_s < 60.0, f"1M-survey merge took {merge_s:.1f}s"

    index = GeoIndex.from_dataset(ds)
    m = 200_000
    sample = rng.integers(0, n, m)
    q_lat = index.lat_rad[sample]
    q_lon = index.lon_rad[sample]
    start = time.perf_counter()
    offsets, positions, dists = index.radius_query_many(q_lat, q_lon, 0.4525483399593905)
    bulk_s = time.perf_counter() - start
    rate = m / bulk_s
    assert rate >= 1e5, f"radius throughput {rate:.0f} q/s"

    # spot-check exactness on the million-point index: 100 probes total
    ids, lats, lons = ds.ids, ds.lats, ds.lons
    for _ in range(80):
        center = GeoPoint.from_degrees(rng.uniform(36, 60), rng.uniform(-10, 30))
        radius = float(rng.uniform(0.5, 15.0))
        assert radius_row(index, center, radius) == brute_radius(ids, lats, lons, center, radius)
    for _ in range(20):
        center = GeoPoint.from_degrees(rng.uniform(36, 60), rng.uniform(-10, 30))
        k = int(rng.integers(1, 8))
        assert knn_row(index, center, k) == brute_knn(ids, lats, lons, center, k)
    _report(10, f"1M merge in {merge_s:.1f}s; {rate:.0f} radius queries/s")


def test_c11_real_data_distributions():
    pa_path = os.environ.get("GEOFLORA_GLC25_PA")
    po_path = os.environ.get("GEOFLORA_GLC25_PO_RAW")
    if not pa_path or not po_path:
        pytest.skip("set GEOFLORA_GLC25_PA and GEOFLORA_GLC25_PO_RAW to run the real-data checks")
    from geoflora.ingest import parse_occurrences

    pa, pa_catalog = parse_occurrences(pa_path)
    per_survey = species_per_survey_hist(pa)
    assert per_survey.mode == 10, f"PA species-per-survey peak {per_survey.mode}"
    per_species = occurrences_per_species_hist(pa, len(pa_catalog))
    assert per_species.fraction_under_50 >= 0.79, f"under-50 fraction {per_species.fraction_under_50:.3f}"

    po, po_catalog = parse_occurrences(po_path)
    po_hist = occurrences_per_species_hist(po, len(po_catalog))
    assert 4500 <= po_hist.singleton_species <= 5500, f"singleton species {po_hist.singleton_species}"
    _report(11, "real-data distribution checks")
