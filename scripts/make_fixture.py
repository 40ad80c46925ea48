#!/usr/bin/env python3
"""Regenerate the committed synthetic fixture and its golden pipeline output.

Writes tests/fixtures/{pa_train.csv,po_train.csv,test.csv} plus the golden
run under tests/fixtures/golden/: the five data outputs and manifest.json.
The pipeline's run.json records the numpy and Python versions, so it differs
between environments and is not kept among the goldens. The golden
submission is the reference output the acceptance suite compares against
byte for byte, so rerun this script only when the pipeline's intended
behaviour changes, and commit the result.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from geoflora import pipeline
from geoflora.ingest import Dataset, DatasetKind, SpeciesCatalog, parse_occurrences, write_dataset

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))
from synth import scatter  # noqa: E402  the tests' scatter, so the fixture's clusters draw as theirs do

SEED = 20250810
FIXTURES = TESTS / "fixtures"

PA_REGION = np.transpose([(46.2, 2.8), (48.6, 1.9), (50.4, 4.3), (44.0, 5.5), (47.5, -0.8)])  # centres' (lats, lons)
OOD_REGION = np.transpose([(49.0, 24.0), (47.2, 26.5), (50.5, 22.0)])

N_SPECIES = 80  # dense 0..59 reachable from PA, 60..79 only in PO
RAW_OFFSET, RAW_STEP = 1001, 13

GOLDEN_FILES = (*pipeline.OUTPUTS, "manifest.json")


def zipfish(rng: np.random.Generator, pool: np.ndarray, size: int) -> list[int]:
    weights = 1.0 / (np.arange(pool.size) + 2.0)
    weights /= weights.sum()
    size = min(size, pool.size)
    return rng.choice(pool, size=size, replace=False, p=weights).tolist()


def build_pa(rng) -> Dataset:
    n = 300
    lats, lons = scatter(rng, *PA_REGION, n, sigma_km=6.0)
    pool = np.arange(60)
    species = [frozenset(zipfish(rng, pool, 1 + rng.poisson(7))) for _ in range(n)]
    return Dataset(np.arange(1, n + 1, dtype=np.int64), lats, lons, species)


def build_po(rng) -> Dataset:
    # western clusters overlap PA; eastern ones cover the OOD region; a few
    # very tight knots force patch-box merging
    n_west, n_east, n_knots = 450, 300, 150
    lats_w, lons_w = scatter(rng, *PA_REGION, n_west, sigma_km=8.0)
    lats_e, lons_e = scatter(rng, *OOD_REGION, n_east, sigma_km=7.0)
    knot_centers = [
        (float(rng.uniform(44, 50)), float(rng.uniform(0, 5))) for _ in range(6)
    ] + [(float(rng.uniform(47, 50)), float(rng.uniform(22, 26))) for _ in range(6)]
    lats_k, lons_k = scatter(rng, *np.transpose(knot_centers), n_knots, sigma_km=0.15)
    lats = np.concatenate([lats_w, lats_e, lats_k])
    lons = np.concatenate([lons_w, lons_e, lons_k])
    n = lats.size
    pool = np.arange(N_SPECIES)
    species = [frozenset(zipfish(rng, pool, 1 + rng.poisson(0.4))) for _ in range(n)]
    ids = np.arange(10_001, 10_001 + n, dtype=np.int64)
    return Dataset(ids, lats, lons, species)


def build_test(rng) -> Dataset:
    n_in, n_ood = 70, 50
    lats_in, lons_in = scatter(rng, *PA_REGION, n_in, sigma_km=5.0)
    lats_ood, lons_ood = scatter(rng, *OOD_REGION, n_ood, sigma_km=6.0)
    lats = np.concatenate([lats_in, lats_ood])
    lons = np.concatenate([lons_in, lons_ood])
    ids = np.arange(90_001, 90_001 + n_in + n_ood, dtype=np.int64)
    return Dataset(ids, lats, lons, [frozenset()] * (n_in + n_ood))


def write_long(dataset: Dataset, path: Path, catalog: SpeciesCatalog) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,lat,lon,speciesId\n")
        raw, ptr = catalog.dense_to_raw[dataset.indices].tolist(), dataset.indptr.tolist()
        for sid, lat, lon, a, b in zip(dataset.ids.tolist(), dataset.lats.tolist(), dataset.lons.tolist(), ptr, ptr[1:]):
            for r in raw[a:b]:
                f.write(f"{sid},{lat:.7f},{lon:.7f},{r}\n")


def main() -> int:
    rng = np.random.default_rng(SEED)
    FIXTURES.mkdir(parents=True, exist_ok=True)

    pa = build_pa(rng)
    po = build_po(rng)
    test = build_test(rng)
    catalog = SpeciesCatalog(RAW_OFFSET + RAW_STEP * np.arange(N_SPECIES, dtype=np.int64))

    pa_path = FIXTURES / "pa_train.csv"
    po_path = FIXTURES / "po_train.csv"
    test_path = FIXTURES / "test.csv"
    write_dataset(pa, pa_path, catalog)
    write_long(po, po_path, catalog)
    write_dataset(test, test_path, catalog)

    parsed_po, _ = parse_occurrences(str(po_path), kind=DatasetKind.PO_TRAIN)
    assert len(parsed_po) == len(po), "long-format round trip lost surveys"

    golden = FIXTURES / "golden"
    golden.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as outdir:
        pipeline.run(pa_path, po_path, test_path, outdir)
        for name in GOLDEN_FILES:
            shutil.copyfile(Path(outdir) / name, golden / name)
    print(f"fixture written under {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
