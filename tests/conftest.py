from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from geoflora.geo import GeoIndex, GeoPoint, haversine_km_arrays
from geoflora.ingest import Dataset, RowSets
from geoflora.predictor import ScoreMatrix

settings.register_profile(
    "geoflora",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("geoflora")

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def make_dataset(rows) -> Dataset:
    """Dataset from (survey_id, lat, lon, species-iterable) tuples."""
    rows = sorted(rows, key=lambda r: r[0])
    return Dataset(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.float64),
        np.array([r[2] for r in rows], dtype=np.float64),
        [frozenset(r[3]) for r in rows],
    )


def row_sets(sets) -> RowSets:
    """RowSets with one row per species iterable, items in iteration order."""
    sets = [list(s) for s in sets]
    return RowSets(np.cumsum([0] + [len(s) for s in sets]), np.array([x for s in sets for x in s], dtype=np.int64))


def score_matrix(num_species: int, rows) -> ScoreMatrix:
    """ScoreMatrix through its array constructor, from {survey_id: {species: score}} or (survey_id, {species: score}) pairs,
    put in the order the constructor checks: rows by survey id, each row's entries by species."""
    rows = sorted(rows.items() if isinstance(rows, dict) else rows, key=lambda r: r[0])
    entries = [e for _, row in rows for e in sorted(row.items())]
    return ScoreMatrix(
        num_species, [sid for sid, _ in rows], np.cumsum([0] + [len(row) for _, row in rows]), [sp for sp, _ in entries], [v for _, v in entries]
    )


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle km between two points, through the library's vectorised haversine."""
    return float(haversine_km_arrays(a.lat_rad, a.lon_rad, b.lat_rad, b.lon_rad))


def knn_row(index: GeoIndex, center: GeoPoint, k: int) -> list[tuple[int, float]]:
    """``knn_query_many`` for one point as the (survey_id, distance_km) list that ``oracles.brute_knn`` returns."""
    pos, dist = index.knn_query_many(center.lat_rad, center.lon_rad, k)
    return [(int(index.survey_ids[p]), float(d)) for p, d in zip(pos[0], dist[0])]


def radius_row(index: GeoIndex, center: GeoPoint, radius_km: float) -> list[tuple[int, float]]:
    """``radius_query_many`` for one point as ``oracles.brute_radius``'s list; the bulk form leaves the order open, so
    the members are sorted by (distance, survey id)."""
    _, pos, dist = index.radius_query_many(center.lat_rad, center.lon_rad, radius_km)
    return sorted(((int(index.survey_ids[p]), float(d)) for p, d in zip(pos, dist)), key=lambda e: (e[1], e[0]))


def random_points(rng: np.random.Generator, n: int, *, lat_span=(-89.0, 89.0), lon_span=(-180.0, 180.0), duplicate_fraction=0.1):
    """Random coordinates with a sprinkle of exact duplicates (distance ties)."""
    lats = rng.uniform(*lat_span, n)
    lons = rng.uniform(*lon_span, n)
    n_dup = int(n * duplicate_fraction)
    if n_dup and n > 1:
        src = rng.integers(0, n, n_dup)
        dst = rng.integers(0, n, n_dup)
        lats[dst] = lats[src]
        lons[dst] = lons[src]
    ids = rng.choice(np.arange(1, 10 * n + 1, dtype=np.int64), size=n, replace=False)
    return np.sort(ids), lats, lons


def random_surveys(rng: np.random.Generator, n: int, num_species: int, *, empty_fraction=0.2) -> Dataset:
    """Surveys in a small box with duplicated coordinates (distance ties); some hold no species."""
    ids, lats, lons = random_points(rng, n, lat_span=(40.0, 42.0), lon_span=(0.0, 3.0), duplicate_fraction=0.3)
    species = [
        frozenset() if rng.random() < empty_fraction else frozenset(rng.choice(num_species, int(rng.integers(1, 5)), replace=False).tolist())
        for _ in range(n)
    ]
    return Dataset(ids, lats, lons, species)


def query_coordinates(rng: np.random.Generator, reference: Dataset, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m query points, half of them on reference coordinates, where neighbours tie."""
    on = rng.integers(0, len(reference), m // 2) if len(reference) else np.empty(0, dtype=np.int64)
    lats = np.concatenate((reference.lats[on], rng.uniform(40.0, 42.0, m - on.size)))
    lons = np.concatenate((reference.lons[on], rng.uniform(0.0, 3.0, m - on.size)))
    return lats, lons


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
