from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from geoflora.ingest import Dataset

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
