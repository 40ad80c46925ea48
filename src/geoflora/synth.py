"""Seeded synthetic survey generators for fixtures, benchmarks and tests."""

from __future__ import annotations

import numpy as np

from .ingest import Dataset, SpeciesCatalog

EUROPE_BBOX = (36.0, 60.0, -10.0, 30.0)  # lat_min, lat_max, lon_min, lon_max
KM_PER_DEG_LAT = 111.195  # pi * 6371 / 180, used only to spread synthetic clusters


def _species_sets(rng: np.random.Generator, n: int, num_species: int, mean_extra: float) -> list[frozenset[int]]:
    sizes = 1 + rng.poisson(mean_extra, n)
    return [frozenset(rng.choice(num_species, size=min(s, num_species), replace=False).tolist()) for s in sizes]


def uniform_surveys(
    n: int,
    num_species: int,
    rng: np.random.Generator,
    *,
    bbox: tuple[float, float, float, float] = EUROPE_BBOX,
    mean_extra_species: float = 0.3,
    id_start: int = 1,
) -> Dataset:
    """Surveys spread uniformly over a lat/lon box."""
    lat_min, lat_max, lon_min, lon_max = bbox
    return Dataset(
        np.arange(id_start, id_start + n, dtype=np.int64),
        rng.uniform(lat_min, lat_max, n),
        rng.uniform(lon_min, lon_max, n),
        _species_sets(rng, n, num_species, mean_extra_species),
    )


def clustered_surveys(
    n: int,
    num_species: int,
    rng: np.random.Generator,
    *,
    clusters: int = 40,
    sigma_km: float = 1.0,
    bbox: tuple[float, float, float, float] = EUROPE_BBOX,
    mean_extra_species: float = 0.1,
    id_start: int = 1,
) -> Dataset:
    """Gaussian clusters of surveys, mostly one species each.

    Cluster centres are uniform in the box; members scatter around them with
    the given standard deviation in km. Coordinates are clipped to the box.
    """
    lat_min, lat_max, lon_min, lon_max = bbox
    centers_lat = rng.uniform(lat_min, lat_max, clusters)
    centers_lon = rng.uniform(lon_min, lon_max, clusters)
    member_of = rng.integers(0, clusters, n)
    base_lat = centers_lat[member_of]
    dlat = rng.normal(0.0, sigma_km, n) / KM_PER_DEG_LAT
    dlon = rng.normal(0.0, sigma_km, n) / (KM_PER_DEG_LAT * np.cos(np.radians(base_lat)))
    lats = np.clip(base_lat + dlat, lat_min, lat_max)
    lons = np.clip(centers_lon[member_of] + dlon, lon_min, lon_max)
    return Dataset(
        np.arange(id_start, id_start + n, dtype=np.int64),
        lats,
        lons,
        _species_sets(rng, n, num_species, mean_extra_species),
    )


def identity_catalog(dataset: Dataset, num_species: int | None = None, *, raw_offset: int = 0, raw_step: int = 1) -> SpeciesCatalog:
    """A catalog whose raw ids are an affine function of the dense indices.

    It covers every species index of the dataset, and at least ``num_species``.
    A step > 1 or a nonzero offset keeps raw and dense id spaces visibly
    distinct in files.
    """
    if raw_step < 1:
        raise ValueError("raw_step must be >= 1")
    size = max(num_species or 0, int(dataset.indices.max(initial=-1)) + 1)
    return SpeciesCatalog(raw_offset + raw_step * np.arange(size, dtype=np.int64))
