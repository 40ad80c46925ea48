"""Seeded synthetic surveys for the tests and ``scripts/make_fixture.py``; both pin the streams, so keep every draw."""

from __future__ import annotations

import numpy as np

from geoflora.ingest import Dataset

EUROPE_BBOX = (36.0, 60.0, -10.0, 30.0)  # lat_min, lat_max, lon_min, lon_max
KM_PER_DEG_LAT = 111.195  # pi * 6371 / 180, used only to spread synthetic clusters
PLACES = ("mid", "pole", "antimeridian")  # where ``colocated_surveys`` puts its sites


def scatter(rng: np.random.Generator, center_lats, center_lons, n: int, sigma_km: float) -> tuple[np.ndarray, np.ndarray]:
    """n points around centres drawn uniformly from the given ones, offset N(0, sigma_km) km north and east, unclipped."""
    which = rng.integers(0, len(center_lats), n)
    lat0 = np.asarray(center_lats, dtype=np.float64)[which]
    lats = lat0 + rng.normal(0.0, sigma_km, n) / KM_PER_DEG_LAT
    lons = np.asarray(center_lons, dtype=np.float64)[which] + rng.normal(0.0, sigma_km, n) / (KM_PER_DEG_LAT * np.cos(np.radians(lat0)))
    return lats, lons


def _surveys(rng: np.random.Generator, lats, lons, num_species: int, mean_extra: float, id_start: int) -> Dataset:
    """Surveys with ids from ``id_start`` at the given coordinates, each holding 1 + Poisson(mean_extra) species."""
    n = len(lats)
    sizes = 1 + rng.poisson(mean_extra, n)
    species = [frozenset(rng.choice(num_species, size=min(s, num_species), replace=False).tolist()) for s in sizes]
    return Dataset(np.arange(id_start, id_start + n, dtype=np.int64), lats, lons, species)


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
    lats, lons = rng.uniform(lat_min, lat_max, n), rng.uniform(lon_min, lon_max, n)
    return _surveys(rng, lats, lons, num_species, mean_extra_species, id_start)


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

    Cluster centres are uniform in the box; members ``scatter`` around them with
    the given standard deviation in km. Coordinates are clipped to the box.
    """
    lat_min, lat_max, lon_min, lon_max = bbox
    centers_lat, centers_lon = rng.uniform(lat_min, lat_max, clusters), rng.uniform(lon_min, lon_max, clusters)
    lats, lons = scatter(rng, centers_lat, centers_lon, n, sigma_km)
    return _surveys(rng, np.clip(lats, lat_min, lat_max), np.clip(lons, lon_min, lon_max), num_species, mean_extra_species, id_start)


def colocated_surveys(groups: int, distinct: int, rng: np.random.Generator, *, place: str) -> Dataset:
    """Surveys of species 0-11 that share exact coordinates, as presence-only surveys of one satellite patch do.

    ``groups`` sites hold 1 to 300 surveys each (log-uniform sizes), and ``distinct`` more sites one
    survey each; rows come in random order, so a site's surveys are not a run of ids. Every site lies within 0.01
    degrees of one ``place``: ``"mid"`` (45 N, 5 E), ``"pole"`` (either pole, any longitude) or ``"antimeridian"``
    (45 N, either side of +-180 degrees). At the last two a quarter of the sites lie exactly on the pole or on
    +-180 degrees.
    """
    sizes = np.concatenate((np.rint(300.0 ** rng.random(groups)).astype(np.int64), np.ones(distinct, dtype=np.int64)))
    sites = sizes.size
    near = rng.uniform(0.0, 0.01, sites) * (rng.random(sites) >= 0.25)  # degrees from the pole or from +-180
    side = rng.choice([-1.0, 1.0], sites)
    across = rng.uniform(-0.01, 0.01, sites)
    if place == "pole":
        lats, lons = side * (90.0 - near), rng.uniform(-180.0, 180.0, sites)
    elif place == "antimeridian":
        lats, lons = 45.0 + across, side * (180.0 - near)
    else:
        lats, lons = 45.0 + across, 5.0 + side * near
    rows = rng.permutation(np.repeat(np.arange(sites), sizes))
    return _surveys(rng, lats[rows], lons[rows], 12, 0.3, 1)
