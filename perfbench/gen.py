"""Seeded, vectorised input generator for the benchmark workloads.

Every array is drawn from numpy generators seeded by the workload seed, so
one seed fixes every byte the benchmark writes. Species are spatially
correlated: the map is cut into 0.5-degree cells, each cell owns a pool of
the species whose home sites lie nearest to it, and a survey draws its
species from its cell's pool with Zipf-like weights (Gumbel top-k, so no
per-survey Python loop). Nearby surveys therefore share species, which is
the prior the neighbour-frequency predictor and the neighbour votes rely on,
and which keeps the pipeline's F1 well above zero.

Species are held as dense indices [0, S); files carry raw ids
``RAW_OFFSET + RAW_STEP * dense`` so a mix-up of the two id spaces shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BBOX = (36.0, 60.0, -10.0, 30.0)  # lat_min, lat_max, lon_min, lon_max
KM_PER_DEG = 111.195
CELL_DEG = 0.5
POOL_SIZE = 60  # species per cell pool
RAW_OFFSET, RAW_STEP = 1000, 7

# Ids of the three survey files live in disjoint ranges.
PA_ID0, PO_ID0, TEST_ID0 = 1, 1_000_001, 5_000_001


@dataclass(frozen=True)
class Surveys:
    """Surveys in CSR form: ``species[indptr[i]:indptr[i + 1]]`` are survey
    i's dense species indices, ascending. Ids are ascending."""

    ids: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    indptr: np.ndarray
    species: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)

    def species_sets(self) -> list[frozenset[int]]:
        flat = self.species.tolist()
        bounds = self.indptr.tolist()
        return [frozenset(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def raw_sets(self) -> dict[int, frozenset[int]]:
        """Survey id -> raw species ids, as a submission or truth file holds them."""
        raw = raw_species(self.species).tolist()
        bounds = self.indptr.tolist()
        return {sid: frozenset(raw[a:b]) for sid, a, b in zip(self.ids.tolist(), bounds[:-1], bounds[1:])}


@dataclass(frozen=True)
class PipelineSizes:
    pa: int = 20_000
    po: int = 120_000
    test: int = 20_000
    species: int = 5000
    pa_regions: int = 8
    ood_regions: int = 4
    po_knot_size: int = 24


@dataclass(frozen=True)
class TuneSizes:
    pa: int = 20_000
    test: int = 4_000
    species: int = 5000
    pa_regions: int = 8


@dataclass(frozen=True)
class IndexSizes:
    surveys: int = 1_000_000
    species: int = 5000


def raw_species(dense) -> np.ndarray:
    return RAW_OFFSET + RAW_STEP * np.asarray(dense, dtype=np.int64)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent stream per dataset, so resizing one leaves the others alone."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


class SpeciesMap:
    """Per-cell species pools; neighbouring cells' pools overlap heavily."""

    def __init__(self, rng: np.random.Generator, num_species: int):
        lat_min, lat_max, lon_min, lon_max = BBOX
        self.pool_size = min(POOL_SIZE, num_species)
        home_lat = rng.uniform(lat_min, lat_max, num_species)
        home_lon = rng.uniform(lon_min, lon_max, num_species)
        self.n_lat = math.ceil((lat_max - lat_min) / CELL_DEG)
        self.n_lon = math.ceil((lon_max - lon_min) / CELL_DEG)
        c_lat = lat_min + CELL_DEG * (np.arange(self.n_lat) + 0.5)
        c_lon = lon_min + CELL_DEG * (np.arange(self.n_lon) + 0.5)
        cell_lat = np.repeat(c_lat, self.n_lon)
        cell_lon = np.tile(c_lon, self.n_lat)
        p = self.pool_size
        pools = np.empty((cell_lat.size, p), dtype=np.int64)
        for a in range(0, cell_lat.size, 512):
            lat = cell_lat[a : a + 512, None]
            d2 = (home_lat[None, :] - lat) ** 2 + ((home_lon[None, :] - cell_lon[a : a + 512, None]) * np.cos(np.radians(lat))) ** 2
            near = np.argpartition(d2, p - 1, axis=1)[:, :p]
            order = np.argsort(np.take_along_axis(d2, near, axis=1), axis=1, kind="stable")
            pools[a : a + 512] = np.take_along_axis(near, order, axis=1)
        self.pools = pools
        self.log_weights = -np.log(np.arange(p) + 2.0)

    def cells(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        lat_min, _, lon_min, _ = BBOX
        i = np.clip(((lats - lat_min) / CELL_DEG).astype(np.int64), 0, self.n_lat - 1)
        j = np.clip(((lons - lon_min) / CELL_DEG).astype(np.int64), 0, self.n_lon - 1)
        return i * self.n_lon + j

    def draw(self, rng: np.random.Generator, lats: np.ndarray, lons: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sizes[i]`` distinct species per survey from its cell's pool, CSR."""
        n, p = lats.size, self.pool_size
        sizes = np.clip(sizes, 1, p)
        keys = self.log_weights[None, :] + rng.gumbel(size=(n, p))
        ranked = np.argsort(-keys, axis=1, kind="stable")
        take = np.arange(p)[None, :] < sizes[:, None]
        chosen = np.where(take, self.pools[self.cells(lats, lons)[:, None], ranked], np.iinfo(np.int64).max)
        chosen.sort(axis=1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return indptr, chosen[take]


def _scatter(rng: np.random.Generator, c_lat: np.ndarray, c_lon: np.ndarray, n: int, sigma_km: float):
    """n points around randomly chosen centres, Gaussian with ``sigma_km``, clipped to the box."""
    lat_min, lat_max, lon_min, lon_max = BBOX
    which = rng.integers(0, c_lat.size, n)
    lat0 = c_lat[which]
    lats = lat0 + rng.normal(0.0, sigma_km, n) / KM_PER_DEG
    lons = c_lon[which] + rng.normal(0.0, sigma_km, n) / (KM_PER_DEG * np.cos(np.radians(lat0)))
    return np.clip(lats, lat_min, lat_max), np.clip(lons, lon_min, lon_max)


def _as_written(x: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Coordinates as the files carry them (7 decimals) and the exact floats they parse to."""
    text = [f"{v:.7f}" for v in x.tolist()]
    return text, np.fromiter(map(float, text), dtype=np.float64, count=len(text))


def _surveys(rng, species_map: SpeciesMap, id0: int, lats, lons, sizes) -> tuple[Surveys, list[str], list[str]]:
    lat_txt, lats = _as_written(lats)
    lon_txt, lons = _as_written(lons)
    indptr, species = species_map.draw(rng, lats, lons, sizes)
    ids = np.arange(id0, id0 + lats.size, dtype=np.int64)
    return Surveys(ids, lats, lons, indptr, species), lat_txt, lon_txt


def _regions(rng: np.random.Generator, k: int, lon_lo: float, lon_hi: float) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(42.0, 56.0, k), rng.uniform(lon_lo, lon_hi, k)


@dataclass(frozen=True)
class Written:
    surveys: Surveys
    path: Path


def _write_wide(path: Path, s: Surveys, lat_txt, lon_txt, with_species: bool = True) -> None:
    raw = raw_species(s.species).astype(str).tolist() if with_species else []
    bounds = s.indptr.tolist()
    ids = s.ids.tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,lat,lon,speciesIds\n")
        if with_species:
            f.writelines(
                f"{ids[i]},{lat_txt[i]},{lon_txt[i]},{' '.join(raw[bounds[i]:bounds[i + 1]])}\n" for i in range(len(ids))
            )
        else:
            f.writelines(f"{ids[i]},{lat_txt[i]},{lon_txt[i]},\n" for i in range(len(ids)))


def _write_long(path: Path, s: Surveys, lat_txt, lon_txt) -> None:
    counts = np.diff(s.indptr)
    row = np.repeat(np.arange(len(s)), counts).tolist()
    raw = raw_species(s.species).tolist()
    ids = s.ids.tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("surveyId,lat,lon,speciesId\n")
        f.writelines(f"{ids[r]},{lat_txt[r]},{lon_txt[r]},{sp}\n" for r, sp in zip(row, raw))


@dataclass(frozen=True)
class PipelineInputs:
    pa: Written
    po: Written
    test: Written  # surveys carry the truth; the test file itself has none
    truth: Written


def pipeline_inputs(seed: int, outdir: Path, sizes: PipelineSizes = PipelineSizes()) -> PipelineInputs:
    """PA (wide), PO (long, tight 1 km knots) and test (wide) files plus the test truth.

    Half the test surveys sit in the PA regions, half in eastern regions with
    no PA survey, where only PO knots give the out-of-distribution expert
    training data.
    """
    species_map = SpeciesMap(_rng(seed, 0), sizes.species)
    rng = _rng(seed, 1)
    pa_lat, pa_lon = _regions(rng, sizes.pa_regions, -6.0, 10.0)
    ood_lat, ood_lon = _regions(rng, sizes.ood_regions, 18.0, 28.0)

    rng = _rng(seed, 2)
    lats, lons = _scatter(rng, pa_lat, pa_lon, sizes.pa, sigma_km=20.0)
    pa = _surveys(rng, species_map, PA_ID0, lats, lons, 1 + rng.poisson(9.0, sizes.pa))

    rng = _rng(seed, 3)
    n_knots = max(1, sizes.po // sizes.po_knot_size)
    k_lat, k_lon = _scatter(rng, np.concatenate([pa_lat, ood_lat]), np.concatenate([pa_lon, ood_lon]), n_knots, sigma_km=25.0)
    lats, lons = _scatter(rng, k_lat, k_lon, sizes.po, sigma_km=1.0)
    po = _surveys(rng, species_map, PO_ID0, lats, lons, 1 + rng.poisson(0.15, sizes.po))

    rng = _rng(seed, 4)
    n_in = sizes.test // 2
    in_lat, in_lon = _scatter(rng, pa_lat, pa_lon, n_in, sigma_km=15.0)
    out_lat, out_lon = _scatter(rng, ood_lat, ood_lon, sizes.test - n_in, sigma_km=20.0)
    test = _surveys(rng, species_map, TEST_ID0, np.concatenate([in_lat, out_lat]), np.concatenate([in_lon, out_lon]), 1 + rng.poisson(9.0, sizes.test))

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / f"{name}.csv" for name in ("pa", "po", "test", "truth")}
    _write_wide(paths["pa"], *pa)
    _write_long(paths["po"], *po)
    _write_wide(paths["test"], *test, with_species=False)
    _write_wide(paths["truth"], *test)
    return PipelineInputs(
        Written(pa[0], paths["pa"]), Written(po[0], paths["po"]), Written(test[0], paths["test"]), Written(test[0], paths["truth"])
    )


@dataclass(frozen=True)
class TuneInputs:
    pa: Written
    test: Written
    truth: Written


def tune_inputs(seed: int, outdir: Path, sizes: TuneSizes = TuneSizes()) -> TuneInputs:
    """PA reference (wide), test coordinates (wide, no species) and their truth.

    Truth species absent from the reference are dropped: ``postprocess``
    rejects a tuning truth naming species its reference does not know.
    """
    species_map = SpeciesMap(_rng(seed, 10), sizes.species)
    rng = _rng(seed, 11)
    r_lat, r_lon = _regions(rng, sizes.pa_regions, -6.0, 10.0)
    lats, lons = _scatter(rng, r_lat, r_lon, sizes.pa, sigma_km=20.0)
    pa = _surveys(rng, species_map, PA_ID0, lats, lons, 1 + rng.poisson(9.0, sizes.pa))

    rng = _rng(seed, 12)
    lats, lons = _scatter(rng, r_lat, r_lon, sizes.test, sigma_km=15.0)
    test, lat_txt, lon_txt = _surveys(rng, species_map, TEST_ID0, lats, lons, 1 + rng.poisson(9.0, sizes.test))
    known = np.isin(test.species, pa[0].species)
    row = np.repeat(np.arange(len(test)), np.diff(test.indptr))
    indptr = np.zeros(len(test) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[known], minlength=len(test)), out=indptr[1:])
    test = Surveys(test.ids, test.lats, test.lons, indptr, test.species[known])

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / f"{name}.csv" for name in ("pa", "test", "truth")}
    _write_wide(paths["pa"], *pa)
    _write_wide(paths["test"], test, lat_txt, lon_txt, with_species=False)
    _write_wide(paths["truth"], test, lat_txt, lon_txt)
    return TuneInputs(Written(pa[0], paths["pa"]), Written(test, paths["test"]), Written(test, paths["truth"]))


def uniform_inputs(seed: int, sizes: IndexSizes = IndexSizes()) -> Surveys:
    """The C10 shape in memory: uniform surveys with 1 + Poisson(0.3) species
    each, 10 % of them on exact duplicate coordinates so distance ties occur."""
    rng = _rng(seed, 20)
    n = sizes.surveys
    lat_min, lat_max, lon_min, lon_max = BBOX
    lats = rng.uniform(lat_min, lat_max, n)
    lons = rng.uniform(lon_min, lon_max, n)
    n_dup = n // 10
    src = rng.integers(0, n, n_dup)
    dst = rng.integers(0, n, n_dup)
    lats[dst] = lats[src]
    lons[dst] = lons[src]
    counts = 1 + rng.poisson(0.3, n)
    row = np.repeat(np.arange(n), counts)
    species = rng.integers(0, sizes.species, row.size)
    order = np.lexsort((species, row))
    row, species = row[order], species[order]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (species[1:] != species[:-1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=n), out=indptr[1:])
    return Surveys(np.arange(1, n + 1, dtype=np.int64), lats, lons, indptr, species[keep])
