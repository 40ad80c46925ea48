"""Patch-coverage label aggregation over presence-only surveys.

Every survey anchors a 640 m x 640 m ground patch (the footprint of the
satellite tile paired with it). Aggregation walks surveys in descending
species-count order and, for each eligible anchor, unions the species of all
surveys whose coordinates fall inside the anchor's patch box. Because each
constituent lies inside the anchor's patch, the union introduces no positive
label noise.

The patch box is evaluated in locally scaled degree space: latitude
differences at ``LAT_KM_PER_DEG`` (111.4 km/degree), longitude differences
at ``LON_KM_PER_DEG_AT_EQUATOR`` (111.32 km/degree) scaled by cos(anchor
latitude), both compared inclusively against the half-side. Longitude
differences wrap at the antimeridian.

Anchor eligibility is mode dependent:
  loose     every survey anchors a merged record;
  balanced  a survey already absorbed by an earlier anchor is skipped unless
            it contains a rare species (occurrence count below the
            configured threshold), which keeps rare species represented;
  strict    absorbed surveys never anchor again.

Consumption only affects anchor eligibility; constituents are always drawn
from the full dataset, so every survey's species reach at least one output
record under every mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geo import EARTH_RADIUS_KM, GeoIndex
from .ingest import Dataset, RangeError, SurveyRecord

DEFAULT_BOX_HALF_KM = 0.32
# Degree-to-km scales of the patch box.
LAT_KM_PER_DEG = 111.4
LON_KM_PER_DEG_AT_EQUATOR = 111.32


class MergeMode(enum.Enum):
    LOOSE = "loose"
    BALANCED = "balanced"
    STRICT = "strict"


@dataclass(frozen=True)
class MergeConfig:
    """Aggregation parameters."""

    mode: MergeMode = MergeMode.BALANCED
    box_half_km: float = DEFAULT_BOX_HALF_KM
    rare_count_threshold: int = 100

    def __post_init__(self) -> None:
        if self.box_half_km <= 0:
            raise RangeError("box_half_km", "positive", self.box_half_km)
        if self.rare_count_threshold < 1:
            raise RangeError("rare_count_threshold", ">= 1", self.rare_count_threshold)


@dataclass(frozen=True)
class MergedRecord:
    """One aggregated survey: the anchor's identity plus the unioned species."""

    survey_id: int
    lat: float
    lon: float
    species: frozenset[int]
    source_ids: tuple[int, ...]


@dataclass(frozen=True)
class MergeReport:
    surveys_in: int
    surveys_out: int
    consumed: int
    species_in: int
    species_out: int
    mean_species_in: float
    mean_species_out: float


def _wrapped_dlon_deg(lon_a, lon_b) -> np.ndarray:
    d = np.abs(np.asarray(lon_a, dtype=np.float64) - np.asarray(lon_b, dtype=np.float64))
    return np.minimum(d, 360.0 - d)


def _covering_radius_km(cfg: MergeConfig, lats_deg: np.ndarray) -> np.ndarray:
    """Haversine radius guaranteed to contain the whole patch box per latitude.

    Bounds the great-circle distance to any point satisfying the box
    predicate: latitude offsets up to a1, longitude offsets up to a2(lat),
    with the partner's cosine bounded by the nearest-to-equator latitude the
    box can reach. Both offsets are capped at pi, where the haversine terms
    stop growing.
    """
    a1 = min(math.radians(cfg.box_half_km / LAT_KM_PER_DEG), math.pi)
    phi = np.radians(np.abs(np.asarray(lats_deg, dtype=np.float64)))
    cosphi = np.cos(phi)
    a2 = np.radians(cfg.box_half_km / (LON_KM_PER_DEG_AT_EQUATOR * np.maximum(cosphi, 1e-300)))
    a2 = np.minimum(a2, math.pi)
    cos_far = np.cos(np.maximum(phi - a1, 0.0))
    h = np.sin(a1 / 2.0) ** 2 + cosphi * cos_far * np.sin(a2 / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _patch_members(
    dataset: Dataset, cfg: MergeConfig, index: GeoIndex, lats: np.ndarray, lons: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Box-filtered dataset positions around every query point (degrees), CSR (offsets, flat)."""
    n = len(lats)
    offsets, flat = index.radius_candidates_many(np.radians(lats), np.radians(lons), _covering_radius_km(cfg, lats))
    if flat.size == 0:
        return offsets, flat
    src = np.repeat(np.arange(n), np.diff(offsets))
    dlat_km = np.abs(dataset.lats[flat] - lats[src]) * LAT_KM_PER_DEG
    dlon_km = _wrapped_dlon_deg(dataset.lons[flat], lons[src]) * (
        LON_KM_PER_DEG_AT_EQUATOR * np.cos(np.radians(lats[src]))
    )
    keep = (dlat_km <= cfg.box_half_km) & (dlon_km <= cfg.box_half_km)
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=new_offsets[1:])
    return new_offsets, flat[keep]


def neighbors_in_patch(
    dataset: Dataset,
    primary: SurveyRecord,
    cfg: MergeConfig,
    *,
    index: GeoIndex | None = None,
) -> list[SurveyRecord]:
    """All surveys inside the primary's patch box, sorted by survey id.

    The primary itself is always a member. ``index`` may carry a prebuilt
    spatial index over ``dataset`` to amortise repeated calls.
    """
    if index is None:
        index = GeoIndex.from_dataset(dataset)
    _, members = _patch_members(dataset, cfg, index, np.array([primary.lat]), np.array([primary.lon]))
    return [dataset.record(p) for p in np.sort(members)]


def merge_points(dataset: Dataset, cfg: MergeConfig) -> list[MergedRecord]:
    """Aggregate a presence-only dataset into merged records, one per anchor.

    Anchors are processed in descending species-count order, ties broken by
    ascending survey id; output order is processing order. Rarity for the
    balanced mode is judged against the number of surveys of ``dataset``
    containing each species.
    """
    n = len(dataset)
    if n == 0:
        return []
    index = GeoIndex.from_dataset(dataset)
    offsets, flat = _patch_members(dataset, cfg, index, dataset.lats, dataset.lons)

    sp_sizes = np.fromiter((len(s) for s in dataset.species), dtype=np.int64, count=n)
    order = np.lexsort((dataset.ids, -sp_sizes))

    mode = cfg.mode
    if mode is MergeMode.BALANCED:
        counts = dataset.species_counts()
        thr = cfg.rare_count_threshold
        has_rare = np.fromiter(
            (any(counts[d] < thr for d in s) for s in dataset.species), dtype=bool, count=n
        )

    consumed = np.zeros(n, dtype=bool)
    ids = dataset.ids
    lats = dataset.lats
    lons = dataset.lons
    species = dataset.species
    out: list[MergedRecord] = []
    for i in order:
        if consumed[i]:
            if mode is MergeMode.STRICT:
                continue
            if mode is MergeMode.BALANCED and not has_rare[i]:
                continue
        members = flat[offsets[i] : offsets[i + 1]]
        union: set[int] = set()
        for j in members:
            union.update(species[j])
        if mode is not MergeMode.LOOSE:
            consumed[members] = True
        out.append(
            MergedRecord(
                int(ids[i]),
                float(lats[i]),
                float(lons[i]),
                frozenset(union),
                tuple(sorted(int(s) for s in ids[members])),
            )
        )
    return out


def merged_to_dataset(records: list[MergedRecord]) -> Dataset:
    """Repackage merged records as a dataset (sorted by survey id)."""
    recs = sorted(records, key=lambda r: r.survey_id)
    return Dataset(
        np.array([r.survey_id for r in recs], dtype=np.int64),
        np.array([r.lat for r in recs], dtype=np.float64),
        np.array([r.lon for r in recs], dtype=np.float64),
        [r.species for r in recs],
    )


def merge_stats(dataset: Dataset, merged: list[MergedRecord]) -> MergeReport:
    """Before/after summary of one aggregation run."""
    species_in = set().union(*dataset.species) if len(dataset) else set()
    species_out = set().union(*(r.species for r in merged)) if merged else set()
    mean_in = float(np.mean([len(s) for s in dataset.species])) if len(dataset) else 0.0
    mean_out = float(np.mean([len(r.species) for r in merged])) if merged else 0.0
    return MergeReport(
        surveys_in=len(dataset),
        surveys_out=len(merged),
        consumed=len(dataset) - len(merged),
        species_in=len(species_in),
        species_out=len(species_out),
        mean_species_in=mean_in,
        mean_species_out=mean_out,
    )
