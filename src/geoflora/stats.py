"""Distribution summaries over survey datasets.

Everything here is a pure recount; histograms are plain mappings so they can
be dumped to two-column CSV without further processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Dataset

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SpeciesPerSurveyHist:
    histogram: dict[int, int]  # species count per survey -> number of surveys
    mode: int  # most frequent species count; ties go to the smallest bin
    surveys: int


@dataclass(frozen=True)
class OccurrencesPerSpeciesHist:
    histogram: dict[int, int]  # occurrence count -> number of species with it
    per_species: np.ndarray  # dense index -> number of surveys containing it
    present_species: int
    fraction_under_50: float  # among species occurring at least once
    singleton_species: int


@dataclass(frozen=True)
class BboxSummary:
    surveys: int
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    lat_quantiles: dict[float, float]
    lon_quantiles: dict[float, float]


def _histogram(values: np.ndarray) -> dict[int, int]:
    """Value -> number of times it occurs, for the non-negative integers ``values``, ascending by value."""
    counts = np.bincount(values)
    bins = np.flatnonzero(counts)
    return dict(zip(bins.tolist(), counts[bins].tolist()))


def species_per_survey_hist(dataset: Dataset) -> SpeciesPerSurveyHist:
    """Distribution of the number of species recorded per survey."""
    histogram = _histogram(np.diff(dataset.indptr))
    mode = max(histogram, key=histogram.get, default=0)  # the first, smallest, of tied bins
    return SpeciesPerSurveyHist(histogram, mode, len(dataset))


def occurrences_per_species_hist(dataset: Dataset, num_species: int | None = None) -> OccurrencesPerSpeciesHist:
    """Distribution of the number of surveys each species appears in."""
    per_species = dataset.species_counts(num_species)
    present = per_species[per_species > 0]
    n_present = int(present.size)
    under_50 = int(np.count_nonzero(present < 50))
    return OccurrencesPerSpeciesHist(
        histogram=_histogram(present),
        per_species=per_species,
        present_species=n_present,
        fraction_under_50=under_50 / n_present if n_present else 0.0,
        singleton_species=int(np.count_nonzero(present == 1)),
    )


def bbox_summary(dataset: Dataset) -> BboxSummary:
    """Geographic extent of a dataset: min/max and a fixed quantile ladder."""
    if len(dataset) == 0:
        raise ValueError("bbox_summary needs at least one survey")
    lat_q = np.quantile(dataset.lats, _QUANTILES)
    lon_q = np.quantile(dataset.lons, _QUANTILES)
    return BboxSummary(
        surveys=len(dataset),
        lat_min=float(dataset.lats.min()),
        lat_max=float(dataset.lats.max()),
        lon_min=float(dataset.lons.min()),
        lon_max=float(dataset.lons.max()),
        lat_quantiles={q: float(v) for q, v in zip(_QUANTILES, lat_q)},
        lon_quantiles={q: float(v) for q, v in zip(_QUANTILES, lon_q)},
    )
