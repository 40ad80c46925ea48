import numpy as np
import pytest

from conftest import make_dataset
from geoflora.pseudolabel import MergeConfig, MergeMode, merge_points, merged_to_dataset
from geoflora.stats import bbox_summary, occurrences_per_species_hist, species_per_survey_hist
from synth import clustered_surveys, uniform_surveys


class TestSpeciesPerSurvey:
    def test_two_surveys(self):
        ds = make_dataset([(1, 0.0, 0.0, {4}), (2, 1.0, 1.0, {1, 2, 3})])
        hist = species_per_survey_hist(ds)
        assert hist.histogram == {1: 1, 3: 1}
        assert hist.mode == 1  # tie resolved to the smallest bin
        assert hist.surveys == 2

    def test_matches_brute_recount(self, rng):
        ds = uniform_surveys(1000, 50, rng, mean_extra_species=1.5)
        hist = species_per_survey_hist(ds)
        assert sum(hist.histogram.values()) == len(ds)
        for size, count in hist.histogram.items():
            assert count == sum(1 for s in ds.species if len(s) == size)
        best = max(hist.histogram.values())
        assert hist.histogram[hist.mode] == best


class TestOccurrencesPerSpecies:
    def test_counts_and_summaries(self):
        ds = make_dataset(
            [(1, 0.0, 0.0, {7}), (2, 1.0, 1.0, {7, 8}), (3, 2.0, 2.0, {7}), (4, 3.0, 3.0, set())]
        )
        hist = occurrences_per_species_hist(ds, num_species=9)
        assert hist.per_species[7] == 3
        assert hist.per_species[8] == 1
        assert hist.present_species == 2
        assert hist.singleton_species == 1
        assert hist.fraction_under_50 == 1.0
        assert hist.histogram == {1: 1, 3: 1}

    def test_totals_consistent(self, rng):
        ds = uniform_surveys(500, 40, rng, mean_extra_species=1.0)
        hist = occurrences_per_species_hist(ds, num_species=40)
        total_pairs = sum(len(s) for s in ds.species)
        assert int(hist.per_species.sum()) == total_pairs
        assert sum(b * c for b, c in hist.histogram.items()) == total_pairs


class TestBbox:
    def test_single_point_degenerate(self):
        ds = make_dataset([(1, 10.5, -3.25, {0})])
        box = bbox_summary(ds)
        assert box.lat_min == box.lat_max == 10.5
        assert box.lon_min == box.lon_max == -3.25
        assert all(v == 10.5 for v in box.lat_quantiles.values())

    def test_two_points_span(self):
        ds = make_dataset([(1, -5.0, 2.0, {0}), (2, 8.0, -7.0, {0})])
        box = bbox_summary(ds)
        assert (box.lat_min, box.lat_max) == (-5.0, 8.0)
        assert (box.lon_min, box.lon_max) == (-7.0, 2.0)

    def test_matches_scan(self, rng):
        ds = uniform_surveys(1000, 10, rng)
        box = bbox_summary(ds)
        assert box.lat_min == ds.lats.min() and box.lat_max == ds.lats.max()
        assert box.lon_min == ds.lons.min() and box.lon_max == ds.lons.max()
        assert box.lat_quantiles[0.5] == np.quantile(ds.lats, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bbox_summary(make_dataset([]))


def test_merge_never_lowers_mean_species_per_survey(rng):
    ds = clustered_surveys(2000, 60, rng, clusters=25, sigma_km=0.3)
    merged = merged_to_dataset(merge_points(ds, MergeConfig(mode=MergeMode.STRICT)))
    mean_in = np.mean([len(s) for s in ds.species])
    mean_out = np.mean([len(s) for s in merged.species])
    assert mean_out >= mean_in
